//! The lattice distribution type and its operators.

use crate::kernel::{self, KernelBackend};
use crate::scratch::DistScratch;
use std::fmt;

/// Mass below this threshold may be trimmed from a distribution's tails
/// after an operation. Trimming renormalizes the remaining mass by a
/// factor of `1 ± ~1e-12`, which perturbs percentile queries by well under
/// `1e-9` ps — far below the `1e-6` safety slack the pruned selector
/// applies to its bound comparisons.
const TRIM_EPS: f64 = 1e-12;

/// Tolerance on the total mass accepted by [`Dist::new`] before exact
/// renormalization.
const NORMALIZATION_TOL: f64 = 1e-6;

/// An invalid construction of a [`Dist`].
#[derive(Debug, Clone, PartialEq)]
pub enum DistError {
    /// The lattice step was not finite and positive.
    BadStep(f64),
    /// The mass vector was empty.
    EmptyMass,
    /// A mass entry was negative, NaN, or infinite.
    BadMass {
        /// Index of the offending bin.
        bin: usize,
        /// The offending value.
        value: f64,
    },
    /// The total mass was not within tolerance of one.
    NotNormalized {
        /// The observed total mass.
        total: f64,
    },
    /// A point-mass location ([`Dist::point`]) was NaN or infinite.
    BadLocation(f64),
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            DistError::BadStep(dt) => {
                write!(f, "lattice step must be finite and positive, got {dt}")
            }
            DistError::EmptyMass => write!(f, "mass vector must be non-empty"),
            DistError::BadMass { bin, value } => {
                write!(
                    f,
                    "mass at bin {bin} must be finite and non-negative, got {value}"
                )
            }
            DistError::NotNormalized { total } => {
                write!(
                    f,
                    "total mass must be 1 (within {NORMALIZATION_TOL}), got {total}"
                )
            }
            DistError::BadLocation(t) => {
                write!(f, "point mass location must be finite, got {t}")
            }
        }
    }
}

impl std::error::Error for DistError {}

/// A probability distribution on a fixed-step lattice: probability mass
/// `mass[i]` at time `(offset + i) · dt`.
///
/// This is the discretized-PDF representation the paper's SSTA engine
/// propagates: arrival times and arc delays all live on one shared
/// lattice, so [`convolve`](Dist::convolve) (edge traversal) and
/// [`max_independent`](Dist::max_independent) (fan-in merge) stay exact
/// discrete operations, and the perturbation-bound theory (Theorems 1–4)
/// holds *exactly* on the whole-bin representation — see
/// [`lattice_shift_bound`](crate::lattice_shift_bound).
///
/// Invariants maintained by every constructor and operator:
///
/// * `dt` is finite and positive and shared by both operands of every
///   binary operation;
/// * total mass is 1 (renormalized exactly after each operation);
/// * the first and last bins carry non-zero mass (tails are trimmed, at
///   most `1e-12` of mass per side).
///
/// Continuous-valued queries ([`percentile`](Dist::percentile),
/// [`cdf_at`](Dist::cdf_at)) interpolate the CDF with each bin's mass
/// spread uniformly over `[t − dt/2, t + dt/2)`, so e.g. the median of a
/// symmetric distribution equals its mean.
#[derive(Debug, Clone, PartialEq)]
pub struct Dist {
    dt: f64,
    offset: i64,
    mass: Vec<f64>,
}

impl Dist {
    /// Creates a distribution from a mass vector starting at bin `offset`.
    ///
    /// The masses must be finite, non-negative, and sum to 1 within
    /// `1e-6`; the sum is then renormalized to exactly 1 and zero-mass
    /// tail bins are trimmed.
    ///
    /// # Errors
    ///
    /// Returns a [`DistError`] describing the violated invariant.
    pub fn new(dt: f64, offset: i64, mass: Vec<f64>) -> Result<Self, DistError> {
        if !(dt.is_finite() && dt > 0.0) {
            return Err(DistError::BadStep(dt));
        }
        if mass.is_empty() {
            return Err(DistError::EmptyMass);
        }
        if let Some((bin, &value)) = mass
            .iter()
            .enumerate()
            .find(|&(_, &m)| !(m.is_finite() && m >= 0.0))
        {
            return Err(DistError::BadMass { bin, value });
        }
        let total: f64 = mass.iter().sum();
        if (total - 1.0).abs() > NORMALIZATION_TOL {
            return Err(DistError::NotNormalized { total });
        }
        Ok(Self::from_raw(dt, offset, mass))
    }

    /// A (near-)point mass at time `t`.
    ///
    /// When `t` is not a lattice point, the mass is split between the two
    /// neighbouring bins so the mean is preserved exactly; the support is
    /// therefore at most two bins wide.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not finite and positive or `t` is not finite —
    /// use [`try_point`](Self::try_point) to validate untrusted inputs
    /// without panicking.
    pub fn point(dt: f64, t: f64) -> Self {
        match Self::try_point(dt, t) {
            Ok(d) => d,
            Err(err) => panic!("{err}"),
        }
    }

    /// [`point`](Self::point), returning a typed [`DistError`] instead of
    /// panicking.
    ///
    /// # Errors
    ///
    /// Returns [`DistError::BadStep`] for an invalid `dt` and
    /// [`DistError::BadLocation`] for a non-finite `t`.
    pub fn try_point(dt: f64, t: f64) -> Result<Self, DistError> {
        if !(dt.is_finite() && dt > 0.0) {
            return Err(DistError::BadStep(dt));
        }
        if !t.is_finite() {
            return Err(DistError::BadLocation(t));
        }
        let pos = t / dt;
        let k = pos.floor();
        let frac = pos - k;
        Ok(Self::from_raw(dt, k as i64, vec![1.0 - frac, frac]))
    }

    /// Internal constructor: trims zero/negligible tails and renormalizes.
    /// `mass` must be non-empty with finite non-negative entries summing
    /// to ≈ 1.
    pub(crate) fn from_raw(dt: f64, offset: i64, mass: Vec<f64>) -> Self {
        let mut mass = mass;
        let mut fold = TailFold::new(mass.len());
        for &m in &mass {
            fold.feed(m);
        }
        let lo = fold.finish(&mut mass);
        Self {
            dt,
            offset: offset + lo as i64,
            mass,
        }
    }

    /// A [`Clone`] whose mass buffer is drawn from `scratch` instead of
    /// the allocator.
    pub fn copy_into(&self, scratch: &mut DistScratch) -> Dist {
        let mut mass = scratch.take();
        mass.extend_from_slice(&self.mass);
        Self {
            dt: self.dt,
            offset: self.offset,
            mass,
        }
    }

    /// Consumes the distribution, releasing its mass buffer (used by
    /// [`DistScratch::recycle`](crate::DistScratch::recycle)).
    pub(crate) fn into_mass(self) -> Vec<f64> {
        self.mass
    }

    /// The lattice step (ps).
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Index of the first bin: the support starts at `offset · dt`.
    pub fn offset(&self) -> i64 {
        self.offset
    }

    /// The probability masses, first bin at [`offset`](Dist::offset).
    pub fn mass(&self) -> &[f64] {
        &self.mass
    }

    /// Number of lattice bins in the support.
    pub fn support_len(&self) -> usize {
        self.mass.len()
    }

    /// The first and last lattice points carrying mass, in time units.
    pub fn support(&self) -> (f64, f64) {
        (
            self.offset as f64 * self.dt,
            (self.offset + self.mass.len() as i64 - 1) as f64 * self.dt,
        )
    }

    /// The mean `Σ mᵢ tᵢ`.
    pub fn mean(&self) -> f64 {
        let bins: f64 = self
            .mass
            .iter()
            .enumerate()
            .map(|(i, &m)| m * (self.offset + i as i64) as f64)
            .sum();
        bins * self.dt
    }

    /// The variance, treating each bin as a point mass (two-pass,
    /// numerically centered).
    pub fn variance(&self) -> f64 {
        let mean = self.mean();
        self.mass
            .iter()
            .enumerate()
            .map(|(i, &m)| {
                let t = (self.offset + i as i64) as f64 * self.dt;
                m * (t - mean) * (t - mean)
            })
            .sum()
    }

    /// The standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// The interpolated CDF at time `x`: each bin's mass is spread
    /// uniformly over `[t − dt/2, t + dt/2)`.
    pub fn cdf_at(&self, x: f64) -> f64 {
        // Position in bin units, measured from the left edge of bin 0.
        let u = x / self.dt - self.offset as f64 + 0.5;
        if u <= 0.0 {
            return 0.0;
        }
        if u >= self.mass.len() as f64 {
            return 1.0;
        }
        let k = u.floor() as usize;
        let frac = u - k as f64;
        let below: f64 = self.mass[..k].iter().sum();
        below + frac * self.mass[k]
    }

    /// The `p`-quantile of the interpolated CDF — the paper's `T(A, p)`.
    ///
    /// Edge semantics, pinned down so no probability in the closed unit
    /// interval can misbehave:
    ///
    /// * `p = 0.0` returns the infimum of the interpolated support: the
    ///   left edge `(offset − ½)·dt` of the first bin carrying mass (the
    ///   scan below hits that bin with interpolation fraction 0);
    /// * `p = 1.0` returns the supremum of the interpolated support,
    ///   `(offset + len − ½)·dt`, up to float dust: either the scan
    ///   crosses `cum ≥ 1` inside the last bin (tails are trimmed, so it
    ///   always carries mass), or the cumulative stays a few ulp under 1
    ///   and the fallback after the loop returns exactly that edge;
    /// * NaN panics — a NaN probability fails the range check, it never
    ///   reaches the scan.
    ///
    /// # Panics
    ///
    /// Panics if `p` is NaN or outside `[0, 1]`.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&p),
            "probability must lie in [0, 1], got {p}"
        );
        let mut below = 0.0;
        for (i, &m) in self.mass.iter().enumerate() {
            let cum = below + m;
            // Strictly crossing bins only: zero-mass interior bins are
            // skipped, keeping the inverse well-defined on flat regions.
            if cum >= p && m > 0.0 {
                let frac = ((p - below) / m).clamp(0.0, 1.0);
                return ((self.offset + i as i64) as f64 - 0.5 + frac) * self.dt;
            }
            below = cum;
        }
        // Float dust can leave the final cumulative a few ulp under 1.
        let last = self.offset + self.mass.len() as i64 - 1;
        (last as f64 + 0.5) * self.dt
    }

    /// Draws one value distributed according to the interpolated CDF.
    ///
    /// The uniform draw lies in `[0, 1)`, entirely inside
    /// [`percentile`](Dist::percentile)'s closed domain, so no clamping is
    /// needed: `u = 0.0` maps to the support's left edge.
    pub fn sample<R: rand::RngCore>(&self, rng: &mut R) -> f64 {
        use rand::Rng;
        let u: f64 = rng.gen::<f64>();
        self.percentile(u)
    }

    fn assert_same_lattice(&self, other: &Dist) {
        assert!(
            self.dt == other.dt,
            "lattice steps must match: {} vs {}",
            self.dt,
            other.dt
        );
    }

    /// The sum of two independent lattice variables: discrete convolution
    /// of the mass vectors. Mass is conserved (renormalized exactly after
    /// tail trimming).
    ///
    /// # Panics
    ///
    /// Panics if the lattice steps differ.
    pub fn convolve(&self, other: &Dist) -> Dist {
        self.convolve_into(other, &mut DistScratch::new())
    }

    /// [`convolve`](Dist::convolve) writing into a buffer recycled from
    /// `scratch` — bit-identical results, no allocation when the pool has
    /// capacity.
    ///
    /// # Panics
    ///
    /// Panics if the lattice steps differ.
    pub fn convolve_into(&self, other: &Dist, scratch: &mut DistScratch) -> Dist {
        self.convolve_dense(other, KernelBackend::active(), scratch)
    }

    /// [`convolve`](Dist::convolve) on an explicitly forced dense SIMD
    /// backend — the test/bench surface behind the bit-identity
    /// contract (every backend produces the same bits as
    /// [`KernelBackend::Scalar`]).
    ///
    /// # Panics
    ///
    /// Panics if the lattice steps differ or the backend is unavailable
    /// on this CPU.
    pub fn convolve_dense(
        &self,
        other: &Dist,
        backend: KernelBackend,
        scratch: &mut DistScratch,
    ) -> Dist {
        self.assert_same_lattice(other);
        let mut out = scratch.take();
        let lo = kernel::convolve_normalized(backend, &self.mass, &other.mass, &mut out, scratch);
        Dist {
            dt: self.dt,
            offset: self.offset + other.offset + lo as i64,
            mass: out,
        }
    }

    /// The maximum of two *independent* lattice variables: the output
    /// step-CDF is the product of the input step-CDFs (the paper's EQ 4
    /// fan-in merge under the independence approximation).
    ///
    /// # Panics
    ///
    /// Panics if the lattice steps differ.
    pub fn max_independent(&self, other: &Dist) -> Dist {
        self.max_independent_into(other, &mut DistScratch::new())
    }

    /// [`max_independent`](Dist::max_independent) writing into a buffer
    /// recycled from `scratch` — bit-identical results, no allocation
    /// when the pool has capacity.
    ///
    /// # Panics
    ///
    /// Panics if the lattice steps differ.
    pub fn max_independent_into(&self, other: &Dist, scratch: &mut DistScratch) -> Dist {
        self.assert_same_lattice(other);
        let mut out = scratch.take();
        let offset = max_normalized(self.offset, &self.mass, other.offset, &other.mass, &mut out);
        Dist {
            dt: self.dt,
            offset,
            mass: out,
        }
    }

    /// Fused edge-convolve + fan-in max:
    /// `self.max_independent(&upstream.convolve(delay))` in one pass over
    /// the support. The intermediate arrival `upstream ∗ delay` lives only
    /// in a pooled scratch buffer — its cumulative masses feed the max's
    /// CDF product directly, and no intermediate [`Dist`] is ever
    /// materialized. Bit-identical to the composed form.
    ///
    /// This is the inner step of the SSTA fan-in merge: `self` is the
    /// running maximum over the edges folded so far, `upstream` the next
    /// edge's source arrival, and `delay` that edge's arc delay.
    ///
    /// # Panics
    ///
    /// Panics if any lattice step differs.
    pub fn convolve_max_into(
        &self,
        upstream: &Dist,
        delay: &Dist,
        scratch: &mut DistScratch,
    ) -> Dist {
        self.assert_same_lattice(upstream);
        upstream.assert_same_lattice(delay);
        let mut conv = scratch.take();
        let conv_lo = kernel::convolve_normalized(
            KernelBackend::active(),
            &upstream.mass,
            &delay.mass,
            &mut conv,
            scratch,
        );
        let conv_off = upstream.offset + delay.offset + conv_lo as i64;
        let mut out = scratch.take();
        let offset = max_normalized(self.offset, &self.mass, conv_off, &conv, &mut out);
        scratch.put(conv);
        Dist {
            dt: self.dt,
            offset,
            mass: out,
        }
    }

    /// The distribution translated by a whole number of lattice bins
    /// (positive = later). Exact: only the offset changes.
    pub fn shift_bins(&self, bins: i64) -> Dist {
        Dist {
            dt: self.dt,
            offset: self.offset + bins,
            mass: self.mass.clone(),
        }
    }

    /// The distribution translated by at most `delta` time units
    /// (positive = later), rounded toward zero to a whole number of bins —
    /// the lattice-safe realization of a real-valued shift bound: the
    /// result never moves further than `delta`.
    pub fn shift_bounded(&self, delta: f64) -> Dist {
        assert!(delta.is_finite(), "shift must be finite, got {delta}");
        self.shift_bins((delta / self.dt).trunc() as i64)
    }
}

/// The one normalization pass every lattice producer runs, fed one
/// output column at a time in index order while the producer writes it.
///
/// A column still at the lower edge is trimmed when `c + 1 < n` and
/// `cut + m ≤ TRIM_EPS` (the mass cut so far plus its own): at most
/// [`TRIM_EPS`] leaves the lower tail, and the buffer never empties. The
/// first column that fails the test ends the lower tail; it and every
/// later column survive it, and are folded from `+0.0` in index order.
/// [`finish`](TailFold::finish) then trims the upper tail by the same
/// rule, scanning from the end, and shifts and divides in one pass.
///
/// The upper trim only reaches columns of mass `≤ TRIM_EPS`, so the
/// last survivor heavier than that (or the first survivor, if none is)
/// always survives it. The pass keeps the running fold at that column,
/// the checkpoint; `finish` finds the column again by scanning back over
/// the light survivors and continues the fold from it over them, which
/// reproduces the running fold at the last survivor exactly, with no
/// summation pass.
///
/// The total is bit-identical to `mass[lo..hi].iter().sum()`: Rust's
/// float `Sum` folds from `−0.0` in index order, and `−0.0 + x = x` for
/// every `x ≥ +0.0`. The division stays a true division: multiplying by
/// the reciprocal rounds differently.
#[derive(Clone, Copy)]
pub(crate) struct TailFold {
    /// Output length `n`, known to every producer before it starts.
    len: usize,
    /// Columns trimmed from the lower tail so far.
    lo: usize,
    /// Mass trimmed from the lower tail so far.
    cut: f64,
    /// Whether the lower tail is still open (no column survived yet).
    open: bool,
    /// Index-order fold of the survivors fed so far.
    total: f64,
    /// The running fold at the checkpoint: the last survivor heavier than
    /// `TRIM_EPS`, or the first survivor if none is.
    check_total: f64,
}

impl TailFold {
    /// A pass over an output of `len` columns.
    #[inline(always)]
    pub(crate) fn new(len: usize) -> Self {
        Self {
            len,
            lo: 0,
            cut: 0.0,
            open: true,
            total: 0.0,
            check_total: 0.0,
        }
    }

    /// Feeds the next column's mass `m`.
    #[inline(always)]
    pub(crate) fn feed(&mut self, m: f64) {
        if self.open {
            if self.lo + 1 < self.len && self.cut + m <= TRIM_EPS {
                self.cut += m;
                self.lo += 1;
                return;
            }
            self.open = false;
            self.total += m;
            self.check_total = self.total;
            return;
        }
        self.total += m;
        if m > TRIM_EPS {
            self.check_total = self.total;
        }
    }

    /// Finishes normalizing `mass` after all `len` columns were fed. The
    /// survivors are `mass`'s last `n − lo` entries: a producer may write
    /// trimmed columns or skip them. Trims the upper tail, moves the
    /// survivors to the front divided by their total, and returns the
    /// number of columns trimmed from the lower tail. Trimming keeps the
    /// buffer's capacity, so recycled buffers retain the room trimmed off
    /// earlier results.
    pub(crate) fn finish(self, mass: &mut Vec<f64>) -> usize {
        debug_assert!(!self.open, "every column must be fed before finishing");
        let start = mass.len() - (self.len - self.lo);
        let mut hi = mass.len();
        let mut cut = 0.0;
        while hi > start + 1 && cut + mass[hi - 1] <= TRIM_EPS {
            cut += mass[hi - 1];
            hi -= 1;
        }
        let mut check = hi - 1;
        while check > start && mass[check] <= TRIM_EPS {
            check -= 1;
        }
        let total = mass[check + 1..hi]
            .iter()
            .fold(self.check_total, |total, &m| total + m);
        debug_assert!(total > 0.0, "distribution must carry mass");
        if start > 0 {
            mass.copy_within(start..hi, 0);
        }
        mass.truncate(hi - start);
        if total != 1.0 {
            for m in mass.iter_mut() {
                *m /= total;
            }
        }
        self.lo
    }
}

/// Normalized independent max into `out` (cleared first): the step-CDF
/// product over the union support, with both cumulative sums carried as
/// running prefix sums, each output column fed through a [`TailFold`] as
/// it is computed. Every column is written, trimmed ones too: the lower
/// tail is a few columns, and moving them costs less than a branch on
/// every push. Returns the output's first absolute bin.
///
/// The union range is split at the support boundaries so the inner loops
/// run branch-free over plain slices; skipped out-of-support bins
/// contribute exactly the `+0.0` the naive per-bin loop would add, so
/// results are bit-identical to it.
fn max_normalized(a_off: i64, a: &[f64], b_off: i64, b: &[f64], out: &mut Vec<f64>) -> i64 {
    let lo = a_off.max(b_off);
    let sa = &a[((lo - a_off) as usize).min(a.len())..];
    let sb = &b[((lo - b_off) as usize).min(b.len())..];
    let mut ca: f64 = a[..a.len() - sa.len()].iter().sum();
    let mut cb: f64 = b[..b.len() - sb.len()].iter().sum();
    let mut prev = ca * cb; // C(lo − 1): zero unless both started earlier
    debug_assert!(prev == 0.0, "one operand must start at the output support");
    let n = sa.len().max(sb.len());
    out.clear();
    out.reserve(n);
    let mut fold = TailFold::new(n);
    let mut column = |cur: f64| {
        let m = cur - prev;
        prev = cur;
        fold.feed(m);
        m
    };
    let both = sa.len().min(sb.len());
    out.extend(sa[..both].iter().zip(&sb[..both]).map(|(&ma, &mb)| {
        ca += ma;
        cb += mb;
        column(ca * cb)
    }));
    // Past the shorter support exactly one operand still carries mass.
    out.extend(sa[both..].iter().map(|&ma| {
        ca += ma;
        column(ca * cb)
    }));
    out.extend(sb[both..].iter().map(|&mb| {
        cb += mb;
        column(ca * cb)
    }));
    lo + fold.finish(out) as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(dt: f64, offset: i64, n: usize) -> Dist {
        Dist::new(dt, offset, vec![1.0 / n as f64; n]).unwrap()
    }

    #[test]
    fn new_validates_inputs() {
        assert!(matches!(
            Dist::new(0.0, 0, vec![1.0]),
            Err(DistError::BadStep(_))
        ));
        assert!(matches!(
            Dist::new(1.0, 0, vec![]),
            Err(DistError::EmptyMass)
        ));
        assert!(matches!(
            Dist::new(1.0, 0, vec![0.5, -0.5]),
            Err(DistError::BadMass { bin: 1, .. })
        ));
        assert!(matches!(
            Dist::new(1.0, 0, vec![0.4, 0.4]),
            Err(DistError::NotNormalized { .. })
        ));
        let err = Dist::new(1.0, 0, vec![0.4, 0.4]).unwrap_err();
        assert!(err.to_string().contains("total mass"));
    }

    #[test]
    fn new_trims_zero_tails() {
        let d = Dist::new(1.0, 10, vec![0.0, 0.0, 0.5, 0.5, 0.0]).unwrap();
        assert_eq!(d.offset(), 12);
        assert_eq!(d.support_len(), 2);
        assert_eq!(d.support(), (12.0, 13.0));
    }

    #[test]
    fn point_on_lattice_is_single_bin() {
        let d = Dist::point(1.0, 42.0);
        assert_eq!(d.support_len(), 1);
        assert_eq!(d.offset(), 42);
        assert_eq!(d.mean(), 42.0);
    }

    #[test]
    fn point_off_lattice_splits_and_preserves_mean() {
        let d = Dist::point(2.0, 43.5);
        assert_eq!(d.support_len(), 2);
        assert!((d.mean() - 43.5).abs() < 1e-12);
        assert!(d.variance() > 0.0);
    }

    #[test]
    fn try_point_reports_typed_errors() {
        assert_eq!(Dist::try_point(0.0, 1.0), Err(DistError::BadStep(0.0)));
        assert_eq!(Dist::try_point(-1.0, 1.0), Err(DistError::BadStep(-1.0)));
        assert!(matches!(
            Dist::try_point(f64::NAN, 1.0),
            Err(DistError::BadStep(dt)) if dt.is_nan()
        ));
        assert!(matches!(
            Dist::try_point(1.0, f64::NAN),
            Err(DistError::BadLocation(t)) if t.is_nan()
        ));
        assert_eq!(
            Dist::try_point(1.0, f64::INFINITY),
            Err(DistError::BadLocation(f64::INFINITY))
        );
        assert_eq!(
            DistError::BadLocation(f64::INFINITY).to_string(),
            "point mass location must be finite, got inf"
        );
        assert_eq!(Dist::try_point(1.0, 42.0).unwrap(), Dist::point(1.0, 42.0));
    }

    #[test]
    #[should_panic(expected = "point mass location must be finite")]
    fn point_panics_on_non_finite_location() {
        Dist::point(1.0, f64::INFINITY);
    }

    #[test]
    fn moments_of_a_symmetric_distribution() {
        let d = Dist::new(0.5, 100, vec![0.25, 0.5, 0.25]).unwrap();
        assert!((d.mean() - 50.5).abs() < 1e-12);
        assert!((d.variance() - 0.125).abs() < 1e-12);
        assert!((d.std_dev() - 0.125f64.sqrt()).abs() < 1e-12);
        // Median equals mean under the centered-bin interpolation.
        assert!((d.percentile(0.5) - 50.5).abs() < 1e-12);
    }

    #[test]
    fn cdf_and_percentile_are_inverse() {
        let d = uniform(1.0, 5, 8);
        for p in [0.01, 0.1, 0.37, 0.5, 0.77, 0.99] {
            let x = d.percentile(p);
            assert!((d.cdf_at(x) - p).abs() < 1e-12, "p={p}");
        }
        assert_eq!(d.cdf_at(0.0), 0.0);
        assert_eq!(d.cdf_at(100.0), 1.0);
    }

    #[test]
    fn percentile_skips_zero_mass_interior_bins() {
        let d = Dist::new(1.0, 0, vec![0.5, 0.0, 0.5]).unwrap();
        // All lower-half quantiles stay within the first bin's interval
        // [−0.5, 0.5], all upper-half quantiles within the third's.
        assert!(d.percentile(0.2) < 0.0);
        assert!((d.percentile(0.25) - 0.0).abs() < 1e-12);
        assert!(d.percentile(0.8) > 1.5);
    }

    // The kernel bit-identity tests live in `kernel.rs` and
    // `tests/kernels.rs`, where they pin every runtime-dispatched
    // backend to the scalar tap-order reference.

    /// The two-pass normalization the one-pass [`TailFold`] replaced,
    /// kept as its reference: [`trim_bounds`], then `sum` over the
    /// survivors, then divide.
    fn normalize_two_pass(mut mass: Vec<f64>, offset: i64) -> (i64, Vec<f64>) {
        let (lo, hi) = trim_bounds(&mass);
        mass.truncate(hi);
        mass.drain(..lo);
        let total: f64 = mass.iter().sum();
        if total != 1.0 {
            for m in &mut mass {
                *m /= total;
            }
        }
        (offset + lo as i64, mass)
    }

    /// The `[lo, hi)` sub-range of `mass` that survives tail trimming: at
    /// most [`TRIM_EPS`] of mass is cut from each side, never emptying
    /// the buffer.
    fn trim_bounds(mass: &[f64]) -> (usize, usize) {
        let mut lo = 0usize;
        let mut cut = 0.0;
        while lo + 1 < mass.len() && cut + mass[lo] <= TRIM_EPS {
            cut += mass[lo];
            lo += 1;
        }
        let mut hi = mass.len();
        cut = 0.0;
        while hi > lo + 1 && cut + mass[hi - 1] <= TRIM_EPS {
            cut += mass[hi - 1];
            hi -= 1;
        }
        (lo, hi)
    }

    /// The raw tap-order convolution, unnormalized.
    fn convolve_reference(a: &[f64], b: &[f64]) -> Vec<f64> {
        let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
        let mut out = vec![0.0; short.len() + long.len() - 1];
        for (k, &tap) in short.iter().enumerate() {
            for (o, &x) in out[k..k + long.len()].iter_mut().zip(long) {
                *o += tap * x;
            }
        }
        out
    }

    /// Mass of `(off, mass)` at absolute bin `k` (zero outside the support).
    fn mass_at(off: i64, mass: &[f64], k: i64) -> f64 {
        if k < off {
            return 0.0;
        }
        mass.get((k - off) as usize).copied().unwrap_or(0.0)
    }

    /// The raw independent max, unnormalized: the naive per-bin loop
    /// over the union support from the later start.
    fn max_reference(a: &Dist, b: &Dist) -> (i64, Vec<f64>) {
        let lo = a.offset.max(b.offset);
        let end = |d: &Dist| d.offset + d.mass.len() as i64;
        let below = |d: &Dist| -> f64 {
            d.mass[..((lo - d.offset) as usize).min(d.mass.len())]
                .iter()
                .sum()
        };
        let (mut ca, mut cb) = (below(a), below(b));
        let mut prev = ca * cb;
        let mut out = Vec::new();
        for k in lo..end(a).max(end(b)) {
            ca += mass_at(a.offset, &a.mass, k);
            cb += mass_at(b.offset, &b.mass, k);
            out.push(ca * cb - prev);
            prev = ca * cb;
        }
        (lo, out)
    }

    fn dist_of((offset, mass): (i64, Vec<f64>), dt: f64) -> Dist {
        Dist { dt, offset, mass }
    }

    fn assert_bits(got: &Dist, want: &Dist, what: &str) {
        assert_eq!(got.offset, want.offset, "{what}: offset");
        assert_eq!(got.mass.len(), want.mass.len(), "{what}: support");
        for (i, (g, w)) in got.mass.iter().zip(&want.mass).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: bin {i}: {g} vs {w}");
        }
    }

    /// Every operator of `a` and `b` against the two-pass reference, bit
    /// for bit: `convolve_into`, `convolve_dense` on every available
    /// backend, `max_independent_into`, `convolve_max_into`.
    fn assert_ops_match_two_pass(a: &Dist, b: &Dist, scratch: &mut DistScratch) {
        let dt = a.dt;
        let conv = |x: &Dist, y: &Dist| {
            normalize_two_pass(convolve_reference(&x.mass, &y.mass), x.offset + y.offset)
        };
        let want = dist_of(conv(a, b), dt);
        assert_bits(&a.convolve_into(b, scratch), &want, "convolve_into");
        for backend in KernelBackend::ALL {
            if backend.is_available() {
                let got = a.convolve_dense(b, backend, scratch);
                assert_bits(&got, &want, &format!("convolve_dense {backend:?}"));
                scratch.recycle(got);
            }
        }
        let (lo, raw) = max_reference(a, b);
        let want = dist_of(normalize_two_pass(raw, lo), dt);
        assert_bits(
            &a.max_independent_into(b, scratch),
            &want,
            "max_independent_into",
        );
        let delay = a;
        let upstream = b.shift_bins(-(a.mass.len() as i64) / 2);
        let edge = dist_of(conv(&upstream, delay), dt);
        let (lo, raw) = max_reference(a, &edge);
        let want = dist_of(normalize_two_pass(raw, lo), dt);
        let got = a.convolve_max_into(&upstream, delay, scratch);
        assert_bits(&got, &want, "convolve_max_into");
    }

    /// A mass vector from body weights in `(0, 1]` (a weight of 0 is an
    /// interior zero) and tails of given masses, divided by its sum so
    /// `Dist::new` accepts it.
    fn tailed(lower: &[f64], body: &[f64], upper: &[f64]) -> Vec<f64> {
        let mut m: Vec<f64> = lower.iter().chain(body).chain(upper).copied().collect();
        let total: f64 = m.iter().sum();
        for v in &mut m {
            *v /= total;
        }
        m
    }

    /// `Dist::new` against the two-pass reference, bit for bit.
    fn assert_new_matches_two_pass(mass: &[f64]) -> Dist {
        let got = Dist::new(1.0, 7, mass.to_vec()).unwrap();
        let want = dist_of(normalize_two_pass(mass.to_vec(), 7), 1.0);
        assert_bits(&got, &want, &format!("Dist::new {mass:?}"));
        got
    }

    /// The one-pass normalization on the cases that decide a trim: no
    /// trim, lower only, upper only, all but one bin, n = 1 and 2, a
    /// total of exactly 1.0, interior zeros and subnormals.
    #[test]
    fn one_pass_normalization_matches_two_pass_on_edge_cases() {
        let sub = f64::MIN_POSITIVE / 8.0;
        let cases: Vec<Vec<f64>> = vec![
            vec![0.25, 0.5, 0.25],                      // no trim, total exactly 1
            vec![0.3, 0.3, 0.4000001],                  // no trim, total ≠ 1
            vec![4e-13, 5e-13, 0.5, 0.5],               // lower only
            vec![0.5, 0.5, 6e-13, 3e-13],               // upper only
            vec![1e-12, 0.5, 0.5, 1e-12],               // both, at exactly the threshold
            vec![6e-13, 6e-13, 0.5, 0.5, 6e-13, 6e-13], // the second tail bin survives
            vec![0.5, 0.5, 1e-12, 6e-13, 6e-13],        // a light survivor of exactly 1e-12
            vec![1e-13, 2e-13, 1.0, 3e-13, 4e-13],      // all but one bin
            vec![1.0],                                  // n = 1
            vec![1e-13, 1.0],                           // n = 2, lower
            vec![1.0, 1e-13],                           // n = 2, upper
            vec![0.5, 0.5],                             // n = 2, none
            vec![0.0, sub, 0.3, 0.0, 0.0, 0.7, sub, 0.0],
            vec![sub, 0.25, 0.0, sub, 0.75],
        ];
        for mass in &cases {
            assert_new_matches_two_pass(mass);
        }
        let mut scratch = DistScratch::new();
        for a in &cases {
            for b in &cases {
                let a = Dist::new(1.0, 3, a.clone()).unwrap();
                let b = Dist::new(1.0, -2, b.clone()).unwrap();
                assert_ops_match_two_pass(&a, &b, &mut scratch);
            }
        }
    }

    /// A tail mass whose partial sums straddle [`TRIM_EPS`].
    fn tail_mass(pick: u64) -> f64 {
        const TAILS: [f64; 10] = [
            0.0, 1e-14, 1e-13, 4e-13, 6e-13, 1e-12, 1.5e-12, 3e-12, 1e-9, 1e-6,
        ];
        if pick == 10 {
            f64::MIN_POSITIVE / 16.0 // subnormal
        } else {
            TAILS[(pick % 10) as usize]
        }
    }

    proptest::proptest! {
        /// One-pass ≡ two-pass, bit for bit, on every producer, with
        /// tails straddling the trim threshold and bodies wide enough to
        /// cross the SIMD kernels' 24-, 48- and 64-column blocks.
        #[test]
        fn one_pass_matches_two_pass_property(
            la in proptest::collection::vec(0u64..11, 0usize..6),
            body_a in proptest::collection::vec(0u64..1000, 1usize..90),
            ua in proptest::collection::vec(0u64..11, 0usize..6),
            lb in proptest::collection::vec(0u64..11, 0usize..6),
            body_b in proptest::collection::vec(0u64..1000, 1usize..160),
            ub in proptest::collection::vec(0u64..11, 0usize..6),
        ) {
            let tail = |t: &[u64]| -> Vec<f64> { t.iter().map(|&p| tail_mass(p)).collect() };
            // Every fifth body weight is an interior zero.
            let body = |w: &[u64]| -> Vec<f64> {
                w.iter().map(|&x| if x % 5 == 0 { 0.0 } else { x as f64 / 1000.0 }).collect()
            };
            let (wa, wb) = (body(&body_a), body(&body_b));
            if wa.iter().all(|&x| x == 0.0) || wb.iter().all(|&x| x == 0.0) {
                return Ok(());
            }
            let a = assert_new_matches_two_pass(&tailed(&tail(&la), &wa, &tail(&ua)));
            let b = assert_new_matches_two_pass(&tailed(&tail(&lb), &wb, &tail(&ub)));
            let mut scratch = DistScratch::new();
            assert_ops_match_two_pass(&a, &b, &mut scratch);
            assert_ops_match_two_pass(&b, &a, &mut scratch);
        }
    }

    #[test]
    fn convolve_adds_means_and_variances() {
        let a = uniform(0.5, 10, 6);
        let b = uniform(0.5, -3, 4);
        let c = a.convolve(&b);
        assert!((c.mean() - (a.mean() + b.mean())).abs() < 1e-9);
        assert!((c.variance() - (a.variance() + b.variance())).abs() < 1e-9);
        let total: f64 = c.mass().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn convolve_with_point_is_a_shift() {
        let a = uniform(1.0, 0, 5);
        let c = a.convolve(&Dist::point(1.0, 7.0));
        assert_eq!(c.offset(), 7);
        assert_eq!(c.mass(), a.mass());
    }

    #[test]
    fn max_of_disjoint_supports_is_the_later_input() {
        let early = uniform(1.0, 0, 3);
        let late = uniform(1.0, 100, 3);
        let m = early.max_independent(&late);
        assert_eq!(m.offset(), 100);
        assert_eq!(m.support_len(), 3);
        for (got, want) in m.mass().iter().zip(late.mass()) {
            assert!((got - want).abs() < 1e-12);
        }
    }

    #[test]
    fn max_cdf_is_product_of_cdfs() {
        let a = uniform(1.0, 0, 4);
        let b = uniform(1.0, 1, 4);
        let m = a.max_independent(&b);
        for k in -1..7 {
            let x = k as f64 + 0.5; // interpolation node
            let want = a.cdf_at(x) * b.cdf_at(x);
            assert!((m.cdf_at(x) - want).abs() < 1e-12, "k={k}");
        }
    }

    #[test]
    fn shift_bins_translates_support() {
        let d = uniform(2.0, 5, 3);
        let s = d.shift_bins(-4);
        assert_eq!(s.offset(), 1);
        assert_eq!(s.mass(), d.mass());
        assert!((s.mean() - (d.mean() - 8.0)).abs() < 1e-12);
    }

    #[test]
    fn shift_bounded_never_overshoots() {
        let d = uniform(2.0, 0, 3);
        assert_eq!(d.shift_bounded(5.0).offset(), 2); // 2 bins = 4.0 ≤ 5.0
        assert_eq!(d.shift_bounded(-5.0).offset(), -2);
        assert_eq!(d.shift_bounded(1.9).offset(), 0); // under one bin
    }

    #[test]
    fn sample_stays_in_support_and_tracks_mean() {
        use rand::SeedableRng;
        let d = uniform(1.0, 50, 11);
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = d.sample(&mut rng);
            assert!((49.5..=60.5).contains(&x), "sample {x} outside support");
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - d.mean()).abs() < 0.1, "sampled mean {mean}");
    }

    #[test]
    #[should_panic(expected = "lattice steps must match")]
    fn mismatched_steps_rejected() {
        let a = uniform(1.0, 0, 2);
        let b = uniform(0.5, 0, 2);
        let _ = a.convolve(&b);
    }

    #[test]
    #[should_panic(expected = "probability must lie in [0, 1]")]
    fn percentile_validates_probability() {
        uniform(1.0, 0, 2).percentile(1.5);
    }

    #[test]
    #[should_panic(expected = "probability must lie in [0, 1]")]
    fn percentile_rejects_nan() {
        uniform(1.0, 0, 2).percentile(f64::NAN);
    }

    #[test]
    fn percentile_endpoints_hit_the_support_edges() {
        // Two bins of mass 0.5 at t = 0 and t = 1: the interpolated
        // support spans [−0.5, 1.5).
        let d = uniform(1.0, 0, 2);
        assert_eq!(d.percentile(0.0), -0.5);
        assert!(
            (d.percentile(1.0) - 1.5).abs() < 1e-9,
            "p=1 must land on the right support edge, got {}",
            d.percentile(1.0)
        );
        // Endpoints bracket every interior quantile.
        for p in [0.001, 0.25, 0.5, 0.75, 0.999] {
            let q = d.percentile(p);
            assert!(d.percentile(0.0) <= q && q <= d.percentile(1.0), "p={p}");
        }
        // A point mass: all quantiles inside its (single-bin) support.
        let pt = Dist::point(0.5, 10.0);
        assert!(pt.percentile(0.0) >= 9.5 && pt.percentile(1.0) <= 10.75);
    }
}
