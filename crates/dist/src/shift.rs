//! Percentile-shift measures between an original and a perturbed
//! distribution — the quantities behind the paper's perturbation-bound
//! theory (Section 3.2, Definition 2 and Theorems 1–4).
//!
//! # Whole-bin vs interpolated shifts
//!
//! Two CDF readings coexist on the lattice:
//!
//! * the **step** (whole-bin) CDF, where each bin is an atom at its
//!   lattice point, and
//! * the **interpolated** CDF (used by [`Dist::percentile`]), where each
//!   bin's mass is spread over `[t − dt/2, t + dt/2)`.
//!
//! The maximum horizontal CDF distance `Δ = max_p δ(p)` measured on
//! *step* CDFs ([`lattice_shift_bound`], [`max_percentile_shift`]) is a
//! multiple of `dt` and, in exact arithmetic, satisfies the paper's
//! theorems on the lattice: convolution with a common delay and the
//! independent max/min cannot increase it, because a whole-bin dominance
//! `F′(k) ≤ F(k + j)` at every lattice index is preserved verbatim by
//! those operators. It is at most one lattice step looser than the
//! interpolated shift, and it *dominates* the interpolated shift
//! [`percentile_shift_at`] at every `p`: whole-bin dominance at shift
//! `j·dt` transfers to the interpolated CDFs node-for-node (the grids
//! are aligned). Fractional shifts measured on interpolated CDFs enjoy
//! no such preservation law (sub-bin interpolation kinks), which is
//! exactly why the pruned selector's front bounds use the whole-bin
//! measure.
//!
//! The implemented operators trim up to `1e-12` of mass from each tail
//! and renormalize, and the walk below merges levels closer than
//! `1e-10`. Both act in the extreme tails, so there the measured bound
//! is not preserved: over the whole range a downstream node's bound can
//! exceed its fan-in's by 1–3 bins (at 43 of 155,607 inherited front
//! nodes of a gen1200 descent at dt 1, and 161 of 7,558 of two c1355
//! iterations at dt 0.25). Every excess measured lay outside
//! the body window `[1e-8, 1 − 1e-8]`; on that window the bound held at
//! every node. Percentile objectives read a level inside the window, and
//! the levels outside it weigh too little to move a mean (see the pruned
//! selector's soundness note).

use crate::lattice::Dist;

/// The maximum percentile shift `Δ = max_p [T(A, p) − T(A′, p)]` between
/// an original and a perturbed distribution (Definition 2), measured on
/// the whole-bin lattice CDFs.
///
/// Positive when the perturbed distribution `b` is earlier; always a
/// multiple of the lattice step. For a pure shift of `k` bins the result
/// is exactly `k·dt`.
///
/// # Panics
///
/// Panics if the lattice steps differ.
pub fn max_percentile_shift(a: &Dist, b: &Dist) -> f64 {
    step_max_shift(a, b)
}

/// The perturbation bound `Δ` used for the paper's pruning fronts:
/// identical to [`max_percentile_shift`] (the whole-bin maximum shift),
/// under the name the optimizer-side code uses for it.
///
/// Guarantees, for `bound = lattice_shift_bound(base, perturbed)`:
///
/// * every downstream lattice operation (convolution with a common
///   delay, independent max/min with common side inputs) maps the pair
///   to a new pair whose shift on the body levels `[1e-8, 1 − 1e-8]` is
///   ≤ `max(bound, 0)` — Theorems 1–3 on the lattice. In the extreme
///   tails trimming can lift the measured bound of the new pair by a
///   few bins (see the module docs);
/// * `percentile_shift_at(base, perturbed, p) ≤ bound` for every `p`,
///   and likewise for the mean improvement (the mean is the integral of
///   the interpolated quantile function).
///
/// # Panics
///
/// Panics if the lattice steps differ.
pub fn lattice_shift_bound(base: &Dist, perturbed: &Dist) -> f64 {
    step_max_shift(base, perturbed)
}

/// The interpolated percentile shift `δ(p) = T(A, p) − T(A′, p)` at a
/// single probability `p` — the quantity the optimizer's objective
/// improvements are made of. Bounded above by
/// [`lattice_shift_bound`]`(a, b)` for every `p`.
///
/// # Panics
///
/// Panics if `p` is not in `(0, 1)`.
pub fn percentile_shift_at(a: &Dist, b: &Dist, p: f64) -> f64 {
    a.percentile(p) - b.percentile(p)
}

/// Probability levels closer than this are treated as the *same* level by
/// the walk below. Lattice operators re-derive masses from cumulative
/// products and renormalize trimmed tails by factors of `1 ± ~1e-12`, so
/// two mathematically equal CDF levels can differ by float dust; without
/// the tolerance, a dust-tie would let one quantile advance a whole bin
/// ahead of the other and inflate the measured shift by `dt`.
///
/// The value sits 50× above the worst observed dust (cumulative-sum
/// rounding `~1e-13` plus trim renormalization `~2e-12`) and far below
/// any genuine probability-mass resolution in this domain. Merging a
/// *real* level gap narrower than this can under-report the bound on a
/// probability sliver of at most the same width; mapped through any CDF
/// slope the optimizer evaluates percentiles at, that sliver perturbs
/// objective sensitivities by well under the pruned selector's `1e-6`
/// safety slack.
const LEVEL_TIE_EPS: f64 = 1e-10;

/// A streaming cursor over a distribution's step-CDF breakpoints — the
/// `(absolute bin, cumulative probability)` pairs of its positive-mass
/// bins, visited in order without materializing them (this runs once per
/// front node per propagation level, so the two-pointer walk below must
/// not allocate).
struct StepCursor<'a> {
    off: i64,
    mass: &'a [f64],
    /// Current positive-mass bin index.
    i: usize,
    /// Cumulative probability through bin `i` (zero-mass bins skipped,
    /// matching the accumulation the breakpoint list would have used).
    cum: f64,
    /// The next positive-mass bin after `i`, if any.
    next: Option<usize>,
}

impl<'a> StepCursor<'a> {
    fn new(d: &'a Dist) -> Self {
        let mass = d.mass();
        let i = first_positive(mass, 0).expect("a distribution carries mass");
        Self {
            off: d.offset(),
            mass,
            i,
            cum: mass[i],
            next: first_positive(mass, i + 1),
        }
    }

    fn bin(&self) -> i64 {
        self.off + self.i as i64
    }

    fn is_last(&self) -> bool {
        self.next.is_none()
    }

    fn advance(&mut self) {
        if let Some(n) = self.next {
            self.i = n;
            self.cum += self.mass[n];
            self.next = first_positive(self.mass, n + 1);
        }
    }
}

fn first_positive(mass: &[f64], from: usize) -> Option<usize> {
    mass[from..].iter().position(|&m| m > 0.0).map(|p| from + p)
}

/// Max over all probability levels of the whole-bin quantile difference,
/// by a two-pointer walk over both step-CDF breakpoint sequences
/// (`O(n + m)`, zero-mass bins skipped, allocation-free).
fn step_max_shift(a: &Dist, b: &Dist) -> f64 {
    assert!(
        a.dt() == b.dt(),
        "lattice steps must match: {} vs {}",
        a.dt(),
        b.dt()
    );
    let mut pa = StepCursor::new(a);
    let mut pb = StepCursor::new(b);
    let mut best = i64::MIN;
    loop {
        // On the current probability interval, the step quantiles are the
        // lattice points under the two cursors.
        best = best.max(pa.bin() - pb.bin());
        let (ca, cb) = (pa.cum, pb.cum);
        let a_last = pa.is_last();
        let b_last = pb.is_last();
        if a_last && b_last {
            break;
        }
        // Advance whichever CDF exhausts its level first — both on a
        // (dust-tolerant) tie: the next interval starts strictly above
        // min(ca, cb).
        if !a_last && (ca <= cb + LEVEL_TIE_EPS || b_last) {
            pa.advance();
        }
        if !b_last && (cb <= ca + LEVEL_TIE_EPS || a_last) {
            pb.advance();
        }
    }
    best as f64 * a.dt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dist(dt: f64, offset: i64, mass: &[f64]) -> Dist {
        Dist::new(dt, offset, mass.to_vec()).unwrap()
    }

    #[test]
    fn pure_shift_is_measured_exactly() {
        let a = dist(0.5, 40, &[0.1, 0.3, 0.4, 0.2]);
        for k in [-7i64, -1, 0, 3, 12] {
            let b = a.shift_bins(-k);
            assert_eq!(max_percentile_shift(&a, &b), k as f64 * 0.5, "k={k}");
            assert_eq!(lattice_shift_bound(&a, &b), k as f64 * 0.5, "k={k}");
        }
    }

    #[test]
    fn shift_is_antisymmetric_for_pure_shifts() {
        let a = dist(1.0, 0, &[0.5, 0.5]);
        let b = a.shift_bins(-4);
        assert_eq!(max_percentile_shift(&a, &b), 4.0);
        assert_eq!(max_percentile_shift(&b, &a), -4.0);
    }

    #[test]
    fn mixed_perturbation_takes_the_worst_percentile() {
        // b moves the lower half 2 bins earlier but the upper tail only 1.
        let a = dist(1.0, 10, &[0.5, 0.0, 0.0, 0.5]);
        let b = dist(1.0, 8, &[0.5, 0.0, 0.0, 0.0, 0.5]);
        assert_eq!(max_percentile_shift(&a, &b), 2.0);
    }

    #[test]
    fn bound_dominates_interpolated_shift_everywhere() {
        let a = dist(1.0, 0, &[0.05, 0.2, 0.5, 0.2, 0.05]);
        let b = dist(1.0, -2, &[0.3, 0.1, 0.1, 0.1, 0.4]);
        let bound = lattice_shift_bound(&a, &b);
        for i in 1..200 {
            let p = i as f64 / 200.0;
            let delta = percentile_shift_at(&a, &b, p);
            assert!(delta <= bound + 1e-12, "p={p}: {delta} > {bound}");
        }
    }

    #[test]
    fn convolution_preserves_whole_bin_shift_of_pure_shifts() {
        let a = dist(1.0, 5, &[0.25, 0.5, 0.25]);
        let b = a.shift_bins(-3);
        let d = dist(1.0, 2, &[0.4, 0.6]);
        assert_eq!(max_percentile_shift(&a.convolve(&d), &b.convolve(&d)), 3.0);
    }

    #[test]
    fn max_with_common_input_never_increases_the_bound() {
        let a = dist(1.0, 0, &[0.2, 0.3, 0.5]);
        let b = dist(1.0, -2, &[0.6, 0.1, 0.3]);
        let common = dist(1.0, 1, &[0.5, 0.5]);
        let before = lattice_shift_bound(&a, &b);
        let after = lattice_shift_bound(&a.max_independent(&common), &b.max_independent(&common));
        assert!(after <= before.max(0.0) + 1e-12, "{after} > {before}");
    }

    #[test]
    fn zero_mass_interior_bins_are_skipped() {
        let a = dist(1.0, 0, &[0.5, 0.0, 0.5]);
        let b = dist(1.0, 0, &[0.5, 0.5]);
        // Upper half of a sits at bin 2, of b at bin 1.
        assert_eq!(max_percentile_shift(&a, &b), 1.0);
    }

    #[test]
    fn disjoint_supports_measure_the_gap() {
        let a = dist(2.0, 100, &[1.0]);
        let b = dist(2.0, 90, &[1.0]);
        assert_eq!(max_percentile_shift(&a, &b), 20.0);
        assert_eq!(percentile_shift_at(&a, &b, 0.5), 20.0);
    }
}
