//! Optimization objectives defined on the circuit-delay distribution.

use statsize_dist::Dist;
use std::fmt;

/// A scalar cost function over the circuit-delay distribution at the sink.
/// Lower is better; the optimizers minimize it.
///
/// The paper uses the `p`-percentile point with `p = 0.99`
/// ([`Objective::percentile`]) but notes that "other objective functions
/// could be equally well supported by the proposed framework". Objectives
/// for which an improvement is bounded by the maximum percentile shift `Δ`
/// ([`Objective::shift_bounded`]) are safe for the exact pruning
/// algorithm; the others can still be optimized by brute force.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Objective {
    /// The `p`-percentile circuit delay `T(A, p)` — the paper's objective.
    ///
    /// Shift-bounded: `δ(p) ≤ Δ` by definition of `Δ = max_p δ(p)`.
    Percentile(f64),
    /// The mean circuit delay.
    ///
    /// Shift-bounded: the mean is the integral of `T(A, p)` over `p`, so
    /// its improvement is the average of `δ(p)` and cannot exceed `Δ`.
    /// The pruned selector also bounds it at the sink, as it does a
    /// percentile: with every arrival bin at least 0, the mean is `dt`
    /// times the sum over bins `z ≥ 0` of the mass above `z`, and the
    /// perturbed sink's step CDF is at most the product `P(z)` of the
    /// outputs' CDFs, each shifted by its own Theorem-4 bound, plus a
    /// tolerance `tol` of about `1e-8` per output. So the perturbed mean
    /// is at least `dt · Σ_{z≥0} max(0, 1 − η − tol − P(z))`, with `η =
    /// 1e-11` of mass dust; optimizer sweeps read it for a pre-bound at
    /// the candidate's first pop.
    Mean,
    /// `mean + k·σ` of the circuit delay.
    ///
    /// **Not** shift-bounded in general (σ can shrink under a
    /// perturbation, producing an improvement larger than `Δ`), so the
    /// pruned selector rejects it; use brute force.
    MeanPlusSigma(f64),
    /// Negative timing yield at a target delay: `-P(delay ≤ target)`.
    ///
    /// **Not** shift-bounded (it is a vertical CDF difference, not a
    /// horizontal one); use brute force.
    YieldAt(f64),
}

impl Objective {
    /// The paper's objective: the `p`-percentile delay point.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `(0, 1)`.
    pub fn percentile(p: f64) -> Self {
        assert!(
            p > 0.0 && p < 1.0,
            "probability must lie in (0, 1), got {p}"
        );
        Objective::Percentile(p)
    }

    /// Evaluates the cost on a circuit-delay distribution.
    pub fn value(&self, dist: &Dist) -> f64 {
        match *self {
            Objective::Percentile(p) => dist.percentile(p),
            Objective::Mean => dist.mean(),
            Objective::MeanPlusSigma(k) => dist.mean() + k * dist.std_dev(),
            Objective::YieldAt(target) => -dist.cdf_at(target),
        }
    }

    /// True when any improvement of this objective under a perturbation is
    /// bounded by the maximum percentile shift `Δ` — the soundness
    /// condition of the paper's pruning theory (Theorems 1–4).
    pub fn shift_bounded(&self) -> bool {
        matches!(self, Objective::Percentile(_) | Objective::Mean)
    }

    /// The objective's stable wire name (`percentile:<p>`, `mean`,
    /// `mean_plus_sigma:<k>`, `yield_at:<t>`), with parameters rendered
    /// through Rust's shortest-round-trip `Display` so
    /// [`from_wire`](Self::from_wire) inverts it **bit-exactly** — the
    /// session WAL records optimizer configurations in this vocabulary.
    pub fn wire_name(&self) -> String {
        match *self {
            Objective::Percentile(p) => format!("percentile:{p}"),
            Objective::Mean => "mean".to_string(),
            Objective::MeanPlusSigma(k) => format!("mean_plus_sigma:{k}"),
            Objective::YieldAt(t) => format!("yield_at:{t}"),
        }
    }

    /// Parses a [`wire_name`](Self::wire_name) rendering.
    ///
    /// # Errors
    ///
    /// Returns a message for unknown names and out-of-range parameters.
    pub fn from_wire(name: &str) -> Result<Self, String> {
        if name == "mean" {
            return Ok(Objective::Mean);
        }
        let param = |v: &str| {
            v.parse::<f64>()
                .ok()
                .filter(|p| p.is_finite())
                .ok_or_else(|| format!("bad objective parameter `{v}`"))
        };
        if let Some(v) = name.strip_prefix("percentile:") {
            let p = param(v)?;
            if !(p > 0.0 && p < 1.0) {
                return Err(format!("percentile must lie in (0, 1), got {p}"));
            }
            return Ok(Objective::Percentile(p));
        }
        if let Some(v) = name.strip_prefix("mean_plus_sigma:") {
            return Ok(Objective::MeanPlusSigma(param(v)?));
        }
        if let Some(v) = name.strip_prefix("yield_at:") {
            return Ok(Objective::YieldAt(param(v)?));
        }
        Err(format!("unknown objective `{name}`"))
    }
}

impl fmt::Display for Objective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Objective::Percentile(p) => write!(f, "T({:.0}%)", p * 100.0),
            Objective::Mean => write!(f, "mean"),
            Objective::MeanPlusSigma(k) => write!(f, "mean+{k}σ"),
            Objective::YieldAt(t) => write!(f, "yield@{t:.0}ps"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use statsize_dist::TruncatedGaussian;

    fn dist() -> Dist {
        TruncatedGaussian::from_nominal(100.0, 0.1, 3.0).discretize(0.5)
    }

    #[test]
    fn percentile_objective_matches_dist() {
        let d = dist();
        let o = Objective::percentile(0.99);
        assert_eq!(o.value(&d), d.percentile(0.99));
    }

    #[test]
    fn mean_plus_sigma_exceeds_mean() {
        let d = dist();
        assert!(Objective::MeanPlusSigma(3.0).value(&d) > Objective::Mean.value(&d));
    }

    #[test]
    fn yield_cost_decreases_with_target() {
        let d = dist();
        // A looser target gives higher yield, i.e. lower (more negative) cost.
        assert!(Objective::YieldAt(130.0).value(&d) < Objective::YieldAt(100.0).value(&d));
    }

    #[test]
    fn shift_bounded_classification() {
        assert!(Objective::percentile(0.99).shift_bounded());
        assert!(Objective::Mean.shift_bounded());
        assert!(!Objective::MeanPlusSigma(3.0).shift_bounded());
        assert!(!Objective::YieldAt(100.0).shift_bounded());
    }

    #[test]
    #[should_panic(expected = "probability must lie in (0, 1)")]
    fn percentile_validates() {
        Objective::percentile(1.0);
    }

    #[test]
    fn wire_names_round_trip_bit_exactly() {
        for objective in [
            Objective::Percentile(0.99),
            Objective::Percentile(0.1 + 0.2), // non-representable decimal
            Objective::Mean,
            Objective::MeanPlusSigma(3.0),
            Objective::YieldAt(123.456_789_012_345_67),
        ] {
            let back = Objective::from_wire(&objective.wire_name()).expect("round trip");
            assert_eq!(back, objective, "{}", objective.wire_name());
        }
        assert!(Objective::from_wire("percentile:1.5").is_err());
        assert!(Objective::from_wire("percentile:NaN").is_err());
        assert!(Objective::from_wire("frobnicate").is_err());
    }
}
