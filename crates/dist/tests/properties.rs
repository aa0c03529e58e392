//! Property-based tests of the lattice kernel's numerical contracts —
//! the invariants every downstream layer (SSTA propagation, perturbation
//! fronts, pruned selection) silently relies on.

use proptest::prelude::*;
use statsize_dist::{
    lattice_shift_bound, max_percentile_shift, percentile_shift_at, Dist, DistScratch,
};

/// Strategy: a random lattice distribution with 1–20 strictly positive
/// bins at dt = 1.
fn dist_strategy() -> impl Strategy<Value = Dist> {
    (proptest::collection::vec(0.01f64..1.0, 1..20), -30i64..30).prop_map(|(raw, offset)| {
        let total: f64 = raw.iter().sum();
        let mass: Vec<f64> = raw.iter().map(|m| m / total).collect();
        Dist::new(1.0, offset, mass).expect("normalized by construction")
    })
}

/// Strategy: an (original, perturbed) pair with arbitrary shape change.
fn pair_strategy() -> impl Strategy<Value = (Dist, Dist)> {
    (dist_strategy(), dist_strategy())
}

proptest! {
    /// Convolution conserves total probability mass exactly (it is
    /// renormalized after tail trimming) and adds means to within the
    /// trim-level dust.
    #[test]
    fn convolve_preserves_mass_and_adds_means(a in dist_strategy(), b in dist_strategy()) {
        let c = a.convolve(&b);
        let total: f64 = c.mass().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-12, "total mass {total}");
        let want = a.mean() + b.mean();
        prop_assert!((c.mean() - want).abs() < 1e-9, "mean {} vs {want}", c.mean());
    }

    /// Convolution adds variances (independence).
    #[test]
    fn convolve_adds_variances(a in dist_strategy(), b in dist_strategy()) {
        let c = a.convolve(&b);
        let want = a.variance() + b.variance();
        prop_assert!((c.variance() - want).abs() < 1e-7,
            "variance {} vs {want}", c.variance());
    }

    /// The CDF of the independent max equals the product of the input
    /// CDFs at every lattice node (and total mass stays 1).
    #[test]
    fn max_independent_cdf_is_product((a, b) in pair_strategy()) {
        let m = a.max_independent(&b);
        let total: f64 = m.mass().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-12);
        let lo = a.offset().min(b.offset()) - 1;
        let hi = a.offset().max(b.offset())
            + (a.support_len().max(b.support_len())) as i64 + 1;
        for k in lo..=hi {
            // Interpolation nodes sit at bin + dt/2; the CDFs there are
            // the cumulative masses, so products compare exactly.
            let x = k as f64 + 0.5;
            let want = a.cdf_at(x) * b.cdf_at(x);
            prop_assert!((m.cdf_at(x) - want).abs() < 1e-9,
                "node {k}: {} vs {want}", m.cdf_at(x));
        }
    }

    /// Percentiles are monotone in `p` and bracketed by the support's
    /// interpolation edges.
    #[test]
    fn percentile_is_monotone_in_p(d in dist_strategy()) {
        let (lo, hi) = d.support();
        let mut prev = f64::NEG_INFINITY;
        for i in 1..100 {
            let p = i as f64 / 100.0;
            let q = d.percentile(p);
            prop_assert!(q >= prev, "p={p}: {q} < {prev}");
            prop_assert!(q >= lo - 0.5 && q <= hi + 0.5, "p={p}: {q} outside support");
            prev = q;
        }
    }

    /// The whole-bin bound dominates the observed (interpolated)
    /// percentile shift at every probability, on arbitrary pairs.
    #[test]
    fn shift_bound_dominates_observed_shift((a, b) in pair_strategy()) {
        let bound = lattice_shift_bound(&a, &b);
        prop_assert_eq!(bound, max_percentile_shift(&a, &b));
        for i in 1..200 {
            let p = i as f64 / 200.0;
            let observed = percentile_shift_at(&a, &b, p);
            prop_assert!(observed <= bound + 1e-9,
                "p={p}: observed {observed} > bound {bound}");
        }
        // The mean improvement is the percentile average, so it obeys the
        // same bound.
        prop_assert!(a.mean() - b.mean() <= bound + 1e-9);
    }

    /// The bound survives a downstream convolution and max with common
    /// (unperturbed) inputs — the discrete Theorems 1–3 chained once.
    #[test]
    fn shift_bound_is_preserved_downstream(
        (a, a_pert) in pair_strategy(),
        delay in dist_strategy(),
        side in dist_strategy(),
    ) {
        let bound = lattice_shift_bound(&a, &a_pert);
        let out = a.convolve(&delay).max_independent(&side);
        let out_pert = a_pert.convolve(&delay).max_independent(&side);
        let after = lattice_shift_bound(&out, &out_pert);
        prop_assert!(after <= bound.max(0.0) + 1e-9, "{after} > max({bound}, 0)");
        // And the end-to-end observed shift still respects the original
        // front bound.
        for p in [0.5, 0.9, 0.99] {
            let observed = percentile_shift_at(&out, &out_pert, p);
            prop_assert!(observed <= bound.max(0.0) + 1e-9, "p={p}");
        }
    }

    /// Pure shifts are fixed points of the measure: shifting by `k` bins
    /// is measured as exactly `k·dt`, before and after convolution.
    #[test]
    fn pure_shifts_measure_exactly(a in dist_strategy(), d in dist_strategy(), k in -12i64..12) {
        let shifted = a.shift_bins(k);
        prop_assert_eq!(max_percentile_shift(&a, &shifted), -k as f64);
        let (ca, cs) = (a.convolve(&d), shifted.convolve(&d));
        prop_assert_eq!(max_percentile_shift(&ca, &cs), -k as f64);
    }

    /// `shift_bounded` moves by whole bins, never further than asked.
    #[test]
    fn shift_bounded_is_conservative(d in dist_strategy(), delta in -25.0f64..25.0) {
        let s = d.shift_bounded(delta);
        let moved = (s.offset() - d.offset()) as f64 * d.dt();
        prop_assert!(moved.abs() <= delta.abs() + 1e-12);
        prop_assert!(moved == 0.0 || moved.signum() == delta.signum());
        prop_assert!((delta - moved).abs() < d.dt());
    }

    /// Every `_into` variant is bit-identical to its allocating
    /// counterpart — same offset, same step, same mass *bits* — with the
    /// scratch pool recycled across both operations, so buffer reuse
    /// can never leak one result into the next.
    #[test]
    fn into_variants_are_bit_identical((a, b) in pair_strategy()) {
        let mut scratch = DistScratch::new();
        // Warm the pool with dirty buffers of assorted sizes.
        for seed in 1..4u64 {
            let junk = a.shift_bins(seed as i64).convolve(&b);
            scratch.recycle(junk);
        }
        let pairs: [(Dist, Dist); 2] = [
            (a.convolve(&b), a.convolve_into(&b, &mut scratch)),
            (a.max_independent(&b), a.max_independent_into(&b, &mut scratch)),
        ];
        for (alloc, pooled) in pairs {
            prop_assert_eq!(alloc.dt(), pooled.dt());
            prop_assert_eq!(alloc.offset(), pooled.offset());
            prop_assert_eq!(alloc.support_len(), pooled.support_len());
            for (i, (x, y)) in alloc.mass().iter().zip(pooled.mass()).enumerate() {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "bin {} of {:?}", i, alloc);
            }
            scratch.recycle(pooled);
        }
    }

    /// The fused `convolve_max_into` equals `convolve` followed by
    /// `max_independent`, bit for bit, across random accumulators,
    /// upstream arrivals, and delays.
    #[test]
    fn fused_convolve_max_matches_composed(
        acc in dist_strategy(),
        upstream in dist_strategy(),
        delay in dist_strategy(),
    ) {
        let mut scratch = DistScratch::new();
        let composed = acc.max_independent(&upstream.convolve(&delay));
        let fused = acc.convolve_max_into(&upstream, &delay, &mut scratch);
        prop_assert_eq!(composed.offset(), fused.offset());
        prop_assert_eq!(composed.support_len(), fused.support_len());
        for (i, (x, y)) in composed.mass().iter().zip(fused.mass()).enumerate() {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "bin {}", i);
        }
        // Recycling the result and re-running must reproduce it exactly.
        let first = fused.clone();
        scratch.recycle(fused);
        let again = acc.convolve_max_into(&upstream, &delay, &mut scratch);
        prop_assert_eq!(first, again);
    }
}
