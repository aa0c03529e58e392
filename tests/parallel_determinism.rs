//! Determinism suite for the selectors' multi-threaded candidate sweeps.
//!
//! The contract under test: for every thread count, the selectors return
//! **bit-identical** `Selection`s to a one-worker sweep — same gates, same
//! sensitivities, same order — and the `PruneStats` accounting invariant
//! `pruned + completed == candidates` holds (the *split* between the two
//! counters is allowed to differ across schedules; the selections are
//! not).

use statsize::{BruteForceSelector, Objective, PruneStats, PrunedSelector, TimedCircuit};
use statsize_cells::{CellLibrary, VariationModel};
use statsize_netlist::generator;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn assert_stats_invariant(stats: &PruneStats, ctx: &str) {
    assert_eq!(
        stats.pruned + stats.completed,
        stats.candidates,
        "{ctx}: every candidate must end exactly one way, got {stats:?}"
    );
}

/// One-worker-vs-N-worker bit-identity of `select` and `select_top_k` on
/// one generated ISCAS profile, under the mean objective (no sink-aware
/// bound) and two percentiles, plus the stats invariant at every thread
/// count. The public entry points reuse no parked bound and initialize
/// every candidate before pruning it.
fn check_pruned_profile(name: &str, seed: u64, dt: f64, k: usize) {
    let nl = generator::generate_iscas(name, seed).unwrap();
    let lib = CellLibrary::synthetic_180nm();
    let circuit = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), dt);
    let selector = PrunedSelector::new(1.0);

    for obj in [
        Objective::Mean,
        Objective::percentile(0.5),
        Objective::percentile(0.99),
    ] {
        let (want_best, serial_stats) = selector.with_threads(1).select_with_stats(&circuit, obj);
        let want_best = want_best.expect("minimum-size profiles always have an improving gate");
        assert_stats_invariant(&serial_stats, &format!("{name}, {obj}: one worker"));
        let want_top = selector.with_threads(1).select_top_k(&circuit, obj, k);
        assert_eq!(
            want_top.first(),
            Some(&want_best),
            "{name}, {obj}: top-1 is the argmax"
        );

        for threads in THREAD_COUNTS {
            let par = selector.with_threads(threads);
            let (got_best, stats) = par.select_with_stats(&circuit, obj);
            assert_eq!(
                Some(want_best),
                got_best,
                "{name}, {obj}: select must be bit-identical at {threads} threads"
            );
            let ctx = format!("{name}, {obj}: {threads} threads");
            assert_stats_invariant(&stats, &ctx);
            assert_eq!(stats.candidates, serial_stats.candidates, "{ctx}");
            assert_eq!(
                (stats.bounds_reused, stats.prebound_pruned),
                (0, 0),
                "{ctx}: public entry points stay cold"
            );

            let (got_top, stats) = par.select_top_k_with_stats(&circuit, obj, k);
            assert_eq!(
                want_top, got_top,
                "{ctx}: select_top_k({k}) must be bit-identical"
            );
            assert_eq!(
                (stats.bounds_reused, stats.prebound_pruned),
                (0, 0),
                "{ctx}: public entry points stay cold"
            );
        }
    }
}

#[test]
fn pruned_parallel_is_bit_identical_on_c432() {
    check_pruned_profile("c432", 1, 2.0, 4);
}

#[test]
fn pruned_parallel_is_bit_identical_on_c880() {
    // Coarser lattice than the bench profile: identical code paths and
    // scheduling behavior, smaller supports, so the debug-mode suite
    // stays fast.
    check_pruned_profile("c880", 1, 3.0, 4);
}

#[test]
fn brute_force_parallel_is_bit_identical_on_c432() {
    let nl = generator::generate_iscas("c432", 1).unwrap();
    let lib = CellLibrary::synthetic_180nm();
    let circuit = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), 3.0);
    let obj = Objective::percentile(0.99);
    let want = BruteForceSelector::new(1.0)
        .with_threads(1)
        .all_sensitivities(&circuit, obj);
    let got = BruteForceSelector::new(1.0)
        .with_threads(4)
        .all_sensitivities(&circuit, obj);
    assert_eq!(want, got, "full sensitivity profile must be bit-identical");
}

#[test]
fn thread_counts_beyond_the_candidate_pool_are_safe() {
    // More workers than candidates (c17 has 6 gates): the sweep caps the
    // worker count and still returns the exact serial result.
    let nl = statsize_netlist::bench::c17();
    let lib = CellLibrary::synthetic_180nm();
    let circuit = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), 1.0);
    let obj = Objective::percentile(0.99);
    let selector = PrunedSelector::new(1.0);
    let want = selector.with_threads(1).select_top_k(&circuit, obj, 3);
    for threads in [7, 64, 1024] {
        let (got, stats) = selector
            .with_threads(threads)
            .select_top_k_with_stats(&circuit, obj, 3);
        assert_eq!(want, got, "threads={threads}");
        assert_stats_invariant(&stats, &format!("c17 @ {threads} threads"));
    }
}
