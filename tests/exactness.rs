//! The paper's central correctness claim: the pruned algorithm's results
//! are *identical* to brute force ("Our optimization results are identical
//! with those of the brute force approach", Section 4).
//!
//! These tests drive both selectors through multi-iteration optimizations
//! on a variety of circuits — reconvergent, symmetric (tie-rich), and
//! randomly generated — asserting bit-identical selections and
//! sensitivities at every step.

use statsize::{
    BruteForceSelector, HeuristicSelector, Objective, Optimizer, PrunedSelector, SelectorKind,
    TimedCircuit,
};
use statsize_cells::{CellLibrary, VariationModel};
use statsize_netlist::generator::{self, Profile};
use statsize_netlist::{bench, shapes, Netlist};

fn assert_identical_trajectories(nl: &Netlist, dt: f64, steps: usize, objective: Objective) {
    let lib = CellLibrary::synthetic_180nm();
    let mut circuit = TimedCircuit::new(nl, &lib, VariationModel::paper_default(), dt);
    let brute = BruteForceSelector::new(1.0);
    let pruned = PrunedSelector::new(1.0);
    for step in 0..steps {
        let b = brute.select(&circuit, objective);
        let (p, stats) = pruned.select_with_stats(&circuit, objective);
        assert_eq!(
            b,
            p,
            "{}: selector divergence at step {step} (stats: {stats:?})",
            nl.name()
        );
        match b {
            Some(sel) => circuit.commit_resize(sel.gate, 1.0),
            None => break,
        }
    }
}

#[test]
fn identical_on_c17() {
    assert_identical_trajectories(&bench::c17(), 1.0, 8, Objective::percentile(0.99));
}

#[test]
fn identical_on_reconvergent_grid() {
    assert_identical_trajectories(
        &shapes::grid("g", 4, 4),
        1.0,
        5,
        Objective::percentile(0.99),
    );
}

#[test]
fn identical_on_tie_rich_symmetric_circuits() {
    // Perfect symmetry produces exact sensitivity ties; the deterministic
    // tie-break must keep the selectors aligned.
    assert_identical_trajectories(
        &shapes::diamond("d", 4),
        1.0,
        6,
        Objective::percentile(0.99),
    );
    assert_identical_trajectories(
        &shapes::path_bundle("b", &[5, 5, 5, 5]),
        1.0,
        6,
        Objective::percentile(0.99),
    );
}

#[test]
fn identical_under_the_mean_objective() {
    assert_identical_trajectories(&bench::c17(), 1.0, 5, Objective::Mean);
}

#[test]
fn identical_at_other_percentiles() {
    assert_identical_trajectories(
        &shapes::grid("g", 3, 3),
        1.0,
        4,
        Objective::percentile(0.90),
    );
    assert_identical_trajectories(
        &shapes::grid("g", 3, 3),
        1.0,
        4,
        Objective::percentile(0.50),
    );
}

#[test]
fn identical_on_random_circuits_across_seeds() {
    let profile = Profile {
        name: "rnd",
        inputs: 6,
        outputs: 5,
        nodes: 64,
        edges: 130,
        depth: 8,
    };
    for seed in 0..8u64 {
        let nl = generator::generate(&profile, seed);
        assert_identical_trajectories(&nl, 1.0, 3, Objective::percentile(0.99));
    }
}

#[test]
fn identical_on_a_benchmark_profile() {
    let nl = generator::generate_iscas("c432", 11).expect("known profile");
    assert_identical_trajectories(&nl, 2.0, 3, Objective::percentile(0.99));
}

#[test]
fn identical_at_fine_dt() {
    // A fine lattice widens every arrival, so each side-input convolution
    // the pruned sweep takes from its per-sweep memo spans many bins.
    for nl in [bench::c17(), shapes::grid("g", 4, 4)] {
        assert_identical_trajectories(&nl, 0.25, 3, Objective::percentile(0.99));
    }
}

/// Pruned ≡ brute on the fine-grid campaign profiles. Minutes in the
/// debug profile; run with
/// `cargo test --release -q --test exactness -- --ignored`.
#[test]
#[ignore = "slow: run in release with --ignored"]
fn identical_on_benchmark_profiles_at_fine_dt() {
    for name in ["c432", "c880"] {
        let nl = generator::generate_iscas(name, 1).expect("known profile");
        assert_identical_trajectories(&nl, 0.25, 2, Objective::percentile(0.99));
    }
}

/// Pruned ≡ brute where the sink-aware bound prunes most: the benchmark
/// descent (gen1200 at dt 1, six steps), the c499 and c1355 netlists,
/// whose fronts reach a few of their 32 outputs, and top-3 selections on
/// gen600. Run with `cargo test --release -q --test exactness -- --ignored`.
#[test]
#[ignore = "slow: run in release with --ignored"]
fn identical_where_the_sink_aware_bound_prunes() {
    let objective = Objective::percentile(0.99);
    for (name, steps) in [("gen1200", 6), ("c499", 4), ("c1355", 4)] {
        let nl = statsize_bench::suite::build_circuit(name, 1);
        assert_identical_trajectories(&nl, 1.0, steps, objective);
    }
    let nl = statsize_bench::suite::build_circuit("gen600", 1);
    let lib = CellLibrary::synthetic_180nm();
    let mut circuit = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), 1.0);
    for step in 0..3 {
        let b = BruteForceSelector::new(1.0).select_top_k(&circuit, objective, 3);
        let p = PrunedSelector::new(1.0).select_top_k(&circuit, objective, 3);
        assert_eq!(b, p, "gen600: top-3 mismatch at step {step}");
        let Some(best) = b.first() else {
            break;
        };
        circuit.commit_resize(best.gate, 1.0);
    }
}

/// Pruned ≡ brute on the campaign benchmark's warm job that the mean's
/// sink-aware bound prunes most: c1355 at dt 0.25, sized by a two-step
/// 99th-percentile descent, then two steps under the mean. The reusing
/// optimizer run, the public selector and brute force walk one
/// trajectory, gate and sensitivity bits alike. Run with
/// `cargo test --release -q --test exactness -- --ignored`.
#[test]
#[ignore = "slow: run in release with --ignored"]
fn identical_on_the_warm_mean_job() {
    let nl = statsize_bench::suite::build_circuit("c1355", 1);
    let lib = CellLibrary::synthetic_180nm();
    let dt = 0.25;
    let mut start = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), dt);
    Optimizer::new(Objective::percentile(0.99), SelectorKind::Pruned)
        .with_max_iterations(2)
        .run(&mut start);
    let widths = start.sizes().widths().to_vec();
    let at_start = || {
        let mut c = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), dt);
        c.set_sizes(&widths);
        c
    };
    let mut reusing = at_start();
    let run = Optimizer::new(Objective::Mean, SelectorKind::Pruned)
        .with_max_iterations(2)
        .run(&mut reusing);
    let mut circuit = at_start();
    for step in 0..2 {
        let b = BruteForceSelector::new(1.0).select(&circuit, Objective::Mean);
        let p = PrunedSelector::new(1.0).select(&circuit, Objective::Mean);
        assert_eq!(b, p, "c1355: pruned vs brute at step {step}");
        let sel = b.expect("the mean still improves");
        let r = &run.iterations[step];
        assert_eq!(
            (r.gate, r.sensitivity.to_bits()),
            (sel.gate, sel.sensitivity.to_bits()),
            "c1355: reusing run vs brute at step {step}"
        );
        circuit.commit_resize(sel.gate, 1.0);
    }
    assert_eq!(reusing.sizes(), circuit.sizes());
}

/// `Optimizer::run` reuses parked Figure-7 bounds across its sweeps and
/// prunes on pre-bounds without initializing;
/// `PrunedSelector::select_with_stats` initializes every candidate. The
/// reusing run, a cold loop of the public selector, and brute force must
/// walk one trajectory, gate and sensitivity bits alike, on one and two
/// threads. Serially, the reusing sweep must complete no more fronts
/// than the cold one, and every candidate must end exactly one way.
/// Returns the bounds the runs reused.
fn assert_reuse_is_invisible(nl: &Netlist, dt: f64, steps: usize, obj: Objective) -> usize {
    let lib = CellLibrary::synthetic_180nm();
    let mut reused = 0;
    for threads in [1, 2] {
        let mut reusing = TimedCircuit::new(nl, &lib, VariationModel::paper_default(), dt);
        let run = Optimizer::new(obj, SelectorKind::Pruned)
            .with_threads(threads)
            .with_max_iterations(steps)
            .run(&mut reusing);
        let mut records = run.iterations.iter();
        let mut cold = TimedCircuit::new(nl, &lib, VariationModel::paper_default(), dt);
        let pruned = PrunedSelector::new(1.0).with_threads(threads);
        let brute = BruteForceSelector::new(1.0).with_threads(threads);
        for step in 0..steps {
            let (p, stats) = pruned.select_with_stats(&cold, obj);
            let b = brute.select(&cold, obj);
            let at = format!(
                "{} dt {dt}, {obj}, threads {threads}, step {step}",
                nl.name()
            );
            assert_eq!(b, p, "{at}: pruned vs brute");
            let Some(sel) = p else {
                break;
            };
            let r = records
                .next()
                .unwrap_or_else(|| panic!("{at}: run stopped early"));
            assert_eq!(
                (r.gate, r.sensitivity.to_bits()),
                (sel.gate, sel.sensitivity.to_bits()),
                "{at}: reusing run vs cold loop"
            );
            let warm = r.prune.expect("pruned sweeps record stats");
            assert_eq!(
                warm.pruned + warm.completed,
                warm.candidates,
                "{at}: every candidate ends exactly one way"
            );
            if threads == 1 {
                assert!(
                    warm.completed <= stats.completed,
                    "{at}: reusing sweep completed {} fronts, cold {}",
                    warm.completed,
                    stats.completed
                );
            }
            assert_eq!(stats.bounds_reused, 0, "{at}: the public sweep is cold");
            reused += warm.bounds_reused;
            cold.commit_resize(sel.gate, 1.0);
        }
        assert!(
            records.next().is_none(),
            "{} dt {dt}: run went further",
            nl.name()
        );
        assert_eq!(reusing.sizes(), cold.sizes());
    }
    reused
}

/// Under the 99th percentile, and on the small cases also under the
/// mean (keyed by the delay-only pre-bound) and the median (whose
/// pre-bound reads the sink-aware table).
#[test]
fn reused_bounds_leave_trajectories_identical() {
    let objectives = [
        Objective::percentile(0.99),
        Objective::Mean,
        Objective::percentile(0.5),
    ];
    let cases = [
        (bench::c17(), 1.0, 8, &objectives[..]),
        (shapes::grid("g", 4, 4), 1.0, 6, &objectives[..]),
        (shapes::diamond("d", 4), 0.25, 4, &objectives[..]),
        (
            generator::generate_iscas("c432", 11).expect("known profile"),
            2.0,
            3,
            &objectives[..1],
        ),
    ];
    let reused: usize = cases
        .iter()
        .flat_map(|(nl, dt, steps, objs)| {
            objs.iter()
                .map(move |&obj| assert_reuse_is_invisible(nl, *dt, *steps, obj))
        })
        .sum();
    assert!(reused > 0, "no bound was reused");
}

/// The same on the fine-grid campaign profiles, and on c432 under both
/// pre-bound kinds: run with
/// `cargo test --release -q --test exactness -- --ignored`.
#[test]
#[ignore = "slow: run in release with --ignored"]
fn reused_bounds_leave_fine_dt_profile_trajectories_identical() {
    let p99 = Objective::percentile(0.99);
    for (name, objectives) in [
        (
            "c432",
            &[p99, Objective::percentile(0.5), Objective::Mean][..],
        ),
        ("c880", &[p99][..]),
    ] {
        let nl = generator::generate_iscas(name, 1).expect("known profile");
        for &obj in objectives {
            assert!(
                assert_reuse_is_invisible(&nl, 0.25, 3, obj) > 0,
                "{name}, {obj}"
            );
        }
    }
}

#[test]
fn unbounded_lookahead_heuristic_equals_brute_force() {
    let nl = shapes::grid("g", 3, 4);
    let lib = CellLibrary::synthetic_180nm();
    let circuit = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), 1.0);
    let obj = Objective::percentile(0.99);
    let h = HeuristicSelector::new(1.0, usize::MAX).select(&circuit, obj);
    let b = BruteForceSelector::new(1.0).select(&circuit, obj);
    assert_eq!(h, b);
}

#[test]
fn top_k_selection_matches_brute_force() {
    // The multi-gate variant (paper Section 3.3) must stay exact: the
    // pruned top-k equals the brute-force top-k, including order.
    let lib = CellLibrary::synthetic_180nm();
    for (nl, dt) in [
        (bench::c17(), 1.0),
        (shapes::grid("g", 4, 4), 1.0),
        (
            generator::generate_iscas("c432", 9).expect("known profile"),
            2.0,
        ),
    ] {
        let circuit = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), dt);
        let obj = Objective::percentile(0.99);
        for k in [1usize, 3, 8] {
            let b = BruteForceSelector::new(1.0).select_top_k(&circuit, obj, k);
            let p = PrunedSelector::new(1.0).select_top_k(&circuit, obj, k);
            assert_eq!(b, p, "{}: top-{k} mismatch", nl.name());
            assert!(b.len() <= k);
            // Sorted by descending sensitivity.
            for w in b.windows(2) {
                assert!(w[0].sensitivity >= w[1].sensitivity);
            }
        }
    }
}

#[test]
fn multi_move_optimizer_still_improves() {
    let nl = generator::generate_iscas("c432", 3).expect("known profile");
    let lib = CellLibrary::synthetic_180nm();
    let obj = Objective::percentile(0.99);

    let mut batched = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), 2.0);
    let rb = Optimizer::new(obj, SelectorKind::Pruned)
        .with_moves_per_iteration(4)
        .with_max_iterations(12)
        .run(&mut batched);
    assert_eq!(rb.iterations_run(), 12);
    assert!(rb.final_objective < rb.initial_objective);

    // Batched moves amortize selection: the total selection work (recorded
    // on the first move of each batch) must be under that of 12 singles.
    let mut single = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), 2.0);
    let rs = Optimizer::new(obj, SelectorKind::Pruned)
        .with_max_iterations(12)
        .run(&mut single);
    let batched_selections = rb.iterations.iter().filter(|r| r.prune.is_some()).count();
    let single_selections = rs.iterations.iter().filter(|r| r.prune.is_some()).count();
    assert!(batched_selections < single_selections);
}

#[test]
fn full_optimizer_runs_agree_end_to_end() {
    let nl = generator::generate_iscas("c432", 5).expect("known profile");
    let lib = CellLibrary::synthetic_180nm();
    let obj = Objective::percentile(0.99);

    let mut a = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), 2.0);
    let ra = Optimizer::new(obj, SelectorKind::Pruned)
        .with_max_iterations(5)
        .run(&mut a);

    let mut b = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), 2.0);
    let rb = Optimizer::new(obj, SelectorKind::BruteForce)
        .with_max_iterations(5)
        .run(&mut b);

    assert_eq!(ra.final_objective, rb.final_objective);
    assert_eq!(ra.iterations_run(), rb.iterations_run());
    let gates_a: Vec<_> = ra.iterations.iter().map(|r| r.gate).collect();
    let gates_b: Vec<_> = rb.iterations.iter().map(|r| r.gate).collect();
    assert_eq!(gates_a, gates_b, "gate sequences must match");
    assert_eq!(a.sizes(), b.sizes(), "final sizing solutions must match");
}
