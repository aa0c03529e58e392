//! Regenerates **Table 2** of the paper: per-iteration runtime of the
//! brute-force statistical optimizer vs the pruned algorithm, with the
//! improvement factor and the per-iteration range, plus pruning-rate
//! statistics (the paper reports up to 55 of 56 candidates pruned) and
//! the count of fronts the sink-aware bound pruned.
//!
//! The two selectors provably make identical choices, so they follow the
//! same sizing trajectory; this binary advances one shared circuit with
//! the pruned selection and times both selectors at each step (the
//! brute-force selector on a budgeted subset of iterations when not
//! `--full`, since it is the expensive side).
//!
//! ```text
//! cargo run --release -p statsize-bench --bin table2 [-- --full]
//! ```

use statsize::{BruteForceSelector, Objective, PrunedSelector, TimedCircuit};
use statsize_bench::emit::Table;
use statsize_bench::{suite, ExperimentConfig};
use statsize_cells::{CellLibrary, VariationModel};
use std::time::Instant;

fn main() {
    let cfg = ExperimentConfig::from_args();
    let lib = CellLibrary::synthetic_180nm();
    let variation = VariationModel::paper_default();
    let objective = Objective::percentile(0.99);
    // Brute force is the expensive side: time it on a subset of the
    // iterations unless running at paper scale.
    let brute_iters = if cfg.full {
        cfg.iterations
    } else {
        cfg.iterations.min(5)
    };

    println!(
        "Table 2: runtime per sizing iteration, brute force vs pruned\n\
         (dt = {} ps; {} pruned / {} brute-force iterations per circuit; seed {})\n",
        cfg.dt, cfg.iterations, brute_iters, cfg.seed
    );

    let mut table = Table::new([
        "name",
        "brute (s)",
        "pruned (s)",
        "impr.",
        "range pruned (s)",
        "range impr.",
        "pruned %",
        "sink-pruned",
    ]);

    for name in &cfg.circuits {
        let nl = suite::build_circuit(name, cfg.seed);
        let mut circuit = TimedCircuit::new(&nl, &lib, variation, cfg.dt);
        let brute = BruteForceSelector::new(1.0);
        let pruned = PrunedSelector::new(1.0);

        let mut brute_times: Vec<f64> = Vec::new();
        let mut pruned_times: Vec<f64> = Vec::new();
        let mut pruned_fracs: Vec<f64> = Vec::new();
        let mut sink_pruned = 0;

        for iter in 0..cfg.iterations {
            let t0 = Instant::now();
            let (sel_p, stats) = pruned.select_with_stats(&circuit, objective);
            pruned_times.push(t0.elapsed().as_secs_f64());
            pruned_fracs.push(stats.pruned_fraction());
            sink_pruned += stats.sink_pruned;

            if iter < brute_iters {
                let t1 = Instant::now();
                let sel_b = brute.select(&circuit, objective);
                brute_times.push(t1.elapsed().as_secs_f64());
                assert_eq!(
                    sel_b, sel_p,
                    "{name}: pruned and brute-force selections diverged at iteration {iter}"
                );
            }

            match sel_p {
                Some(s) => circuit.commit_resize(s.gate, 1.0),
                None => break,
            }
        }

        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let b_avg = mean(&brute_times);
        let p_avg = mean(&pruned_times);
        let p_min = pruned_times.iter().copied().fold(f64::INFINITY, f64::min);
        let p_max = pruned_times.iter().copied().fold(0.0f64, f64::max);
        // Improvement-factor range over the iterations where both ran.
        let (mut i_min, mut i_max) = (f64::INFINITY, 0.0f64);
        for (b, p) in brute_times.iter().zip(&pruned_times) {
            let f = b / p;
            i_min = i_min.min(f);
            i_max = i_max.max(f);
        }
        let avg_pruned_pct = 100.0 * mean(&pruned_fracs);

        table.row([
            name.clone(),
            format!("{b_avg:.3}"),
            format!("{p_avg:.3}"),
            format!("{:.1}", b_avg / p_avg),
            format!("{p_min:.3}-{p_max:.3}"),
            format!("{i_min:.0}-{i_max:.0}"),
            format!("{avg_pruned_pct:.1}"),
            sink_pruned.to_string(),
        ]);
        eprintln!(
            "  {name}: brute {b_avg:.3} s/iter, pruned {p_avg:.3} s/iter, {:.1}x",
            b_avg / p_avg
        );
    }

    println!("{}", table.render());
    println!(
        "(identical selections asserted on every co-timed iteration;\n\
         `pruned %` = mean fraction of candidate gates eliminated by the bound;\n\
         `sink-pruned` = fronts, over all iterations, pruned by the sink-aware\n\
         bound where the front bound alone would have advanced them)"
    );
}
