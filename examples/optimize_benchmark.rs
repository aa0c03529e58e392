//! Optimize an ISCAS-85-profile benchmark three ways — deterministic,
//! statistical (pruned, exact), and heuristic — and compare the resulting
//! 99-percentile delays at equal area (a one-circuit slice of the paper's
//! Table 1).
//!
//! ```text
//! cargo run --release --example optimize_benchmark [c432] [iters]
//! ```

use statsize::{Objective, Optimizer, SelectorKind, TimedCircuit};
use statsize_cells::{CellLibrary, VariationModel};
use statsize_netlist::generator;

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| "c432".to_string());
    let iters: usize = args
        .next()
        .map(|s| s.parse().expect("iterations must be a number"))
        .unwrap_or(40);

    let netlist = generator::generate_iscas(&name, 1)
        .unwrap_or_else(|| panic!("unknown ISCAS-85 profile `{name}`"));
    let stats = netlist.stats();
    println!(
        "benchmark {name}: {} nodes / {} edges (timing graph), depth {}\n",
        stats.timing_nodes, stats.timing_edges, stats.depth
    );

    let library = CellLibrary::synthetic_180nm();
    let variation = VariationModel::paper_default();
    let objective = Objective::percentile(0.99);

    // Deterministic first: its final width is the shared area budget.
    let mut det = TimedCircuit::new(&netlist, &library, variation, 2.0);
    let det_result = Optimizer::new(objective, SelectorKind::Deterministic)
        .with_max_iterations(iters)
        .run(&mut det);
    let budget = det_result.final_width;

    let mut rows = vec![(
        "deterministic",
        det_result.final_objective,
        det_result.iterations_run(),
        det_result.mean_iteration_time(),
    )];
    for (label, kind) in [
        ("statistical", SelectorKind::Pruned),
        ("heuristic(2)", SelectorKind::Heuristic { lookahead: 2 }),
    ] {
        let mut c = TimedCircuit::new(&netlist, &library, variation, 2.0);
        let r = Optimizer::new(objective, kind)
            .with_width_limit(budget)
            .with_max_iterations(iters)
            .run(&mut c);
        rows.push((
            label,
            r.final_objective,
            r.iterations_run(),
            r.mean_iteration_time(),
        ));
    }

    let initial = det_result.initial_objective;
    println!(
        "T(99%) initial: {:.3} ns, width budget +{:.1}%\n",
        initial / 1000.0,
        det_result.width_increase_percent()
    );
    println!(
        "{:>14}  {:>9}  {:>7}  {:>7}  {:>9}",
        "optimizer", "T99 (ns)", "impr.%", "iters", "s/iter"
    );
    let det_t99 = rows[0].1;
    for (label, t99, iters, per_iter) in &rows {
        println!(
            "{label:>14}  {:>9.3}  {:>7.2}  {iters:>7}  {:>9.3}",
            t99 / 1000.0,
            100.0 * (det_t99 - t99) / det_t99,
            per_iter.as_secs_f64(),
        );
    }
    println!("\n(impr.% is relative to the deterministic result at the same total width)");
}
