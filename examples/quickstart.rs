//! Quickstart: analyze a circuit statistically and size its most
//! sensitive gate.
//!
//! Mirrors the paper's Figure 2: a sizing move perturbs the circuit-delay
//! CDF, and the sensitivity is the change of its 99-percentile point.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use statsize::{Objective, PrunedSelector, TimedCircuit};
use statsize_cells::{CellLibrary, VariationModel};
use statsize_netlist::bench;

fn main() {
    // 1. A circuit: the real ISCAS-85 c17 (6 NAND gates), parsed from the
    //    embedded `.bench` text.
    let netlist = bench::c17();
    println!(
        "circuit `{}`: {} gates, {} nets, depth {}",
        netlist.name(),
        netlist.gate_count(),
        netlist.net_count(),
        netlist.depth()
    );

    // 2. Bind it to the synthetic 180 nm library with the paper's
    //    variation model (σ = 10% of nominal, truncated at ±3σ) and run
    //    block-based SSTA on a 1 ps lattice.
    let library = CellLibrary::synthetic_180nm();
    let mut circuit = TimedCircuit::new(&netlist, &library, VariationModel::paper_default(), 1.0);

    let sink = circuit.ssta().sink_arrival();
    println!("\ncircuit-delay distribution (upper bound, per DAC'03):");
    println!("  mean  = {:7.1} ps", sink.mean());
    println!("  sigma = {:7.1} ps", sink.std_dev());
    for p in [0.50, 0.90, 0.99] {
        println!("  T({:2.0}%) = {:6.1} ps", p * 100.0, sink.percentile(p));
    }

    // 3. Find the most sensitive gate with the paper's pruned algorithm
    //    and size it up (Δw = 1.0).
    let objective = Objective::percentile(0.99);
    let before = circuit.objective_value(objective);
    let (selection, stats) = PrunedSelector::new(1.0).select_with_stats(&circuit, objective);
    let selection = selection.expect("a minimum-size circuit always has an improving gate");
    let gate_net = netlist.gate(selection.gate).output();
    println!(
        "\nmost sensitive gate: the {} driving net `{}` \
         (S = {:.3} ps per unit width; {} of {} candidates pruned)",
        netlist.gate(selection.gate).kind(),
        netlist.net(gate_net).name(),
        selection.sensitivity,
        stats.pruned,
        stats.candidates,
    );

    circuit.commit_resize(selection.gate, 1.0);
    let after = circuit.objective_value(objective);
    println!(
        "T(99%): {before:.1} ps -> {after:.1} ps  (improved {:.1} ps at +1.0 width)",
        before - after
    );
}
