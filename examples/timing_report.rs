//! A statistical timing report: the SSTA circuit-delay percentile and
//! Monte-Carlo gate criticality, before and after deterministic sizing.
//!
//! Shows how optimization changes the *criticality profile*: before
//! sizing, criticality concentrates on a few long paths; after
//! deterministic sizing it smears across the wall.
//!
//! ```text
//! cargo run --release --example timing_report
//! ```

use statsize::{Objective, Optimizer, SelectorKind, TimedCircuit};
use statsize_cells::{CellLibrary, VariationModel};
use statsize_netlist::generator;
use statsize_ssta::{MonteCarlo, SamplingMode};

/// How many gates lie on the critical path in more than 5% of the
/// Monte-Carlo trials.
fn gates_above_five_percent(crit: &[f64]) -> usize {
    crit.iter().filter(|&&c| c > 0.05).count()
}

fn main() {
    let netlist = generator::generate_iscas("c880", 1).expect("known profile");
    let library = CellLibrary::synthetic_180nm();
    let variation = VariationModel::paper_default();
    let mut circuit = TimedCircuit::new(&netlist, &library, variation, 2.0);

    // --- Report at minimum sizes. ---
    let t99 = circuit.ssta().circuit_delay_percentile(0.99);
    println!("c880 at minimum sizes: T(99%) = {:.3} ns", t99 / 1000.0);

    // --- Criticality before and after deterministic optimization. ---
    let mc = MonteCarlo::new(4_000, 7, SamplingMode::PerGate);
    let (_, crit_before) = mc.run_with_criticality(circuit.graph(), circuit.delays(), &variation);

    let _ = Optimizer::new(Objective::percentile(0.99), SelectorKind::Deterministic)
        .with_max_iterations(80)
        .run(&mut circuit);
    let (_, crit_after) = mc.run_with_criticality(circuit.graph(), circuit.delays(), &variation);

    let busy_before = gates_above_five_percent(&crit_before);
    let busy_after = gates_above_five_percent(&crit_after);
    println!("\ncriticality profile (Monte-Carlo, 4000 trials):");
    println!("  before sizing:            {busy_before:4} gates above 5% criticality");
    println!("  after deterministic opt:  {busy_after:4} gates above 5% criticality");
    println!(
        "\nthe deterministic optimizer spreads criticality over {} more gates — the\n\
         \"wall\" of Figure 1, and the reason statistical optimization wins at equal area.",
        busy_after.saturating_sub(busy_before)
    );
}
