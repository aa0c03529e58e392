//! The framework supports objectives beyond the paper's 99-percentile
//! point (its Section 2 notes "a wide range of cost functions").
//!
//! This example sizes the same circuit under four objectives — T(99%),
//! mean, mean+3σ, and timing yield at a target — and shows how the
//! resulting trade-offs differ. Shift-bounded objectives use the exact
//! pruned selector; the others fall back to brute force.
//!
//! ```text
//! cargo run --release --example custom_objective
//! ```

use statsize::{Objective, Optimizer, SelectorKind, TimedCircuit};
use statsize_cells::{CellLibrary, VariationModel};
use statsize_netlist::generator;

fn main() {
    let netlist = generator::generate_iscas("c432", 1).expect("known profile");
    let library = CellLibrary::synthetic_180nm();
    let variation = VariationModel::paper_default();
    let iters = 25;

    // A yield target at the unsized 10th percentile: initially only 10%
    // of dies meet it, and it is reachable, so the yield objective has a
    // usable gradient and the achieved yields differ between objectives.
    let probe = TimedCircuit::new(&netlist, &library, variation, 2.0);
    let target = probe.ssta().circuit_delay_percentile(0.10);
    drop(probe);

    let objectives = [
        Objective::percentile(0.99),
        Objective::Mean,
        Objective::MeanPlusSigma(3.0),
        Objective::YieldAt(target),
    ];

    println!(
        "sizing c432 under different objectives ({iters} iterations each; \
         yield target {:.2} ns)\n",
        target / 1000.0
    );
    println!(
        "{:>12}  {:>9}  {:>9}  {:>9}  {:>8}",
        "objective", "T99 (ns)", "mean (ns)", "m+3σ (ns)", "yield %"
    );

    for objective in objectives {
        // The pruning theory covers shift-bounded objectives only; the
        // optimizer uses brute force for the rest.
        let selector = if objective.shift_bounded() {
            SelectorKind::Pruned
        } else {
            SelectorKind::BruteForce
        };
        let mut circuit = TimedCircuit::new(&netlist, &library, variation, 2.0);
        let _ = Optimizer::new(objective, selector)
            .with_max_iterations(iters)
            .run(&mut circuit);

        let sink = circuit.ssta().sink_arrival();
        println!(
            "{:>12}  {:>9.3}  {:>9.3}  {:>9.3}  {:>8.2}",
            objective.to_string(),
            sink.percentile(0.99) / 1000.0,
            sink.mean() / 1000.0,
            (sink.mean() + 3.0 * sink.std_dev()) / 1000.0,
            100.0 * sink.cdf_at(target),
        );
    }
    println!(
        "\neach row optimizes its own column's quantity. note the yield objective's\n\
         behaviour: it sizes only until the whole distribution clears the target\n\
         (yield saturates at 100%), then its gradient vanishes and it stops —\n\
         spending less area than the percentile objectives, which keep shaping\n\
         the tail for the full iteration budget."
    );
}
