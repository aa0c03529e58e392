//! Validates the SSTA upper bound against Monte-Carlo simulation, on a
//! benchmark circuit and on the worst case for the independence
//! approximation (a perfectly reconvergent diamond).
//!
//! Reproduces the paper's Section 4 observation: the bound tracks Monte
//! Carlo closely (within ~1% at the 99-percentile under the matching
//! sampling model) while always remaining conservative.
//!
//! ```text
//! cargo run --release --example monte_carlo_validation
//! ```

use statsize_cells::{CellLibrary, DelayModel, GateSizes, VariationModel};
use statsize_netlist::{generator, shapes, Netlist};
use statsize_ssta::{ArcDelays, MonteCarlo, SamplingMode, SstaAnalysis, TimingGraph};

fn compare(label: &str, nl: &Netlist, samples: usize) {
    let lib = CellLibrary::synthetic_180nm();
    let model = DelayModel::new(&lib, nl);
    let sizes = GateSizes::minimum(nl);
    let variation = VariationModel::paper_default();
    let graph = TimingGraph::build(nl);
    let delays = ArcDelays::compute(nl, &model, &sizes, &variation, 1.0);
    let ssta = SstaAnalysis::run(&graph, &delays);
    let mc = MonteCarlo::new(samples, 42, SamplingMode::PerArc).run(&graph, &delays, &variation);

    println!("{label} ({} gates, {samples} MC samples):", nl.gate_count());
    println!(
        "  {:>6}  {:>10}  {:>10}  {:>7}",
        "p", "bound (ps)", "MC (ps)", "diff %"
    );
    for p in [0.50, 0.90, 0.99] {
        let bound = ssta.circuit_delay_percentile(p);
        let sampled = mc.percentile(p);
        println!(
            "  {:>5.0}%  {bound:>10.1}  {sampled:>10.1}  {:>+7.2}",
            p * 100.0,
            100.0 * (bound - sampled) / sampled
        );
    }
    println!();
}

fn main() {
    println!("SSTA bound vs Monte Carlo (per-arc sampling matches the bound's model)\n");

    // A benchmark-scale circuit: moderate reconvergence, tight bound.
    let c432 = generator::generate_iscas("c432", 1).expect("known profile");
    compare("c432 profile", &c432, 100_000);

    // A chain: no max operations at all — the bound is exact up to
    // discretization and sampling noise.
    compare("chain of 20", &shapes::chain("chain", 20), 100_000);

    // A diamond: the two reconverging arrival times are perfectly
    // correlated, the worst case for the independence approximation — the
    // bound is visibly, but safely, conservative.
    compare("diamond (arms of 10)", &shapes::diamond("d", 10), 100_000);

    println!(
        "the bound is conservative everywhere (positive diff) and tightest where\n\
         reconvergent correlation is weak — the paper's justification for optimizing\n\
         on the bound instead of the (exponential-cost) exact distribution."
    );
}
