//! The paper's Figure 1, as a runnable demonstration: two circuits with
//! the *same deterministic delay* but different path distributions have
//! different **statistical** delays.
//!
//! A "wall" of equally critical paths (what deterministic optimization
//! produces) is fragile under variation: every path can become critical,
//! so the max over many near-critical paths pushes the high percentiles
//! out. An unbalanced distribution with one dominant path is statistically
//! faster at equal nominal delay.
//!
//! ```text
//! cargo run --release --example wall_vs_balanced
//! ```

use statsize_cells::{CellLibrary, DelayModel, GateSizes, VariationModel};
use statsize_netlist::shapes;
use statsize_ssta::{run_sta, ArcDelays, SstaAnalysis, TimingGraph};

fn analyze(label: &str, lengths: &[usize]) -> (f64, f64) {
    let nl = shapes::path_bundle(label, lengths);
    let lib = CellLibrary::synthetic_180nm();
    let model = DelayModel::new(&lib, &nl);
    let sizes = GateSizes::minimum(&nl);
    let variation = VariationModel::paper_default();
    let graph = TimingGraph::build(&nl);
    let delays = ArcDelays::compute(&nl, &model, &sizes, &variation, 1.0);

    let sta = run_sta(&graph, &delays);
    let ssta = SstaAnalysis::run(&graph, &delays);
    let det = sta.circuit_delay();
    let t99 = ssta.circuit_delay_percentile(0.99);
    println!(
        "{label:>10}: paths {lengths:?}\n            deterministic delay {det:7.1} ps | \
         statistical T(99%) {t99:7.1} ps | gap {:5.1} ps",
        t99 - det
    );
    (det, t99)
}

fn main() {
    println!("Figure 1 demo: same deterministic delay, different statistical delay\n");

    // Scenario 1: a wall — sixteen paths of identical length (the paper's
    // Figure 1a, solid line).
    let (det_wall, t99_wall) = analyze("wall", &[12; 16]);

    // Scenario 2: unbalanced — one 12-gate path, the rest much shorter
    // (Figure 1a, dashed line).
    let lengths: Vec<usize> = std::iter::once(12).chain([6; 15]).collect();
    let (det_unbal, t99_unbal) = analyze("unbalanced", &lengths);

    assert_eq!(
        det_wall, det_unbal,
        "both circuits have the same deterministic critical delay"
    );
    println!(
        "\nequal deterministic delay ({det_wall:.1} ps), but the wall's T(99%) is \
         {:.1} ps worse:\nthe statistical max over 16 equal paths has a heavier upper tail \
         than over 1.",
        t99_wall - t99_unbal
    );
    println!(
        "\nthis is why optimizing the deterministic delay alone (which builds such \
         walls)\ncan *worsen* the true statistical circuit delay — the motivation for \
         statistical sizing."
    );
}
