//! Block-based statistical static timing analysis (SSTA).
//!
//! This crate implements the timing substrate of the DATE'05 paper:
//!
//! * [`TimingGraph`] — the paper's Definition 1: a DAG with one virtual
//!   source and one virtual sink, whose interior nodes are the circuit's
//!   nets and whose edges are gate input→output pin arcs (plus zero-delay
//!   source→PI and PO→sink edges). Nodes carry longest-path levels, which
//!   strictly increase along every edge — the property the paper's
//!   level-by-level perturbation-front propagation relies on.
//! * [`ArcDelays`] — per-gate lattice delay distributions derived from the
//!   EQ 1 delay model and the truncated-Gaussian variation model, with
//!   incremental recomputation when gate widths change.
//! * [`SstaAnalysis`] — a full block-based SSTA pass: discretized
//!   arrival-time PDFs propagated in topological order with convolution
//!   and the independence-approximation statistical max (the DAC'03 upper
//!   bound on the circuit-delay CDF), plus incremental cone re-propagation
//!   after a sizing commit.
//! * [`ConeWalk`] — level-by-level propagation of *perturbed* arrival
//!   times from a set of per-gate delay overrides; both the brute-force
//!   sensitivity computation and the paper's pruned perturbation fronts
//!   are built on it. Walks of one selector sweep may share an
//!   [`EdgeConvMemo`], which computes each side-input edge convolution
//!   once per sweep.
//! * [`run_sta`] — deterministic STA (nominal delays, critical path), the
//!   substrate of the deterministic-optimization baseline.
//! * [`MonteCarlo`] — sampled validation of the SSTA bound (paper §4 and
//!   Figure 10), with per-gate or per-arc sampling.
//! * [`paths`] — path-delay histograms for the "wall of
//!   critical paths" analysis (paper Figure 1).
//!
//! # Example
//!
//! ```
//! use statsize_cells::{CellLibrary, DelayModel, GateSizes, VariationModel};
//! use statsize_netlist::bench;
//! use statsize_ssta::{ArcDelays, SstaAnalysis, TimingGraph};
//!
//! let nl = bench::c17();
//! let lib = CellLibrary::synthetic_180nm();
//! let model = DelayModel::new(&lib, &nl);
//! let sizes = GateSizes::minimum(&nl);
//! let variation = VariationModel::paper_default();
//!
//! let graph = TimingGraph::build(&nl);
//! let delays = ArcDelays::compute(&nl, &model, &sizes, &variation, 1.0);
//! let ssta = SstaAnalysis::run(&graph, &delays);
//! let t99 = ssta.circuit_delay_percentile(0.99);
//! assert!(t99 > ssta.sink_arrival().mean());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod analysis;
mod delays;
mod graph;
mod hash;
mod monte_carlo;
mod node;
pub mod paths;
mod propagate;
mod sta;

pub use analysis::{SstaAnalysis, SstaUndo};
pub use delays::ArcDelays;
pub use graph::{InEdge, TimingGraph};
pub use hash::{NodeHasher, NodeMap, NodeSet};
pub use monte_carlo::{MonteCarlo, SamplingMode};
pub use node::TimingNode;
pub use propagate::{ConeWalk, DelayOverrides, EdgeConvMemo, StepReport};
pub use sta::{run_sta, run_sta_with, StaResult};

// Compile-time thread-safety audit. The parallel selector sweeps in
// `statsize-core` move `ConeWalk`s (with their `DelayOverrides` and
// `StepReport`s) across worker threads and share the base `SstaAnalysis`,
// `TimingGraph`, and `ArcDelays` by reference. These assertions make the
// contract auditable in one place and fail to compile if a future field
// (an `Rc`, a raw pointer, a `RefCell`) silently breaks it.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_sync<T: Sync>() {}
    assert_send::<ConeWalk<'static>>();
    assert_send::<EdgeConvMemo<'static>>();
    assert_send::<StepReport>();
    assert_send::<DelayOverrides>();
    assert_sync::<DelayOverrides>();
    assert_send::<SstaAnalysis>();
    assert_sync::<SstaAnalysis>();
    assert_sync::<TimingGraph>();
    assert_sync::<ArcDelays>();
    assert_send::<MonteCarlo>();
};
