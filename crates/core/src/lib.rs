//! Statistical timing based optimization using gate sizing.
//!
//! This crate implements the contribution of *"Statistical Timing Based
//! Optimization using Gate Sizing"* (Agarwal, Chopra, Blaauw — DATE 2005):
//! a sensitivity-driven, coordinate-descent gate sizer whose objective is a
//! statistical measure of the circuit-delay distribution (by default the
//! 99-percentile point), together with the paper's **exact pruning
//! algorithm** based on perturbation bounds.
//!
//! # The algorithms
//!
//! * [`DeterministicSelector`] — the baseline: deterministic STA
//!   sensitivities, candidates restricted to the critical path.
//! * [`BruteForceSelector`] — exact statistical sensitivities: for every
//!   gate, propagate the perturbed arrival CDFs to the sink (one
//!   incremental SSTA per gate per iteration, `O(N·E)`).
//! * [`PrunedSelector`] — the paper's accelerated algorithm: maintain a
//!   **perturbation front** per candidate, advance the front with the
//!   highest bound `Smx = Δmx/Δw` one level at a time, and prune every
//!   candidate whose bound falls below the best exact sensitivity seen so
//!   far. Theorems 1–4 of the paper guarantee `Smx ≥ Sx`, so the result is
//!   *identical* to brute force — typically dozens of times faster.
//! * [`HeuristicSelector`] — the paper's "future work": stop fronts after
//!   a fixed look-ahead and select on the bound, trading exactness for
//!   speed.
//!
//! [`Optimizer`] drives any selector in the coordinate-descent loop of the
//! paper's Figure 6, recording the full area/delay trajectory.
//!
//! Every statistical selector (and the optimizer) takes a `with_threads`
//! knob: candidate fronts are independent except for the shared pruning
//! threshold `Max_S`, so the sweeps scale across cores while returning
//! **bit-identical** selections for every thread count: brute force and
//! the heuristic steal candidates from a shared cursor, and the pruned
//! selector runs one best-bound-first loop whose workers share its heap. The [`THREADS_ENV`] environment variable overrides
//! the (serial) default globally — CI uses it to push the whole test
//! suite through the parallel path.
//!
//! [`Campaign`] lifts the work-stealing pattern to circuit
//! granularity: a corpus of independent circuits is sharded across
//! workers under a total thread budget, producing per-circuit outcomes
//! that are bit-identical to serial execution for every shard count.
//!
//! Campaigns are **fault tolerant**: every job is panic-isolated into a
//! structured [`JobOutcome`] (completed / failed / timed-out / skipped),
//! selectors honor cooperative per-job [`Deadline`]s with optional
//! graceful degradation to a cheaper selector, and the [`failpoint`]
//! harness injects faults at the same sites the tests prove are
//! survivable.
//!
//! Completed results persist in one log: [`ResultStore`] is a
//! content-addressed, append-only store keyed by the full scenario
//! (netlist content, library and variation fingerprints, time step,
//! objective, optimizer configuration, corpus seed). An exact key hit
//! replays the stored outcome without re-running the optimizer — which
//! is also how an interrupted campaign resumes, bit-identically; a
//! partial hit — same circuit under a different objective or time step —
//! warm-starts the optimizer from the stored sizing vector.
//!
//! Serve-mode sessions ([`service`]) get the same treatment from the
//! [`wal`] module: an append-only write-ahead log of committed session
//! mutations that a restarted server replays to restore every session
//! bit-identically, plus admission control (session/batch caps,
//! per-query [`Deadline`]s) so overload is refused with typed errors
//! instead of absorbed.
//!
//! # Example
//!
//! ```
//! use statsize::{Objective, Optimizer, SelectorKind, TimedCircuit};
//! use statsize_cells::{CellLibrary, VariationModel};
//! use statsize_netlist::bench;
//!
//! let nl = bench::c17();
//! let lib = CellLibrary::synthetic_180nm();
//! let mut circuit = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), 1.0);
//!
//! let optimizer = Optimizer::new(Objective::percentile(0.99), SelectorKind::Pruned)
//!     .with_delta_w(0.5)
//!     .with_max_iterations(10);
//! let result = optimizer.run(&mut circuit);
//! assert!(result.final_objective <= result.initial_objective);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod brute;
mod campaign;
mod circuit;
mod deadline;
mod det_opt;
pub mod failpoint;
pub mod fingerprint;
mod heuristic;
mod objective;
mod optimizer;
mod parallel;
mod pruned;
mod selection;
pub mod service;
mod store;
pub mod wal;
pub mod wire;

pub use brute::BruteForceSelector;
pub use campaign::{
    Campaign, CampaignJob, CampaignReport, CircuitOutcome, JobCounts, JobError, JobOutcome,
    JobSkip, JobStage, JobTimeout, OutcomeKey,
};
pub use circuit::{ResizeUndo, TimedCircuit, TimingState};
pub use deadline::{Deadline, DeadlineExceeded};
pub use det_opt::DeterministicSelector;
pub use heuristic::HeuristicSelector;
pub use objective::Objective;
pub use optimizer::{
    IterationRecord, OptimizationResult, Optimizer, OptimizerStep, SelectorKind, StopReason,
};
pub use parallel::THREADS_ENV;
pub use pruned::{PruneStats, PrunedSelector};
pub use selection::Selection;
pub use service::{
    BatchStats, CommitReport, Counters, Design, OpReport, QueryError, QueryRequest, Session,
    SessionInfo, SessionOp, SessionStats, SessionStore, StoreStats, WhatIfReport,
};
pub use store::{ResultStore, ScenarioKey, StoreEntry, StoreError};
pub use wal::{RecoveryStats, Wal, WalContents, WalError, WalRecord};
