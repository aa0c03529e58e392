//! Multi-circuit sharded optimization campaigns.
//!
//! The paper evaluates gate sizing across the whole ISCAS-85 suite, not
//! one circuit at a time. A [`Campaign`] drives the [`Optimizer`] over a
//! list of [`CampaignJob`]s — independent circuits — sharded across a
//! pool built from the same primitives as the candidate sweeps
//! ([`crate::parallel`]): shards claim whole circuits from an atomic
//! cursor, **largest first** (descending timing-node count, ties in job
//! order). Claiming in list order is not enough to balance a corpus of
//! mixed sizes: a big circuit listed last starts only when a shard
//! frees up, and the other shards idle while it runs alone. Largest
//! first starts it at once.
//!
//! Two levels of parallelism compose: `shards` circuit-level workers,
//! and the selector threads of each circuit's sweeps. The total thread
//! budget ([`Campaign::with_total_threads`]) is **work-conserving**:
//! each shard owns `total / shards` threads (floored at one) while it
//! has jobs, and the rest — the remainder of that split, plus the
//! threads of every shard that finds the job queue empty — sits in a
//! spare pool. Each selector sweep that starts takes every spare thread
//! and returns them when it ends, so the circuits still running at the
//! tail of a campaign pick up the threads of the shards that have
//! drained. A shard cannot run with zero selector threads, so a budget
//! *below* the shard count degrades to one thread per shard, i.e.
//! `shards` concurrent threads. Because every per-circuit optimization
//! is bit-identical for any selector thread count (the PR 3 contract)
//! and circuits are independent, the campaign outcome is
//! **bit-identical to running each circuit serially** regardless of the
//! shard count, the budget, or which sweep borrowed which thread —
//! pinned by `tests/campaign_determinism.rs`.
//!
//! # Fault tolerance
//!
//! A campaign is a long-running batch over an arbitrary corpus, so one
//! bad circuit must not take down the rest. Every job runs **isolated**:
//! a panic anywhere in its setup or optimization is caught
//! ([`std::panic::catch_unwind`]) and converted into a structured
//! [`JobOutcome::Failed`] instead of poisoning the shard pool. Jobs may
//! carry a cooperative per-job deadline
//! ([`Campaign::with_job_deadline`]) with an optional one-shot fallback
//! to a cheaper selector ([`Campaign::with_deadline_fallback`]) before a
//! job is marked [`JobOutcome::TimedOut`]; corpus files that failed to
//! load arrive pre-quarantined ([`CampaignJob::quarantined`]) and report
//! as [`JobOutcome::Skipped`]. Completed jobs are recorded in a
//! [`ResultStore`] as they finish ([`Campaign::run_with_store`]), so an
//! interrupted campaign re-run against the same store replays them
//! bit-identically as exact hits and runs only the rest. Deadlines and
//! [fail-fast](Campaign::with_fail_fast) are inherently
//! schedule-dependent and are therefore excluded from the determinism
//! contract above; everything else keeps it.
//!
//! # Example
//!
//! ```
//! use statsize::{Campaign, CampaignJob, Objective, SelectorKind};
//! use statsize_cells::CellLibrary;
//! use statsize_netlist::bench;
//!
//! let jobs = vec![CampaignJob::new("c17", bench::c17())];
//! let lib = CellLibrary::synthetic_180nm();
//! let report = Campaign::new(Objective::percentile(0.99), SelectorKind::Pruned)
//!     .with_max_iterations(4)
//!     .with_shards(2)
//!     .run(&jobs, &lib);
//! assert_eq!(report.outcomes.len(), 1);
//! let outcome = report.outcomes[0].completed().expect("c17 completes");
//! assert!(outcome.final_objective <= outcome.initial_objective);
//! ```

use crate::circuit::TimedCircuit;
use crate::failpoint;
use crate::fingerprint;
use crate::objective::Objective;
use crate::optimizer::{OptimizationResult, Optimizer, SelectorKind, StopReason};
use crate::parallel::{self, Grant, SpareThreads};
use crate::store::{ResultStore, ScenarioKey};
use statsize_cells::{CellLibrary, VariationModel};
use statsize_netlist::Netlist;
use std::cmp::Reverse;
use std::convert::Infallible;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One circuit queued for optimization: a name (for the report) and
/// either the netlist itself or a quarantine notice for an input that
/// failed to load.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignJob {
    /// Report name (typically the circuit or file-stem name).
    pub name: String,
    payload: Payload,
}

#[derive(Debug, Clone, PartialEq)]
enum Payload {
    Circuit(Netlist),
    Quarantined(String),
}

impl CampaignJob {
    /// Creates a job.
    pub fn new<S: Into<String>>(name: S, netlist: Netlist) -> Self {
        Self {
            name: name.into(),
            payload: Payload::Circuit(netlist),
        }
    }

    /// Creates a quarantined placeholder for an input that failed to
    /// load (e.g. a corrupt corpus file). The campaign reports it as
    /// [`JobOutcome::Skipped`] with `reason`, so a batch over a corpus
    /// accounts for every file without letting one bad input abort the
    /// run.
    pub fn quarantined<S: Into<String>, R: Into<String>>(name: S, reason: R) -> Self {
        Self {
            name: name.into(),
            payload: Payload::Quarantined(reason.into()),
        }
    }

    /// The circuit to optimize, or `None` for a quarantined job.
    pub fn netlist(&self) -> Option<&Netlist> {
        match &self.payload {
            Payload::Circuit(netlist) => Some(netlist),
            Payload::Quarantined(_) => None,
        }
    }

    /// The quarantine reason, or `None` for a runnable job.
    pub fn quarantine_reason(&self) -> Option<&str> {
        match &self.payload {
            Payload::Circuit(_) => None,
            Payload::Quarantined(reason) => Some(reason),
        }
    }
}

/// The result of optimizing one circuit within a campaign.
///
/// All fields except [`wall`](Self::wall), [`degraded`](Self::degraded),
/// and the [`pruned`](Self::pruned)/[`completed`](Self::completed) split
/// (whose sum is deterministic, but whose split depends on the selector
/// worker schedule when a shard runs more than one selector thread) are
/// deterministic functions of the job and the campaign configuration —
/// identical across shard counts and thread budgets.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitOutcome {
    /// Job name.
    pub name: String,
    /// Timing-graph node count.
    pub nodes: usize,
    /// Timing-graph edge count.
    pub edges: usize,
    /// Logic depth.
    pub depth: usize,
    /// Objective value before any sizing.
    pub initial_objective: f64,
    /// Objective value after the last committed move.
    pub final_objective: f64,
    /// Total gate width before any sizing.
    pub initial_width: f64,
    /// Total gate width after the last committed move.
    pub final_width: f64,
    /// Number of sizing moves committed.
    pub iterations: usize,
    /// Why the run stopped.
    pub stop: StopReason,
    /// Candidate gates examined across all iterations (pruned selector
    /// only; zero otherwise).
    pub candidates: usize,
    /// Candidates pruned by the bound across all iterations.
    pub pruned: usize,
    /// Candidates propagated to the sink across all iterations.
    pub completed: usize,
    /// Whether this outcome came from the one-shot deadline-fallback
    /// selector ([`Campaign::with_deadline_fallback`]) after the primary
    /// selector overran its deadline. Degraded outcomes depend on
    /// wall-clock timing and are excluded from determinism comparisons
    /// and from the result store.
    pub degraded: bool,
    /// Whether the optimizer was warm-started from a sizing vector found
    /// in the result store ([`Campaign::run_with_store`]) instead of
    /// starting at minimum sizes. Part of the outcome's identity — a
    /// warm start changes the descent trajectory — and therefore
    /// serialized with it; deterministic across shard and thread counts
    /// because store lookups are frozen at open.
    pub warm_started: bool,
    /// Whether this outcome was served from the result store's exact-key
    /// cache instead of being computed by this run. Pure runtime
    /// provenance: never serialized, excluded from
    /// [`deterministic_key`](Self::deterministic_key), and reported only
    /// alongside the other timing metadata — the same scenario yields a
    /// byte-identical default report whether computed or replayed.
    pub cached: bool,
    /// Wall-clock time of this circuit's optimization (schedule
    /// dependent — excluded from determinism comparisons).
    pub wall: Duration,
}

/// The schedule-independent portion of a [`CircuitOutcome`], with floats
/// compared by their exact bit patterns. Campaign determinism tests
/// compare these across shard counts and thread budgets.
///
/// Excluded: the wall clock, the [`degraded`](CircuitOutcome::degraded)
/// flag (never set on deadline-free runs, which are the only runs the
/// determinism contract covers), and the `pruned`/`completed` *split*
/// (which depends on the selector's worker schedule — only their sum,
/// `candidates`, is deterministic; see `PruneStats`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutcomeKey {
    /// Job name.
    pub name: String,
    /// `(nodes, edges, depth)` of the circuit.
    pub shape: (usize, usize, usize),
    /// Bit patterns of `(initial_objective, final_objective,
    /// initial_width, final_width)`.
    pub values: (u64, u64, u64, u64),
    /// Moves committed and the stop reason.
    pub run: (usize, StopReason),
    /// Total candidate gates examined.
    pub candidates: usize,
    /// Whether the descent was warm-started from the result store (a
    /// different seed point is a different trajectory, so two runs only
    /// compare equal when they started from the same place).
    pub warm_started: bool,
}

impl CircuitOutcome {
    /// The deterministic key of this outcome (see [`OutcomeKey`]).
    pub fn deterministic_key(&self) -> OutcomeKey {
        OutcomeKey {
            name: self.name.clone(),
            shape: (self.nodes, self.edges, self.depth),
            values: (
                self.initial_objective.to_bits(),
                self.final_objective.to_bits(),
                self.initial_width.to_bits(),
                self.final_width.to_bits(),
            ),
            run: (self.iterations, self.stop),
            candidates: self.candidates,
            warm_started: self.warm_started,
        }
    }
}

/// Which phase of a campaign job a failure came from — the provenance
/// half of a [`JobError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStage {
    /// Loading or parsing the input (corpus file, generator profile).
    Corpus,
    /// Validating or transforming the netlist.
    Netlist,
    /// Building the timed circuit / statistical timing model.
    Ssta,
    /// The sensitivity sweep or the optimizer's move loop.
    Selector,
}

impl fmt::Display for JobStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            JobStage::Corpus => "corpus",
            JobStage::Netlist => "netlist",
            JobStage::Ssta => "ssta",
            JobStage::Selector => "selector",
        })
    }
}

/// A job that failed: a caught panic or a typed setup error, with the
/// stage it came from. The rest of the campaign is unaffected.
#[derive(Debug, Clone, PartialEq)]
pub struct JobError {
    /// Job name.
    pub name: String,
    /// The phase the failure came from.
    pub stage: JobStage,
    /// The panic message or error text.
    pub message: String,
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "job `{}` failed ({}): {}",
            self.name, self.stage, self.message
        )
    }
}

impl std::error::Error for JobError {}

/// A job that exceeded its cooperative deadline (and, if a fallback was
/// configured, whose fallback attempt also overran).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobTimeout {
    /// Job name.
    pub name: String,
    /// The per-job budget that was exceeded.
    pub deadline: Duration,
    /// Sizing moves the primary selector committed before the deadline
    /// hit (the work is discarded from the report, but the count shows
    /// how far the job got).
    pub iterations_committed: usize,
    /// Whether the one-shot fallback selector was attempted (and also
    /// overran).
    pub fallback_attempted: bool,
}

/// A job the campaign did not run: a quarantined input, or a job skipped
/// because an earlier failure tripped [fail-fast](Campaign::with_fail_fast).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSkip {
    /// Job name.
    pub name: String,
    /// Why it was skipped.
    pub reason: String,
}

/// The structured outcome of one campaign job. A campaign never aborts
/// on a bad job: every panic, timeout, and unloadable input becomes one
/// of these arms, and the report accounts for every job it was given.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// The job ran to a normal stop; the full outcome is attached.
    Completed(CircuitOutcome),
    /// The job panicked or hit a typed setup error.
    Failed(JobError),
    /// The job exceeded its cooperative deadline (after the optional
    /// fallback attempt, if one was configured).
    TimedOut(JobTimeout),
    /// The job was not run: quarantined input or fail-fast.
    Skipped(JobSkip),
}

impl JobOutcome {
    /// The job name, whatever the outcome.
    pub fn name(&self) -> &str {
        match self {
            JobOutcome::Completed(o) => &o.name,
            JobOutcome::Failed(e) => &e.name,
            JobOutcome::TimedOut(t) => &t.name,
            JobOutcome::Skipped(s) => &s.name,
        }
    }

    /// The completed outcome, if the job completed.
    pub fn completed(&self) -> Option<&CircuitOutcome> {
        match self {
            JobOutcome::Completed(o) => Some(o),
            _ => None,
        }
    }

    /// Whether this outcome is a fault (failed or timed out) — the
    /// outcomes that make a campaign's exit status non-zero and trip
    /// [fail-fast](Campaign::with_fail_fast).
    pub fn is_fault(&self) -> bool {
        matches!(self, JobOutcome::Failed(_) | JobOutcome::TimedOut(_))
    }
}

/// Outcome tallies for a whole campaign (see [`CampaignReport::counts`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JobCounts {
    /// Jobs that completed with the primary selector.
    pub completed: usize,
    /// Jobs that completed, but only via the deadline-fallback selector.
    pub degraded: usize,
    /// Jobs that failed (caught panic or typed error).
    pub failed: usize,
    /// Jobs that exceeded their deadline.
    pub timed_out: usize,
    /// Jobs that were skipped (quarantined or fail-fast).
    pub skipped: usize,
}

/// The result of a whole campaign: one [`JobOutcome`] per job, in job
/// order (independent of which shard ran which circuit).
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Per-job outcomes, in the order the jobs were supplied.
    pub outcomes: Vec<JobOutcome>,
    /// Shard count actually used (after clamping to the job count).
    pub shards: usize,
    /// The selector threads each shard owns while it has jobs
    /// (`total / shards`, floored at one) — see
    /// [`Campaign::threads_per_shard`].
    pub threads_per_shard: usize,
    /// Selector sweeps that ran with threads lent from the spare pool
    /// (see [`Campaign::with_total_threads`]). Depends on the schedule,
    /// like the wall clock, so it is runtime metadata only.
    pub lent_sweeps: usize,
    /// Jobs served from the result store's exact-key cache without an
    /// optimizer sweep (see [`Campaign::run_with_store`]).
    pub cached: usize,
    /// Wall-clock time of the whole campaign.
    pub wall: Duration,
}

impl CampaignReport {
    /// Iterates over the completed outcomes, in job order.
    pub fn completed(&self) -> impl Iterator<Item = &CircuitOutcome> {
        self.outcomes.iter().filter_map(JobOutcome::completed)
    }

    /// Tallies the outcomes by kind.
    pub fn counts(&self) -> JobCounts {
        let mut counts = JobCounts::default();
        for outcome in &self.outcomes {
            match outcome {
                JobOutcome::Completed(o) if o.degraded => counts.degraded += 1,
                JobOutcome::Completed(_) => counts.completed += 1,
                JobOutcome::Failed(_) => counts.failed += 1,
                JobOutcome::TimedOut(_) => counts.timed_out += 1,
                JobOutcome::Skipped(_) => counts.skipped += 1,
            }
        }
        counts
    }

    /// Whether any job failed or timed out.
    pub fn has_faults(&self) -> bool {
        self.outcomes.iter().any(JobOutcome::is_fault)
    }
}

/// A multi-circuit optimization campaign: the [`Optimizer`]
/// configuration plus the timing-model parameters shared by every
/// circuit, the sharding knobs, and the fault-tolerance policy
/// (deadlines, fallback, fail-fast).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Campaign {
    objective: Objective,
    selector: SelectorKind,
    delta_w: f64,
    max_iterations: usize,
    dt: f64,
    shards: usize,
    total_threads: usize,
    job_deadline: Option<Duration>,
    fallback: Option<SelectorKind>,
    fail_fast: bool,
    corpus_seed: u64,
}

/// One isolated optimizer attempt: finished normally, or panicked (the
/// panic was caught and stringified).
enum Attempt {
    Finished(OptimizationResult),
    Panicked(String),
}

impl Campaign {
    /// Creates a campaign with the paper's optimizer defaults
    /// (`Δw = 1.0`, 1000 iterations max, the optimizer's default
    /// sensitivity floor), the paper's variation model, a 2 ps lattice,
    /// one shard, and a total thread budget equal to the shard count. No
    /// deadline, no fallback, keep-going on faults.
    pub fn new(objective: Objective, selector: SelectorKind) -> Self {
        Self {
            objective,
            selector,
            delta_w: 1.0,
            max_iterations: 1000,
            dt: 2.0,
            shards: 1,
            total_threads: 0,
            job_deadline: None,
            fallback: None,
            fail_fast: false,
            corpus_seed: 0,
        }
    }

    /// Records the RNG seed the campaign's corpus was generated from
    /// (default 0). The seed does not change how any individual netlist
    /// is optimized — netlist *content* is hashed into every scenario key
    /// separately — but it is part of the campaign's identity in the
    /// result store: two campaigns over differently-seeded corpora must
    /// not share records even where their generated netlists collide.
    #[must_use]
    pub fn with_corpus_seed(mut self, seed: u64) -> Self {
        self.corpus_seed = seed;
        self
    }

    /// The recorded corpus RNG seed.
    pub fn corpus_seed(&self) -> u64 {
        self.corpus_seed
    }

    /// Sets the per-move width increment `Δw`.
    ///
    /// # Panics
    ///
    /// Panics if `delta_w` is not finite and positive.
    #[must_use]
    pub fn with_delta_w(mut self, delta_w: f64) -> Self {
        assert!(
            delta_w.is_finite() && delta_w > 0.0,
            "Δw must be finite and positive, got {delta_w}"
        );
        self.delta_w = delta_w;
        self
    }

    /// Sets the per-circuit iteration budget.
    #[must_use]
    pub fn with_max_iterations(mut self, max_iterations: usize) -> Self {
        self.max_iterations = max_iterations;
        self
    }

    /// Sets the lattice step (ps) used for every circuit.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not finite and positive.
    #[must_use]
    pub fn with_dt(mut self, dt: f64) -> Self {
        assert!(dt.is_finite() && dt > 0.0, "dt must be positive, got {dt}");
        self.dt = dt;
        self
    }

    /// Sets the circuit-level shard count. `0` is clamped to 1; counts
    /// above the job count are capped at it when the campaign runs.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Sets the **total** worker-thread budget shared by all shards.
    /// Each shard owns [`threads_per_shard`](Self::threads_per_shard)
    /// selector threads while it has jobs; the remainder of the budget,
    /// and the threads of every shard that finds the job queue empty,
    /// wait in a spare pool. Every selector sweep takes all spare
    /// threads when it starts and returns them when it ends, so no part
    /// of the budget idles while a sweep is running and the concurrent
    /// selector-thread count stays within the budget whenever
    /// `total >= shards`. A shard cannot run with zero selector threads,
    /// so a budget smaller than the shard count degrades to `shards`
    /// concurrent threads — lower the shard count if a hard cap below it
    /// is needed. The default (`0`) gives every shard a single selector
    /// thread. The budget never changes outcomes, only scheduling.
    #[must_use]
    pub fn with_total_threads(mut self, total: usize) -> Self {
        self.total_threads = total;
        self
    }

    /// Sets a cooperative per-job wall-clock deadline. The selectors
    /// check it at sweep boundaries (no OS timers, no thread
    /// cancellation), the optimizer checks it between iterations, and a
    /// job that overruns is reported as [`JobOutcome::TimedOut`] —
    /// unless a [fallback](Self::with_deadline_fallback) is configured.
    /// Deadline-truncated results depend on wall-clock timing and are
    /// excluded from the campaign's determinism contract.
    #[must_use]
    pub fn with_job_deadline(mut self, budget: Duration) -> Self {
        self.job_deadline = Some(budget);
        self
    }

    /// Configures graceful degradation: when a job's primary selector
    /// overruns the [deadline](Self::with_job_deadline), the job is
    /// re-run **once** from scratch with `selector` (typically the cheap
    /// [`SelectorKind::Deterministic`] or [`SelectorKind::Heuristic`])
    /// under a fresh deadline of the same budget. If the fallback
    /// completes, the job reports [`JobOutcome::Completed`] with
    /// [`degraded`](CircuitOutcome::degraded) set; if it also overruns,
    /// the job reports [`JobOutcome::TimedOut`] with
    /// `fallback_attempted`.
    #[must_use]
    pub fn with_deadline_fallback(mut self, selector: SelectorKind) -> Self {
        self.fallback = Some(selector);
        self
    }

    /// Stops scheduling new jobs after the first fault (failed or
    /// timed-out job): every job claimed afterwards reports
    /// [`JobOutcome::Skipped`]. Already-running jobs finish. Which jobs
    /// get skipped depends on the shard schedule, so fail-fast runs are
    /// excluded from the determinism contract. The default keeps going
    /// and reports every fault at the end.
    #[must_use]
    pub fn with_fail_fast(mut self, fail_fast: bool) -> Self {
        self.fail_fast = fail_fast;
        self
    }

    /// The configured shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The selector threads each shard owns while it has jobs under the
    /// current budget — `total / shards`, floored at one. Sweeps widen
    /// it with whatever the spare pool holds when they start (see
    /// [`with_total_threads`](Self::with_total_threads)); this figure is
    /// the one reported by [`CampaignReport::threads_per_shard`].
    /// When a run caps the shard count to a smaller job count, the
    /// budget is re-divided over the *capped* count, so no part of the
    /// budget is stranded on never-spawned shards.
    pub fn threads_per_shard(&self) -> usize {
        (self.total_threads / self.shards).max(1)
    }

    /// The full content address of one job under this campaign — the
    /// [`ResultStore`] key. It does **not** embed the job *name*: the
    /// store is content-addressed, so renaming a corpus file still hits.
    /// The campaign's outcome-affecting knobs are split into the
    /// components partial (warm-start) matching needs — `dt` and the
    /// objective stand alone; the rest fold into one stable
    /// configuration string (selector, `Δw`, iteration budget,
    /// sensitivity floor, deadline, fallback). Scheduling knobs (shards,
    /// thread budget, fail-fast) are excluded: they never change
    /// outcomes.
    pub fn scenario_key(&self, library: &CellLibrary, netlist: &Netlist) -> ScenarioKey {
        ScenarioKey {
            netlist: fingerprint::netlist_content_hash(netlist),
            library: fingerprint::library_fingerprint(library),
            variation: fingerprint::variation_fingerprint(&VariationModel::paper_default()),
            dt: self.dt,
            objective: self.objective.wire_name(),
            // `ms:0` is the optimizer's default sensitivity floor, kept
            // in the persisted format so existing store files still hit.
            optimizer: format!(
                "{}|dw:{}|it:{}|ms:0|dl:{:?}|fb:{}",
                self.selector.wire_name(),
                self.delta_w,
                self.max_iterations,
                self.job_deadline,
                self.fallback
                    .map_or_else(|| "none".to_string(), |s| s.wire_name()),
            ),
            corpus_seed: self.corpus_seed,
        }
    }

    /// Optimizes every job, `shards` workers claiming circuits largest
    /// first.
    ///
    /// Outcomes are returned in job order. Absent deadlines and
    /// fail-fast, they are bit-identical for every shard count and
    /// thread budget. Equivalent to [`run_with_store`](Self::run_with_store)
    /// without a store.
    pub fn run(&self, jobs: &[CampaignJob], library: &CellLibrary) -> CampaignReport {
        self.run_with_store(jobs, library, None, None)
    }

    /// [`run`](Self::run), consulting a [`ResultStore`] before running
    /// each job:
    ///
    /// * an **exact** [`scenario_key`](Self::scenario_key) hit replays
    ///   the stored outcome without any optimizer sweep, marked
    ///   [`cached`](CircuitOutcome::cached) and counted in
    ///   [`CampaignReport::cached`];
    /// * otherwise a **warm-class** hit (same netlist, library,
    ///   variation, and seed under different objective/`dt`/knobs) seeds
    ///   the optimizer with the stored sizing vector
    ///   ([`Optimizer::with_initial_sizes`]), marked
    ///   [`warm_started`](CircuitOutcome::warm_started);
    /// * each non-degraded completed job is appended to the store with
    ///   its final sizing vector (no-op for a read-only store).
    ///
    /// Lookups see the store **as it was opened** — same-run appends are
    /// invisible until the next open — so hits never depend on the shard
    /// schedule and the bit-identity contract extends to store-assisted
    /// runs. Checkpoint/resume is this method with a run-scoped store: a
    /// job completed before an interruption is an exact hit when the run
    /// is repeated, so the repeated run's default report is byte-identical
    /// to an uninterrupted one. Failed, timed-out, skipped and degraded
    /// jobs are never recorded, so a repeated run retries them.
    ///
    /// The third parameter carries no value (`Option<Infallible>` admits
    /// only `None`); it keeps the signature callers already use.
    pub fn run_with_store(
        &self,
        jobs: &[CampaignJob],
        library: &CellLibrary,
        _: Option<Infallible>,
        store: Option<&mut ResultStore>,
    ) -> CampaignReport {
        let t0 = Instant::now();
        let shards = parallel::normalize_threads(self.shards, jobs.len());
        // Divide the budget over the shards that actually spawn, not the
        // configured count — otherwise capping 8 shards to a 3-job corpus
        // would strand 5 shards' worth of selector threads. What the
        // even split leaves over starts in the spare pool.
        let threads_per_shard = (self.total_threads / shards).max(1);
        let owned = threads_per_shard * shards;
        let spare = SpareThreads::new(
            self.total_threads.saturating_sub(owned),
            self.total_threads.max(owned),
        );
        // Claim order: largest circuit first, ties in job order, so the
        // longest job never starts last on an otherwise idle pool.
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        order.sort_by_cached_key(|&idx| {
            Reverse(jobs[idx].netlist().map_or(0, |n| n.stats().timing_nodes))
        });
        let scenarios: Vec<Option<ScenarioKey>> = if store.is_some() {
            jobs.iter()
                .map(|j| j.netlist().map(|n| self.scenario_key(library, n)))
                .collect()
        } else {
            vec![None; jobs.len()]
        };
        let store = store.map(Mutex::new);
        let halt = AtomicBool::new(false);
        let cached = AtomicUsize::new(0);
        // Shards claim whole circuits in `order`; outcomes come back in
        // job order, so the report never depends on which shard ran which
        // circuit. A shard's state is the guard over its own threads: it
        // drops, giving them to the spare pool, as soon as the shard
        // finds the queue empty. Each job is panic-isolated twice over:
        // `run_one_isolated` catches panics at the failure sites it
        // understands, and the isolated pool converts anything that still
        // escapes into an error instead of poisoning the other shards.
        let claimed = parallel::run_indexed_isolated(
            shards,
            jobs.len(),
            || spare.hold(threads_per_shard),
            |own, claim| {
                let idx = order[claim];
                let job = &jobs[idx];
                if self.fail_fast && halt.load(Ordering::Relaxed) {
                    return JobOutcome::Skipped(JobSkip {
                        name: job.name.clone(),
                        reason: "fail-fast: an earlier job faulted".to_string(),
                    });
                }
                // Store consultation: an exact hit replays the record
                // (renamed to this job — the store is content-addressed,
                // so the recording job may have used another name); a
                // warm-class hit seeds the optimizer. Both read the
                // frozen at-open view, so neither depends on the shard
                // schedule.
                let mut warm_sizes: Option<Vec<f64>> = None;
                if let (Some(store), Some(scenario)) = (&store, &scenarios[idx]) {
                    let guard = store.lock().unwrap_or_else(|e| e.into_inner());
                    if let Some(entry) = guard.lookup_exact(scenario) {
                        let mut outcome = entry.outcome.clone();
                        outcome.name.clone_from(&job.name);
                        outcome.cached = true;
                        cached.fetch_add(1, Ordering::Relaxed);
                        return JobOutcome::Completed(outcome);
                    }
                    if let Some(entry) = guard.lookup_warm(scenario) {
                        // A content-hash collision could pair us with a
                        // different-sized circuit; the gate count check
                        // keeps that from panicking the job.
                        if job
                            .netlist()
                            .is_some_and(|n| n.gate_count() == entry.sizes.len())
                        {
                            warm_sizes = Some(entry.sizes.clone());
                        }
                    }
                }
                let (outcome, final_sizes) =
                    self.run_one_isolated(job, library, own, warm_sizes.as_deref());
                match &outcome {
                    JobOutcome::Completed(o) if !o.degraded => {
                        if let (Some(store), Some(scenario), Some(sizes)) =
                            (&store, &scenarios[idx], &final_sizes)
                        {
                            store
                                .lock()
                                .unwrap_or_else(|e| e.into_inner())
                                .record(scenario, sizes, o);
                        }
                    }
                    _ if outcome.is_fault() && self.fail_fast => {
                        halt.store(true, Ordering::Relaxed);
                    }
                    _ => {}
                }
                outcome
            },
        );
        let mut results: Vec<Option<Result<JobOutcome, String>>> = Vec::new();
        results.resize_with(jobs.len(), || None);
        for (claim, result) in claimed.into_iter().enumerate() {
            results[order[claim]] = Some(result);
        }
        let outcomes = results
            .into_iter()
            .map(|r| r.expect("every job is claimed exactly once"))
            .zip(jobs)
            .map(|(result, job)| {
                result.unwrap_or_else(|message| {
                    // A panic escaped `run_one_isolated`'s own isolation
                    // (e.g. in report assembly); still a structured
                    // failure, not a campaign abort.
                    JobOutcome::Failed(JobError {
                        name: job.name.clone(),
                        stage: JobStage::Selector,
                        message: format!("uncaught worker panic: {message}"),
                    })
                })
            })
            .collect();
        CampaignReport {
            outcomes,
            shards,
            threads_per_shard,
            lent_sweeps: spare.lent_sweeps(),
            cached: cached.load(Ordering::Relaxed),
            wall: t0.elapsed(),
        }
    }

    /// Runs a single job with every fault path converted into a
    /// structured [`JobOutcome`]: quarantined inputs skip, setup and
    /// optimizer panics are caught, and deadline overruns degrade to the
    /// fallback selector (if configured) before timing out.
    ///
    /// `warm_sizes`, when present, seeds the primary optimizer attempt
    /// (fallback attempts always start cold — degradation must not
    /// depend on store contents). Returns the final sizing vector
    /// alongside completed outcomes so the caller can persist it.
    fn run_one_isolated(
        &self,
        job: &CampaignJob,
        library: &CellLibrary,
        threads: &Grant<'_>,
        warm_sizes: Option<&[f64]>,
    ) -> (JobOutcome, Option<Vec<f64>>) {
        let name = &job.name;
        let Some(netlist) = job.netlist() else {
            return (
                JobOutcome::Skipped(JobSkip {
                    name: name.clone(),
                    reason: job
                        .quarantine_reason()
                        .unwrap_or("quarantined input")
                        .to_string(),
                }),
                None,
            );
        };
        let t0 = Instant::now();
        let stats = netlist.stats();
        // Setup phase. Failpoint `campaign::setup` (detail: job name)
        // forces a panic here in tests.
        let built = catch_unwind(AssertUnwindSafe(|| {
            failpoint::fire("campaign::setup", name);
            TimedCircuit::new(netlist, library, VariationModel::paper_default(), self.dt)
        }));
        let mut circuit = match built {
            Ok(circuit) => circuit,
            Err(payload) => {
                return (
                    JobOutcome::Failed(JobError {
                        name: name.clone(),
                        stage: JobStage::Ssta,
                        message: format!(
                            "panic while building the timed circuit: {}",
                            parallel::panic_message(payload.as_ref())
                        ),
                    }),
                    None,
                )
            }
        };
        // Failpoint `campaign::deadline` (detail: job name, `trigger`
        // action) forces an already-expired deadline, exercising the
        // timeout path deterministically.
        let deadline = if failpoint::fire("campaign::deadline", name) {
            Some(Duration::ZERO)
        } else {
            self.job_deadline
        };
        let attempt = self.optimize_attempt(
            name,
            &mut circuit,
            self.selector,
            deadline,
            threads,
            warm_sizes,
        );
        let result = match attempt {
            Attempt::Panicked(message) => {
                return (
                    JobOutcome::Failed(JobError {
                        name: name.clone(),
                        stage: JobStage::Selector,
                        message: format!("panic during optimization: {message}"),
                    }),
                    None,
                )
            }
            Attempt::Finished(result) => result,
        };
        if result.stop != StopReason::DeadlineExpired {
            let warm_started = warm_sizes.is_some();
            let sizes = result.final_sizes.clone();
            return (
                JobOutcome::Completed(self.outcome_of(
                    name,
                    stats,
                    &result,
                    false,
                    warm_started,
                    t0,
                )),
                Some(sizes),
            );
        }
        let iterations_committed = result.iterations_run();
        let Some(fallback) = self.fallback else {
            return (
                JobOutcome::TimedOut(JobTimeout {
                    name: name.clone(),
                    deadline: deadline.unwrap_or_default(),
                    iterations_committed,
                    fallback_attempted: false,
                }),
                None,
            );
        };
        // Graceful degradation: one-shot rerun from scratch with the
        // cheap fallback selector, under a fresh deadline of the
        // *configured* budget (not the failpoint-forced one, so an
        // injected overrun still exercises a genuine fallback run).
        let mut fresh =
            TimedCircuit::new(netlist, library, VariationModel::paper_default(), self.dt);
        match self.optimize_attempt(name, &mut fresh, fallback, self.job_deadline, threads, None) {
            Attempt::Panicked(message) => (
                JobOutcome::Failed(JobError {
                    name: name.clone(),
                    stage: JobStage::Selector,
                    message: format!("panic during fallback optimization: {message}"),
                }),
                None,
            ),
            Attempt::Finished(fb) if fb.stop == StopReason::DeadlineExpired => (
                JobOutcome::TimedOut(JobTimeout {
                    name: name.clone(),
                    deadline: deadline.unwrap_or_default(),
                    iterations_committed,
                    fallback_attempted: true,
                }),
                None,
            ),
            Attempt::Finished(fb) => {
                let sizes = fb.final_sizes.clone();
                (
                    JobOutcome::Completed(self.outcome_of(name, stats, &fb, true, false, t0)),
                    Some(sizes),
                )
            }
        }
    }

    /// One panic-isolated optimizer run on the shard's own `threads`,
    /// each sweep widened by what their spare pool lends it. Failpoint
    /// `campaign::job` (detail: job name) forces a panic inside the
    /// isolation boundary.
    fn optimize_attempt(
        &self,
        name: &str,
        circuit: &mut TimedCircuit<'_>,
        selector: SelectorKind,
        deadline: Option<Duration>,
        threads: &Grant<'_>,
        warm_sizes: Option<&[f64]>,
    ) -> Attempt {
        catch_unwind(AssertUnwindSafe(|| {
            failpoint::fire("campaign::job", name);
            let mut optimizer = Optimizer::new(self.objective, selector)
                .with_delta_w(self.delta_w)
                .with_max_iterations(self.max_iterations)
                .with_threads(threads.threads());
            if let Some(sizes) = warm_sizes {
                optimizer = optimizer.with_initial_sizes(sizes.to_vec());
            }
            if let Some(budget) = deadline {
                optimizer = optimizer.with_deadline(budget);
            }
            optimizer.run_lending(circuit, Some(threads.pool()))
        }))
        .map_or_else(
            |payload| Attempt::Panicked(parallel::panic_message(payload.as_ref())),
            Attempt::Finished,
        )
    }

    /// Assembles the outcome record for a finished run.
    fn outcome_of(
        &self,
        name: &str,
        stats: statsize_netlist::NetlistStats,
        result: &OptimizationResult,
        degraded: bool,
        warm_started: bool,
        t0: Instant,
    ) -> CircuitOutcome {
        let (mut candidates, mut pruned, mut completed) = (0usize, 0usize, 0usize);
        for record in &result.iterations {
            if let Some(p) = &record.prune {
                candidates += p.candidates;
                pruned += p.pruned;
                completed += p.completed;
            }
        }
        CircuitOutcome {
            name: name.to_string(),
            nodes: stats.timing_nodes,
            edges: stats.timing_edges,
            depth: stats.depth,
            initial_objective: result.initial_objective,
            final_objective: result.final_objective,
            initial_width: result.initial_width,
            final_width: result.final_width,
            iterations: result.iterations_run(),
            stop: result.stop,
            candidates,
            pruned,
            completed,
            degraded,
            warm_started,
            cached: false,
            wall: t0.elapsed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failpoint::{arm, FaultAction};
    use statsize_netlist::{bench, generator};

    fn jobs() -> Vec<CampaignJob> {
        vec![
            CampaignJob::new("c17", bench::c17()),
            CampaignJob::new(
                "c432",
                generator::generate_iscas("c432", 1).expect("c432 is a known ISCAS-85 profile"),
            ),
            CampaignJob::new(
                "gen300",
                generator::generate_scaled(&generator::ScaledProfile::with_nodes(300), 3),
            ),
        ]
    }

    fn campaign() -> Campaign {
        Campaign::new(Objective::percentile(0.99), SelectorKind::Pruned).with_max_iterations(3)
    }

    fn keys(report: &CampaignReport) -> Vec<OutcomeKey> {
        report
            .outcomes
            .iter()
            .map(|o| o.completed().expect("job completed").deterministic_key())
            .collect()
    }

    #[test]
    fn campaign_optimizes_every_job_in_order() {
        let lib = CellLibrary::synthetic_180nm();
        let report = campaign().with_shards(2).run(&jobs(), &lib);
        assert_eq!(report.outcomes.len(), 3);
        assert_eq!(report.shards, 2);
        assert_eq!(report.cached, 0);
        let names: Vec<&str> = report.outcomes.iter().map(JobOutcome::name).collect();
        assert_eq!(names, ["c17", "c432", "gen300"]);
        for outcome in &report.outcomes {
            let o = outcome.completed().expect("all jobs complete");
            assert!(o.final_objective <= o.initial_objective, "{}", o.name);
            assert!(o.iterations > 0, "{}", o.name);
            assert_eq!(o.candidates, o.pruned + o.completed, "{}", o.name);
            assert!(!o.degraded, "{}", o.name);
        }
        let counts = report.counts();
        assert_eq!(counts.completed, 3);
        assert!(!report.has_faults());
    }

    #[test]
    fn shard_count_does_not_change_outcomes() {
        let lib = CellLibrary::synthetic_180nm();
        let jobs = jobs();
        let serial = keys(&campaign().with_shards(1).run(&jobs, &lib));
        for shards in [2usize, 4, 8] {
            let sharded = keys(&campaign().with_shards(shards).run(&jobs, &lib));
            assert_eq!(serial, sharded, "{shards} shards");
        }
    }

    #[test]
    fn thread_budget_divides_across_shards() {
        let c = Campaign::new(Objective::percentile(0.99), SelectorKind::Pruned)
            .with_shards(4)
            .with_total_threads(8);
        assert_eq!(c.threads_per_shard(), 2);
        // Budget below the shard count still grants one thread each.
        assert_eq!(c.with_total_threads(2).threads_per_shard(), 1);
        // Zero shards clamps to one.
        assert_eq!(c.with_shards(0).shards(), 1);
    }

    #[test]
    fn thread_budget_does_not_change_outcomes() {
        let lib = CellLibrary::synthetic_180nm();
        let jobs = jobs();
        let narrow = keys(&campaign().with_shards(2).run(&jobs, &lib));
        let wide = keys(
            &campaign()
                .with_shards(2)
                .with_total_threads(8)
                .run(&jobs, &lib),
        );
        assert_eq!(narrow, wide);
    }

    #[test]
    fn excess_shards_are_capped_at_the_job_count() {
        let lib = CellLibrary::synthetic_180nm();
        let report = campaign().with_shards(64).run(&jobs(), &lib);
        assert_eq!(report.shards, 3);
        assert_eq!(report.outcomes.len(), 3);
    }

    #[test]
    fn thread_budget_is_redivided_over_capped_shards() {
        // 8 shards requested but only 3 jobs: the 8-thread budget must be
        // divided over the 3 shards that actually spawn (8/3 = 2 each),
        // not the configured 8 (which would strand 5 threads).
        let lib = CellLibrary::synthetic_180nm();
        let report = campaign()
            .with_shards(8)
            .with_total_threads(8)
            .run(&jobs(), &lib);
        assert_eq!(report.shards, 3);
        assert_eq!(report.threads_per_shard, 2);
    }

    #[test]
    fn quarantined_jobs_report_as_skipped() {
        let lib = CellLibrary::synthetic_180nm();
        let jobs = vec![
            CampaignJob::new("c17", bench::c17()),
            CampaignJob::quarantined("broken.bench", "parse error: line 3: bad gate"),
        ];
        let report = campaign().run(&jobs, &lib);
        assert!(report.outcomes[0].completed().is_some());
        match &report.outcomes[1] {
            JobOutcome::Skipped(skip) => {
                assert_eq!(skip.name, "broken.bench");
                assert!(skip.reason.contains("parse error"), "{}", skip.reason);
            }
            other => panic!("expected Skipped, got {other:?}"),
        }
        let counts = report.counts();
        assert_eq!((counts.completed, counts.skipped), (1, 1));
        assert!(!report.has_faults(), "a quarantined input is not a fault");
    }

    #[test]
    fn injected_job_panic_becomes_a_failed_outcome() {
        let lib = CellLibrary::synthetic_180nm();
        let jobs = vec![
            CampaignJob::new("panic-target-a", bench::c17()),
            CampaignJob::new("panic-bystander-a", bench::c17()),
        ];
        let _fp = arm("campaign::job", Some("panic-target-a"), FaultAction::Panic);
        let report = campaign().with_shards(2).run(&jobs, &lib);
        match &report.outcomes[0] {
            JobOutcome::Failed(e) => {
                assert_eq!(e.stage, JobStage::Selector);
                assert!(e.message.contains("failpoint"), "{}", e.message);
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        // The bystander on the same pool is untouched.
        assert!(report.outcomes[1].completed().is_some());
        assert!(report.has_faults());
    }

    #[test]
    fn injected_setup_panic_reports_ssta_provenance() {
        let lib = CellLibrary::synthetic_180nm();
        let jobs = vec![CampaignJob::new("panic-setup-a", bench::c17())];
        let _fp = arm("campaign::setup", Some("panic-setup-a"), FaultAction::Panic);
        let report = campaign().run(&jobs, &lib);
        match &report.outcomes[0] {
            JobOutcome::Failed(e) => {
                assert_eq!(e.stage, JobStage::Ssta);
                assert!(e.message.contains("timed circuit"), "{}", e.message);
            }
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    #[test]
    fn zero_deadline_times_out_without_a_fallback() {
        let lib = CellLibrary::synthetic_180nm();
        let jobs = vec![CampaignJob::new("c17", bench::c17())];
        let report = campaign()
            .with_job_deadline(Duration::ZERO)
            .run(&jobs, &lib);
        match &report.outcomes[0] {
            JobOutcome::TimedOut(t) => {
                assert_eq!(t.name, "c17");
                assert_eq!(t.deadline, Duration::ZERO);
                assert_eq!(t.iterations_committed, 0);
                assert!(!t.fallback_attempted);
            }
            other => panic!("expected TimedOut, got {other:?}"),
        }
        assert!(report.has_faults());
    }

    #[test]
    fn deadline_fallback_degrades_instead_of_timing_out() {
        // The failpoint forces an expired deadline on the primary
        // attempt only; the fallback runs under the configured budget
        // (none here), so it completes and the job degrades gracefully.
        let lib = CellLibrary::synthetic_180nm();
        let jobs = vec![CampaignJob::new("deadline-fb-a", bench::c17())];
        let _fp = arm(
            "campaign::deadline",
            Some("deadline-fb-a"),
            FaultAction::Trigger,
        );
        let report = campaign()
            .with_deadline_fallback(SelectorKind::Deterministic)
            .run(&jobs, &lib);
        let o = report.outcomes[0].completed().expect("fallback completes");
        assert!(o.degraded);
        assert!(o.final_objective <= o.initial_objective);
        assert_eq!(report.counts().degraded, 1);
        assert!(!report.has_faults(), "a degraded completion is not a fault");
    }

    #[test]
    fn zero_deadline_with_zero_budget_fallback_reports_the_attempt() {
        let lib = CellLibrary::synthetic_180nm();
        let jobs = vec![CampaignJob::new("c17", bench::c17())];
        let report = campaign()
            .with_job_deadline(Duration::ZERO)
            .with_deadline_fallback(SelectorKind::Deterministic)
            .run(&jobs, &lib);
        match &report.outcomes[0] {
            JobOutcome::TimedOut(t) => assert!(t.fallback_attempted),
            other => panic!("expected TimedOut, got {other:?}"),
        }
    }

    #[test]
    fn fail_fast_skips_jobs_after_the_first_fault() {
        let lib = CellLibrary::synthetic_180nm();
        let jobs = vec![
            CampaignJob::new("ff-target-a", bench::c17()),
            CampaignJob::new("ff-later-a", bench::c17()),
            CampaignJob::new("ff-later-b", bench::c17()),
        ];
        let _fp = arm("campaign::job", Some("ff-target-a"), FaultAction::Panic);
        // One shard: jobs run in order, so both later jobs must skip.
        let report = campaign().with_fail_fast(true).run(&jobs, &lib);
        assert!(matches!(&report.outcomes[0], JobOutcome::Failed(_)));
        for outcome in &report.outcomes[1..] {
            match outcome {
                JobOutcome::Skipped(skip) => {
                    assert!(skip.reason.contains("fail-fast"), "{}", skip.reason)
                }
                other => panic!("expected Skipped, got {other:?}"),
            }
        }
        // Without fail-fast the same fault leaves the rest running.
        let report = campaign().with_fail_fast(false).run(&jobs, &lib);
        assert!(matches!(&report.outcomes[0], JobOutcome::Failed(_)));
        assert!(report.outcomes[1..].iter().all(|o| o.completed().is_some()));
    }

    #[test]
    fn fingerprint_tracks_outcome_affecting_knobs_only() {
        let lib = CellLibrary::synthetic_180nm();
        let nl = bench::c17();
        let exact = |c: Campaign| c.scenario_key(&lib, &nl).exact();
        let base = campaign();
        assert_eq!(exact(base), exact(campaign()), "deterministic");
        for (knob, changed) in [
            (
                "objective",
                Campaign::new(Objective::Mean, SelectorKind::Pruned).with_max_iterations(3),
            ),
            (
                "selector",
                Campaign::new(Objective::percentile(0.99), SelectorKind::BruteForce)
                    .with_max_iterations(3),
            ),
            ("delta_w", base.with_delta_w(2.0)),
            ("iteration cap", base.with_max_iterations(7)),
            ("dt", base.with_dt(1.0)),
            ("deadline", base.with_job_deadline(Duration::from_secs(1))),
            (
                "fallback",
                base.with_deadline_fallback(SelectorKind::Deterministic),
            ),
        ] {
            assert_ne!(
                exact(base),
                exact(changed),
                "{knob} must separate scenarios"
            );
        }
        // Scheduling knobs do not affect outcomes, so they must not turn
        // a stored outcome into a miss.
        assert_eq!(exact(base), exact(base.with_shards(8)));
        assert_eq!(exact(base), exact(base.with_total_threads(8)));
        assert_eq!(exact(base), exact(base.with_fail_fast(true)));
    }

    #[test]
    fn journal_fingerprint_separates_cell_libraries_and_seeds() {
        // Checkpoint/resume goes through the store, so the scenario key is
        // what must keep outcomes recorded under another cell library or
        // corpus seed from being replayed.
        let lib = CellLibrary::synthetic_180nm();
        let nl = bench::c17();
        let base = campaign();
        let renamed = CellLibrary::new("other-process", lib.cells().to_vec());
        assert_ne!(
            base.scenario_key(&lib, &nl).exact(),
            base.scenario_key(&renamed, &nl).exact(),
            "library must separate scenarios"
        );
        assert_ne!(
            base.scenario_key(&lib, &nl).exact(),
            base.with_corpus_seed(7).scenario_key(&lib, &nl).exact(),
            "corpus seed must separate scenarios"
        );
        assert_eq!(base.corpus_seed(), 0);
        assert_eq!(base.with_corpus_seed(7).corpus_seed(), 7);
    }

    #[test]
    fn scenario_key_optimizer_string_is_pinned() {
        // The store key's configuration string is a persisted format:
        // any change turns every stored outcome into an exact-key miss.
        let lib = CellLibrary::synthetic_180nm();
        let nl = bench::c17();
        let key = Campaign::new(Objective::percentile(0.99), SelectorKind::Pruned)
            .scenario_key(&lib, &nl);
        assert_eq!(key.optimizer, "pruned|dw:1|it:1000|ms:0|dl:None|fb:none");
    }

    #[test]
    fn resume_does_not_cross_corpus_seeds() {
        let dir = std::env::temp_dir().join("statsize-campaign-test-seed-resume");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("results.store");
        let lib = CellLibrary::synthetic_180nm();
        let jobs = vec![CampaignJob::new("c17", bench::c17())];
        let run = |seed: u64| {
            let mut store = ResultStore::open_or_create(&path).unwrap();
            campaign()
                .with_corpus_seed(seed)
                .run_with_store(&jobs, &lib, None, Some(&mut store))
        };
        std::fs::remove_file(&path).ok();
        assert_eq!(run(1).cached, 0);
        // Same store, same jobs, different seed: nothing replays.
        assert_eq!(run(2).cached, 0, "seed must separate stored outcomes");
        // Same seed again: the recorded outcome is reused.
        assert_eq!(run(1).cached, 1, "matching seed replays");
        std::fs::remove_dir_all(&dir).ok();
    }
}
