//! The protocol-agnostic serve-mode core: long-lived sizing sessions
//! over loaded designs, with speculative what-ifs, incremental optimizer
//! steps, and snapshot/fork/rollback branching.
//!
//! The batch [`Optimizer`] answers one question per process: "size this
//! circuit". A design session answers many small questions about one
//! loaded circuit — *what if this gate grew by Δw? advance the descent
//! one round; save this point; try something else; come back* — and the
//! expensive part of serving them is already built: every commit is an
//! incremental cone re-propagation
//! ([`TimedCircuit::commit_resize`]), bit-identical to a full
//! re-analysis. This module adds the session layer:
//!
//! * [`Design`] — the immutable inputs (netlist, cell library, variation
//!   model, lattice step), shared by every session over it through an
//!   [`Arc`].
//! * [`Session`] — one user's mutable sizing state: a detached
//!   [`TimingState`] re-attached per query, a commit log, and named
//!   snapshots. [`what_if`](Session::what_if) commits speculatively and
//!   undoes **bit-exactly** (captured bits are moved back, nothing is
//!   recomputed), so a what-if leaves no trace; [`step`](Session::step)
//!   advances the coordinate descent by exactly one
//!   [`Optimizer::step`] round; [`fork`](Session::fork) and
//!   [`snapshot`](Session::snapshot)/[`rollback`](Session::rollback)
//!   branch the exploration without reloading the design.
//! * [`SessionStore`] — the multi-session front: named designs and
//!   sessions, plus [`batch`](SessionStore::batch), which schedules
//!   [`QueryRequest`]s for *different* sessions onto the same
//!   work-stealing machinery the campaign layer uses, under a
//!   [total-thread budget](SessionStore::with_total_threads) as
//!   admission control. Queries for the same session run in request
//!   order; responses always come back in request order, so a batch's
//!   results are bit-identical for every thread count.
//!
//! The store is also where overload is refused instead of absorbed:
//! [`with_max_sessions`](SessionStore::with_max_sessions) caps the
//! session table (open/fork answer [`QueryError::SessionLimit`] at
//! capacity), [`with_max_batch`](SessionStore::with_max_batch) bounds a
//! single batch ([`QueryError::BatchLimit`]), and every request may
//! carry a per-query cooperative [`Deadline`] budget — an overrun is the
//! typed [`QueryError::DeadlineExpired`], after which the session is
//! still healthy (nothing was committed past the cut-off). Admission
//! counters, queue depth, and per-session thread grants are surfaced by
//! [`stats`](SessionStore::stats) without reading any wall clock, so a
//! `stats` answer is deterministic for a fixed request history.
//!
//! Faults follow the campaign's taxonomy instead of unwinding into the
//! caller: every query returns a typed [`QueryError`] for expected
//! failures (unknown gate, inadmissible resize, unknown snapshot), and a
//! panic inside a query is caught, reported as
//! [`QueryError::Panicked`], and *poisons* the session — subsequent
//! queries answer [`QueryError::Poisoned`] rather than touching
//! possibly-torn state. A rollback to a snapshot taken before the fault
//! revives the session: snapshots are whole-state clones, immune to
//! later corruption.

use crate::circuit::{TimedCircuit, TimingState};
use crate::deadline::Deadline;
use crate::failpoint;
use crate::optimizer::{Optimizer, OptimizerStep, StopReason};
use crate::parallel;
use statsize_cells::{CellLibrary, DelayModel, VariationModel};
use statsize_netlist::{GateId, Netlist};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The immutable inputs a session analyzes against: a netlist bound to a
/// cell library, with the variation model and lattice step fixed at load
/// time. Shared by every session over the design (and every fork)
/// through an [`Arc`] — loading is once per design, not once per
/// session.
///
/// Sessions analyze on the same bit-exact kernel as batch runs, so
/// serve-mode replies are bit-identical to a from-scratch
/// [`SstaAnalysis::run`](statsize_ssta::SstaAnalysis::run) on the
/// mutated circuit.
#[derive(Debug)]
pub struct Design {
    name: String,
    netlist: Netlist,
    library: CellLibrary,
    variation: VariationModel,
    dt: f64,
}

impl Design {
    /// Binds a netlist to a library under the paper's variation model and
    /// a 2 ps lattice.
    pub fn new(name: impl Into<String>, netlist: Netlist, library: CellLibrary) -> Self {
        Self {
            name: name.into(),
            netlist,
            library,
            variation: VariationModel::paper_default(),
            dt: 2.0,
        }
    }

    /// Sets the lattice step (ps).
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

    /// The design's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The cell library.
    pub fn library(&self) -> &CellLibrary {
        &self.library
    }

    /// The variation model.
    pub fn variation(&self) -> &VariationModel {
        &self.variation
    }

    /// The lattice step (ps).
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Resolves a gate by the name of the net it drives — the protocol's
    /// gate addressing scheme (gates have no standalone names in
    /// `.bench`; their output nets do). `None` for unknown nets and for
    /// primary inputs (no driving gate).
    pub fn gate_by_output(&self, net_name: &str) -> Option<GateId> {
        let net = self.netlist.find_net(net_name)?;
        self.netlist.net(net).driver()
    }
}

/// A typed query fault. Expected failures stay expected: a malformed or
/// inapplicable query is answered with one of these, never a panic, and
/// only [`Panicked`](QueryError::Panicked)/[`Poisoned`](QueryError::Poisoned)
/// indicate anything wrong with the session itself — the serve-mode
/// slice of the campaign's `JobOutcome` fault taxonomy.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// No design loaded under this name.
    UnknownDesign(String),
    /// A design with this name is already loaded.
    DuplicateDesign(String),
    /// No session open under this name.
    UnknownSession(String),
    /// A session with this name is already open.
    DuplicateSession(String),
    /// The design has no gate driving a net of this name.
    UnknownGate(String),
    /// The resize is inadmissible (non-finite, or the resulting width
    /// would fall below the library minimum).
    InvalidResize {
        /// The gate (by output net name).
        gate: String,
        /// The rejected width change.
        delta_w: f64,
        /// Why it was rejected.
        message: String,
    },
    /// The session has no snapshot of this name.
    UnknownSnapshot(String),
    /// The query's cooperative deadline expired before (or while) the
    /// query ran. Nothing past the cut-off was committed and the session
    /// is still healthy — re-issue the query with a larger budget.
    DeadlineExpired,
    /// Opening or forking was refused because the session table is at
    /// its configured capacity
    /// ([`SessionStore::with_max_sessions`]). Close a session and retry.
    SessionLimit {
        /// The configured cap the table is at.
        limit: usize,
    },
    /// The batch was refused wholesale for exceeding the configured
    /// per-batch size cap ([`SessionStore::with_max_batch`]); no request
    /// in it was executed. Split the batch and retry.
    BatchLimit {
        /// The configured cap.
        limit: usize,
        /// The size of the refused batch.
        requested: usize,
    },
    /// This query panicked; the panic was caught and the session is now
    /// poisoned.
    Panicked(String),
    /// The session was poisoned by an earlier fault (the carried message
    /// is that fault's). Roll back to a snapshot to revive it, or close
    /// it.
    Poisoned(String),
}

impl QueryError {
    /// A stable machine-readable code for the wire protocol.
    pub fn code(&self) -> &'static str {
        match self {
            QueryError::UnknownDesign(_) => "unknown_design",
            QueryError::DuplicateDesign(_) => "duplicate_design",
            QueryError::UnknownSession(_) => "unknown_session",
            QueryError::DuplicateSession(_) => "duplicate_session",
            QueryError::UnknownGate(_) => "unknown_gate",
            QueryError::InvalidResize { .. } => "invalid_resize",
            QueryError::UnknownSnapshot(_) => "unknown_snapshot",
            QueryError::DeadlineExpired => "deadline_expired",
            QueryError::SessionLimit { .. } => "session_limit",
            QueryError::BatchLimit { .. } => "batch_limit",
            QueryError::Panicked(_) => "panicked",
            QueryError::Poisoned(_) => "poisoned",
        }
    }
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::UnknownDesign(name) => write!(f, "unknown design `{name}`"),
            QueryError::DuplicateDesign(name) => write!(f, "design `{name}` already loaded"),
            QueryError::UnknownSession(name) => write!(f, "unknown session `{name}`"),
            QueryError::DuplicateSession(name) => write!(f, "session `{name}` already open"),
            QueryError::UnknownGate(name) => write!(f, "no gate drives a net named `{name}`"),
            QueryError::InvalidResize {
                gate,
                delta_w,
                message,
            } => write!(f, "resize of `{gate}` by {delta_w} rejected: {message}"),
            QueryError::UnknownSnapshot(name) => write!(f, "unknown snapshot `{name}`"),
            QueryError::DeadlineExpired => write!(f, "per-query deadline expired"),
            QueryError::SessionLimit { limit } => {
                write!(f, "session table is at its capacity of {limit}")
            }
            QueryError::BatchLimit { limit, requested } => {
                write!(
                    f,
                    "batch of {requested} requests exceeds the cap of {limit}"
                )
            }
            QueryError::Panicked(message) => write!(f, "query panicked: {message}"),
            QueryError::Poisoned(message) => {
                write!(f, "session poisoned by an earlier fault: {message}")
            }
        }
    }
}

impl std::error::Error for QueryError {}

fn lost_state() -> QueryError {
    QueryError::Poisoned("session timing state was lost by an earlier fault".to_string())
}

/// The answer to a speculative [`Session::what_if`]: the circuit as it
/// *would* time after the resize. The session state is unchanged — the
/// speculative commit was undone bit-exactly before this was returned.
#[derive(Debug, Clone, PartialEq)]
pub struct WhatIfReport {
    /// The gate (by output net name).
    pub gate: String,
    /// The speculated width change.
    pub delta_w: f64,
    /// Objective value before the speculative resize.
    pub objective_before: f64,
    /// Objective value with the resize applied.
    pub objective: f64,
    /// Total gate width with the resize applied.
    pub total_width: f64,
    /// Total area with the resize applied.
    pub area: f64,
}

/// The answer to a committed [`Session::commit`]: the circuit after the
/// resize, which is now part of the session's state and commit log.
#[derive(Debug, Clone, PartialEq)]
pub struct CommitReport {
    /// The gate (by output net name).
    pub gate: String,
    /// The committed width change.
    pub delta_w: f64,
    /// Objective value after the commit.
    pub objective: f64,
    /// Total gate width after the commit.
    pub total_width: f64,
    /// Total area after the commit.
    pub area: f64,
    /// Length of the session's commit log after this commit.
    pub commits: usize,
}

/// A point-in-time summary of a session ([`Session::info`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionInfo {
    /// The design the session is over.
    pub design: String,
    /// Current objective value.
    pub objective: f64,
    /// Current total gate width.
    pub total_width: f64,
    /// Current total area.
    pub area: f64,
    /// Length of the commit log (explicit commits + step-committed
    /// moves).
    pub commits: usize,
    /// Optimizer iterations committed by [`Session::step`] so far.
    pub steps: usize,
    /// Names of the session's snapshots, in creation order.
    pub snapshots: Vec<String>,
}

/// A named restore point: a full clone of the session's mutable state.
#[derive(Debug, Clone)]
struct Snapshot {
    state: TimingState,
    committed: Vec<(GateId, f64)>,
    steps_committed: usize,
}

/// One user's live sizing exploration over a [`Design`]: owned timing
/// state, an [`Optimizer`] configuration for `step`/`what_if`
/// objectives, a commit log, and named snapshots.
///
/// The timing state lives *detached* ([`TimingState`]) and is
/// re-attached to the design for the duration of each query — a
/// move-in/move-out, no re-analysis. If a query panics mid-mutation the
/// state is simply gone (never half-restored), which is what makes
/// poisoning sound: there is no torn state to observe.
///
/// `Clone` is the forking primitive: a clone shares the design (by
/// `Arc`) and deep-copies everything mutable, including the snapshot
/// set.
#[derive(Debug, Clone)]
pub struct Session {
    design: Arc<Design>,
    optimizer: Optimizer,
    state: Option<TimingState>,
    committed: Vec<(GateId, f64)>,
    steps_committed: usize,
    snapshots: Vec<(String, Snapshot)>,
}

impl Session {
    /// Opens a session: one full SSTA pass at minimum sizes, after which
    /// every query is incremental. The optimizer supplies the objective
    /// (shared by `what_if`/`commit` reporting and `step`) and the
    /// selection configuration for [`step`](Self::step).
    pub fn open(design: Arc<Design>, optimizer: Optimizer) -> Self {
        let state = {
            let circuit = TimedCircuit::new(
                &design.netlist,
                &design.library,
                design.variation,
                design.dt,
            );
            circuit.into_state()
        };
        Self {
            design,
            optimizer,
            state: Some(state),
            committed: Vec::new(),
            steps_committed: 0,
            snapshots: Vec::new(),
        }
    }

    /// The design this session explores.
    pub fn design(&self) -> &Arc<Design> {
        &self.design
    }

    /// The optimizer configuration queries run under.
    pub fn optimizer(&self) -> &Optimizer {
        &self.optimizer
    }

    /// The commit log since open (or since the last rollback): explicit
    /// commits and step-committed moves, in order. Replaying this log
    /// through [`commit_gate`](Self::commit_gate) on a fresh session
    /// reproduces the session's state bit-identically.
    pub fn committed(&self) -> &[(GateId, f64)] {
        &self.committed
    }

    /// Whether the session is poisoned (a prior query panicked). A
    /// poisoned session answers every state-touching query with
    /// [`QueryError::Poisoned`]; [`rollback`](Self::rollback) revives
    /// it.
    pub fn is_poisoned(&self) -> bool {
        self.state.is_none()
    }

    /// Runs a closure against the re-attached circuit, detaching again
    /// afterwards. On entry the state is *taken*; a panic inside `f`
    /// therefore leaves the session visibly stateless (poisoned), never
    /// holding a half-mutated state.
    fn with_circuit<R>(
        &mut self,
        f: impl FnOnce(&mut TimedCircuit<'_>) -> R,
    ) -> Result<R, QueryError> {
        let state = self.state.take().ok_or_else(lost_state)?;
        let design = self.design.as_ref();
        let mut circuit = TimedCircuit::from_state(
            &design.netlist,
            &design.library,
            design.variation,
            design.dt,
            state,
        );
        let out = f(&mut circuit);
        self.state = Some(circuit.into_state());
        Ok(out)
    }

    fn resolve_gate(&self, gate: &str) -> Result<GateId, QueryError> {
        self.design
            .gate_by_output(gate)
            .ok_or_else(|| QueryError::UnknownGate(gate.to_string()))
    }

    fn validate_resize(&self, gate: GateId, name: &str, delta_w: f64) -> Result<(), QueryError> {
        let state = self.state.as_ref().ok_or_else(lost_state)?;
        let sizes = state.sizes();
        let new_width = sizes.width(gate) + delta_w;
        if !delta_w.is_finite() || !new_width.is_finite() {
            return Err(QueryError::InvalidResize {
                gate: name.to_string(),
                delta_w,
                message: "resize must be finite".to_string(),
            });
        }
        if new_width < sizes.min_width() {
            return Err(QueryError::InvalidResize {
                gate: name.to_string(),
                delta_w,
                message: format!(
                    "width {new_width} would fall below the minimum {}",
                    sizes.min_width()
                ),
            });
        }
        Ok(())
    }

    /// Answers "how would the circuit time if `gate` changed by
    /// `delta_w`?" — commit, measure, undo. The undo restores the
    /// captured bits (widths, delay entries, arrivals) rather than
    /// recomputing, so the session state afterwards is bit-identical to
    /// never having asked; and the reported figures are bit-identical to
    /// a from-scratch analysis of the mutated circuit, because the
    /// speculative commit *is* [`TimedCircuit::commit_resize`], whose
    /// incremental-equals-full contract the timing layer pins.
    pub fn what_if(&mut self, gate: &str, delta_w: f64) -> Result<WhatIfReport, QueryError> {
        let g = self.resolve_gate(gate)?;
        self.validate_resize(g, gate, delta_w)?;
        let objective = self.optimizer.objective();
        let gate = gate.to_string();
        self.with_circuit(move |circuit| {
            let objective_before = circuit.objective_value(objective);
            let undo = circuit.commit_resize_undoable(g, delta_w);
            let report = WhatIfReport {
                gate,
                delta_w,
                objective_before,
                objective: circuit.objective_value(objective),
                total_width: circuit.total_width(),
                area: circuit.area(),
            };
            circuit.undo_resize(undo);
            report
        })
    }

    /// Commits a resize of `gate` by `delta_w` and appends it to the
    /// commit log.
    pub fn commit(&mut self, gate: &str, delta_w: f64) -> Result<CommitReport, QueryError> {
        let g = self.resolve_gate(gate)?;
        self.commit_gate(g, gate, delta_w)
    }

    /// [`commit`](Self::commit) with the gate already resolved — the
    /// replay entry point for a [`committed`](Self::committed) log
    /// (which records [`GateId`]s). `name` is only used in reports and
    /// errors.
    pub fn commit_gate(
        &mut self,
        gate: GateId,
        name: &str,
        delta_w: f64,
    ) -> Result<CommitReport, QueryError> {
        self.validate_resize(gate, name, delta_w)?;
        let objective = self.optimizer.objective();
        let gate_name = name.to_string();
        let mut report = self.with_circuit(move |circuit| {
            circuit.commit_resize(gate, delta_w);
            CommitReport {
                gate: gate_name,
                delta_w,
                objective: circuit.objective_value(objective),
                total_width: circuit.total_width(),
                area: circuit.area(),
                commits: 0,
            }
        })?;
        self.committed.push((gate, delta_w));
        report.commits = self.committed.len();
        Ok(report)
    }

    /// Advances the coordinate descent by exactly one selection round
    /// ([`Optimizer::step`]) under a per-query cooperative deadline,
    /// appending every committed move to the commit log. A session that
    /// only calls `step` walks the exact trajectory
    /// [`Optimizer::run`] walks — same code, same order.
    pub fn step(&mut self, deadline: Deadline) -> Result<OptimizerStep, QueryError> {
        self.step_granted(deadline, None)
    }

    /// [`step`](Self::step) under a selector-thread grant from the
    /// store's admission control (`None` keeps the session's configured
    /// thread count). The grant never changes the outcome — selections
    /// are bit-identical for every thread count — only how much of the
    /// budget this query may occupy.
    fn step_granted(
        &mut self,
        deadline: Deadline,
        threads: Option<usize>,
    ) -> Result<OptimizerStep, QueryError> {
        let optimizer = threads.map_or_else(
            || self.optimizer.clone(),
            |t| self.optimizer.clone().with_threads(t),
        );
        let already = self.steps_committed;
        let round = self.with_circuit(move |circuit| optimizer.step(circuit, already, deadline))?;
        self.steps_committed += round.records.len();
        let delta_w = self.optimizer.delta_w();
        for record in &round.records {
            self.committed.push((record.gate, delta_w));
        }
        Ok(round)
    }

    /// Replays the committed moves of one recorded optimizer `step`
    /// round — the WAL's recovery entry point for
    /// [`wal::WalRecord::Step`](crate::wal::WalRecord::Step). Each move
    /// is committed through [`commit`](Self::commit) (gates addressed by
    /// output net name, exactly as the record renders them) and the step
    /// counter advances by the round's move count, so a later live
    /// `step` resumes the descent at the same iteration the original
    /// process would have — bit-identically, because a step's committed
    /// moves *are* plain commits (the fork ≡ fresh-replay invariant).
    ///
    /// # Errors
    ///
    /// Fails like the equivalent `commit` calls would (unknown gate,
    /// inadmissible resize); moves before the failure stay committed.
    pub fn replay_step_moves(&mut self, moves: &[(String, f64)]) -> Result<(), QueryError> {
        for (gate, delta_w) in moves {
            self.commit(gate, *delta_w)?;
        }
        self.steps_committed += moves.len();
        Ok(())
    }

    /// Saves the current state (timing, commit log, step counter) under
    /// `name`, replacing any previous snapshot of that name.
    pub fn snapshot(&mut self, name: &str) -> Result<(), QueryError> {
        let state = self.state.as_ref().ok_or_else(lost_state)?.clone();
        let snap = Snapshot {
            state,
            committed: self.committed.clone(),
            steps_committed: self.steps_committed,
        };
        match self.snapshots.iter_mut().find(|(n, _)| n == name) {
            Some((_, existing)) => *existing = snap,
            None => self.snapshots.push((name.to_string(), snap)),
        }
        Ok(())
    }

    /// Restores the state saved under `name`, bit-identically; commits
    /// and steps made since the snapshot are discarded from the log. The
    /// snapshot itself is kept (rollback is repeatable), and rolling
    /// back *revives a poisoned session* — snapshots are clones taken
    /// before the fault, immune to it.
    pub fn rollback(&mut self, name: &str) -> Result<(), QueryError> {
        let snap = self
            .snapshots
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s.clone())
            .ok_or_else(|| QueryError::UnknownSnapshot(name.to_string()))?;
        self.state = Some(snap.state);
        self.committed = snap.committed;
        self.steps_committed = snap.steps_committed;
        Ok(())
    }

    /// Branches the exploration: a deep copy of all mutable state
    /// (timing, commit log, step counter, snapshots) sharing the loaded
    /// design. Diverging the fork never affects this session and vice
    /// versa — pinned bit-for-bit by the session-branching tests.
    pub fn fork(&self) -> Result<Session, QueryError> {
        if self.state.is_none() {
            return Err(lost_state());
        }
        Ok(self.clone())
    }

    /// The current summary: objective, width, area, log lengths,
    /// snapshot names.
    pub fn info(&self) -> Result<SessionInfo, QueryError> {
        let state = self.state.as_ref().ok_or_else(lost_state)?;
        let model = DelayModel::new(&self.design.library, &self.design.netlist);
        Ok(SessionInfo {
            design: self.design.name.clone(),
            objective: self
                .optimizer
                .objective()
                .value(state.ssta().sink_arrival()),
            total_width: state.sizes().total_width(),
            area: model.area(&self.design.netlist, state.sizes()),
            commits: self.committed.len(),
            steps: self.steps_committed,
            snapshots: self.snapshots.iter().map(|(n, _)| n.clone()).collect(),
        })
    }

    /// Executes one protocol-level operation (the `batch` dispatch)
    /// under the request's cooperative deadline. The deadline is checked
    /// up front — an already-expired budget answers
    /// [`QueryError::DeadlineExpired`] without touching the session —
    /// and threaded into a `step`'s selector sweep, where a mid-sweep
    /// expiry that committed nothing is reported the same way. In every
    /// deadline outcome the session stays healthy: either the query ran
    /// to completion, or nothing past the cut-off was committed.
    fn execute(
        &mut self,
        op: &SessionOp,
        thread_grant: usize,
        deadline: Deadline,
    ) -> Result<OpReport, QueryError> {
        if deadline.expired() {
            return Err(QueryError::DeadlineExpired);
        }
        match op {
            SessionOp::WhatIf { gate, delta_w } => {
                self.what_if(gate, *delta_w).map(OpReport::WhatIf)
            }
            SessionOp::Commit { gate, delta_w } => {
                self.commit(gate, *delta_w).map(OpReport::Commit)
            }
            SessionOp::Step => {
                let round = self.step_granted(deadline, Some(thread_grant))?;
                if round.records.is_empty() && round.stop == Some(StopReason::DeadlineExpired) {
                    return Err(QueryError::DeadlineExpired);
                }
                Ok(OpReport::Step(round))
            }
            SessionOp::Snapshot { name } => self
                .snapshot(name)
                .map(|()| OpReport::Snapshot { name: name.clone() }),
            SessionOp::Rollback { name } => self
                .rollback(name)
                .map(|()| OpReport::Rollback { name: name.clone() }),
            SessionOp::Query => self.info().map(OpReport::Query),
        }
    }
}

/// One queued per-session operation for [`SessionStore::batch`].
/// Structure-changing operations (load/open/fork/close) are direct
/// store methods, not batch operations: they reshape the session table
/// the batch schedules over.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionOp {
    /// Speculative resize: answer and leave no trace.
    WhatIf {
        /// Gate, by output net name.
        gate: String,
        /// Width change to speculate.
        delta_w: f64,
    },
    /// Committed resize.
    Commit {
        /// Gate, by output net name.
        gate: String,
        /// Width change to commit.
        delta_w: f64,
    },
    /// One optimizer selection round. The per-query deadline (if any)
    /// rides on the enclosing [`QueryRequest`], like every other op's.
    Step,
    /// Save the current state under a name.
    Snapshot {
        /// Snapshot name.
        name: String,
    },
    /// Restore a named snapshot.
    Rollback {
        /// Snapshot name.
        name: String,
    },
    /// Summarize the session.
    Query,
}

/// One request of a [`SessionStore::batch`]: the target session, the
/// operation, and an optional per-query cooperative deadline budget.
///
/// The deadline starts counting when the query begins executing on its
/// worker (not when the batch is submitted) and is polled at the
/// selector sweeps' natural boundaries — see [`Deadline`]. `None` defers
/// to the store-wide default
/// ([`SessionStore::with_query_deadline`]), which itself defaults to
/// unlimited. A deadline makes a `step`'s stop point wall-clock
/// dependent, so deadline-bearing steps are excluded from the
/// byte-replay determinism contract (a `Duration::ZERO` budget is the
/// deterministic exception: it always expires before anything runs).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// The session the op targets.
    pub session: String,
    /// The operation.
    pub op: SessionOp,
    /// Per-query deadline budget (`None` = the store default).
    pub deadline: Option<Duration>,
}

impl QueryRequest {
    /// A request without a per-query deadline.
    pub fn new(session: impl Into<String>, op: SessionOp) -> Self {
        Self {
            session: session.into(),
            op,
            deadline: None,
        }
    }
}

/// The successful answer to one [`SessionOp`].
#[derive(Debug, Clone)]
pub enum OpReport {
    /// Answer to [`SessionOp::WhatIf`].
    WhatIf(WhatIfReport),
    /// Answer to [`SessionOp::Commit`].
    Commit(CommitReport),
    /// Answer to [`SessionOp::Step`].
    Step(OptimizerStep),
    /// Answer to [`SessionOp::Snapshot`].
    Snapshot {
        /// The snapshot's name.
        name: String,
    },
    /// Answer to [`SessionOp::Rollback`].
    Rollback {
        /// The restored snapshot's name.
        name: String,
    },
    /// Answer to [`SessionOp::Query`].
    Query(SessionInfo),
}

/// A session's slot in the store. `InFlight` exists only while a batch
/// holds the session on a worker.
#[derive(Debug)]
enum Slot {
    Live(Box<Session>),
    Poisoned(String),
    InFlight,
}

/// Splits a total selector-thread budget over the admitted sessions in
/// proportion to their designs' timing-node counts. The normalizer is
/// the sum of the `workers` *largest* counts: at most `workers` sessions
/// are ever resident at once, so that is the worst-case concurrent
/// demand, and flooring each share keeps any such subset within `total`
/// (whenever `total >= workers`; below that the per-session floor of one
/// thread dominates). Sessions too small to earn a whole thread still get
/// one — the selector caps threads at the candidate count, so nothing is
/// oversubscribed on their behalf.
fn adaptive_thread_budgets(node_counts: &[usize], workers: usize, total: usize) -> Vec<usize> {
    let mut largest: Vec<usize> = node_counts.to_vec();
    largest.sort_unstable_by(|a, b| b.cmp(a));
    let denom: usize = largest.iter().take(workers).sum::<usize>().max(1);
    node_counts
        .iter()
        .map(|&n| ((total * n) / denom).max(1))
        .collect()
}

/// Named designs and sessions, plus the batch scheduler.
///
/// `batch` is where the campaign machinery is reused: each *session*
/// with pending queries becomes one work item, items are stolen by up
/// to [total-threads](Self::with_total_threads) workers
/// (admission control: a budget of `N` admits at most `N` sessions'
/// queries concurrently, and grants each admitted session a
/// node-count-proportional share of the same budget for its selector
/// sweeps), and every query is panic-isolated: a panicking query
/// poisons its session and fails its remaining queued queries, while
/// every other session's queries complete normally.
#[derive(Debug, Default)]
pub struct SessionStore {
    designs: Vec<(String, Arc<Design>)>,
    sessions: Vec<(String, Slot)>,
    total_threads: usize,
    max_sessions: Option<usize>,
    max_batch: Option<usize>,
    query_deadline: Option<Duration>,
    counters: Counters,
    last_batch: Option<BatchStats>,
}

/// Monotonic admission/served counters ([`SessionStore::stats`]). All
/// counts, no clocks: the values are deterministic for a fixed request
/// history, independent of thread budgets and wall time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Session-op queries executed (admitted batch requests).
    pub queries: u64,
    /// Batches executed (a single protocol-level op counts as a batch of
    /// one).
    pub batches: u64,
    /// Opens/forks refused by the session cap or the `service::admit`
    /// failpoint.
    pub rejected_sessions: u64,
    /// Batches refused wholesale by the batch-size cap.
    pub rejected_batches: u64,
    /// Queries answered [`QueryError::DeadlineExpired`].
    pub deadline_expired: u64,
}

/// Scheduling shape of the most recent admitted batch — the queue-depth
/// half of the [`stats`](SessionStore::stats) metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchStats {
    /// Requests in the batch.
    pub requests: usize,
    /// Distinct sessions those requests grouped into (the scheduler's
    /// queue depth: groups beyond the worker count wait their turn).
    pub groups: usize,
    /// Work-stealing workers the batch ran on: the thread budget clamped
    /// to the groups that resolved to a live session, minimum one.
    pub workers: usize,
}

/// One session's row in [`SessionStore::stats`].
#[derive(Debug, Clone, PartialEq)]
pub struct SessionStats {
    /// Session name.
    pub session: String,
    /// Design the session is over (empty for a session lost to a
    /// worker-escape fault, whose slot keeps only the fault message).
    pub design: String,
    /// Timing-node count of that design — the weight behind the
    /// session's thread grant.
    pub nodes: usize,
    /// Selector threads a full-store batch would grant this session
    /// (node-count-proportional share of the total budget; zero for a
    /// lost session).
    pub thread_grant: usize,
    /// Commit-log length (explicit commits + step-committed moves).
    pub commits: usize,
    /// Optimizer iterations committed via `step`.
    pub steps: usize,
    /// Named snapshots held.
    pub snapshots: usize,
    /// Whether the session is poisoned (or lost) by an earlier fault.
    pub poisoned: bool,
}

/// The full [`SessionStore::stats`] answer: configuration, per-session
/// rows, admission counters, and the last batch's scheduling shape.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreStats {
    /// Loaded designs.
    pub designs: usize,
    /// Per-session rows, in open order.
    pub sessions: Vec<SessionStats>,
    /// Configured total worker-thread budget.
    pub total_threads: usize,
    /// Configured session-table cap (`None` = unbounded).
    pub max_sessions: Option<usize>,
    /// Configured per-batch size cap (`None` = unbounded).
    pub max_batch: Option<usize>,
    /// Store-wide default per-query deadline (`None` = unlimited).
    pub query_deadline: Option<Duration>,
    /// Admission/served counters.
    pub counters: Counters,
    /// Scheduling shape of the most recent admitted batch.
    pub last_batch: Option<BatchStats>,
}

impl SessionStore {
    /// An empty store with a single-threaded batch schedule and no
    /// admission caps.
    pub fn new() -> Self {
        Self::default()
    }

    /// Caps the session table: once `limit` sessions are open (poisoned
    /// slots included — they hold their name until closed),
    /// [`open`](Self::open) and [`fork`](Self::fork) answer
    /// [`QueryError::SessionLimit`] instead of growing the table.
    #[must_use]
    pub fn with_max_sessions(mut self, limit: usize) -> Self {
        self.max_sessions = Some(limit);
        self
    }

    /// Caps a single [`batch`](Self::batch): larger batches are refused
    /// wholesale with [`QueryError::BatchLimit`] on every request,
    /// executing none of them.
    #[must_use]
    pub fn with_max_batch(mut self, limit: usize) -> Self {
        self.max_batch = Some(limit);
        self
    }

    /// Sets a store-wide default per-query deadline budget, applied to
    /// every request that does not carry its own
    /// ([`QueryRequest::deadline`] wins when present).
    #[must_use]
    pub fn with_query_deadline(mut self, budget: Duration) -> Self {
        self.query_deadline = Some(budget);
        self
    }

    /// Sets the total worker-thread budget for [`batch`](Self::batch)
    /// (default `0`: one worker, fully serial batches). The budget caps
    /// concurrent sessions *and* is split across the admitted sessions'
    /// selector sweeps in proportion to design size. The split is
    /// static — unlike a campaign's spare-thread pool
    /// ([`Campaign::with_total_threads`](crate::Campaign::with_total_threads)),
    /// so [`stats`](Self::stats) can report each session's grant. The
    /// budget never changes any response, only scheduling.
    #[must_use]
    pub fn with_total_threads(mut self, total: usize) -> Self {
        self.total_threads = total;
        self
    }

    /// The configured total thread budget.
    pub fn total_threads(&self) -> usize {
        self.total_threads
    }

    /// Loads a design, making it available to [`open`](Self::open).
    pub fn add_design(&mut self, design: Design) -> Result<(), QueryError> {
        if self.designs.iter().any(|(n, _)| *n == design.name) {
            return Err(QueryError::DuplicateDesign(design.name.clone()));
        }
        self.designs.push((design.name.clone(), Arc::new(design)));
        Ok(())
    }

    /// A loaded design by name.
    pub fn design(&self, name: &str) -> Option<&Arc<Design>> {
        self.designs.iter().find(|(n, _)| n == name).map(|(_, d)| d)
    }

    /// Admission check for a new session named `session`: the table must
    /// have a free slot under `max_sessions`, and the `service::admit`
    /// failpoint (detail: session name) can force a rejection to exercise
    /// callers' capacity-fault handling. Runs *after* the duplicate-name
    /// and source checks so a rejection is always a pure capacity answer.
    fn admit(&mut self, session: &str) -> Result<(), QueryError> {
        let live = self.sessions.len();
        let over_cap = self.max_sessions.is_some_and(|limit| live >= limit);
        if over_cap || failpoint::fire("service::admit", session) {
            self.counters.rejected_sessions += 1;
            return Err(QueryError::SessionLimit {
                limit: self.max_sessions.unwrap_or(live),
            });
        }
        Ok(())
    }

    /// Opens a named session over a loaded design.
    pub fn open(
        &mut self,
        session: &str,
        design: &str,
        optimizer: Optimizer,
    ) -> Result<(), QueryError> {
        if self.sessions.iter().any(|(n, _)| n == session) {
            return Err(QueryError::DuplicateSession(session.to_string()));
        }
        let design = self
            .design(design)
            .cloned()
            .ok_or_else(|| QueryError::UnknownDesign(design.to_string()))?;
        self.admit(session)?;
        self.sessions.push((
            session.to_string(),
            Slot::Live(Box::new(Session::open(design, optimizer))),
        ));
        Ok(())
    }

    /// Forks an existing session under a new name (see
    /// [`Session::fork`]).
    pub fn fork(&mut self, new_session: &str, from: &str) -> Result<(), QueryError> {
        if self.sessions.iter().any(|(n, _)| n == new_session) {
            return Err(QueryError::DuplicateSession(new_session.to_string()));
        }
        let forked = match self.sessions.iter().find(|(n, _)| n == from) {
            None => return Err(QueryError::UnknownSession(from.to_string())),
            Some((_, Slot::Live(session))) => session.fork()?,
            Some((_, Slot::Poisoned(message))) => {
                return Err(QueryError::Poisoned(message.clone()))
            }
            Some((_, Slot::InFlight)) => unreachable!("batch holds &mut self"),
        };
        self.admit(new_session)?;
        self.sessions
            .push((new_session.to_string(), Slot::Live(Box::new(forked))));
        Ok(())
    }

    /// Closes (drops) a session. Poisoned sessions can be closed.
    pub fn close(&mut self, session: &str) -> Result<(), QueryError> {
        let before = self.sessions.len();
        self.sessions.retain(|(n, _)| n != session);
        if self.sessions.len() == before {
            return Err(QueryError::UnknownSession(session.to_string()));
        }
        Ok(())
    }

    /// A live session by name (`None` if unknown or poisoned).
    pub fn session(&self, name: &str) -> Option<&Session> {
        self.sessions.iter().find_map(|(n, slot)| match slot {
            Slot::Live(s) if n == name => Some(s.as_ref()),
            _ => None,
        })
    }

    /// Mutable access to a live session by name.
    pub fn session_mut(&mut self, name: &str) -> Option<&mut Session> {
        self.sessions.iter_mut().find_map(|(n, slot)| match slot {
            Slot::Live(s) if n == name => Some(s.as_mut()),
            _ => None,
        })
    }

    /// Open session names, in open order (poisoned sessions included —
    /// they still occupy their name until closed).
    pub fn session_names(&self) -> Vec<&str> {
        self.sessions.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Executes a batch of per-session queries, returning one result per
    /// request **in request order**.
    ///
    /// Scheduling: requests are grouped by session (first-appearance
    /// order); each group runs its queries sequentially in request
    /// order; groups run concurrently on up to
    /// `min(total_threads, groups)` work-stealing workers (one worker
    /// when the budget is 0), each granted a proportional share of the
    /// selector-thread budget. Since sessions are independent and
    /// per-session order is fixed, responses are bit-identical for
    /// every thread budget.
    ///
    /// Admission: a batch larger than the configured cap is refused
    /// wholesale — every request answers [`QueryError::BatchLimit`] and
    /// none executes. Each admitted request runs under its own deadline
    /// ([`QueryRequest::deadline`], falling back to the store-wide
    /// default); overruns answer [`QueryError::DeadlineExpired`] and
    /// leave the session healthy at its last committed state.
    ///
    /// Faults: a query that panics is caught and answered
    /// [`QueryError::Panicked`]; the session is poisoned, its remaining
    /// queries in the batch answer [`QueryError::Poisoned`], and all
    /// other sessions are unaffected.
    pub fn batch(&mut self, requests: &[QueryRequest]) -> Vec<Result<OpReport, QueryError>> {
        if let Some(limit) = self.max_batch {
            if requests.len() > limit {
                self.counters.rejected_batches += 1;
                return requests
                    .iter()
                    .map(|_| {
                        Err(QueryError::BatchLimit {
                            limit,
                            requested: requests.len(),
                        })
                    })
                    .collect();
            }
        }
        self.counters.batches += 1;
        self.counters.queries += requests.len() as u64;

        let mut results: Vec<Option<Result<OpReport, QueryError>>> =
            requests.iter().map(|_| None).collect();

        // Group request indices by session, first-appearance order.
        let mut groups: Vec<(String, Vec<usize>)> = Vec::new();
        for (i, request) in requests.iter().enumerate() {
            match groups.iter_mut().find(|(n, _)| *n == request.session) {
                Some((_, idxs)) => idxs.push(i),
                None => groups.push((request.session.clone(), vec![i])),
            }
        }
        let group_count = groups.len();

        // Pull each group's session out of the store; groups whose
        // session is unknown or already poisoned are answered here.
        let mut work: Vec<(usize, String, Session, Vec<usize>)> = Vec::new();
        for (gi, (name, idxs)) in groups.into_iter().enumerate() {
            let slot = self.sessions.iter_mut().find(|(n, _)| *n == name);
            match slot {
                None => {
                    for i in idxs {
                        results[i] = Some(Err(QueryError::UnknownSession(name.clone())));
                    }
                }
                Some((_, slot @ Slot::Live(_))) => {
                    let Slot::Live(session) = std::mem::replace(slot, Slot::InFlight) else {
                        unreachable!("matched Live above");
                    };
                    work.push((gi, name, *session, idxs));
                }
                Some((_, Slot::Poisoned(message))) => {
                    let message = message.clone();
                    for i in idxs {
                        results[i] = Some(Err(QueryError::Poisoned(message.clone())));
                    }
                }
                Some((_, Slot::InFlight)) => unreachable!("batch holds &mut self"),
            }
        }

        // Admission control: at most `total_threads` sessions run
        // concurrently (minimum one worker), and the same budget is
        // split over the admitted sessions' selector sweeps by design
        // size (see `adaptive_thread_budgets`).
        let workers = parallel::normalize_threads(self.total_threads.max(1), work.len());
        self.last_batch = Some(BatchStats {
            requests: requests.len(),
            groups: group_count,
            workers,
        });
        let default_deadline = self.query_deadline;
        let node_counts: Vec<usize> = work
            .iter()
            .map(|(_, _, session, _)| session.design.netlist.stats().timing_nodes)
            .collect();
        let grants = adaptive_thread_budgets(&node_counts, workers, self.total_threads);

        type GroupResult = (Vec<(usize, Result<OpReport, QueryError>)>, Option<String>);
        let cells: Vec<Mutex<Option<Session>>> =
            work.iter().map(|(_, _, _, _)| Mutex::new(None)).collect();
        let mut sessions_in: Vec<Option<Session>> = Vec::with_capacity(work.len());
        let meta: Vec<(String, Vec<usize>, usize)> = work
            .iter()
            .zip(&grants)
            .map(|((_, name, _, idxs), &grant)| (name.clone(), idxs.clone(), grant))
            .collect();
        for (_, _, session, _) in work {
            sessions_in.push(Some(session));
        }
        for (cell, session) in cells.iter().zip(&mut sessions_in) {
            *cell.lock().expect("fresh mutex") = session.take();
        }

        let group_outcomes: Vec<Result<GroupResult, String>> = parallel::run_indexed_isolated(
            workers,
            None,
            meta.len(),
            || (),
            |_, gi| {
                let (name, idxs, grant) = &meta[gi];
                let mut guard = cells[gi].lock().unwrap_or_else(|e| e.into_inner());
                let session = guard.as_mut().expect("session was placed before the run");
                let mut out = Vec::with_capacity(idxs.len());
                let mut fault: Option<String> = None;
                for &i in idxs {
                    if let Some(message) = &fault {
                        out.push((i, Err(QueryError::Poisoned(message.clone()))));
                        continue;
                    }
                    let request = &requests[i];
                    let deadline = request
                        .deadline
                        .or(default_deadline)
                        .map_or_else(Deadline::none, Deadline::after);
                    // Failpoint `service::query` (detail: session name):
                    // panics inside the per-query isolation boundary.
                    let attempt = catch_unwind(AssertUnwindSafe(|| {
                        if failpoint::fire("service::query", name) {
                            panic!("failpoint service::query fired for `{name}`");
                        }
                        session.execute(&request.op, *grant, deadline)
                    }));
                    match attempt {
                        Ok(result) => out.push((i, result)),
                        Err(payload) => {
                            let message = parallel::panic_message(payload.as_ref());
                            out.push((i, Err(QueryError::Panicked(message.clone()))));
                            fault = Some(message);
                        }
                    }
                }
                (out, fault)
            },
        );

        // Scatter results and put the sessions back (poisoned where a
        // fault occurred).
        for (gi, outcome) in group_outcomes.into_iter().enumerate() {
            let (name, idxs, _) = &meta[gi];
            let session = cells[gi].lock().unwrap_or_else(|e| e.into_inner()).take();
            let slot = match (outcome, session) {
                (Ok((answers, fault)), Some(mut session)) => {
                    for (i, answer) in answers {
                        results[i] = Some(answer);
                    }
                    match fault {
                        None => Slot::Live(Box::new(session)),
                        Some(_) => {
                            // The panic may have interrupted
                            // `with_circuit` after it took the state:
                            // drop whatever state remains so every
                            // later query sees the poisoning, but keep
                            // the session (and its snapshots) — a
                            // rollback revives it.
                            session.state = None;
                            Slot::Live(Box::new(session))
                        }
                    }
                }
                // A fault that escaped per-query isolation (or a lost
                // session): fail every not-yet-answered request in the
                // group and poison the slot.
                (outcome, _) => {
                    let message = match outcome {
                        Err(message) => message,
                        Ok(_) => "session was lost by a batch worker fault".to_string(),
                    };
                    for &i in idxs {
                        if results[i].is_none() {
                            results[i] = Some(Err(QueryError::Panicked(message.clone())));
                        }
                    }
                    Slot::Poisoned(message)
                }
            };
            let entry = self
                .sessions
                .iter_mut()
                .find(|(n, _)| n == name)
                .expect("in-flight session entry is still present");
            entry.1 = slot;
        }

        let results: Vec<Result<OpReport, QueryError>> = results
            .into_iter()
            .map(|r| r.expect("every request index is answered exactly once"))
            .collect();
        self.counters.deadline_expired += results
            .iter()
            .filter(|r| matches!(r, Err(QueryError::DeadlineExpired)))
            .count() as u64;
        results
    }

    /// A deterministic snapshot of the store's health: configuration,
    /// per-session rows (in open order), admission counters, and the
    /// most recent batch's scheduling shape. Contains counts only — no
    /// wall clocks — so identical request histories report identical
    /// stats. The thread grants are what a batch touching *every* live
    /// session would receive; smaller batches split the same budget over
    /// fewer sessions.
    pub fn stats(&self) -> StoreStats {
        let live: Vec<(usize, usize)> = self
            .sessions
            .iter()
            .enumerate()
            .filter_map(|(i, (_, slot))| match slot {
                Slot::Live(s) => Some((i, s.design.netlist.stats().timing_nodes)),
                _ => None,
            })
            .collect();
        let workers = parallel::normalize_threads(self.total_threads.max(1), live.len());
        let node_counts: Vec<usize> = live.iter().map(|&(_, n)| n).collect();
        let grants = adaptive_thread_budgets(&node_counts, workers, self.total_threads);
        let mut grant_by_index = vec![0usize; self.sessions.len()];
        for (&(i, _), &grant) in live.iter().zip(&grants) {
            grant_by_index[i] = grant;
        }

        let sessions = self
            .sessions
            .iter()
            .enumerate()
            .map(|(i, (name, slot))| match slot {
                Slot::Live(s) => SessionStats {
                    session: name.clone(),
                    design: s.design.name.clone(),
                    nodes: s.design.netlist.stats().timing_nodes,
                    thread_grant: grant_by_index[i],
                    commits: s.committed.len(),
                    steps: s.steps_committed,
                    snapshots: s.snapshots.len(),
                    poisoned: s.is_poisoned(),
                },
                _ => SessionStats {
                    session: name.clone(),
                    design: String::new(),
                    nodes: 0,
                    thread_grant: 0,
                    commits: 0,
                    steps: 0,
                    snapshots: 0,
                    poisoned: true,
                },
            })
            .collect();

        StoreStats {
            designs: self.designs.len(),
            sessions,
            total_threads: self.total_threads,
            max_sessions: self.max_sessions,
            max_batch: self.max_batch,
            query_deadline: self.query_deadline,
            counters: self.counters,
            last_batch: self.last_batch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failpoint::{arm, FaultAction};
    use crate::objective::Objective;
    use crate::optimizer::SelectorKind;
    use statsize_netlist::bench;

    fn c17_design(name: &str) -> Design {
        Design::new(name, bench::c17(), CellLibrary::synthetic_180nm())
    }

    fn optimizer() -> Optimizer {
        Optimizer::new(Objective::percentile(0.99), SelectorKind::Pruned).with_max_iterations(4)
    }

    #[test]
    fn what_if_is_speculative_and_bit_exact() {
        let design = Arc::new(c17_design("c17"));
        let mut session = Session::open(Arc::clone(&design), optimizer());
        let pristine = session.clone();

        let report = session.what_if("22", 1.0).expect("what_if");
        assert_ne!(
            report.objective.to_bits(),
            report.objective_before.to_bits()
        );
        // No trace: the session is bit-identical to never having asked.
        assert_eq!(session.state, pristine.state);
        assert!(session.committed().is_empty());

        // And the speculated figures are exactly what a commit yields.
        let mut committed = pristine.clone();
        let commit = committed.commit("22", 1.0).expect("commit");
        assert_eq!(report.objective.to_bits(), commit.objective.to_bits());
        assert_eq!(report.total_width.to_bits(), commit.total_width.to_bits());
        assert_eq!(report.area.to_bits(), commit.area.to_bits());
        assert_eq!(commit.commits, 1);
    }

    #[test]
    fn expected_faults_are_typed_and_leave_no_trace() {
        let design = Arc::new(c17_design("c17"));
        let mut session = Session::open(Arc::clone(&design), optimizer());
        let pristine = session.clone();

        assert!(matches!(
            session.what_if("no-such-net", 1.0),
            Err(QueryError::UnknownGate(_))
        ));
        // Primary inputs have no driving gate.
        assert!(matches!(
            session.what_if("1", 1.0),
            Err(QueryError::UnknownGate(_))
        ));
        assert!(matches!(
            session.commit("22", -0.5),
            Err(QueryError::InvalidResize { .. })
        ));
        assert!(matches!(
            session.commit("22", f64::NAN),
            Err(QueryError::InvalidResize { .. })
        ));
        assert_eq!(session.state, pristine.state);
        assert!(session.committed().is_empty());
        assert!(!session.is_poisoned());
    }

    #[test]
    fn step_sessions_walk_the_batch_trajectory() {
        let design = Arc::new(c17_design("c17"));
        let opt = optimizer();
        let mut session = Session::open(Arc::clone(&design), opt.clone());
        let mut rounds = 0;
        let stop = loop {
            let round = session.step(Deadline::none()).expect("step");
            if let Some(reason) = round.stop {
                break reason;
            }
            assert!(!round.records.is_empty(), "no-stop rounds must commit");
            rounds += 1;
            assert!(rounds < 100, "descent did not terminate");
        };

        let mut circuit = TimedCircuit::new(
            design.netlist(),
            design.library(),
            design.variation,
            design.dt,
        );
        let result = opt.run(&mut circuit);
        assert_eq!(stop, result.stop);
        assert_eq!(session.steps_committed, result.iterations.len());
        assert_eq!(session.committed().len(), result.iterations.len());
        let state = session.state.as_ref().expect("live session");
        assert_eq!(state.ssta(), circuit.ssta());
        assert_eq!(state.sizes(), circuit.sizes());
    }

    #[test]
    fn snapshot_rollback_round_trips_bit_exactly() {
        let design = Arc::new(c17_design("c17"));
        let mut session = Session::open(Arc::clone(&design), optimizer());
        session.commit("22", 1.0).expect("commit");
        session.snapshot("mark").expect("snapshot");
        let saved = session.clone();

        session.commit("16", 1.0).expect("commit");
        session.commit("19", 1.0).expect("commit");
        assert_ne!(session.state, saved.state);

        session.rollback("mark").expect("rollback");
        assert_eq!(session.state, saved.state);
        assert_eq!(session.committed, saved.committed);
        assert_eq!(session.steps_committed, saved.steps_committed);
        // Rollback is repeatable and misses are typed.
        session.rollback("mark").expect("rollback again");
        assert!(matches!(
            session.rollback("gone"),
            Err(QueryError::UnknownSnapshot(_))
        ));
    }

    #[test]
    fn forks_diverge_independently() {
        let design = Arc::new(c17_design("c17"));
        let mut session = Session::open(Arc::clone(&design), optimizer());
        session.commit("22", 1.0).expect("commit");
        let mut fork = session.fork().expect("fork");

        fork.commit("16", 1.0).expect("fork commit");
        session.commit("19", 1.0).expect("base commit");
        assert_ne!(session.state, fork.state);
        assert_eq!(session.committed().len(), 2);
        assert_eq!(fork.committed().len(), 2);
        assert_eq!(session.committed()[0], fork.committed()[0]);
    }

    fn seeded_store(total_threads: usize) -> SessionStore {
        let mut store = SessionStore::new().with_total_threads(total_threads);
        store.add_design(c17_design("c17")).expect("add design");
        store.open("a", "c17", optimizer()).expect("open a");
        store.open("b", "c17", optimizer()).expect("open b");
        store.fork("c", "a").expect("fork c");
        store
    }

    fn commit_op(gate: &str, delta_w: f64) -> SessionOp {
        SessionOp::Commit {
            gate: gate.to_string(),
            delta_w,
        }
    }

    fn script() -> Vec<QueryRequest> {
        vec![
            QueryRequest::new("a", commit_op("22", 1.0)),
            QueryRequest::new("b", SessionOp::Step),
            QueryRequest::new(
                "c",
                SessionOp::WhatIf {
                    gate: "16".to_string(),
                    delta_w: 2.0,
                },
            ),
            QueryRequest::new(
                "a",
                SessionOp::Snapshot {
                    name: "m".to_string(),
                },
            ),
            QueryRequest::new("b", SessionOp::Query),
            QueryRequest::new("a", commit_op("19", 1.0)),
            QueryRequest::new(
                "a",
                SessionOp::Rollback {
                    name: "m".to_string(),
                },
            ),
            QueryRequest::new("ghost", SessionOp::Query),
            QueryRequest::new("c", SessionOp::Query),
        ]
    }

    /// Debug-renders batch responses with the one wall-clock field
    /// (`IterationRecord::elapsed`) zeroed — everything else must be
    /// bit-identical (Debug's shortest-round-trip floats are injective).
    fn render(results: &[Result<OpReport, QueryError>]) -> String {
        let normalized: Vec<Result<OpReport, QueryError>> = results
            .iter()
            .map(|r| {
                r.clone().map(|report| match report {
                    OpReport::Step(mut step) => {
                        for record in &mut step.records {
                            record.elapsed = Duration::ZERO;
                        }
                        OpReport::Step(step)
                    }
                    other => other,
                })
            })
            .collect();
        format!("{normalized:?}")
    }

    #[test]
    fn batch_is_bit_identical_for_every_thread_budget() {
        let reference = seeded_store(0).batch(&script());
        assert!(matches!(
            &reference[7],
            Err(QueryError::UnknownSession(name)) if name == "ghost"
        ));
        for budget in [1, 2, 4] {
            let got = seeded_store(budget).batch(&script());
            assert_eq!(
                render(&got),
                render(&reference),
                "batch responses diverged under a budget of {budget}"
            );
        }
    }

    #[test]
    fn a_panicking_query_poisons_only_its_session_and_rollback_revives() {
        let mut store = seeded_store(2);
        let prep = store.batch(&[QueryRequest::new(
            "b",
            SessionOp::Snapshot {
                name: "safe".to_string(),
            },
        )]);
        assert!(prep[0].is_ok());

        let guard = arm("service::query", Some("b"), FaultAction::Panic);
        let got = store.batch(&[
            QueryRequest::new("a", commit_op("22", 1.0)),
            QueryRequest::new("b", SessionOp::Query),
            QueryRequest::new("b", SessionOp::Query),
            QueryRequest::new("c", SessionOp::Query),
        ]);
        drop(guard);

        assert!(got[0].is_ok(), "unrelated session a failed: {:?}", got[0]);
        assert!(matches!(&got[1], Err(QueryError::Panicked(_))));
        assert!(matches!(&got[2], Err(QueryError::Poisoned(_))));
        assert!(got[3].is_ok(), "unrelated session c failed: {:?}", got[3]);

        // The poisoning persists across batches...
        let session_b = store.session("b").expect("b still occupies its name");
        assert!(session_b.is_poisoned());
        let later = store.batch(&[QueryRequest::new("b", SessionOp::Query)]);
        assert!(matches!(&later[0], Err(QueryError::Poisoned(_))));

        // ...until a rollback to a pre-fault snapshot revives it.
        let revived = store.batch(&[
            QueryRequest::new(
                "b",
                SessionOp::Rollback {
                    name: "safe".to_string(),
                },
            ),
            QueryRequest::new("b", SessionOp::Query),
        ]);
        assert!(revived[0].is_ok(), "rollback failed: {:?}", revived[0]);
        assert!(
            revived[1].is_ok(),
            "post-revive query failed: {:?}",
            revived[1]
        );
        assert!(!store.session("b").expect("b").is_poisoned());
    }

    #[test]
    fn store_structure_errors_are_typed() {
        let mut store = seeded_store(0);
        assert!(matches!(
            store.add_design(c17_design("c17")),
            Err(QueryError::DuplicateDesign(_))
        ));
        assert!(matches!(
            store.open("a", "c17", optimizer()),
            Err(QueryError::DuplicateSession(_))
        ));
        assert!(matches!(
            store.open("d", "c432", optimizer()),
            Err(QueryError::UnknownDesign(_))
        ));
        assert!(matches!(
            store.fork("a", "b"),
            Err(QueryError::DuplicateSession(_))
        ));
        assert!(matches!(
            store.fork("d", "nope"),
            Err(QueryError::UnknownSession(_))
        ));
        assert_eq!(store.session_names(), vec!["a", "b", "c"]);
        store.close("c").expect("close");
        assert!(matches!(
            store.close("c"),
            Err(QueryError::UnknownSession(_))
        ));
        assert_eq!(store.session_names(), vec!["a", "b"]);
    }

    #[test]
    fn session_cap_refuses_open_and_fork_until_a_close_frees_a_slot() {
        let mut store = SessionStore::new().with_max_sessions(2);
        store.add_design(c17_design("c17")).expect("add design");
        store.open("a", "c17", optimizer()).expect("open a");
        store.open("b", "c17", optimizer()).expect("open b");
        assert!(matches!(
            store.open("c", "c17", optimizer()),
            Err(QueryError::SessionLimit { limit: 2 })
        ));
        assert!(matches!(
            store.fork("d", "a"),
            Err(QueryError::SessionLimit { limit: 2 })
        ));
        // Structural errors still win over the capacity answer.
        assert!(matches!(
            store.open("a", "c17", optimizer()),
            Err(QueryError::DuplicateSession(_))
        ));
        assert!(matches!(
            store.fork("d", "ghost"),
            Err(QueryError::UnknownSession(_))
        ));
        store.close("b").expect("close");
        store.fork("d", "a").expect("fork after a slot freed");
        assert_eq!(store.session_names(), vec!["a", "d"]);
        assert_eq!(store.stats().counters.rejected_sessions, 2);
    }

    #[test]
    fn oversize_batches_are_refused_wholesale() {
        let mut store = seeded_store(0);
        store = store.with_max_batch(2);
        let requests = vec![
            QueryRequest::new("a", SessionOp::Query),
            QueryRequest::new("b", SessionOp::Query),
            QueryRequest::new("c", SessionOp::Query),
        ];
        let got = store.batch(&requests);
        assert_eq!(got.len(), 3);
        for result in &got {
            assert!(matches!(
                result,
                Err(QueryError::BatchLimit {
                    limit: 2,
                    requested: 3
                })
            ));
        }
        // Nothing executed: the same queries still succeed afterwards.
        let ok = store.batch(&requests[..2]);
        assert!(ok.iter().all(|r| r.is_ok()));
        let stats = store.stats();
        assert_eq!(stats.counters.rejected_batches, 1);
        assert_eq!(stats.counters.batches, 1);
        assert_eq!(stats.counters.queries, 2);
    }

    #[test]
    fn an_expired_deadline_is_typed_and_leaves_the_session_healthy() {
        let mut store = seeded_store(0);
        let mut request = QueryRequest::new("a", SessionOp::Step);
        request.deadline = Some(Duration::ZERO);
        let got = store.batch(&[
            request,
            QueryRequest::new("a", commit_op("22", 1.0)),
            QueryRequest::new("a", SessionOp::Query),
        ]);
        assert!(matches!(&got[0], Err(QueryError::DeadlineExpired)));
        assert!(got[1].is_ok(), "session poisoned by deadline: {:?}", got[1]);
        assert!(got[2].is_ok());
        let session = store.session("a").expect("a");
        assert!(!session.is_poisoned());
        assert_eq!(session.committed().len(), 1, "only the commit landed");
        assert_eq!(store.stats().counters.deadline_expired, 1);

        // The store-wide default applies when the request carries none,
        // and a per-request deadline overrides it.
        let mut store = seeded_store(0);
        store = store.with_query_deadline(Duration::ZERO);
        let got = store.batch(&[QueryRequest::new("a", SessionOp::Query)]);
        assert!(matches!(&got[0], Err(QueryError::DeadlineExpired)));
        let mut roomy = QueryRequest::new("a", SessionOp::Query);
        roomy.deadline = Some(Duration::from_secs(3600));
        let got = store.batch(&[roomy]);
        assert!(got[0].is_ok(), "override lost to default: {:?}", got[0]);
    }

    #[test]
    fn stats_reports_sessions_counters_and_batch_shape() {
        let mut store = seeded_store(4);
        store = store.with_max_sessions(8).with_max_batch(16);
        store.batch(&script());
        let stats = store.stats();
        assert_eq!(stats.designs, 1);
        assert_eq!(stats.total_threads, 4);
        assert_eq!(stats.max_sessions, Some(8));
        assert_eq!(stats.max_batch, Some(16));
        assert_eq!(stats.counters.batches, 1);
        assert_eq!(stats.counters.queries, 9);
        let shape = stats.last_batch.expect("a batch ran");
        assert_eq!(shape.requests, 9);
        assert_eq!(shape.groups, 4, "a, b, c, ghost");
        assert_eq!(shape.workers, 3, "only three sessions resolved");

        let names: Vec<&str> = stats.sessions.iter().map(|s| s.session.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
        let a = &stats.sessions[0];
        assert_eq!(a.design, "c17");
        assert!(a.nodes > 0);
        assert!(a.thread_grant >= 1);
        assert_eq!(a.commits, 1, "second commit was rolled back");
        assert_eq!(a.snapshots, 1);
        assert!(!a.poisoned);
        let b = &stats.sessions[1];
        assert_eq!(b.steps, 1);
        assert!(b.commits >= 1, "the step committed its records");

        // Stats are deterministic: same history, same answer.
        let mut again = seeded_store(4);
        again = again.with_max_sessions(8).with_max_batch(16);
        again.batch(&script());
        assert_eq!(again.stats(), stats);
    }

    #[test]
    fn admit_failpoint_forces_a_typed_capacity_rejection() {
        let mut store = SessionStore::new();
        store.add_design(c17_design("c17")).expect("add design");
        store.open("a", "c17", optimizer()).expect("open a");
        let guard = arm("service::admit", Some("b"), FaultAction::Trigger);
        assert!(matches!(
            store.open("b", "c17", optimizer()),
            Err(QueryError::SessionLimit { limit: 1 })
        ));
        assert!(matches!(
            store.fork("b", "a"),
            Err(QueryError::SessionLimit { limit: 1 })
        ));
        // Other session names are unaffected by the armed detail.
        store.open("c", "c17", optimizer()).expect("open c");
        drop(guard);
        store
            .open("b", "c17", optimizer())
            .expect("open b after disarm");
        assert_eq!(store.stats().counters.rejected_sessions, 2);
    }

    #[test]
    fn adaptive_budgets_favor_large_circuits_within_the_total() {
        let counts = [1000, 10, 100, 500];
        let budgets = adaptive_thread_budgets(&counts, 2, 8);
        // Normalizer: the two largest sessions (1000 + 500 = 1500) — the
        // worst-case concurrently resident set with two workers.
        assert_eq!(budgets, vec![5, 1, 1, 2]);
        // Any two sessions resident at once stay within the total.
        for (i, &a) in budgets.iter().enumerate() {
            for &b in &budgets[i + 1..] {
                assert!(a + b <= 8, "{budgets:?}");
            }
        }
        // The zero default degrades to one selector thread per session.
        assert_eq!(adaptive_thread_budgets(&counts, 2, 0), vec![1; 4]);
        // Equal designs reduce to the flat split.
        assert_eq!(adaptive_thread_budgets(&[50, 50, 50, 50], 4, 8), vec![2; 4]);
        // Degenerate: no sessions.
        assert_eq!(adaptive_thread_budgets(&[], 3, 8), Vec::<usize>::new());
    }
}
