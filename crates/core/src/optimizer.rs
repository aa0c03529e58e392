//! The coordinate-descent sizing driver (paper Figure 6, outer loop).

use crate::brute::BruteForceSelector;
use crate::circuit::TimedCircuit;
use crate::deadline::{Deadline, DeadlineExceeded};
use crate::det_opt::DeterministicSelector;
use crate::heuristic::HeuristicSelector;
use crate::objective::Objective;
use crate::parallel::{Grant, SpareThreads};
use crate::pruned::{PruneStats, PrunedSelector};
use crate::selection::Selection;
use statsize_netlist::GateId;
use std::time::{Duration, Instant};

/// Which gate-selection algorithm the optimizer uses per iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectorKind {
    /// Deterministic STA sensitivities on the critical path (baseline).
    Deterministic,
    /// Exact statistical sensitivities by full perturbation propagation.
    BruteForce,
    /// The paper's pruned algorithm — identical results to brute force.
    Pruned,
    /// Bounded-lookahead heuristic (the paper's future-work direction).
    Heuristic {
        /// Levels each front is propagated beyond initialization.
        lookahead: usize,
    },
}

impl SelectorKind {
    /// The selector's stable wire name (`pruned`, `brute`,
    /// `deterministic`, `heuristic:<lookahead>`) — the vocabulary of the
    /// serve protocol's `open` request and the session WAL, inverted
    /// exactly by [`from_wire`](Self::from_wire).
    pub fn wire_name(&self) -> String {
        match self {
            SelectorKind::Pruned => "pruned".to_string(),
            SelectorKind::BruteForce => "brute".to_string(),
            SelectorKind::Deterministic => "deterministic".to_string(),
            SelectorKind::Heuristic { lookahead } => format!("heuristic:{lookahead}"),
        }
    }

    /// Parses a [`wire_name`](Self::wire_name) rendering.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown selector.
    pub fn from_wire(name: &str) -> Result<Self, String> {
        match name {
            "pruned" => Ok(SelectorKind::Pruned),
            "brute" => Ok(SelectorKind::BruteForce),
            "deterministic" => Ok(SelectorKind::Deterministic),
            _ => name
                .strip_prefix("heuristic:")
                .and_then(|k| k.parse().ok())
                .map(|lookahead| SelectorKind::Heuristic { lookahead })
                .ok_or_else(|| format!("unknown selector `{name}`")),
        }
    }
}

/// Why an optimization run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// No gate had positive sensitivity (`Max_S ≤ 0`, the paper's
    /// termination condition).
    Converged,
    /// The configured iteration budget was exhausted.
    MaxIterations,
    /// The configured total-width budget was reached.
    WidthLimit,
    /// The configured cooperative deadline
    /// ([`Optimizer::with_deadline`]) expired. Iterations committed
    /// before the expiry are kept — the trajectory is valid, just
    /// truncated.
    DeadlineExpired,
}

/// One committed sizing move and the circuit state after it — a point on
/// the paper's area–delay trajectory (Figure 10).
#[derive(Debug, Clone)]
pub struct IterationRecord {
    /// 0-based iteration index.
    pub iteration: usize,
    /// The gate that was sized up.
    pub gate: GateId,
    /// Its sensitivity at selection time.
    pub sensitivity: f64,
    /// Objective value after the commit.
    pub objective_after: f64,
    /// Total gate width after the commit.
    pub total_width_after: f64,
    /// Total area after the commit.
    pub area_after: f64,
    /// Wall-clock time of the iteration (selection + commit).
    pub elapsed: Duration,
    /// Pruning statistics (pruned selector only).
    pub prune: Option<PruneStats>,
}

/// The outcome of an optimization run.
#[derive(Debug, Clone)]
pub struct OptimizationResult {
    /// Objective value before any sizing.
    pub initial_objective: f64,
    /// Objective value after the last commit.
    pub final_objective: f64,
    /// Total gate width before any sizing.
    pub initial_width: f64,
    /// Total gate width after the last commit.
    pub final_width: f64,
    /// Total area before any sizing.
    pub initial_area: f64,
    /// Total area after the last commit.
    pub final_area: f64,
    /// Every committed iteration, in order.
    pub iterations: Vec<IterationRecord>,
    /// Why the run stopped.
    pub stop: StopReason,
    /// The gate widths after the last commit, indexed by gate id — what
    /// the result store persists as the warm-start seed for delta runs.
    pub final_sizes: Vec<f64>,
}

impl OptimizationResult {
    /// Number of sizing moves committed.
    pub fn iterations_run(&self) -> usize {
        self.iterations.len()
    }

    /// Objective improvement in percent of the initial value.
    pub fn improvement_percent(&self) -> f64 {
        100.0 * (self.initial_objective - self.final_objective) / self.initial_objective
    }

    /// Total-width increase in percent of the initial value (the paper's
    /// Table 1, column 3).
    pub fn width_increase_percent(&self) -> f64 {
        100.0 * (self.final_width - self.initial_width) / self.initial_width
    }

    /// Mean wall-clock time per iteration.
    pub fn mean_iteration_time(&self) -> Duration {
        if self.iterations.is_empty() {
            return Duration::ZERO;
        }
        let total: Duration = self.iterations.iter().map(|r| r.elapsed).sum();
        total / self.iterations.len() as u32
    }
}

/// The outcome of one optimizer [`step`](Optimizer::step): the iteration
/// records committed by this selection round (empty when the round
/// stopped before committing anything) and, if the run is over, why.
///
/// A full [`run`](Optimizer::run) is exactly a `step` loop — the serve
/// mode's incremental `step` queries and the batch optimizer produce
/// bit-identical trajectories *by construction*, because they execute
/// the same code.
#[derive(Debug, Clone)]
pub struct OptimizerStep {
    /// Iterations committed by this round, in commit order.
    pub records: Vec<IterationRecord>,
    /// `Some(reason)` when the descent is finished (no further `step`
    /// would commit anything); `None` when there is more to do.
    pub stop: Option<StopReason>,
}

/// The coordinate-descent gate sizer: repeatedly select the most sensitive
/// gate with the configured selector and size it up by `Δw`, until no gate
/// improves the objective or a budget is hit.
#[derive(Debug, Clone, PartialEq)]
pub struct Optimizer {
    objective: Objective,
    selector: SelectorKind,
    delta_w: f64,
    max_iterations: usize,
    width_limit: Option<f64>,
    min_sensitivity: f64,
    moves_per_iteration: usize,
    threads: usize,
    deadline: Option<Duration>,
    initial_sizes: Option<Vec<f64>>,
}

impl Optimizer {
    /// Creates an optimizer with the paper's defaults: `Δw = 1.0`,
    /// at most 1000 iterations, no width budget, and the paper's strict
    /// `Max_S > 0` termination.
    pub fn new(objective: Objective, selector: SelectorKind) -> Self {
        Self {
            objective,
            selector,
            delta_w: 1.0,
            max_iterations: 1000,
            width_limit: None,
            min_sensitivity: 0.0,
            moves_per_iteration: 1,
            threads: crate::parallel::default_threads(),
            deadline: None,
            initial_sizes: None,
        }
    }

    /// Warm-starts the descent from an explicit sizing vector instead of
    /// minimum sizes: [`run`](Self::run) installs `sizes` on the circuit
    /// (full re-analysis, exactly as if every width had been committed)
    /// **before** measuring `initial_objective`, then descends as usual.
    /// The campaign result store uses this to seed a delta run (same
    /// circuit, changed objective or `dt`) from the previous optimum —
    /// coordinate descent only improves from its start, so the warm run's
    /// final objective is no worse than its warm starting point, and in
    /// practice no worse than the cold run's final (pinned empirically by
    /// `tests/result_store.rs`). The trajectory remains bit-identical
    /// across thread counts; determinism is unaffected because the seed
    /// vector is part of the configuration, not of the schedule.
    ///
    /// `sizes` must have one width per gate, each finite and at least
    /// the minimum width (1.0) — [`run`](Self::run) panics otherwise,
    /// exactly like an invalid [`with_delta_w`](Self::with_delta_w).
    #[must_use]
    pub fn with_initial_sizes(mut self, sizes: Vec<f64>) -> Self {
        self.initial_sizes = Some(sizes);
        self
    }

    /// The warm-start sizing vector, if one was configured.
    pub fn initial_sizes(&self) -> Option<&[f64]> {
        self.initial_sizes.as_deref()
    }

    /// Sets a cooperative wall-clock budget for the whole run. The
    /// deadline is checked at the top of every iteration and threaded
    /// into each statistical selector sweep (which polls it at candidate
    /// and front-level boundaries — no OS timers, no thread
    /// cancellation). On expiry the run stops with
    /// [`StopReason::DeadlineExpired`], keeping every iteration committed
    /// so far: the trajectory is valid, just truncated. Note that a
    /// deadline makes the *stop point* wall-clock dependent, so
    /// deadline-truncated results are excluded from the bit-identical
    /// determinism contracts.
    #[must_use]
    pub fn with_deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// Overrides the worker-thread count handed to the statistical
    /// selectors each iteration (brute-force, pruned, heuristic — the
    /// deterministic selector is a single STA pass and ignores it),
    /// mirroring [`MonteCarlo::with_threads`](statsize_ssta::MonteCarlo::with_threads).
    /// The optimization trajectory is bit-identical for every thread
    /// count. `0` is clamped to 1; counts above the number of candidate
    /// gates are capped at it per selection sweep.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The configured selector worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Commits up to `moves` sizing moves per selection round — the
    /// paper's "size multiple gates in the same iteration" variant
    /// (Section 3.3). Selection cost is amortized over the batch;
    /// sensitivities within a batch are approximations for every move
    /// after the first (the commits interact). Supported by the
    /// brute-force and pruned selectors; the others always make one move.
    ///
    /// # Panics
    ///
    /// Panics if `moves` is zero.
    #[must_use]
    pub fn with_moves_per_iteration(mut self, moves: usize) -> Self {
        assert!(moves > 0, "moves per iteration must be positive");
        self.moves_per_iteration = moves;
        self
    }

    /// Treats sensitivities at or below `threshold` as converged. The
    /// continuous EQ 1 delay model keeps sensitivities of primary-input
    /// gates positive forever (their drivers are not modeled, so upsizing
    /// them has gain but no fan-in penalty); a small threshold gives the
    /// descent a well-defined fixpoint.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is negative or non-finite.
    #[must_use]
    pub fn with_min_sensitivity(mut self, threshold: f64) -> Self {
        assert!(
            threshold.is_finite() && threshold >= 0.0,
            "threshold must be finite and non-negative, got {threshold}"
        );
        self.min_sensitivity = threshold;
        self
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

    /// Sets the iteration budget.
    #[must_use]
    pub fn with_max_iterations(mut self, max_iterations: usize) -> Self {
        self.max_iterations = max_iterations;
        self
    }

    /// Stops once total gate width reaches this value — how the Table 1
    /// comparison holds area equal between optimizers.
    #[must_use]
    pub fn with_width_limit(mut self, limit: f64) -> Self {
        self.width_limit = Some(limit);
        self
    }

    /// The objective being minimized.
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// The selector in use.
    pub fn selector(&self) -> SelectorKind {
        self.selector
    }

    /// The width increment per move.
    pub fn delta_w(&self) -> f64 {
        self.delta_w
    }

    /// The configured iteration budget.
    pub fn max_iterations(&self) -> usize {
        self.max_iterations
    }

    /// Executes **one** selection round of the coordinate descent: budget
    /// and deadline pre-checks, one selector sweep, and the batch of
    /// commits it yields. This is the loop body of [`run`](Self::run),
    /// exposed so a serve-mode session can advance a descent
    /// incrementally — query by query, interleaved with what-ifs and
    /// snapshots — and still walk the exact trajectory a batch run walks.
    ///
    /// `already_committed` is how many iterations the descent has
    /// committed so far (it positions this round against
    /// `max_iterations` and numbers the records); `deadline` is the
    /// cooperative cut-off threaded into the selector sweep, typically
    /// per-query in serve mode and run-wide in batch mode.
    pub fn step(
        &self,
        circuit: &mut TimedCircuit<'_>,
        already_committed: usize,
        deadline: Deadline,
    ) -> OptimizerStep {
        self.step_lending(circuit, already_committed, deadline, None)
    }

    /// [`step`](Self::step), with the selector sweep widened by every
    /// thread `spare` holds when the sweep starts or receives while it
    /// runs (see [`SpareThreads`]).
    pub(crate) fn step_lending(
        &self,
        circuit: &mut TimedCircuit<'_>,
        already_committed: usize,
        deadline: Deadline,
        spare: Option<&SpareThreads>,
    ) -> OptimizerStep {
        let mut records = Vec::new();
        if already_committed >= self.max_iterations {
            return OptimizerStep {
                records,
                stop: Some(StopReason::MaxIterations),
            };
        }
        if deadline.expired() {
            return OptimizerStep {
                records,
                stop: Some(StopReason::DeadlineExpired),
            };
        }
        if let Some(limit) = self.width_limit {
            if circuit.total_width() + self.delta_w > limit + 1e-9 {
                return OptimizerStep {
                    records,
                    stop: Some(StopReason::WidthLimit),
                };
            }
        }
        let t0 = Instant::now();
        // The statistical sweep runs under the deadline; an expiry
        // mid-sweep discards that sweep's partial results and stops the
        // descent with the committed trajectory intact.
        let Ok((selections, prune)) = self.sweep(circuit, deadline, spare) else {
            return OptimizerStep {
                records,
                stop: Some(StopReason::DeadlineExpired),
            };
        };
        if selections.is_empty() || selections[0].sensitivity <= self.min_sensitivity {
            return OptimizerStep {
                records,
                stop: Some(StopReason::Converged),
            };
        }
        let mut stopped = None;
        let mut first_in_batch = true;
        for selection in selections {
            if already_committed + records.len() >= self.max_iterations {
                stopped = Some(StopReason::MaxIterations);
                break;
            }
            if let Some(limit) = self.width_limit {
                if circuit.total_width() + self.delta_w > limit + 1e-9 {
                    stopped = Some(StopReason::WidthLimit);
                    break;
                }
            }
            if selection.sensitivity <= self.min_sensitivity {
                break; // tail of the batch no longer qualifies
            }
            circuit.commit_resize(selection.gate, self.delta_w);
            records.push(IterationRecord {
                iteration: already_committed + records.len(),
                gate: selection.gate,
                sensitivity: selection.sensitivity,
                objective_after: circuit.objective_value(self.objective),
                total_width_after: circuit.total_width(),
                area_after: circuit.area(),
                elapsed: if first_in_batch {
                    t0.elapsed()
                } else {
                    Duration::ZERO
                },
                prune: if first_in_batch { prune } else { None },
            });
            first_in_batch = false;
        }
        OptimizerStep {
            records,
            stop: stopped,
        }
    }

    /// One selector sweep under `deadline`. A statistical sweep starts on
    /// the configured threads plus every thread `spare` holds, and its
    /// workers take the threads the pool receives while it runs; the
    /// loan returns to the pool when the sweep ends, however it ends.
    /// The deterministic selector is a single STA pass and borrows
    /// nothing. The pruned sweep reuses the Figure-7 bounds parked on
    /// `circuit` that no commit has invalidated, and parks the rest.
    pub(crate) fn sweep(
        &self,
        circuit: &mut TimedCircuit<'_>,
        deadline: Deadline,
        spare: Option<&SpareThreads>,
    ) -> Result<(Vec<Selection>, Option<PruneStats>), DeadlineExceeded> {
        let k = self.moves_per_iteration;
        let loan = match self.selector {
            SelectorKind::Deterministic => None,
            _ => spare.map(SpareThreads::lend),
        };
        let threads = self.threads + loan.as_ref().map_or(0, Grant::threads);
        let loan = loan.as_ref();
        match self.selector {
            SelectorKind::Deterministic => Ok((
                DeterministicSelector::new(self.delta_w)
                    .select(circuit)
                    .into_iter()
                    .collect(),
                None,
            )),
            SelectorKind::BruteForce => BruteForceSelector::new(self.delta_w)
                .with_threads(threads)
                .with_deadline(deadline)
                .try_select_top_k_lending(circuit, self.objective, k, loan)
                .map(|s| (s, None)),
            SelectorKind::Pruned => PrunedSelector::new(self.delta_w)
                .with_threads(threads)
                .with_deadline(deadline)
                .try_select_top_k_reusing(circuit, self.objective, k, loan)
                .map(|(s, stats)| (s, Some(stats))),
            SelectorKind::Heuristic { lookahead } => {
                HeuristicSelector::new(self.delta_w, lookahead)
                    .with_threads(threads)
                    .with_deadline(deadline)
                    .try_select_lending(circuit, self.objective, loan)
                    .map(|s| (s.into_iter().collect(), None))
            }
        }
    }

    /// Runs coordinate descent to convergence or budget exhaustion: a
    /// [`step`](Self::step) loop under one run-wide deadline. With
    /// [`with_initial_sizes`](Self::with_initial_sizes) configured, the
    /// seed vector is installed first and `initial_objective` is measured
    /// at the warm starting point.
    ///
    /// # Panics
    ///
    /// Panics if a configured warm-start vector does not match the
    /// circuit's gate count or contains an invalid width.
    pub fn run(&self, circuit: &mut TimedCircuit<'_>) -> OptimizationResult {
        self.run_lending(circuit, None)
    }

    /// [`run`](Self::run), each sweep widened by the threads `spare`
    /// lends it (see [`step_lending`](Self::step_lending)).
    pub(crate) fn run_lending(
        &self,
        circuit: &mut TimedCircuit<'_>,
        spare: Option<&SpareThreads>,
    ) -> OptimizationResult {
        if let Some(sizes) = &self.initial_sizes {
            circuit.set_sizes(sizes);
        }
        let initial_objective = circuit.objective_value(self.objective);
        let initial_width = circuit.total_width();
        let initial_area = circuit.area();
        let deadline = self.deadline.map_or_else(Deadline::none, Deadline::after);
        let mut iterations = Vec::new();
        let stop = loop {
            let round = self.step_lending(circuit, iterations.len(), deadline, spare);
            iterations.extend(round.records);
            if let Some(reason) = round.stop {
                break reason;
            }
        };

        OptimizationResult {
            initial_objective,
            final_objective: iterations
                .last()
                .map_or(initial_objective, |r| r.objective_after),
            initial_width,
            final_width: circuit.total_width(),
            initial_area,
            final_area: circuit.area(),
            iterations,
            stop,
            final_sizes: circuit.sizes().widths().to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use statsize_cells::{CellLibrary, VariationModel};
    use statsize_netlist::{bench, shapes};

    fn circuit_of<'a>(nl: &'a statsize_netlist::Netlist, lib: &'a CellLibrary) -> TimedCircuit<'a> {
        TimedCircuit::new(nl, lib, VariationModel::paper_default(), 1.0)
    }

    #[test]
    fn statistical_run_improves_and_records_trajectory() {
        let nl = bench::c17();
        let lib = CellLibrary::synthetic_180nm();
        let mut c = circuit_of(&nl, &lib);
        let result = Optimizer::new(Objective::percentile(0.99), SelectorKind::Pruned)
            .with_max_iterations(8)
            .run(&mut c);
        assert!(result.final_objective < result.initial_objective);
        assert!(result.improvement_percent() > 0.0);
        assert_eq!(result.iterations_run(), result.iterations.len());
        // Objective is non-increasing along the trajectory.
        let mut prev = result.initial_objective;
        for r in &result.iterations {
            assert!(
                r.objective_after <= prev + 1e-9,
                "iteration {}",
                r.iteration
            );
            prev = r.objective_after;
            assert!(r.prune.is_some());
        }
        // Width grows by Δw each iteration.
        assert!(
            (result.final_width - result.initial_width - result.iterations_run() as f64 * 1.0)
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn width_limit_stops_the_run() {
        let nl = bench::c17();
        let lib = CellLibrary::synthetic_180nm();
        let mut c = circuit_of(&nl, &lib);
        let result = Optimizer::new(Objective::percentile(0.99), SelectorKind::Pruned)
            .with_width_limit(8.0) // 6 gates at width 1 + two moves of Δw=1
            .run(&mut c);
        assert_eq!(result.stop, StopReason::WidthLimit);
        assert_eq!(result.iterations_run(), 2);
    }

    #[test]
    fn deterministic_run_converges_with_threshold() {
        let nl = shapes::chain("c", 3);
        let lib = CellLibrary::synthetic_180nm();
        let mut c = circuit_of(&nl, &lib);
        let result = Optimizer::new(Objective::percentile(0.99), SelectorKind::Deterministic)
            .with_max_iterations(400)
            .with_min_sensitivity(0.1)
            .run(&mut c);
        assert_eq!(result.stop, StopReason::Converged);
        assert!(result.final_objective < result.initial_objective);
    }

    #[test]
    fn max_iterations_is_respected() {
        let nl = bench::c17();
        let lib = CellLibrary::synthetic_180nm();
        let mut c = circuit_of(&nl, &lib);
        let result = Optimizer::new(Objective::percentile(0.99), SelectorKind::BruteForce)
            .with_max_iterations(3)
            .run(&mut c);
        assert!(result.iterations_run() <= 3);
        if result.iterations_run() == 3 {
            assert_eq!(result.stop, StopReason::MaxIterations);
        }
    }

    #[test]
    fn parallel_run_reproduces_the_serial_trajectory() {
        let nl = bench::c17();
        let lib = CellLibrary::synthetic_180nm();
        let run_with = |threads: usize| {
            let mut c = circuit_of(&nl, &lib);
            Optimizer::new(Objective::percentile(0.99), SelectorKind::Pruned)
                .with_max_iterations(5)
                .with_threads(threads)
                .run(&mut c)
        };
        assert_eq!(
            Optimizer::new(Objective::percentile(0.99), SelectorKind::Pruned)
                .with_threads(0)
                .threads(),
            1
        );
        let serial = run_with(1);
        let parallel = run_with(4);
        assert_eq!(serial.final_objective, parallel.final_objective);
        let gates = |r: &OptimizationResult| -> Vec<_> {
            r.iterations
                .iter()
                .map(|i| (i.gate, i.sensitivity))
                .collect()
        };
        assert_eq!(gates(&serial), gates(&parallel));
    }

    #[test]
    fn zero_deadline_stops_before_any_move() {
        let nl = bench::c17();
        let lib = CellLibrary::synthetic_180nm();
        for selector in [
            SelectorKind::Pruned,
            SelectorKind::BruteForce,
            SelectorKind::Heuristic { lookahead: 1 },
            SelectorKind::Deterministic,
        ] {
            let mut c = circuit_of(&nl, &lib);
            let result = Optimizer::new(Objective::percentile(0.99), selector)
                .with_deadline(Duration::ZERO)
                .run(&mut c);
            assert_eq!(result.stop, StopReason::DeadlineExpired, "{selector:?}");
            assert_eq!(result.iterations_run(), 0, "{selector:?}");
            // Nothing committed: the circuit state is untouched.
            assert_eq!(result.final_objective, result.initial_objective);
            assert_eq!(result.final_width, result.initial_width);
        }
    }

    #[test]
    fn generous_deadline_does_not_perturb_the_run() {
        let nl = bench::c17();
        let lib = CellLibrary::synthetic_180nm();
        let mut a = circuit_of(&nl, &lib);
        let plain = Optimizer::new(Objective::percentile(0.99), SelectorKind::Pruned)
            .with_max_iterations(4)
            .run(&mut a);
        let mut b = circuit_of(&nl, &lib);
        let timed = Optimizer::new(Objective::percentile(0.99), SelectorKind::Pruned)
            .with_max_iterations(4)
            .with_deadline(Duration::from_secs(3600))
            .run(&mut b);
        assert_eq!(plain.final_objective, timed.final_objective);
        assert_eq!(plain.iterations_run(), timed.iterations_run());
        assert_eq!(plain.stop, timed.stop);
    }

    #[test]
    fn step_loop_reproduces_run_bit_exactly() {
        let nl = bench::c17();
        let lib = CellLibrary::synthetic_180nm();
        let opt = Optimizer::new(Objective::percentile(0.99), SelectorKind::Pruned)
            .with_max_iterations(6);
        let mut a = circuit_of(&nl, &lib);
        let batch = opt.run(&mut a);

        let mut b = circuit_of(&nl, &lib);
        let mut records = Vec::new();
        let stop = loop {
            let round = opt.step(&mut b, records.len(), Deadline::none());
            records.extend(round.records);
            if let Some(reason) = round.stop {
                break reason;
            }
        };
        assert_eq!(stop, batch.stop);
        assert_eq!(records.len(), batch.iterations.len());
        for (s, r) in records.iter().zip(&batch.iterations) {
            assert_eq!(s.iteration, r.iteration);
            assert_eq!(s.gate, r.gate);
            assert_eq!(s.sensitivity.to_bits(), r.sensitivity.to_bits());
            assert_eq!(s.objective_after.to_bits(), r.objective_after.to_bits());
            assert_eq!(s.total_width_after.to_bits(), r.total_width_after.to_bits());
        }
        assert_eq!(a.ssta(), b.ssta(), "final timing state identical");
    }

    #[test]
    fn warm_start_measures_initial_at_the_seed_point() {
        let nl = bench::c17();
        let lib = CellLibrary::synthetic_180nm();
        let opt = Optimizer::new(Objective::percentile(0.99), SelectorKind::Pruned)
            .with_max_iterations(3);
        assert!(opt.initial_sizes().is_none());
        let mut cold = circuit_of(&nl, &lib);
        let cold_result = opt.run(&mut cold);
        assert_eq!(cold_result.final_sizes, cold.sizes().widths());

        // Seeding a fresh circuit with the cold run's final sizes must
        // reproduce the cold run's final timing bit-exactly (the
        // incremental-equals-full contract) before descending further.
        let warm_opt = opt
            .clone()
            .with_initial_sizes(cold_result.final_sizes.clone());
        assert_eq!(
            warm_opt.initial_sizes(),
            Some(cold_result.final_sizes.as_slice())
        );
        let mut warm = circuit_of(&nl, &lib);
        let warm_result = warm_opt.run(&mut warm);
        assert_eq!(
            warm_result.initial_objective.to_bits(),
            cold_result.final_objective.to_bits(),
            "warm initial is measured at the seed point"
        );
        assert!(warm_result.final_objective <= warm_result.initial_objective);
        assert!(warm_result.final_objective <= cold_result.final_objective);
    }

    #[test]
    #[should_panic(expected = "gate count")]
    fn warm_start_rejects_mismatched_vectors() {
        let nl = bench::c17();
        let lib = CellLibrary::synthetic_180nm();
        let mut c = circuit_of(&nl, &lib);
        Optimizer::new(Objective::percentile(0.99), SelectorKind::Pruned)
            .with_initial_sizes(vec![1.0, 2.0])
            .run(&mut c);
    }

    #[test]
    fn selector_wire_names_round_trip() {
        for kind in [
            SelectorKind::Pruned,
            SelectorKind::BruteForce,
            SelectorKind::Deterministic,
            SelectorKind::Heuristic { lookahead: 3 },
        ] {
            assert_eq!(SelectorKind::from_wire(&kind.wire_name()), Ok(kind));
        }
        assert!(SelectorKind::from_wire("frobnicate").is_err());
        assert!(SelectorKind::from_wire("heuristic:-1").is_err());
    }

    #[test]
    fn heuristic_run_improves() {
        let nl = shapes::path_bundle("b", &[3, 7, 5]);
        let lib = CellLibrary::synthetic_180nm();
        let mut c = circuit_of(&nl, &lib);
        let result = Optimizer::new(
            Objective::percentile(0.99),
            SelectorKind::Heuristic { lookahead: 2 },
        )
        .with_max_iterations(10)
        .run(&mut c);
        assert!(result.final_objective <= result.initial_objective);
    }
}
