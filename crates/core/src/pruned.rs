//! The paper's accelerated selector: perturbation fronts with exact
//! pruning (Figures 6–9).
//!
//! For every candidate gate a **perturbation front** is initialized
//! (`Initialize`, Figure 7) and its sensitivity bound `Smx = Δmx/Δw`
//! computed, where `Δmx` is the maximum percentile shift over the active
//! front — by Theorems 1–4 an upper bound on the candidate's exact
//! sensitivity `Sx`. Fronts are then advanced best-bound-first, one level
//! at a time (`PropagateOneLevel`, Figure 9); whenever a front reaches the
//! sink its exact `Sx` is known and every candidate with `Smx < Max_S` is
//! pruned without further propagation (Figure 6, step 20). Because bounds
//! only shrink as fronts advance, the surviving argmax is exactly the
//! brute-force argmax.
//!
//! Three things keep the sweep lean without changing a bit of its output:
//!
//! * **Parked bounds.** Initialization records each candidate's `Smx` and
//!   recycles its walk at once; most candidates are pruned on that bound
//!   alone. A candidate whose bound survives its first pop is
//!   re-initialized — deterministically, so to the same bound — and then
//!   advanced. Peak memory is one bound per candidate plus the fronts
//!   actually being advanced, not one initialized front per candidate.
//! * **A per-sweep edge-convolution memo** ([`EdgeConvMemo`]). A front
//!   node's side inputs — gate edges whose upstream still carries its
//!   base arrival and whose gate is not overridden — convolve to the same
//!   distribution in every front that reaches that node, so the sweep
//!   computes each once and shares it across all of its fronts. The memo
//!   lives for one sweep over one immutable circuit borrow.
//! * **Lazy front bounds.** Bounds shrink as they propagate (Theorems
//!   1–3), so a front node reached only through unchanged delays needs
//!   no measurement: it inherits `max(0, Δ of its perturbed fan-ins)`.
//!   Only the outputs of the candidate and its drivers, whose in-edges
//!   carry the trial delays, are measured when computed. An inherited
//!   bound is measured only when a decision depends on it: at a pop,
//!   the largest inherited bounds are measured until one exact bound
//!   survives the cut and outranks the next heap entry, or none can.
//!   A front whose tighter bound falls behind goes back on the heap.
//!   A prune still rests on an upper bound below the cut, and a front
//!   advances only once an exact bound of it outranks every other key.
//!   Wherever the inherited bounds dominate the measured ones, the sweep
//!   therefore advances, completes and prunes exactly the fronts that
//!   measuring every node would (on the benchmark workloads every work
//!   counter matches).
//!
//! Soundness note: past the front, propagation merges with *unperturbed*
//! side inputs (shift 0), so the usable guarantee is
//! `Sx ≤ max(Smx, 0)`. Pruning only ever compares against `Max_S ≥ 0`,
//! for which this is exactly sufficient: `Smx < Max_S` implies
//! `max(Smx, 0) < Max_S` whenever `Max_S > 0`, and with `Max_S = 0` a
//! pruned candidate provably has no positive sensitivity.
//!
//! The guarantee holds on the probability levels the objectives read,
//! not on the whole range. Measured over all of `(0, 1)`, a node's
//! whole-bin bound can exceed its fan-in's by 1–3 bins: on the serial
//! gen1200 descent (dt 1) at 43 of 155,607 inherited nodes, on two
//! iterations of c432, c880 and c1355 at dt 0.25 at 6 of 1,790, 15 of
//! 5,213 and 161 of 7,558. The excess always lay outside the body
//! window `[1e-8, 1 − 1e-8]`, in the extreme tails, where tail trimming
//! (up to 1e-12 of mass per side per lattice operation) and the shift
//! walk's level-tie tolerance (1e-10) act. On the body window the bound
//! held at every node, and a unit test checks it for every inherited
//! node of several circuits' fronts walked to the sink. A percentile
//! objective reads one level inside that window. The mean integrates
//! the quantile function over all levels, but the levels outside the
//! window weigh 2e-8 in total, so an excess of a few bins there moves a
//! mean improvement by under 1e-7 ps at dt = 1, far below `PRUNE_SLACK`.
//!
//! # Parallel sweep
//!
//! With [`with_threads`](PrunedSelector::with_threads) `> 1` the sweep
//! runs as a two-phase work-stealing scan (infrastructure in the crate's
//! `parallel` module) inside a *single* spawn of the worker pool:
//! workers steal candidates from a shared atomic cursor and park every
//! candidate's initial bound, rendezvous at a barrier (whose leader
//! publishes the descending-initial-bound claim order — the parallel
//! analogue of the serial heap's best-bound-first discipline), then roll
//! straight into the propagation phase on the same threads, keeping each
//! worker's scratch pool and memo warm across the phase boundary. A
//! claimed candidate whose parked bound survives the threshold is
//! re-initialized once and advanced, its inherited bounds measured only
//! as far as each prune check against the threshold needs. The live
//! threshold is
//! the paper's `Max_S` published through an atomic monotone max, so
//! every worker prunes against the freshest exact sensitivity completed
//! anywhere.
//!
//! The *returned selections are bit-identical to the serial sweep for
//! every thread count*, by construction rather than by luck: a candidate
//! is only ever pruned when its bound — hence its exact sensitivity — is
//! strictly below the threshold at some moment, and the threshold never
//! exceeds the final k-th best sensitivity. Every true top-k member
//! therefore completes under *any* schedule, with a sensitivity computed
//! by the same deterministic lattice operations, and the final reduction
//! sorts by (sensitivity, lowest gate id) — a total order. Only the
//! [`PruneStats`] *counters* are schedule-dependent: which candidates get
//! pruned versus completed depends on when each worker observes `Max_S`
//! (the invariant `pruned + completed == candidates` always holds), and
//! which worker's memo first meets a side input decides how many
//! convolutions are reused.

use crate::circuit::TimedCircuit;
use crate::deadline::{Deadline, DeadlineExceeded};
use crate::objective::Objective;
use crate::parallel::{default_threads, normalize_threads, run_workers, SharedMax, WorkQueue};
use crate::selection::Selection;
use statsize_dist::{lattice_shift_bound, DistScratch};
use statsize_netlist::GateId;
use statsize_ssta::{ConeWalk, EdgeConvMemo, SstaAnalysis, StepReport, TimingNode};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::sync::{Barrier, Mutex, OnceLock};

/// Work statistics of one pruned selection, quantifying how effective the
/// perturbation bounds were (the paper reports "as many as 55 out of 56
/// candidate nodes are pruned").
///
/// Invariant: `pruned + completed == candidates` — every candidate front
/// ends exactly one way. Under the parallel sweep the *split* between the
/// two counters may differ from the serial sweep's (each worker observes
/// the shared `Max_S` threshold at different moments, so a candidate the
/// serial sweep pruned may complete in a parallel run and vice versa),
/// and `levels_propagated`/`nodes_computed`/`convolutions_reused`/
/// `bounds_evaluated` vary accordingly; the returned [`Selection`]s are
/// bit-identical regardless.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Number of candidate gates considered (all gates in the circuit).
    pub candidates: usize,
    /// Candidates whose front reached the sink (exact `Sx` computed).
    pub completed: usize,
    /// Candidates eliminated by the bound before reaching the sink.
    pub pruned: usize,
    /// Total `PropagateOneLevel` calls, including initialization steps —
    /// both the initialization that records a candidate's bound and the
    /// re-initialization of each front that survives its first pop.
    pub levels_propagated: usize,
    /// Total perturbed arrival distributions computed across all fronts,
    /// counting the same two initializations.
    pub nodes_computed: usize,
    /// Side-input edge convolutions served from the sweep's
    /// [`EdgeConvMemo`] instead of recomputed. Deterministic for the
    /// serial sweep; under threads > 1 each worker keeps its own memo, so
    /// the count depends on the schedule like the pruned/completed split.
    pub convolutions_reused: usize,
    /// Front-node shift bounds measured with `lattice_shift_bound`; every
    /// other front node inherits its bound from its fan-in. Deterministic
    /// for the serial sweep; schedule-dependent under threads > 1, like
    /// the pruned/completed split.
    pub bounds_evaluated: usize,
}

impl PruneStats {
    /// Fraction of candidates pruned before full propagation.
    pub fn pruned_fraction(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.pruned as f64 / self.candidates as f64
        }
    }

    /// Folds another stats record into this one (per-worker aggregation).
    fn merge(&mut self, other: &PruneStats) {
        self.candidates += other.candidates;
        self.completed += other.completed;
        self.pruned += other.pruned;
        self.levels_propagated += other.levels_propagated;
        self.nodes_computed += other.nodes_computed;
        self.convolutions_reused += other.convolutions_reused;
        self.bounds_evaluated += other.bounds_evaluated;
    }
}

/// The paper's pruned statistical selector. Produces results identical to
/// [`BruteForceSelector`](crate::BruteForceSelector) (same gate, same
/// sensitivity, bit for bit), typically at a fraction of the work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrunedSelector {
    delta_w: f64,
    threads: usize,
    deadline: Deadline,
}

/// Safety slack (ps per unit width) applied to the pruning comparison.
///
/// On the body of the distribution the whole-bin front bound is
/// preserved by the lattice operators up to one nuisance term: tail
/// trimming renormalizes mass by factors of `1 ± 1e-12`, which perturbs
/// objective evaluations by well under `1e-9` ps at any percentile with
/// real mass (for the extreme tails see the module's soundness note).
/// Pruning only when the bound is below `Max_S` by more than this slack
/// absorbs that noise; it is about six orders of magnitude below any
/// sensitivity that matters, so pruning effectiveness is unaffected.
const PRUNE_SLACK: f64 = 1e-6;

/// One front node's shift bound `Δi`, in ps.
#[derive(Debug, Clone, Copy)]
struct FrontBound {
    delta: f64,
    /// Measured by [`lattice_shift_bound`]; otherwise inherited from the
    /// node's fan-in and possibly looser.
    exact: bool,
}

/// One candidate gate's partially propagated perturbation front.
struct Candidate<'a> {
    gate: GateId,
    walk: ConeWalk<'a>,
    /// `Δi` per active front node.
    front: HashMap<TimingNode, FrontBound>,
    /// Current bound `Smx = Δmx/Δw` (valid once initialization finished).
    smx: f64,
}

impl<'a> Candidate<'a> {
    /// Folds one propagation step into the front: bound newly computed
    /// nodes, drop retired ones, refresh `Smx`.
    ///
    /// Only a node with an in-edge through an overridden gate — an output
    /// of the candidate or of one of its drivers, all computed during
    /// initialization — is measured. Every other node's arrival is built
    /// from its fan-in by the operators of Theorems 1–3, so it inherits
    /// `max(0, Δ of its perturbed fan-ins)`: unperturbed fan-ins shift by
    /// 0, and a perturbed fan-in is still on the front when its fan-out
    /// is computed (retirement comes after, in `report.retired`).
    fn absorb(
        &mut self,
        report: &StepReport,
        circuit: &TimedCircuit<'_>,
        delta_w: f64,
        stats: &mut PruneStats,
    ) {
        for &node in &report.computed {
            if node == TimingNode::SINK {
                continue; // the sink's exact δ is handled by the caller
            }
            let bound = if self.walk.has_overridden_in_edge(node) {
                FrontBound {
                    delta: self.measure(node, circuit.ssta(), stats),
                    exact: true,
                }
            } else {
                let delta = circuit
                    .graph()
                    .in_edges(node)
                    .iter()
                    .filter_map(|e| self.front.get(&e.from))
                    .fold(0.0_f64, |a, b| a.max(b.delta));
                FrontBound {
                    delta,
                    exact: false,
                }
            };
            self.front.insert(node, bound);
        }
        for &node in &report.retired {
            self.front.remove(&node);
        }
        self.refresh(delta_w);
    }

    /// The whole-bin shift bound of a front node: at most one lattice
    /// step looser than the interpolated shift, and what keeps the
    /// pruning exact on the discretized representation.
    fn measure(&self, node: TimingNode, base: &SstaAnalysis, stats: &mut PruneStats) -> f64 {
        stats.bounds_evaluated += 1;
        let perturbed = self.walk.perturbed(node).expect("front nodes are retained");
        lattice_shift_bound(base.arrival(node), perturbed)
    }

    fn refresh(&mut self, delta_w: f64) {
        let delta_mx = self
            .front
            .values()
            .fold(f64::NEG_INFINITY, |a, b| a.max(b.delta));
        self.smx = delta_mx / delta_w;
    }

    /// Measures inherited bounds, largest first, until one exact bound
    /// `decides` (a bound `b` with `decides(b / Δw)`), then refreshes
    /// `Smx`. `decides` must be monotone: true for a bound, true for
    /// every larger one. Afterwards either `Smx` is at least an exact
    /// bound that decides, or no bound on the front decides.
    fn tighten(
        &mut self,
        base: &SstaAnalysis,
        delta_w: f64,
        decides: impl Fn(f64) -> bool,
        stats: &mut PruneStats,
    ) {
        let mut loose: Vec<(f64, TimingNode)> = Vec::new();
        for (&node, b) in &self.front {
            if decides(b.delta / delta_w) {
                if b.exact {
                    return;
                }
                loose.push((b.delta, node));
            }
        }
        if loose.is_empty() {
            return;
        }
        // Descending (bound, node): a fixed order, so the count of
        // measurements is deterministic.
        loose.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(b.1.cmp(&a.1)));
        for (_, node) in loose {
            let delta = self.measure(node, base, stats);
            self.front.insert(node, FrontBound { delta, exact: true });
            if decides(delta / delta_w) {
                break;
            }
        }
        self.refresh(delta_w);
    }
}

/// Max-heap entry ordered by bound (descending), ties toward the lower
/// gate index, using the IEEE total order for determinism.
struct HeapEntry {
    smx: f64,
    idx: usize,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.smx
            .total_cmp(&other.smx)
            .then(other.idx.cmp(&self.idx))
    }
}

/// The k-th-best pruning threshold over a best-first-sorted completed
/// list (the paper's `Max_S` when `k = 1`), never below 0.
fn threshold_of(completed: &[Selection], k: usize) -> f64 {
    if completed.len() < k {
        0.0
    } else {
        completed[k - 1].sensitivity.max(0.0)
    }
}

impl PrunedSelector {
    /// Creates a selector with the given trial width increment `Δw`.
    ///
    /// The sweep runs serially by default; see
    /// [`with_threads`](Self::with_threads) (and the
    /// `STATSIZE_SELECTOR_THREADS` environment variable, which overrides
    /// the default for every selector).
    ///
    /// # Panics
    ///
    /// Panics if `delta_w` is not finite and positive.
    pub fn new(delta_w: f64) -> Self {
        assert!(
            delta_w.is_finite() && delta_w > 0.0,
            "Δw must be finite and positive, got {delta_w}"
        );
        Self {
            delta_w,
            threads: default_threads(),
            deadline: Deadline::none(),
        }
    }

    /// The trial width increment.
    pub fn delta_w(&self) -> f64 {
        self.delta_w
    }

    /// Sets a cooperative [`Deadline`] for the sweep (default: none).
    /// The deadline is polled at candidate and front-level boundaries —
    /// once per heap pop in the serial sweep, once per claim and per
    /// propagated level in the parallel sweep — so an expired deadline
    /// surfaces within one bounded unit of work. Use the `try_*` entry
    /// points with a deadline set; the infallible ones panic on expiry.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = deadline;
        self
    }

    /// Overrides the worker-thread count for the candidate sweep,
    /// mirroring [`MonteCarlo::with_threads`](statsize_ssta::MonteCarlo::with_threads):
    /// the returned selections are bit-identical for every thread count.
    /// Degenerate values are normalized — `0` is clamped to 1, and counts
    /// above the number of candidate gates are capped at it, so no worker
    /// is ever spawned with nothing to do.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The configured worker-thread count (before per-call capping at the
    /// candidate count).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Finds the most sensitive gate — identical to brute force — or
    /// `None` when no gate improves the objective.
    ///
    /// # Panics
    ///
    /// Panics if the objective is not
    /// [`shift_bounded`](Objective::shift_bounded): the pruning theory
    /// only covers objectives whose improvement is bounded by the maximum
    /// percentile shift. Panics if a configured
    /// [`with_deadline`](Self::with_deadline) expires — use
    /// [`try_select`](Self::try_select) with deadlines.
    pub fn select(&self, circuit: &TimedCircuit<'_>, objective: Objective) -> Option<Selection> {
        self.select_with_stats(circuit, objective).0
    }

    /// Fallible form of [`select`](Self::select): `Err` when the
    /// configured [`with_deadline`](Self::with_deadline) expires
    /// mid-sweep.
    pub fn try_select(
        &self,
        circuit: &TimedCircuit<'_>,
        objective: Objective,
    ) -> Result<Option<Selection>, DeadlineExceeded> {
        let (mut top, _) = self.try_select_top_k_with_stats(circuit, objective, 1)?;
        Ok(top.pop())
    }

    /// The `k` most sensitive gates — see
    /// [`select_top_k_with_stats`](Self::select_top_k_with_stats).
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or the objective is not
    /// [`shift_bounded`](Objective::shift_bounded).
    pub fn select_top_k(
        &self,
        circuit: &TimedCircuit<'_>,
        objective: Objective,
        k: usize,
    ) -> Vec<Selection> {
        self.select_top_k_with_stats(circuit, objective, k).0
    }

    /// Like [`select`](Self::select), also returning pruning statistics.
    pub fn select_with_stats(
        &self,
        circuit: &TimedCircuit<'_>,
        objective: Objective,
    ) -> (Option<Selection>, PruneStats) {
        let (mut top, stats) = self.select_top_k_with_stats(circuit, objective, 1);
        (top.pop(), stats)
    }

    /// The `k` most sensitive gates — the paper's "size multiple gates in
    /// the same iteration" variant (Section 3.3), still exact: candidates
    /// are pruned against the *k-th best* completed sensitivity, so the
    /// returned set matches brute force. Gates with non-positive
    /// sensitivity are never returned; the result is sorted by descending
    /// sensitivity (ties toward lower gate ids) and may be shorter than
    /// `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero, the objective is not
    /// [`shift_bounded`](Objective::shift_bounded), or a configured
    /// [`with_deadline`](Self::with_deadline) expires — use
    /// [`try_select_top_k_with_stats`](Self::try_select_top_k_with_stats)
    /// with deadlines.
    pub fn select_top_k_with_stats(
        &self,
        circuit: &TimedCircuit<'_>,
        objective: Objective,
        k: usize,
    ) -> (Vec<Selection>, PruneStats) {
        self.try_select_top_k_with_stats(circuit, objective, k)
            .expect("sweep deadline exceeded; use try_select_top_k_with_stats with a deadline")
    }

    /// Fallible form of
    /// [`select_top_k_with_stats`](Self::select_top_k_with_stats): `Err`
    /// when the configured [`with_deadline`](Self::with_deadline) expires
    /// mid-sweep (partial results are discarded — a partial sweep has no
    /// exactness guarantee to offer).
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or the objective is not
    /// [`shift_bounded`](Objective::shift_bounded).
    pub fn try_select_top_k_with_stats(
        &self,
        circuit: &TimedCircuit<'_>,
        objective: Objective,
        k: usize,
    ) -> Result<(Vec<Selection>, PruneStats), DeadlineExceeded> {
        assert!(k > 0, "k must be positive");
        assert!(
            objective.shift_bounded(),
            "pruned selection requires a shift-bounded objective; \
             use BruteForceSelector for {objective}"
        );
        let candidates = circuit.netlist().gate_count();
        let threads = normalize_threads(self.threads, candidates);
        if threads > 1 {
            self.select_top_k_parallel(circuit, objective, k, threads)
        } else {
            self.select_top_k_serial(circuit, objective, k)
        }
    }

    /// Initializes one candidate front (Figure 7): temporary resize,
    /// propagate the seed perturbations up to the gate's own level,
    /// compute the initial bound.
    fn initialize_candidate<'c>(
        &self,
        circuit: &'c TimedCircuit<'_>,
        gate: GateId,
        scratch: &mut DistScratch,
        memo: &mut EdgeConvMemo<'c>,
        stats: &mut PruneStats,
    ) -> Candidate<'c> {
        let overrides = circuit.overrides_for_resize(gate, self.delta_w);
        let walk = ConeWalk::new(circuit.graph(), circuit.delays(), circuit.ssta(), overrides)
            .evicting_retired();
        let mut cand = Candidate {
            gate,
            walk,
            front: HashMap::new(),
            smx: f64::NEG_INFINITY,
        };
        let own_level = circuit
            .graph()
            .level(circuit.graph().out_node_of_gate(gate));
        while cand.walk.next_level().is_some_and(|l| l <= own_level) {
            self.advance(&mut cand, circuit, scratch, memo, stats);
        }
        cand
    }

    /// One `PropagateOneLevel` step (Figure 9) of a front, folded into
    /// its bound and the work counters.
    fn advance(
        &self,
        cand: &mut Candidate<'_>,
        circuit: &TimedCircuit<'_>,
        scratch: &mut DistScratch,
        memo: &mut EdgeConvMemo<'_>,
        stats: &mut PruneStats,
    ) {
        let report = cand
            .walk
            .step_level_memoized(scratch, memo)
            .expect("unfinished fronts always have pending levels");
        stats.levels_propagated += 1;
        stats.nodes_computed += report.computed.len();
        cand.absorb(&report, circuit, self.delta_w, stats);
    }

    /// The serial reference sweep: best-bound-first propagation with a
    /// global heap (Figure 6 exactly as written).
    fn select_top_k_serial(
        &self,
        circuit: &TimedCircuit<'_>,
        objective: Objective,
        k: usize,
    ) -> Result<(Vec<Selection>, PruneStats), DeadlineExceeded> {
        let base = circuit.ssta();
        let base_cost = circuit.objective_value(objective);
        let gates: Vec<GateId> = circuit.netlist().gate_ids().collect();
        let mut stats = PruneStats {
            candidates: gates.len(),
            ..PruneStats::default()
        };

        // One buffer pool and one side-edge convolution memo shared by
        // every candidate front in this sweep: distributions retired by
        // any front immediately serve the next propagation step, and a
        // side input convolved for one front serves every other.
        let mut scratch = DistScratch::new();
        let mut memo = EdgeConvMemo::new(base, circuit.delays());

        // --- Initialize every candidate (Figure 7), parking only its
        // bound: the walk is recycled at once and rebuilt if the bound
        // survives its first pop. ---
        let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::with_capacity(gates.len());
        for (idx, &gate) in gates.iter().enumerate() {
            self.deadline.check()?;
            let cand =
                self.initialize_candidate(circuit, gate, &mut scratch, &mut memo, &mut stats);
            heap.push(HeapEntry { smx: cand.smx, idx });
            cand.walk.recycle_into(&mut scratch);
        }

        // --- Best-bound-first propagation with pruning (Figure 6). ---
        // Every unfinished candidate has exactly one heap entry, keyed by
        // its current bound; `fronts` holds the walks of the candidates
        // rebuilt since their bound was parked.
        let mut fronts: Vec<Option<Candidate<'_>>> = gates.iter().map(|_| None).collect();
        // Completed selections, kept sorted best-first. The pruning
        // threshold is the k-th best completed sensitivity (the paper's
        // `Max_S` when k = 1), never below 0.
        let mut completed: Vec<Selection> = Vec::new();

        while let Some(HeapEntry { smx, idx }) = heap.pop() {
            // One heap pop == at most one propagated level: the natural
            // cooperative-deadline boundary of the serial sweep.
            self.deadline.check()?;
            let cut = threshold_of(&completed, k) - PRUNE_SLACK;
            // A front outranks the rest when its bound beats the next
            // key, which bounds that entry's own front from above.
            let top = heap.peek();
            let outranks = |smx: f64| top.is_none_or(|t| HeapEntry { smx, idx } > *t);
            // Prune: the bound says this candidate can never enter the
            // top k (minus the floating-point safety slack). A parked
            // bound that survives has its front rebuilt — initialization
            // is deterministic, so to exactly the parked bound — and
            // its inherited bounds measured as far as this pop's
            // decision needs.
            let prune = smx < cut || {
                let cand = fronts[idx].get_or_insert_with(|| {
                    self.initialize_candidate(
                        circuit,
                        gates[idx],
                        &mut scratch,
                        &mut memo,
                        &mut stats,
                    )
                });
                debug_assert_eq!(
                    cand.smx.to_bits(),
                    smx.to_bits(),
                    "front drifted from its key"
                );
                cand.tighten(base, self.delta_w, |b| b >= cut && outranks(b), &mut stats);
                cand.smx < cut
            };
            if prune {
                stats.pruned += 1;
                if let Some(c) = fronts[idx].take() {
                    c.walk.recycle_into(&mut scratch);
                }
                continue;
            }
            let cand = fronts[idx].as_mut().expect("rebuilt above");
            if !outranks(cand.smx) {
                // Its tighter bound fell behind another entry's key: take
                // it up again when that bound reaches the top.
                heap.push(HeapEntry { smx: cand.smx, idx });
                continue;
            }
            self.advance(cand, circuit, &mut scratch, &mut memo, &mut stats);

            if let Some(sink) = cand.walk.sink_arrival() {
                // Front reached the sink: exact sensitivity.
                let sensitivity = (base_cost - objective.value(sink)) / self.delta_w;
                stats.completed += 1;
                let selection = Selection {
                    gate: cand.gate,
                    sensitivity,
                };
                let pos = completed.partition_point(|existing| existing.better_than(&selection));
                completed.insert(pos, selection);
                if let Some(c) = fronts[idx].take() {
                    c.walk.recycle_into(&mut scratch);
                }
            } else {
                heap.push(HeapEntry { smx: cand.smx, idx });
            }
        }
        stats.convolutions_reused = memo.reused();
        memo.recycle_into(&mut scratch);

        completed.truncate(k);
        completed.retain(|s| s.sensitivity > 0.0);
        Ok((completed, stats))
    }

    /// The work-stealing parallel sweep — bit-identical selections (see
    /// the module docs for why any pruning schedule yields the same
    /// top-k).
    ///
    /// Both phases run inside a single spawn of the worker pool: each
    /// worker initializes fronts until the init cursor drains, parking
    /// only each candidate's bound, meets the others at a barrier (the
    /// leader publishes the propagation claim order there), and
    /// continues straight into the sweep with its scratch pool and its
    /// side-edge convolution memo intact. A claimed candidate whose
    /// parked bound survives the threshold is re-initialized once and
    /// then advanced.
    fn select_top_k_parallel(
        &self,
        circuit: &TimedCircuit<'_>,
        objective: Objective,
        k: usize,
        threads: usize,
    ) -> Result<(Vec<Selection>, PruneStats), DeadlineExceeded> {
        let base = circuit.ssta();
        let base_cost = circuit.objective_value(objective);
        let gates: Vec<GateId> = circuit.netlist().gate_ids().collect();
        let n = gates.len();
        let mut stats = PruneStats {
            candidates: n,
            ..PruneStats::default()
        };

        // Initial bounds, parked between the phases (each set exactly
        // once in phase 1 and read after the barrier).
        let bounds: Vec<OnceLock<f64>> = (0..n).map(|_| OnceLock::new()).collect();
        let init_queue = WorkQueue::new(n);
        let sweep_queue = WorkQueue::new(n);
        // Propagation claim order, published by the barrier leader once
        // every bound is parked: descending initial bound, ties toward
        // the lower gate index — the parallel analogue of the serial
        // heap's best-bound-first discipline, so the strongest candidate
        // completes early and raises the shared threshold for everyone
        // else.
        let order: OnceLock<Vec<usize>> = OnceLock::new();
        let rendezvous = Barrier::new(threads);
        let threshold = SharedMax::new(0.0);
        let completed: Mutex<Vec<Selection>> = Mutex::new(Vec::new());
        // Cooperative-deadline latch: the first worker that observes the
        // expired deadline raises it; everyone else sees it at their next
        // claim (or right after the rendezvous) and unwinds through the
        // normal return path — no thread is ever cancelled mid-step.
        let expired = AtomicBool::new(false);

        let worker_stats: Vec<PruneStats> = run_workers(threads, || {
            let mut scratch = DistScratch::new();
            let mut memo = EdgeConvMemo::new(base, circuit.delays());
            let mut local = PruneStats::default();

            // --- Phase 1: initialize every front (Figure 7), workers
            // stealing candidate indices from a shared cursor. ---
            while !expired.load(AtomicOrdering::Relaxed) {
                if self.deadline.expired() {
                    expired.store(true, AtomicOrdering::Relaxed);
                    break;
                }
                let Some(idx) = init_queue.claim() else {
                    break;
                };
                let cand = self.initialize_candidate(
                    circuit,
                    gates[idx],
                    &mut scratch,
                    &mut memo,
                    &mut local,
                );
                bounds[idx]
                    .set(cand.smx)
                    .expect("each candidate is initialized once");
                cand.walk.recycle_into(&mut scratch);
            }

            // Rendezvous: every bound is parked (every worker reaches the
            // barrier even on an expired deadline — a missing party would
            // deadlock the rest). The barrier elects a leader, which
            // sorts the initial bounds while the others wait at the
            // second barrier; then all workers roll on.
            if rendezvous.wait().is_leader() && !expired.load(AtomicOrdering::Relaxed) {
                let mut by_bound: Vec<(f64, usize)> = bounds
                    .iter()
                    .enumerate()
                    .map(|(idx, b)| (*b.get().expect("phase 1 parked every bound"), idx))
                    .collect();
                by_bound.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
                order
                    .set(by_bound.into_iter().map(|(_, idx)| idx).collect())
                    .expect("only the barrier leader publishes the order");
            }
            rendezvous.wait();
            // The barrier orders the latch store before this load, so an
            // expiry during phase 1 is visible to every worker here — and
            // the unpublished claim order is never read.
            if expired.load(AtomicOrdering::Relaxed) {
                return local;
            }
            let order = order.get().expect("leader published before the barrier");

            // --- Phase 2: advance claimed fronts to the sink or prune
            // them against the live shared threshold (Figure 6's loop,
            // fronts distributed across workers). ---
            while let Some(pos) = sweep_queue.claim() {
                if expired.load(AtomicOrdering::Relaxed) {
                    break;
                }
                let idx = order[pos];
                let bound = *bounds[idx].get().expect("phase 1 parked every bound");
                let mut front: Option<Candidate<'_>> = None;
                let deadline_hit = loop {
                    // Cooperative deadline, once per front level.
                    if self.deadline.expired() {
                        break true;
                    }
                    // Prune: the bound says this candidate can never
                    // enter the top k. A stale (lagging) threshold read
                    // only delays pruning — it can never prune a
                    // candidate the final threshold would keep. A parked
                    // bound that survives has its front rebuilt
                    // (deterministically, so with the same bound) and
                    // its inherited bounds measured as far as the prune
                    // decision needs.
                    let cut = threshold.get() - PRUNE_SLACK;
                    let prune = (front.is_none() && bound < cut) || {
                        let cand = front.get_or_insert_with(|| {
                            self.initialize_candidate(
                                circuit,
                                gates[idx],
                                &mut scratch,
                                &mut memo,
                                &mut local,
                            )
                        });
                        cand.tighten(base, self.delta_w, |b| b >= cut, &mut local);
                        cand.smx < cut
                    };
                    if prune {
                        local.pruned += 1;
                        break false;
                    }
                    let cand = front.as_mut().expect("rebuilt above");
                    self.advance(cand, circuit, &mut scratch, &mut memo, &mut local);

                    if let Some(sink) = cand.walk.sink_arrival() {
                        // Front reached the sink: exact sensitivity,
                        // published so every worker prunes against it.
                        let sensitivity = (base_cost - objective.value(sink)) / self.delta_w;
                        local.completed += 1;
                        let selection = Selection {
                            gate: cand.gate,
                            sensitivity,
                        };
                        let mut done = completed.lock().expect("sweep worker panicked");
                        let at = done.partition_point(|existing| existing.better_than(&selection));
                        done.insert(at, selection);
                        threshold.raise(threshold_of(&done, k));
                        break false;
                    }
                };
                if let Some(c) = front {
                    c.walk.recycle_into(&mut scratch);
                }
                if deadline_hit {
                    expired.store(true, AtomicOrdering::Relaxed);
                    break;
                }
            }
            local.convolutions_reused = memo.reused();
            memo.recycle_into(&mut scratch);
            local
        });
        if expired.load(AtomicOrdering::Relaxed) {
            return Err(DeadlineExceeded);
        }
        // Worker-index order: a fixed merge order for every counter.
        for s in &worker_stats {
            stats.merge(s);
        }

        let mut completed = completed.into_inner().expect("sweep worker panicked");
        completed.truncate(k);
        completed.retain(|s| s.sensitivity > 0.0);
        Ok((completed, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::BruteForceSelector;
    use statsize_cells::{CellLibrary, VariationModel};
    use statsize_dist::Dist;
    use statsize_netlist::{bench, generator, shapes, Netlist};

    fn check_matches_brute_force(nl: &Netlist, dt: f64, steps: usize) {
        let lib = CellLibrary::synthetic_180nm();
        let mut circuit = TimedCircuit::new(nl, &lib, VariationModel::paper_default(), dt);
        let obj = Objective::percentile(0.99);
        let brute = BruteForceSelector::new(1.0);
        let pruned = PrunedSelector::new(1.0);
        for step in 0..steps {
            let b = brute.select(&circuit, obj);
            let (p, stats) = pruned.select_with_stats(&circuit, obj);
            match (b, p) {
                (None, None) => break,
                (Some(b), Some(p)) => {
                    assert_eq!(b.gate, p.gate, "step {step}: gate mismatch");
                    assert_eq!(
                        b.sensitivity, p.sensitivity,
                        "step {step}: sensitivity mismatch"
                    );
                    assert_eq!(
                        stats.completed + stats.pruned,
                        stats.candidates,
                        "every candidate ends exactly one way"
                    );
                    circuit.commit_resize(b.gate, 1.0);
                }
                (b, p) => panic!("step {step}: brute {b:?} vs pruned {p:?}"),
            }
        }
    }

    #[test]
    fn matches_brute_force_on_c17() {
        check_matches_brute_force(&bench::c17(), 1.0, 6);
    }

    #[test]
    fn matches_brute_force_on_a_reconvergent_grid() {
        check_matches_brute_force(&shapes::grid("g", 3, 4), 1.0, 4);
    }

    #[test]
    fn matches_brute_force_on_a_symmetric_diamond() {
        // Perfectly symmetric arms produce exact sensitivity ties: the
        // deterministic tie-break must keep both selectors aligned.
        check_matches_brute_force(&shapes::diamond("d", 3), 1.0, 4);
    }

    #[test]
    fn matches_brute_force_on_a_generated_circuit() {
        let nl = generator::generate_iscas("c432", 17).unwrap();
        check_matches_brute_force(&nl, 2.0, 2);
    }

    #[test]
    fn pruning_actually_prunes() {
        let nl = generator::generate_iscas("c432", 3).unwrap();
        let lib = CellLibrary::synthetic_180nm();
        let circuit = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), 2.0);
        let (sel, stats) =
            PrunedSelector::new(1.0).select_with_stats(&circuit, Objective::percentile(0.99));
        assert!(sel.is_some());
        assert!(
            stats.pruned_fraction() > 0.5,
            "expected most candidates pruned, got {:?}",
            stats
        );
        // Pruned fronts must do far less work than full propagation for
        // every candidate would.
        assert!(stats.completed >= 1);
    }

    #[test]
    fn parallel_sweep_matches_serial_bit_for_bit() {
        let nl = shapes::grid("g", 4, 5);
        let lib = CellLibrary::synthetic_180nm();
        let circuit = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), 1.0);
        let obj = Objective::percentile(0.99);
        let serial = PrunedSelector::new(1.0).with_threads(1);
        let (want_top, serial_stats) = serial.select_top_k_with_stats(&circuit, obj, 3);
        for threads in [2, 3, 8, 999] {
            let par = PrunedSelector::new(1.0).with_threads(threads);
            let (got_top, stats) = par.select_top_k_with_stats(&circuit, obj, 3);
            assert_eq!(want_top, got_top, "threads={threads}");
            assert_eq!(
                stats.completed + stats.pruned,
                stats.candidates,
                "threads={threads}: every candidate ends exactly one way"
            );
            assert_eq!(stats.candidates, serial_stats.candidates);
        }
    }

    /// The serial sweep's memo-hit count is deterministic: pinned on a
    /// small reconvergent grid, where fronts of different candidates
    /// keep meeting the same side inputs. So are its node count and its
    /// count of measured front bounds, fewer than the nodes computed
    /// because most fronts inherit their bounds.
    #[test]
    fn serial_sweep_reuses_side_edge_convolutions() {
        let nl = shapes::grid("g", 3, 4);
        let lib = CellLibrary::synthetic_180nm();
        let circuit = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), 1.0);
        let obj = Objective::percentile(0.99);
        let sel = PrunedSelector::new(1.0).with_threads(1);
        let (_, stats) = sel.select_with_stats(&circuit, obj);
        assert_eq!(stats.convolutions_reused, 5);
        assert_eq!(stats.nodes_computed, 54);
        assert_eq!(stats.bounds_evaluated, 32);
        assert_eq!(sel.select_with_stats(&circuit, obj).1, stats, "repeatable");
    }

    /// [`lattice_shift_bound`] restricted to the probability levels in
    /// `[lo, hi]`: the largest whole-bin quantile difference at any level
    /// there. The same two-pointer walk over step-CDF breakpoints, with
    /// the same `1e-10` tolerance for float-dust level ties.
    fn windowed_shift(a: &Dist, b: &Dist, lo: f64, hi: f64) -> f64 {
        const TIE: f64 = 1e-10;
        let steps = |d: &Dist| -> Vec<(i64, f64)> {
            let mut cum = 0.0;
            let mut out = Vec::new();
            for (i, &m) in d.mass().iter().enumerate() {
                if m > 0.0 {
                    cum += m;
                    out.push((d.offset() + i as i64, cum));
                }
            }
            out
        };
        let (sa, sb) = (steps(a), steps(b));
        let (mut i, mut j) = (0, 0);
        let mut below = 0.0;
        let mut best = i64::MIN;
        loop {
            let ((ka, ca), (kb, cb)) = (sa[i], sb[j]);
            let (a_last, b_last) = (i + 1 == sa.len(), j + 1 == sb.len());
            // Both quantiles sit at the cursors on the levels (below, above].
            let above = match (a_last, b_last) {
                (true, true) => 1.0,
                (true, false) => cb,
                (false, true) => ca,
                (false, false) => ca.min(cb),
            };
            if above >= lo && below < hi {
                best = best.max(ka - kb);
            }
            if a_last && b_last {
                break;
            }
            if !a_last && (ca <= cb + TIE || b_last) {
                i += 1;
            }
            if !b_last && (cb <= ca + TIE || a_last) {
                j += 1;
            }
            below = above;
        }
        best as f64 * a.dt()
    }

    /// Walks every candidate's front to the sink and checks each
    /// inherited bound against the node's measured shift on the body
    /// window `[1e-8, 1 − 1e-8]`, the levels every shift-bounded
    /// objective reads. Returns how many inherited bounds it checked.
    fn check_inherited_bounds(nl: &Netlist, dt: f64) -> usize {
        const WINDOW: (f64, f64) = (1e-8, 1.0 - 1e-8);
        let lib = CellLibrary::synthetic_180nm();
        let circuit = TimedCircuit::new(nl, &lib, VariationModel::paper_default(), dt);
        let base = circuit.ssta();
        let sel = PrunedSelector::new(1.0);
        let mut scratch = DistScratch::new();
        let mut memo = EdgeConvMemo::new(base, circuit.delays());
        let mut stats = PruneStats::default();
        let mut checked = 0;
        for gate in nl.gate_ids() {
            let mut cand =
                sel.initialize_candidate(&circuit, gate, &mut scratch, &mut memo, &mut stats);
            let mut seen = std::collections::HashSet::new();
            loop {
                for (&node, b) in &cand.front {
                    if b.exact || !seen.insert(node) {
                        continue;
                    }
                    let perturbed = cand.walk.perturbed(node).expect("front nodes are retained");
                    let shift = windowed_shift(base.arrival(node), perturbed, WINDOW.0, WINDOW.1);
                    assert!(
                        shift <= b.delta,
                        "dt {dt}, gate {gate}, node {node}: shift {shift} > inherited {}",
                        b.delta
                    );
                    checked += 1;
                }
                if cand.walk.is_done() {
                    break;
                }
                sel.advance(&mut cand, &circuit, &mut scratch, &mut memo, &mut stats);
            }
            cand.walk.recycle_into(&mut scratch);
        }
        memo.recycle_into(&mut scratch);
        checked
    }

    /// The premise of lazy front bounds: a node reached only through
    /// unchanged delays shifts by at most `max(0, Δ of its perturbed
    /// fan-ins)` on the body window (Theorems 1–3).
    #[test]
    fn inherited_bounds_hold_on_the_body_window() {
        for dt in [1.0, 0.25] {
            for nl in [
                bench::c17(),
                shapes::grid("g", 3, 4),
                shapes::diamond("d", 3),
            ] {
                let checked = check_inherited_bounds(&nl, dt);
                assert!(checked > 0, "{} at dt {dt}: nothing inherited", nl.name());
            }
        }
    }

    /// The same premise on the generated c432 profile. Every candidate
    /// walked to the sink is a brute-force sweep, too slow for the debug
    /// suite at dt 0.25: run it with
    /// `cargo test --release -q -p statsize --lib -- --ignored`.
    #[test]
    #[ignore = "slow: run in release with --ignored"]
    fn inherited_bounds_hold_on_a_benchmark_profile() {
        let nl = generator::generate_iscas("c432", 17).unwrap();
        for dt in [1.0, 0.25] {
            assert!(check_inherited_bounds(&nl, dt) > 0, "dt {dt}");
        }
    }

    #[test]
    fn thread_knob_normalizes_degenerate_counts() {
        // 0 threads is a degenerate request: clamped to 1, runs serially.
        let sel = PrunedSelector::new(1.0).with_threads(0);
        assert_eq!(sel.threads(), 1);
        // More threads than candidates: capped at the candidate count at
        // sweep time, and the result is unchanged.
        let nl = bench::c17();
        let lib = CellLibrary::synthetic_180nm();
        let circuit = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), 1.0);
        let obj = Objective::percentile(0.99);
        let a = PrunedSelector::new(1.0)
            .with_threads(1)
            .select(&circuit, obj);
        let b = PrunedSelector::new(1.0)
            .with_threads(1000)
            .select(&circuit, obj);
        assert_eq!(a, b);
    }

    #[test]
    fn mean_objective_is_accepted() {
        let nl = bench::c17();
        let lib = CellLibrary::synthetic_180nm();
        let circuit = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), 1.0);
        let sel = PrunedSelector::new(1.0).select(&circuit, Objective::Mean);
        assert!(sel.is_some());
    }

    #[test]
    fn expired_deadline_errors_on_both_sweeps() {
        let nl = bench::c17();
        let lib = CellLibrary::synthetic_180nm();
        let circuit = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), 1.0);
        let obj = Objective::percentile(0.99);
        for threads in [1usize, 4] {
            let sel = PrunedSelector::new(1.0)
                .with_threads(threads)
                .with_deadline(Deadline::after(std::time::Duration::ZERO));
            assert_eq!(
                sel.try_select(&circuit, obj),
                Err(DeadlineExceeded),
                "threads={threads}"
            );
            assert!(
                sel.try_select_top_k_with_stats(&circuit, obj, 2).is_err(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn unlimited_deadline_leaves_selection_bit_identical() {
        let nl = bench::c17();
        let lib = CellLibrary::synthetic_180nm();
        let circuit = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), 1.0);
        let obj = Objective::percentile(0.99);
        let plain = PrunedSelector::new(1.0).select(&circuit, obj);
        let with_deadline = PrunedSelector::new(1.0)
            .with_deadline(Deadline::none())
            .try_select(&circuit, obj)
            .expect("unlimited deadline never expires");
        assert_eq!(plain, with_deadline);
    }

    #[test]
    #[should_panic(expected = "sweep deadline exceeded")]
    fn infallible_entry_point_panics_on_expiry() {
        let nl = bench::c17();
        let lib = CellLibrary::synthetic_180nm();
        let circuit = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), 1.0);
        let _ = PrunedSelector::new(1.0)
            .with_deadline(Deadline::after(std::time::Duration::ZERO))
            .select(&circuit, Objective::percentile(0.99));
    }

    #[test]
    #[should_panic(expected = "shift-bounded")]
    fn non_bounded_objective_rejected() {
        let nl = bench::c17();
        let lib = CellLibrary::synthetic_180nm();
        let circuit = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), 1.0);
        let _ = PrunedSelector::new(1.0).select(&circuit, Objective::MeanPlusSigma(3.0));
    }
}
