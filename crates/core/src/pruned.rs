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
//! Six things keep the sweep lean without changing a bit of its output:
//!
//! * **Parked bounds.** Initialization records each candidate's `Smx` and
//!   recycles its walk at once; most candidates are pruned on that bound
//!   alone. A candidate whose bound survives its first pop is
//!   re-initialized — deterministically, so to the same bound — and then
//!   advanced. Peak memory is one bound per candidate plus the fronts
//!   actually being advanced, not one initialized front per candidate.
//! * **Parked bounds outlive the sweep, in the optimizer.** The sweeps of
//!   [`Optimizer::step`](crate::Optimizer::step) keep each parked bound on
//!   the circuit and push a still-valid one straight onto the heap,
//!   skipping that candidate's initialization. A commit drops an entry
//!   only when it recomputed the output of the candidate or of one of its
//!   drivers. That rule is exact because of two premises, stated in full
//!   at the cache (`circuit::ParkedBounds`): initialization measures only
//!   those outputs, every other front node inheriting its bound over the
//!   fixed graph, so a parked bound reads nothing but their trial and
//!   base arrivals; and a commit's incremental update recomputes the
//!   whole fan-out cone of the resized gate's and its drivers' outputs,
//!   a set closed under fan-out, so anything such a bound reads changes
//!   only when one of those outputs is recomputed. The public `select*`
//!   entry points never see the cache: they initialize every candidate.
//!   A sweep parks only the bounds of candidates whose pre-bound
//!   (below) reaches its final cut, the ones every schedule initializes,
//!   so what it parks is the same for every thread count.
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
//! * **A sink-aware bound where a front would advance** ([`SinkBound`],
//!   for percentile objectives `T(·, p)` with `p` in the body window
//!   below, and for the mean). The sink is the independent max of the
//!   primary outputs, so its step CDF is the product of theirs. Theorem 4
//!   with one output `j` as the sink bounds `j`'s shift by `k_j`, the
//!   largest whole-bin `Δ` among the front nodes that reach `j` (0 if
//!   none does), so the perturbed sink's CDF is at most
//!   `P(z) = Π_j F_j(z + k_j)` up to a stated dust `tol`. Its
//!   `p`-percentile is therefore at least where `P` crosses `p − tol`.
//!   Its mean is at least `dt · Σ_{z≥0} max(0, 1 − η − tol − P(z))`,
//!   which rests on every arrival bin being at least 0 (inputs arrive at
//!   0 and no delay is negative; the table asserts it on the outputs) and
//!   on the sink's mass reaching `1 − η`. A perturbation that reaches a
//!   few of many outputs barely moves the product, while `Smx` charges
//!   it its whole `Δ`. The bound is read
//!   only where the sweep would otherwise advance a front, after its
//!   bounds were tightened for the pop; when only the front's inherited
//!   bounds keep it at the cut, those are measured and the bound read
//!   again. A front below the cut is pruned. The heap stays keyed by
//!   `Smx`, and the sink-aware bound is never parked: it reads every
//!   output's base arrival, and every commit changes some of them.
//!   Soundness rests on the premise the front bounds already rest on:
//!   each output's dominance `F′_j(z) ≤ F_j(z + k_j)` holds on the body
//!   window, so per output it can fail by at most the `1e-8` of mass
//!   outside it, plus the shift walk's `1e-10` level tie, plus the trim
//!   dust of folding that output into the sink; the product moves by at
//!   most the sum, so the crossing is read at `p` less
//!   `SINK_TOL_PER_OUTPUT` times the number of sink in-edges. A unit
//!   test checks the bound against the exact sensitivity at every level
//!   of every candidate's walk to the sink, at p 0.5, 0.9 and 0.99 and
//!   dt 1 and 0.25, and under the mean, where another test holds the
//!   mean reading's shortcuts to the bin-by-bin sum that defines it. On
//!   the 6-iteration gen1200 descent it cut the fronts completed from 267
//!   to 25 and the nodes computed from 176,205 to 98,195; on the
//!   campaign benchmark's warm c1355 job (two sweeps under the mean at
//!   dt 0.25) from 18 to 7.
//! * **A pre-bound before initialization, in the optimizer.** Theorems
//!   1–3 bound a front before any walk: a trial resize perturbs only the
//!   outputs of the candidate and its drivers and their fan-out, and
//!   each of those outputs shifts by no more than the trial delays
//!   behind it do (`lattice_shift_bound` of each trial delay against
//!   the current one; see `prebound_front`). The sweeps of
//!   [`Optimizer::step`](crate::Optimizer::step) key each candidate they
//!   must initialize by that bound over `Δw` and pop it best-first like
//!   any other entry. Where the objective has a [`SinkBound`], its
//!   reading of the same nodes is taken only when the entry first pops
//!   at or above the cut, never while the heap is seeded: most entries
//!   are pruned on the delay-only key before they reach the top. One
//!   whose key, or whose key lowered to that reading, falls below the
//!   cut is pruned with no walk at all (`PruneStats::prebound_pruned`)
//!   and parks nothing; a read entry goes back keyed by the lower of the
//!   two, and an entry popped again is initialized and goes back keyed
//!   by `Smx`. With one worker a key below the final cut pops only after
//!   every top-k front has completed, so it is always pruned. The
//!   public `select*` entry points key every uninitialized candidate
//!   `+∞`, so there every candidate initializes first, in gate order,
//!   as before. A unit test checks, for every gate of several
//!   circuits, the premise on the body window and that the key is at
//!   least the brute-force sensitivity; the key is not held to `Smx`,
//!   which the tail excesses below can lift past it.
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
//! # One sweep for every thread count
//!
//! The sweep is one worker loop, run on
//! [`with_threads`](PrunedSelector::with_threads) workers (worker 0 on the
//! calling thread). They share one mutex-guarded heap, holding one entry
//! per unfinished candidate, and the best-first list of completed
//! selections that sets the threshold. A candidate enters the heap with
//! a still-valid parked bound or as *uninitialized*, keyed by its
//! pre-bound in an optimizer sweep and by `+∞`, above every bound, in a
//! public one (ties to the lower gate index). A worker pops the top
//! entry, notes the threshold and the next key, and does one unit of
//! work outside the lock. It prunes an uninitialized entry whose key is
//! below the threshold. Any other it either reads (a delay-only
//! pre-bound with a sink-aware reading still to take: pushed back keyed
//! by the lower of the two, or pruned) or initializes (Figure 7) and
//! pushes back keyed by the fresh bound. A front it prunes, pushes
//! back when its tightened bound falls behind the next key, or advances
//! one level and pushes back unless it completed; a rebuilt walk waits
//! in a slot keyed by gate index, for any worker. With one worker a
//! public sweep is Figure 6 as written: every candidate initializes in
//! gate order, then fronts advance strictly best-bound-first; an
//! optimizer sweep interleaves initializations with advances, best key
//! first. With more, candidates initialize in parallel and the best few
//! fronts advance side by side, each worker with its own buffer pool
//! and side-edge memo. A worker exits
//! when it pops from an empty heap: every unfinished front then sits with
//! a live worker, which pushes it back and pops again, so no worker ever
//! waits on another. The deadline is polled once per pop, and once per
//! pre-bound while an optimizer sweep seeds its heap. In a campaign, an
//! optimizer sweep's workers also poll the spare-thread pool once per
//! pop and, when it holds threads, spawn that many more workers of the
//! same loop into the sweep (`parallel::run_workers`): a running sweep
//! widens as soon as a drained shard's threads come back.
//!
//! The *returned selections are bit-identical for every thread count*,
//! by construction rather than by luck: a candidate is only ever pruned
//! when its bound — hence its exact sensitivity — is strictly below the
//! threshold at some moment, and the threshold never exceeds the final
//! k-th best sensitivity. Every true top-k member therefore completes
//! under *any* schedule, with a sensitivity computed by the same
//! deterministic lattice operations, and the completed list is sorted by
//! (sensitivity, lowest gate id) — a total order. Only the
//! [`PruneStats`] *counters* depend on the schedule of more than one
//! worker: which fronts advance side by side decides when the threshold
//! rises (the invariant `pruned + completed == candidates` always
//! holds), and which worker's memo first meets a side input decides how
//! many convolutions are reused. In an optimizer sweep the same timing
//! decides which candidates are pruned on their pre-bound; the bounds
//! parked for the next sweep are not: only those of candidates whose
//! pre-bound reaches the final cut, which every schedule initializes.
//! A worker grown mid-sweep is one more schedule of the same loop, so
//! all of this holds for it too.

use crate::circuit::{ParkedBounds, TimedCircuit};
use crate::deadline::{Deadline, DeadlineExceeded};
use crate::objective::Objective;
use crate::parallel::{default_threads, normalize_threads, run_workers, Grant};
use crate::selection::Selection;
use statsize_dist::{lattice_shift_bound, Dist, DistScratch};
use statsize_netlist::GateId;
use statsize_ssta::{
    ConeWalk, EdgeConvMemo, NodeMap, SstaAnalysis, StepReport, TimingGraph, TimingNode,
};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Mutex;

/// Work statistics of one pruned selection, quantifying how effective the
/// perturbation bounds were (the paper reports "as many as 55 out of 56
/// candidate nodes are pruned").
///
/// Invariant: `pruned + completed == candidates` — every candidate front
/// ends exactly one way. With one worker every counter is deterministic.
/// With more, the *split* between the two may differ from one worker's
/// (the threshold rises at different moments, so a candidate one worker
/// pruned may complete and vice versa), and `levels_propagated`/
/// `nodes_computed`/`convolutions_reused`/`bounds_evaluated`/
/// `sink_pruned`/`prebound_pruned` vary accordingly; the
/// returned [`Selection`]s are bit-identical regardless.
///
/// In an optimizer sweep, a candidate whose bound was parked by an
/// earlier sweep and left valid by every commit since is not
/// initialized: it counts in `bounds_reused`, and `levels_propagated`,
/// `nodes_computed` and `bounds_evaluated` do not include the
/// initialization it skipped. Nor do they include the initialization of
/// a candidate pruned on its pre-bound (`prebound_pruned`). The public
/// selector entry points reuse nothing and prune nothing before
/// initializing it.
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
    /// [`EdgeConvMemo`] instead of recomputed. Each worker keeps its own
    /// memo.
    pub convolutions_reused: usize,
    /// Front-node shift bounds measured with `lattice_shift_bound`; every
    /// other front node inherits its bound from its fan-in.
    pub bounds_evaluated: usize,
    /// Candidates whose initial bound came from the optimizer's parked
    /// bounds instead of a fresh initialization. Deterministic for every
    /// thread count: it depends only on the commit history and on each
    /// earlier sweep's final cut.
    pub bounds_reused: usize,
    /// Fronts pruned by the sink-aware bound (percentile objectives and
    /// the mean) at a point where the front bound alone would have
    /// advanced them; they also count in `pruned`.
    pub sink_pruned: usize,
    /// Candidates an optimizer sweep pruned on their pre-bound, its
    /// delay-only key or that key lowered to its sink-aware reading,
    /// without initializing them; they also count in `pruned`. Always 0
    /// on the public entry points.
    pub prebound_pruned: usize,
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
        self.bounds_reused += other.bounds_reused;
        self.sink_pruned += other.sink_pruned;
        self.prebound_pruned += other.prebound_pruned;
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

/// Slack on the perturbed sink's step CDF, per sink in-edge, that the
/// sink-aware bound ([`SinkBound`]) allows for, summed from three
/// documented dusts:
///
/// * `1e-8`: the per-output dominance `F′_j(z) ≤ F_j(z + k_j)` rests on
///   shift bounds that hold on the body window `[1e-8, 1 − 1e-8]` only
///   (module docs); at a level outside it `F′_j(z)` can exceed the
///   bound by at most the `1e-8` of out-of-window mass on that side;
/// * `1e-10`: the shift walk merges levels closer than this (its
///   level-tie tolerance), so a measured bound may leave `F′_j` that much
///   above `F_j(z + k_j)`;
/// * `1e-11`: each independent max folding an output into the sink
///   trims at most `1e-12` of mass per side and renormalizes by
///   `1 ± ~2e-12`, and a cumulative sum of a few thousand bins rounds by
///   under `1e-12`.
///
/// Every factor lies in `[0, 1]`, so errors of `ε_j` per output move the
/// product by at most `Σ ε_j`: the sweep's tolerance is this constant
/// times the number of sink in-edges.
const SINK_TOL_PER_OUTPUT: f64 = 1e-8 + 1e-10 + 1e-11;

/// `η`, the mass dust of the sink fold that the mean reading of
/// [`SinkBound`] allows for: the perturbed sink's masses sum to 1 up to
/// the rounding of the fold's last normalizing pass, under `1e-12` over
/// a few thousand bins, so at least `1 − η` of mass lies above any bin
/// its step CDF has not yet counted.
const SINK_MASS_DUST: f64 = 1e-11;

/// A partial product of output CDFs below this stands in for the whole
/// product in the mean reading of [`SinkBound`]: every further factor
/// is at most 1, so the partial product only overstates `P(z)`, which
/// lowers a term of the sum and so loosens the bound, by under this
/// much per bin.
const MEAN_PRODUCT_FLOOR: f64 = 1e-15;

/// The probability levels on which the front bounds are guaranteed (see
/// the module's soundness note); the sink-aware bound serves percentile
/// objectives whose level lies inside.
const BODY_WINDOW: (f64, f64) = (1e-8, 1.0 - 1e-8);

/// A base arrival's step CDF: `cum[i] = P(A ≤ (offset + i)·dt)`,
/// clamped to at most 1.
struct StepCdf {
    offset: i64,
    cum: Vec<f64>,
}

impl StepCdf {
    fn new(dist: &Dist) -> Self {
        let mut total = 0.0;
        let cum = dist
            .mass()
            .iter()
            .map(|&m| {
                total += m;
                total.min(1.0)
            })
            .collect();
        Self {
            offset: dist.offset(),
            cum,
        }
    }

    /// The step CDF at absolute bin `z`.
    fn at(&self, z: i64) -> f64 {
        match usize::try_from(z - self.offset) {
            Err(_) => 0.0,
            Ok(i) => self.cum.get(i).copied().unwrap_or(1.0),
        }
    }

    /// One past the last bin with mass: the step CDF is 1 from here on.
    fn end(&self) -> i64 {
        self.offset + self.cum.len() as i64
    }
}

/// The sink-aware upper bound on a front's exact sensitivity: Theorem 4
/// applied per primary output, for a percentile objective `T(·, p)` or
/// the mean.
///
/// The sink is the independent max of its in-edges, the primary outputs
/// `j`, so its step CDF is the product `Π_j F_j` (up to trim dust). With
/// `j` as the sink, Theorem 4 bounds output `j`'s shift by
/// `k_j = max(0, largest Δ among the front nodes that reach j)`: the
/// perturbed CDF satisfies `F′_j(z) ≤ F_j(z + k_j)`. So the perturbed
/// sink's step CDF is at most `P(z) + tol`, with `P(z) = Π_j F_j(z + k_j)`,
/// at every bin (tolerance: [`SINK_TOL_PER_OUTPUT`] per in-edge). The
/// two objectives read that premise differently:
///
/// * **Percentile.** The perturbed sink's interpolated CDF, which
///   [`Dist::percentile`] inverts, interpolates those step values
///   linearly, so it stays below the same interpolation of `P + tol`.
///   Its `p`-percentile is therefore at least where that interpolation
///   crosses `p`: inside the first bin `z` with `P(z) ≥ p − tol`, at
///   `(z − ½ + f)·dt` for the fraction `f ∈ [0, 1)` of the rise from
///   `P(z − 1)` to `P(z)` that reaches `p − tol`.
/// * **Mean.** Every arrival bin is at least 0: inputs arrive at 0 and
///   every delay, base or trial, lies at or above `μ(1 − σ_frac·k)` for
///   a `±kσ` truncation, which the table requires to be at least 0 (and
///   asserts on the base outputs). So [`Dist::mean`] is `dt` times the
///   sum over bins `z ≥ 0` of the mass above `z`, at least
///   `1 − η − F′(z)` of it ([`SINK_MASS_DUST`]), and the perturbed mean
///   is at least `dt · Σ_{z≥0} max(0, 1 − η − tol − P(z))`. Below
///   `max_j(offset_j − k_j)` some factor is 0, so that stretch sums in
///   closed form; `P` never falls as `z` grows, so the sum stops at the
///   first bin where `P` reaches `1 − η − tol`. A partial product under
///   [`MEAN_PRODUCT_FLOOR`] stands in for `P`, which only lowers a term.
///
/// The bound is `base_cost` less that point or that mean, over `Δw`. A
/// perturbation that reaches a few of many outputs barely moves the
/// product, so this is far tighter than the front bound `Smx` on fronts
/// about to reach the sink.
///
/// Built once per sweep over one immutable circuit borrow; every front
/// of the sweep reads it.
struct SinkBound {
    reading: Reading,
    base_cost: f64,
    dt: f64,
    delta_w: f64,
    /// `u64` words per node in `reach`.
    words: usize,
    /// Per timing node, the bitset of the sink in-edges it reaches.
    reach: Vec<u64>,
    /// Per sink in-edge, its output's base step CDF.
    cdfs: Vec<StepCdf>,
}

/// What [`SinkBound`] reads off the shifted product `P`.
#[derive(Clone, Copy)]
enum Reading {
    /// `T(·, p)`: where `P` crosses `target = p − tol`, searched below
    /// `z_base`, the first bin where the unshifted product reaches it.
    Percentile { target: f64, z_base: i64 },
    /// The mean: the sum of `level − P(z)` over the bins `z ≥ 0` where
    /// `P` stays below `level = 1 − η − tol`.
    Mean { level: f64 },
}

impl SinkBound {
    /// The tables for `objective` on `circuit`, or `None` unless the
    /// objective is a percentile inside [`BODY_WINDOW`] or the mean on
    /// a variation model whose delays are never negative.
    fn new(circuit: &TimedCircuit<'_>, objective: Objective, delta_w: f64) -> Option<Self> {
        let graph = circuit.graph();
        let tails: Vec<TimingNode> = graph
            .in_edges(TimingNode::SINK)
            .iter()
            .map(|e| e.from)
            .collect();
        let tol = SINK_TOL_PER_OUTPUT * tails.len() as f64;
        let level = 1.0 - SINK_MASS_DUST - tol;
        let variation = circuit.variation();
        let reading = match objective {
            Objective::Percentile(p)
                if (BODY_WINDOW.0..=BODY_WINDOW.1).contains(&p) && p - tol > 0.0 =>
            {
                Reading::Percentile {
                    target: p - tol,
                    z_base: 0,
                }
            }
            Objective::Mean
                if variation.sigma_frac() * variation.trunc_sigmas() <= 1.0 && level > 0.0 =>
            {
                Reading::Mean { level }
            }
            _ => return None,
        };
        let cdfs: Vec<StepCdf> = tails
            .iter()
            .map(|&t| StepCdf::new(circuit.ssta().arrival(t)))
            .collect();
        // Below the largest offset some factor is 0; from the largest end
        // on every factor is 1.
        let lo = cdfs.iter().map(|c| c.offset).max()? - 1;
        let hi = cdfs.iter().map(StepCdf::end).max()?;
        if let Reading::Mean { .. } = reading {
            assert!(
                cdfs.iter().all(|c| c.offset >= 0),
                "the mean reading needs every arrival bin at least 0"
            );
        }
        let (words, reach) = reach_table(graph, &tails);
        let mut table = Self {
            reading,
            base_cost: circuit.objective_value(objective),
            dt: circuit.dt(),
            delta_w,
            words,
            reach,
            cdfs,
        };
        if let Reading::Percentile { target, .. } = table.reading {
            let z_base = table.first_reaching(target, lo, hi, &vec![0; table.cdfs.len()]);
            table.reading = Reading::Percentile { target, z_base };
        }
        Some(table)
    }

    /// `Π_j F_j(z + ks[j])`.
    fn product(&self, z: i64, ks: &[i64]) -> f64 {
        self.cdfs
            .iter()
            .zip(ks)
            .fold(1.0, |acc, (cdf, &k)| acc * cdf.at(z + k))
    }

    /// `Π_j F_j(z + ks[j])`, or a partial product of it once that falls
    /// below `floor`: every factor is at most 1, so the product only
    /// falls, and the result is under `floor` exactly when the product is.
    fn product_above(&self, z: i64, ks: &[i64], floor: f64) -> f64 {
        let mut product = 1.0;
        for (cdf, &k) in self.cdfs.iter().zip(ks) {
            product *= cdf.at(z + k);
            if product < floor {
                break;
            }
        }
        product
    }

    /// The first bin in `(lo, hi]` where the shifted product reaches
    /// `target`, given that it does not at `lo` and does at `hi`.
    fn first_reaching(&self, target: f64, mut lo: i64, mut hi: i64, ks: &[i64]) -> i64 {
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if self.product_above(mid, ks, target) >= target {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    }

    /// The sink-aware bound of a front (see the type docs). Without
    /// `inherited`, the front's inherited bounds count as 0: a lower
    /// bound on what measuring them could bring the bound down to.
    fn bound(&self, front: &NodeMap<TimingNode, FrontBound>, inherited: bool) -> f64 {
        self.bound_of(
            front
                .iter()
                .filter(|(_, b)| inherited || b.exact)
                .map(|(&node, b)| (node, b.delta)),
        )
    }

    /// The sink-aware bound of any set of `(node, Δ)` front bounds that
    /// separates every perturbed node from the sink.
    fn bound_of(&self, front: impl IntoIterator<Item = (TimingNode, f64)>) -> f64 {
        let mut ks = vec![0_i64; self.cdfs.len()];
        let mut k_max = 0;
        for (node, delta) in front {
            let k = (delta / self.dt).round() as i64;
            if k <= 0 {
                continue;
            }
            k_max = k_max.max(k);
            let row = &self.reach[node.index() * self.words..][..self.words];
            for (w, &bits) in row.iter().enumerate() {
                let mut bits = bits;
                while bits != 0 {
                    let j = w * 64 + bits.trailing_zeros() as usize;
                    ks[j] = ks[j].max(k);
                    bits &= bits - 1;
                }
            }
        }
        let point = match self.reading {
            Reading::Percentile { target, z_base } => {
                // Shifting every factor by at most `k_max` bins moves the
                // first reaching bin down by at most that much: `Π F_j(z +
                // k_j) ≤ Π F_j(z + k_max)`, which misses the target below
                // `z_base − k_max`.
                let z = self.first_reaching(target, z_base - k_max - 1, z_base, &ks);
                // Read the percentile off the interpolated bounding CDF,
                // as `Dist::percentile` reads it off the sink's: it
                // crosses the target inside bin `z`.
                let (below, at) = (self.product(z - 1, &ks), self.product(z, &ks));
                let frac = ((target - below) / (at - below)).clamp(0.0, 1.0);
                (z as f64 - 0.5 + frac) * self.dt
            }
            Reading::Mean { level } => self.mean_lower_bound(level, &ks) * self.dt,
        };
        (self.base_cost - point) / self.delta_w
    }

    /// `Σ_{z≥0} max(0, level − P(z))`, in bins: a lower bound on the
    /// perturbed sink's mean over `dt` (see the type docs).
    ///
    /// `P` is built for every bin at once, factor by factor in output
    /// order, each factor a contiguous stretch of its step CDF: per bin
    /// the same products in the same order as
    /// [`product_above`](Self::product_above) takes them, so the sum is
    /// the bin-by-bin one bit for bit.
    fn mean_lower_bound(&self, level: f64, ks: &[i64]) -> f64 {
        // Below `z0` some factor is 0, so every term there is `level`;
        // from `z1` on every factor is 1, so `P` has reached the level.
        let shifted = || self.cdfs.iter().zip(ks);
        let z0 = shifted()
            .map(|(cdf, &k)| cdf.offset - k)
            .max()
            .unwrap_or(0)
            .max(0);
        let z1 = shifted().map(|(cdf, &k)| cdf.end() - k).max().unwrap_or(0);
        let mut products = vec![1.0; usize::try_from(z1 - z0).unwrap_or(0)];
        for (cdf, &k) in shifted() {
            // Bin `z0 + i` reads `cum[from + i]`, and 1 past the end.
            let from = usize::try_from(z0 + k - cdf.offset).expect("no factor is 0 from z0 on");
            for (product, &f) in products.iter_mut().zip(cdf.cum.get(from..).unwrap_or(&[])) {
                // A product under the floor takes no further factors.
                if *product >= MEAN_PRODUCT_FLOOR {
                    *product *= f;
                }
            }
        }
        let mut sum = z0 as f64 * level;
        for product in products {
            // `P` never falls as `z` grows: every later term is 0.
            if product >= level {
                break;
            }
            sum += level - product;
        }
        sum
    }
}

/// Per timing node, the bitset (`words` `u64`s) of the sink in-edges it
/// reaches; `tails[j]` is the tail of sink in-edge `j`. A node reaches
/// the in-edges it feeds itself and every one its fan-outs reach, so an
/// output net that also drives gates keeps its own bits, and a net
/// feeding several in-edges sets a bit for each. Returns `(words, bits)`.
fn reach_table(graph: &TimingGraph, tails: &[TimingNode]) -> (usize, Vec<u64>) {
    let words = tails.len().div_ceil(64);
    let mut reach = vec![0_u64; graph.node_count() * words];
    for (j, t) in tails.iter().enumerate() {
        reach[t.index() * words + j / 64] |= 1 << (j % 64);
    }
    // Levels strictly increase along edges: a node's fan-outs come first
    // in reverse level order.
    let mut order: Vec<TimingNode> = graph.nodes_in_level_order().collect();
    order.reverse();
    for node in order {
        for &out in graph.out_nodes(node) {
            if out == TimingNode::SINK {
                continue;
            }
            for w in 0..words {
                reach[node.index() * words + w] |= reach[out.index() * words + w];
            }
        }
    }
    (words, reach)
}

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
    front: NodeMap<TimingNode, FrontBound>,
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

    /// The sink-aware check, made where the sweep would otherwise advance
    /// the front: whether `sink`'s bound on it falls below `cut`. When
    /// only the front's inherited bounds keep it at or above the cut —
    /// the bound from its measured ones alone is below — every inherited
    /// bound is measured (once: it stays measured) and the bound read
    /// again, refreshing `Smx`. Otherwise measuring could not prune.
    fn sink_prunes(
        &mut self,
        sink: &SinkBound,
        cut: f64,
        base: &SstaAnalysis,
        delta_w: f64,
        stats: &mut PruneStats,
    ) -> bool {
        if sink.bound(&self.front, true) < cut {
            return true;
        }
        if sink.bound(&self.front, false) >= cut {
            return false;
        }
        let loose: Vec<TimingNode> = self
            .front
            .iter()
            .filter(|(_, b)| !b.exact)
            .map(|(&node, _)| node)
            .collect();
        for node in loose {
            let delta = self.measure(node, base, stats);
            self.front.insert(node, FrontBound { delta, exact: true });
        }
        self.refresh(delta_w);
        sink.bound(&self.front, true) < cut
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

/// Max-heap entry, keyed by an upper bound on its candidate's
/// sensitivity (descending): the front bound `Smx` once the candidate
/// is initialized, and before that its pre-bound in an optimizer sweep
/// or `+∞` in a public one, so that there every uninitialized entry
/// outranks every bound. Ties go to the lower gate index; keys compare
/// in the IEEE total order, for determinism.
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    key: f64,
    stage: Stage,
    idx: usize,
}

/// What an entry's key is, and so what popping it does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// The delay-only pre-bound, its sink-aware reading not yet taken:
    /// popped at or above the cut, the reading is taken.
    Prebound,
    /// The pre-bound with any sink-aware reading folded in, or `+∞`:
    /// popped at or above the cut, the candidate is initialized.
    Uninitialized,
    /// The front bound `Smx`.
    Initialized,
}

impl HeapEntry {
    fn bound(smx: f64, idx: usize) -> Self {
        Self {
            key: smx,
            stage: Stage::Initialized,
            idx,
        }
    }
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
        self.key
            .total_cmp(&other.key)
            .then(other.idx.cmp(&self.idx))
    }
}

/// The state the sweep's workers share, behind one lock.
struct Shared<'c> {
    /// One entry per unfinished candidate.
    heap: BinaryHeap<HeapEntry>,
    /// Per candidate, the front rebuilt since its bound was recorded,
    /// while its entry waits on the heap.
    fronts: Vec<Option<Box<Candidate<'c>>>>,
    /// Completed selections, kept sorted best-first.
    completed: Vec<Selection>,
}

/// The delay-only pre-bound of a candidate: the largest shift of its
/// pre-bound front (`PrunedSelector::prebound_front`) over `Δw`, an
/// upper bound on its sensitivity that costs no walk.
fn prebound_key(front: &[(TimingNode, f64)], delta_w: f64) -> f64 {
    front.iter().fold(f64::NEG_INFINITY, |a, &(_, d)| a.max(d)) / delta_w
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
    /// The deadline is polled once per heap pop, on every thread count,
    /// and in an optimizer sweep once per pre-bound while the heap is
    /// seeded, so an expired deadline surfaces within one unit of work:
    /// one pre-bound, one initialization, one prune or one propagated
    /// level. Use the `try_*` entry points with a deadline set; the
    /// infallible ones panic on expiry.
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
        self.sweep(circuit, objective, k, None, None)
    }

    /// The optimizer's sweep: [`try_select_top_k_with_stats`](Self::try_select_top_k_with_stats),
    /// taking each candidate's initial bound from the bounds parked on
    /// `circuit` where one is still valid, keying every other by its
    /// pre-bound, and parking for the next sweep every bound it
    /// initializes whose pre-bound reaches the final cut. Its workers
    /// grow by what `loan`'s pool receives mid-sweep.
    pub(crate) fn try_select_top_k_reusing(
        &self,
        circuit: &mut TimedCircuit<'_>,
        objective: Objective,
        k: usize,
        loan: Option<&Grant<'_>>,
    ) -> Result<(Vec<Selection>, PruneStats), DeadlineExceeded> {
        let candidates = circuit.netlist().gate_count();
        circuit.with_parked_bounds(|circuit, parked| {
            parked.prepare(candidates, self.delta_w);
            self.sweep(circuit, objective, k, Some(parked), loan)
        })
    }

    /// The sweep (Figure 6) on `threads` workers sharing one heap (see
    /// the module docs), reading and filling `parked` when given, and
    /// growing by what `loan`'s pool receives.
    fn sweep(
        &self,
        circuit: &TimedCircuit<'_>,
        objective: Objective,
        k: usize,
        parked: Option<&mut ParkedBounds>,
        loan: Option<&Grant<'_>>,
    ) -> Result<(Vec<Selection>, PruneStats), DeadlineExceeded> {
        assert!(k > 0, "k must be positive");
        assert!(
            objective.shift_bounded(),
            "pruned selection requires a shift-bounded objective; \
             use BruteForceSelector for {objective}"
        );
        let base = circuit.ssta();
        let base_cost = circuit.objective_value(objective);
        let gates: Vec<GateId> = circuit.netlist().gate_ids().collect();
        let threads = normalize_threads(self.threads, gates.len());
        let mut stats = PruneStats {
            candidates: gates.len(),
            ..PruneStats::default()
        };
        // One read-only sink-aware table for every worker.
        let sink_bound = SinkBound::new(circuit, objective, self.delta_w);

        // A bound an earlier optimizer sweep parked, and no commit since
        // invalidated, is taken as is; every other candidate waits on the
        // heap to be initialized, keyed in an optimizer sweep by its
        // delay-only pre-bound and in a public one by `+∞`. The
        // pre-bound fronts wait in one flat list (`fronts_at[idx]..
        // fronts_at[idx + 1]` per candidate) for the sink-aware reading
        // at first pop.
        let parking = parked.is_some();
        let mut heap = BinaryHeap::with_capacity(gates.len());
        let mut prebound_fronts = Vec::new();
        let mut fronts_at = vec![0; if parking { gates.len() + 1 } else { 0 }];
        for (idx, &gate) in gates.iter().enumerate() {
            let entry = match parked.as_deref().and_then(|p| p.get(gate)) {
                Some(smx) => {
                    stats.bounds_reused += 1;
                    HeapEntry::bound(smx, idx)
                }
                None if parking => {
                    self.deadline.check()?;
                    let front = self.prebound_front(circuit, gate);
                    let key = prebound_key(&front, self.delta_w);
                    let stage = if sink_bound.is_some() {
                        prebound_fronts.extend(front);
                        Stage::Prebound
                    } else {
                        Stage::Uninitialized
                    };
                    HeapEntry { key, stage, idx }
                }
                None => HeapEntry {
                    key: f64::INFINITY,
                    stage: Stage::Uninitialized,
                    idx,
                },
            };
            if let Some(end) = fronts_at.get_mut(idx + 1) {
                *end = prebound_fronts.len();
            }
            heap.push(entry);
        }
        let shared = Mutex::new(Shared {
            heap,
            fronts: gates.iter().map(|_| None).collect(),
            completed: Vec::new(),
        });

        let workers = run_workers(threads, loan, |grow| {
            // Each worker's buffer pool and side-edge convolution memo
            // serve every front it touches: distributions a front retires
            // serve the next step, and a side input convolved for one
            // front serves every other.
            let mut scratch = DistScratch::new();
            let mut memo = EdgeConvMemo::new(base, circuit.delays());
            let mut local = PruneStats::default();
            let mut fresh = Vec::new();
            // What the last unit of work leaves for the shared state: an
            // entry (with its front) to push back, or a completion.
            let mut requeue: Option<(HeapEntry, Option<Box<Candidate<'_>>>)> = None;
            let mut done: Option<Selection> = None;
            let outcome = loop {
                let (entry, mut front, cut, top) = {
                    let mut shared = shared.lock().expect("sweep worker panicked");
                    if let Some((entry, front)) = requeue.take() {
                        shared.fronts[entry.idx] = front;
                        shared.heap.push(entry);
                    }
                    if let Some(selection) = done.take() {
                        let at = shared
                            .completed
                            .partition_point(|existing| existing.better_than(&selection));
                        shared.completed.insert(at, selection);
                    }
                    let Some(entry) = shared.heap.pop() else {
                        break Ok(());
                    };
                    let front = shared.fronts[entry.idx].take();
                    let cut = threshold_of(&shared.completed, k) - PRUNE_SLACK;
                    (entry, front, cut, shared.heap.peek().copied())
                };
                // Cooperative deadline, once per pop: one unit of work.
                if let Err(expired) = self.deadline.check() {
                    break Err(expired);
                }
                grow();
                let idx = entry.idx;
                if entry.stage != Stage::Initialized {
                    // A pre-bound below the cut prunes with no walk at all.
                    if entry.key < cut {
                        local.pruned += 1;
                        local.prebound_pruned += 1;
                        continue;
                    }
                    if entry.stage == Stage::Prebound {
                        // The sink-aware reading of the pre-bound front,
                        // taken only now that the delay-only key reached
                        // the top at or above the cut.
                        let sink = sink_bound.as_ref().expect("read only with a table");
                        let front = &prebound_fronts[fronts_at[idx]..fronts_at[idx + 1]];
                        let key = entry.key.min(sink.bound_of(front.iter().copied()));
                        if key < cut {
                            local.pruned += 1;
                            local.prebound_pruned += 1;
                            continue;
                        }
                        let entry = HeapEntry {
                            key,
                            stage: Stage::Uninitialized,
                            idx,
                        };
                        requeue = Some((entry, None));
                        continue;
                    }
                    // Initialize (Figure 7), recording only the bound: the
                    // walk is recycled at once and rebuilt if the bound
                    // survives its first pop.
                    let cand = self.initialize_candidate(
                        circuit,
                        gates[idx],
                        &mut scratch,
                        &mut memo,
                        &mut local,
                    );
                    cand.walk.recycle_into(&mut scratch);
                    if parking {
                        fresh.push((gates[idx], entry.key, cand.smx));
                    }
                    requeue = Some((HeapEntry::bound(cand.smx, idx), None));
                    continue;
                }
                let smx = entry.key;
                // A front outranks the rest when its bound beats the next
                // key, which bounds that entry's sensitivity from above.
                let outranks = |smx: f64| top.is_none_or(|t| HeapEntry::bound(smx, idx) > t);
                // Prune: the bound says this candidate can never enter
                // the top k (minus the floating-point safety slack). A
                // bound that survives has its front rebuilt —
                // initialization is deterministic, so to exactly that
                // bound — and its inherited bounds measured as far as
                // this pop's decision needs.
                let prune = smx < cut || {
                    let cand = front.get_or_insert_with(|| {
                        Box::new(self.initialize_candidate(
                            circuit,
                            gates[idx],
                            &mut scratch,
                            &mut memo,
                            &mut local,
                        ))
                    });
                    debug_assert_eq!(
                        cand.smx.to_bits(),
                        smx.to_bits(),
                        "front drifted from its key"
                    );
                    cand.tighten(base, self.delta_w, |b| b >= cut && outranks(b), &mut local);
                    cand.smx < cut
                };
                if prune {
                    local.pruned += 1;
                } else {
                    let cand = front.as_mut().expect("rebuilt above");
                    if !outranks(cand.smx) {
                        // Its tighter bound fell behind another entry's
                        // key: take it up again when that bound reaches
                        // the top.
                        requeue = Some((HeapEntry::bound(cand.smx, idx), front));
                        continue;
                    }
                    // The front bound says advance; the sink-aware bound,
                    // read only here, may still prune.
                    if sink_bound
                        .as_ref()
                        .is_some_and(|s| cand.sink_prunes(s, cut, base, self.delta_w, &mut local))
                    {
                        local.pruned += 1;
                        local.sink_pruned += 1;
                    } else {
                        self.advance(cand, circuit, &mut scratch, &mut memo, &mut local);
                        let Some(sink) = cand.walk.sink_arrival() else {
                            requeue = Some((HeapEntry::bound(cand.smx, idx), front));
                            continue;
                        };
                        // Front reached the sink: exact sensitivity.
                        local.completed += 1;
                        done = Some(Selection {
                            gate: cand.gate,
                            sensitivity: (base_cost - objective.value(sink)) / self.delta_w,
                        });
                    }
                }
                if let Some(c) = front {
                    c.walk.recycle_into(&mut scratch);
                }
            };
            local.convolutions_reused = memo.reused();
            memo.recycle_into(&mut scratch);
            (local, fresh, outcome)
        });
        let mut completed = shared
            .into_inner()
            .expect("sweep worker panicked")
            .completed;
        // The merge order, which on a grown crew depends on when each
        // worker was spawned, does not matter: counters add up, and each
        // candidate initializes at most once, so it records at most one
        // fresh bound, parked even when the deadline expired. Only a
        // bound whose pre-bound reaches the final cut is parked: every
        // such candidate initializes on every schedule, while one below
        // it initializes only where the cut rose late, so the parked set
        // is the same for every thread count and every schedule. With one
        // worker nothing is dropped: a key below the final cut pops only
        // after every top-k front completed, and is pruned.
        if let Some(parked) = parked {
            let cut = threshold_of(&completed, k) - PRUNE_SLACK;
            for &(gate, key, smx) in workers.iter().flat_map(|(_, fresh, _)| fresh) {
                if key >= cut {
                    parked.park(gate, smx);
                }
            }
        }
        for (local, _, outcome) in &workers {
            (*outcome)?;
            stats.merge(local);
        }

        completed.truncate(k);
        completed.retain(|s| s.sensitivity > 0.0);
        Ok((completed, stats))
    }

    /// The pre-bound front of a trial resize of `gate`, read off the
    /// trial delays alone: `(node, Δ)` for the output of each of the
    /// gate's drivers and of the gate itself. With `k_g` the whole-bin
    /// shift bound of gate `g`'s trial delay against its current one and
    /// `K = Σ_d max(0, k_d)` over the drivers, every driver's output
    /// shifts by at most `K`: its every in-edge carries its own trial
    /// delay (Theorem 1 per in-edge, Theorem 2 over their max), and a
    /// fan-in that is another driver's output brings at most that
    /// driver's bound, so along any chain of drivers the positive shifts
    /// add up. The gate's own output adds its trial delay to fan-ins
    /// shifted by at most `K`, so it shifts by at most `k_own + K`. This
    /// holds whatever the sign of each `k_d`; with `Δw > 0` every driver
    /// slows down (`k_d ≤ 0`), so `K` is 0. Every node a trial perturbs
    /// is one of these outputs or lies in their fan-out cone, so they
    /// separate the trial from the sink.
    fn prebound_front(&self, circuit: &TimedCircuit<'_>, gate: GateId) -> Vec<(TimingNode, f64)> {
        let overrides = circuit.overrides_for_resize(gate, self.delta_w);
        let graph = circuit.graph();
        let shift = |g: GateId| {
            let trial = overrides.get(g).expect("every resized gate is overridden");
            lattice_shift_bound(circuit.delays().dist(g), trial)
        };
        let drivers: Vec<GateId> = overrides.gates().filter(|&g| g != gate).collect();
        let upstream: f64 = drivers.iter().map(|&d| shift(d).max(0.0)).sum();
        let mut front: Vec<(TimingNode, f64)> = drivers
            .iter()
            .map(|&d| (graph.out_node_of_gate(d), upstream))
            .collect();
        front.push((graph.out_node_of_gate(gate), shift(gate) + upstream));
        front
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
            front: NodeMap::default(),
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::BruteForceSelector;
    use statsize_cells::{CellLibrary, VariationModel};
    use statsize_dist::{percentile_shift_at, Dist};
    use statsize_netlist::{bench, generator, shapes, GateKind, Netlist, NetlistBuilder};

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

    /// The serial sweep's count of fronts the sink-aware bound pruned is
    /// deterministic: pinned on a bundle of disjoint paths, each its own
    /// output, where every front reaches one output of six, under the
    /// 99th percentile and under the mean.
    #[test]
    fn sink_aware_bound_prunes_fronts_the_front_bound_would_advance() {
        let nl = shapes::path_bundle("b", &[5, 6, 7, 8, 5, 6]);
        let lib = CellLibrary::synthetic_180nm();
        let circuit = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), 1.0);
        let obj = Objective::percentile(0.99);
        let sel = PrunedSelector::new(1.0).with_threads(1);
        let (_, stats) = sel.select_with_stats(&circuit, obj);
        assert_eq!((stats.sink_pruned, stats.completed), (7, 5));
        assert_eq!(sel.select_with_stats(&circuit, obj).1, stats, "repeatable");
        let (_, mean) = sel.select_with_stats(&circuit, Objective::Mean);
        assert_eq!(mean.sink_pruned, 7);
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

    /// The optimizer's sweeps reuse parked bounds: none in the first
    /// sweep, then every bound no commit invalidated (pinned per
    /// iteration of a six-iteration descent on the 3×4 grid; zero after
    /// a commit that invalidates all twelve gates). A candidate whose
    /// pre-bound falls below the sweep's final cut parks nothing, so the
    /// count depends only on the commit history and is the same for
    /// every thread count. Serially, those candidates are exactly the
    /// ones pruned on their pre-bound (pinned beside it); on more
    /// workers some of them initialize before the cut rises. The public
    /// entry point above stays cold.
    #[test]
    fn optimizer_sweeps_reuse_parked_bounds() {
        let nl = shapes::grid("g", 3, 4);
        let lib = CellLibrary::synthetic_180nm();
        let obj = Objective::percentile(0.99);
        for threads in [1, 2] {
            let mut circuit = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), 1.0);
            let result = crate::Optimizer::new(obj, crate::SelectorKind::Pruned)
                .with_threads(threads)
                .with_max_iterations(6)
                .run(&mut circuit);
            let (reused, prebound): (Vec<usize>, Vec<usize>) = result
                .iterations
                .iter()
                .map(|r| {
                    let stats = r.prune.expect("pruned sweep");
                    (stats.bounds_reused, stats.prebound_pruned)
                })
                .unzip();
            assert_eq!(reused, [0, 0, 6, 0, 8, 6], "threads={threads}");
            if threads == 1 {
                assert_eq!(prebound, [0, 1, 0, 1, 1, 1]);
            }
        }
    }

    /// Re-initializes every candidate with a live parked bound and
    /// asserts the parked bound equals the fresh one bit for bit, and
    /// that the initialization measured only the outputs of the
    /// candidate and its drivers (the first premise of
    /// `circuit::ParkedBounds`; commits check the second). Returns how
    /// many bounds it checked.
    fn check_parked_bounds(circuit: &TimedCircuit<'_>, delta_w: f64) -> usize {
        let sel = PrunedSelector::new(delta_w);
        let mut scratch = DistScratch::new();
        let mut memo = EdgeConvMemo::new(circuit.ssta(), circuit.delays());
        let mut stats = PruneStats::default();
        let mut checked = 0;
        for gate in circuit.netlist().gate_ids() {
            let Some(parked) = circuit.parked_bounds().get(gate) else {
                continue;
            };
            let measured = stats.bounds_evaluated;
            let cand = sel.initialize_candidate(circuit, gate, &mut scratch, &mut memo, &mut stats);
            assert_eq!(
                stats.bounds_evaluated - measured,
                circuit.overrides_for_resize(gate, delta_w).len(),
                "premise 1: initialization measures only the outputs of gate {gate} and its drivers"
            );
            assert_eq!(
                parked.to_bits(),
                cand.smx.to_bits(),
                "{}: gate {gate}: parked {parked} vs fresh {}",
                circuit.netlist().name(),
                cand.smx
            );
            cand.walk.recycle_into(&mut scratch);
            checked += 1;
        }
        memo.recycle_into(&mut scratch);
        checked
    }

    /// Parks bounds with an optimizer sweep, then checks every live one
    /// against a fresh initialization after each way the circuit can
    /// change: commits, a what-if and its undo, a detach/re-attach round
    /// trip, a cloned state, `set_sizes`, and a change of `Δw`. The
    /// sweeps park bounds on `threads` workers. Returns how many bounds
    /// it checked.
    fn check_parked_bounds_after_every_mutation(nl: &Netlist, dt: f64, threads: usize) -> usize {
        let lib = CellLibrary::synthetic_180nm();
        let var = VariationModel::paper_default();
        let obj = Objective::percentile(0.99);
        let sweep = |circuit: &mut TimedCircuit<'_>, delta_w: f64| {
            PrunedSelector::new(delta_w)
                .with_threads(threads)
                .try_select_top_k_reusing(circuit, obj, 1, None)
                .expect("no deadline")
        };
        let gates = nl.topological_gates();
        let (first, middle, last) = (gates[0], gates[gates.len() / 2], gates[gates.len() - 1]);
        let mut c = TimedCircuit::new(nl, &lib, var, dt);
        let mut checked = 0;

        // Commits along the descent.
        for _ in 0..3 {
            let Some(best) = sweep(&mut c, 1.0).0.first().copied() else {
                break;
            };
            c.commit_resize(best.gate, 1.0);
            checked += check_parked_bounds(&c, 1.0);
        }

        // A what-if: bounds parked before it, and bounds parked on the
        // speculative state, both checked after the undo.
        sweep(&mut c, 1.0);
        let undo = c.commit_resize_undoable(middle, 1.0);
        checked += check_parked_bounds(&c, 1.0);
        sweep(&mut c, 1.0);
        c.undo_resize(undo);
        checked += check_parked_bounds(&c, 1.0);

        // Detach and re-attach: every bound rides along.
        sweep(&mut c, 1.0);
        let live = nl
            .gate_ids()
            .filter(|&g| c.parked_bounds().get(g).is_some())
            .count();
        let state = c.into_state();
        let cloned = state.clone();
        let mut c = TimedCircuit::from_state(nl, &lib, var, dt, state);
        assert_eq!(check_parked_bounds(&c, 1.0), live);

        // A cloned state diverges from its original.
        let mut fork = TimedCircuit::from_state(nl, &lib, var, dt, cloned);
        fork.commit_resize(first, 1.0);
        c.commit_resize(last, 1.0);
        checked += check_parked_bounds(&fork, 1.0) + check_parked_bounds(&c, 1.0);

        // `set_sizes` starts over.
        c.set_sizes(fork.sizes().widths());
        assert_eq!(
            check_parked_bounds(&c, 1.0),
            0,
            "set_sizes clears the cache"
        );
        sweep(&mut c, 1.0);
        c.commit_resize(middle, 1.0);
        checked += check_parked_bounds(&c, 1.0);

        // Another Δw reuses nothing parked under the old one.
        let (_, stats) = sweep(&mut c, 0.5);
        assert_eq!(stats.bounds_reused, 0, "parked bounds are keyed by Δw");
        checked += check_parked_bounds(&c, 0.5);
        c.commit_resize(first, 0.5);
        checked += check_parked_bounds(&c, 0.5);
        checked
    }

    #[test]
    fn parked_bounds_stay_exact_after_every_mutation() {
        for dt in [1.0, 0.25] {
            for nl in [
                bench::c17(),
                shapes::grid("g", 3, 4),
                shapes::diamond("d", 3),
            ] {
                for threads in [1, 2] {
                    let checked = check_parked_bounds_after_every_mutation(&nl, dt, threads);
                    assert!(checked > 0, "{} at dt {dt}: nothing reused", nl.name());
                }
            }
        }
    }

    /// The same on the c432 and c880 profiles at dt 0.25: run with
    /// `cargo test --release -q -p statsize --lib -- --ignored`.
    #[test]
    #[ignore = "slow: run in release with --ignored"]
    fn parked_bounds_stay_exact_on_benchmark_profiles() {
        for name in ["c432", "c880"] {
            let nl = generator::generate_iscas(name, 1).unwrap();
            for threads in [1, 2] {
                let checked = check_parked_bounds_after_every_mutation(&nl, 0.25, threads);
                assert!(checked > 0, "{name}, threads={threads}");
            }
        }
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

    /// A netlist whose output `x` also drives the gates behind output
    /// `y`, next to a third output `z`.
    fn fanning_output() -> Netlist {
        let mut b = NetlistBuilder::new("fanning_po");
        for name in ["a", "b", "c"] {
            b.input(name).unwrap();
        }
        b.gate(GateKind::Nand, "x", &["a", "b"]).unwrap();
        b.gate(GateKind::Nand, "m", &["x", "c"]).unwrap();
        b.gate(GateKind::Not, "y", &["m"]).unwrap();
        b.gate(GateKind::Nor, "z", &["b", "c"]).unwrap();
        for name in ["x", "y", "z"] {
            b.output(name).unwrap();
        }
        b.build().unwrap()
    }

    /// The sink in-edges `node` reaches, per [`reach_table`]'s bitsets.
    fn reached(words: usize, reach: &[u64], node: TimingNode) -> Vec<usize> {
        (0..words * 64)
            .filter(|j| reach[node.index() * words + j / 64] >> (j % 64) & 1 == 1)
            .collect()
    }

    /// An output net that also drives gates reaches its own sink in-edge
    /// and every one downstream; a net feeding several in-edges (a
    /// repeated output, here over two bitset words) sets each of them.
    #[test]
    fn reach_table_keeps_fanning_and_repeated_outputs() {
        let nl = fanning_output();
        let graph = TimingGraph::build(&nl);
        let node = |name| graph.node_of_net(nl.find_net(name).unwrap());
        let (a, b, x, y, z) = (node("a"), node("b"), node("x"), node("y"), node("z"));

        let (words, reach) = reach_table(&graph, &[x, y, z]);
        assert_eq!(words, 1);
        assert_eq!(reached(words, &reach, x), [0, 1], "x keeps its own bit");
        assert_eq!(reached(words, &reach, y), [1]);
        assert_eq!(reached(words, &reach, a), [0, 1]);
        assert_eq!(reached(words, &reach, b), [0, 1, 2]);
        assert!(reached(words, &reach, TimingNode::SINK).is_empty());

        let tails: Vec<TimingNode> = (0..70).map(|j| if j % 2 == 0 { x } else { z }).collect();
        let (words, reach) = reach_table(&graph, &tails);
        assert_eq!(words, 2);
        let even: Vec<usize> = (0..70).step_by(2).collect();
        let all: Vec<usize> = (0..70).collect();
        assert_eq!(reached(words, &reach, x), even);
        assert_eq!(reached(words, &reach, a), even);
        assert_eq!(reached(words, &reach, b), all);
    }

    /// The tolerance covers the sink's own fold: the sink's step CDF
    /// stays within the trim share of [`SINK_TOL_PER_OUTPUT`] (`1e-11`
    /// per in-edge) of the product of its outputs' CDFs at every bin, so
    /// an untouched front bounds to a sensitivity just above 0, under
    /// percentiles and the mean alike. Percentiles outside the body window
    /// get no table.
    #[test]
    fn sink_tolerance_covers_the_sink_fold() {
        let lib = CellLibrary::synthetic_180nm();
        for dt in [1.0, 0.25] {
            for nl in [
                bench::c17(),
                shapes::grid("g", 3, 4),
                shapes::diamond("d", 3),
                fanning_output(),
                generator::generate_iscas("c432", 17).unwrap(),
            ] {
                let circuit = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), dt);
                let at = format!("{} at dt {dt}", nl.name());
                let outputs: Vec<StepCdf> = circuit
                    .graph()
                    .in_edges(TimingNode::SINK)
                    .iter()
                    .map(|e| StepCdf::new(circuit.ssta().arrival(e.from)))
                    .collect();
                let sink = StepCdf::new(circuit.ssta().sink_arrival());
                for z in sink.offset - 2..sink.end() + 2 {
                    let product: f64 = outputs.iter().map(|c| c.at(z)).product();
                    assert!(
                        (product - sink.at(z)).abs() <= 1e-11 * outputs.len() as f64,
                        "{at}, bin {z}: product {product} vs sink {}",
                        sink.at(z)
                    );
                }
                for objective in [0.5, 0.9, 0.99]
                    .map(Objective::percentile)
                    .into_iter()
                    .chain([Objective::Mean])
                {
                    let table =
                        SinkBound::new(&circuit, objective, 1.0).expect("a table for {objective}");
                    let untouched = table.bound(&NodeMap::default(), true);
                    assert!(
                        (0.0..1e-2).contains(&untouched),
                        "{at}, {objective}: untouched front bounds to {untouched}"
                    );
                }
                assert!(SinkBound::new(&circuit, Objective::Percentile(1e-9), 1.0).is_none());
            }
        }
    }

    /// Walks every candidate's front from initialization to the sink and
    /// checks, before each step, that the sink-aware bound — read off the
    /// front as absorbed, and with every front bound measured — is at
    /// least the exact sensitivity the walk ends with, less
    /// `PRUNE_SLACK`. Returns how many bounds it checked.
    fn check_sink_bounds(nl: &Netlist, dt: f64, objective: Objective) -> usize {
        let lib = CellLibrary::synthetic_180nm();
        let circuit = TimedCircuit::new(nl, &lib, VariationModel::paper_default(), dt);
        let base = circuit.ssta();
        let base_cost = circuit.objective_value(objective);
        let table = SinkBound::new(&circuit, objective, 1.0).expect("a sink-aware objective");
        let sel = PrunedSelector::new(1.0);
        let mut scratch = DistScratch::new();
        let mut memo = EdgeConvMemo::new(base, circuit.delays());
        let mut stats = PruneStats::default();
        let mut checked = 0;
        for gate in nl.gate_ids() {
            let mut cand =
                sel.initialize_candidate(&circuit, gate, &mut scratch, &mut memo, &mut stats);
            let mut bounds = Vec::new();
            while !cand.walk.is_done() {
                let measured: NodeMap<TimingNode, FrontBound> = cand
                    .front
                    .keys()
                    .map(|&node| {
                        let perturbed =
                            cand.walk.perturbed(node).expect("front nodes are retained");
                        let delta = lattice_shift_bound(base.arrival(node), perturbed);
                        (node, FrontBound { delta, exact: true })
                    })
                    .collect();
                bounds.push(table.bound(&cand.front, true));
                bounds.push(table.bound(&measured, true));
                sel.advance(&mut cand, &circuit, &mut scratch, &mut memo, &mut stats);
            }
            let sink = cand.walk.sink_arrival().expect("walked to the sink");
            let exact = base_cost - objective.value(sink);
            for (i, &bound) in bounds.iter().enumerate() {
                assert!(
                    bound >= exact - PRUNE_SLACK,
                    "{} at dt {dt}, {objective}, gate {gate}, check {i}: bound {bound} < exact {exact}",
                    nl.name()
                );
            }
            checked += bounds.len();
            cand.walk.recycle_into(&mut scratch);
        }
        memo.recycle_into(&mut scratch);
        checked
    }

    /// The objectives the sink-aware bound serves, as the tests check it.
    const SINK_OBJECTIVES: [Objective; 4] = [
        Objective::Percentile(0.5),
        Objective::Percentile(0.9),
        Objective::Percentile(0.99),
        Objective::Mean,
    ];

    /// Theorem 4 per primary output: the sink-aware bound never falls
    /// below a front's exact sensitivity, at any level of its walk, under
    /// the percentile readings and the mean one.
    #[test]
    fn sink_bounds_hold_at_every_level() {
        for dt in [1.0, 0.25] {
            for nl in [
                bench::c17(),
                shapes::grid("g", 3, 4),
                shapes::diamond("d", 3),
                fanning_output(),
            ] {
                for objective in SINK_OBJECTIVES {
                    let checked = check_sink_bounds(&nl, dt, objective);
                    assert!(checked > 0, "{} at dt {dt}, {objective}", nl.name());
                }
            }
        }
    }

    /// The same on the c432 and gen600 profiles: run with
    /// `cargo test --release -q -p statsize --lib -- --ignored`.
    #[test]
    #[ignore = "slow: run in release with --ignored"]
    fn sink_bounds_hold_on_benchmark_profiles() {
        let c432 = generator::generate_iscas("c432", 17).unwrap();
        let gen600 = generator::generate_scaled(&generator::ScaledProfile::with_nodes(600), 1);
        for (nl, dt) in [(&c432, 1.0), (&c432, 0.25), (&gen600, 1.0)] {
            for objective in SINK_OBJECTIVES {
                let checked = check_sink_bounds(nl, dt, objective);
                assert!(checked > 0, "{} at dt {dt}, {objective}", nl.name());
            }
        }
    }

    /// The mean reading's shortcuts — the closed-form stretch below
    /// `max_j(offset_j − k_j)`, the stop where `P` reaches the level and
    /// the floored partial products — leave it equal to the sum that
    /// defines it, taken bin by bin from bin 0 to where every factor is
    /// 1: `(mean − dt · Σ_{z≥0} max(0, 1 − η − tol − P(z))) / Δw`, read
    /// off every gate's pre-bound front. The reference sum is compensated
    /// (Neumaier); the two agree to under `1e-12` here, well inside the
    /// `1e-10` allowed, while `η` alone moves the reading by over `2e-9`
    /// on every case.
    #[test]
    fn mean_reading_matches_the_bin_by_bin_sum() {
        let lib = CellLibrary::synthetic_180nm();
        for dt in [1.0, 0.25] {
            for nl in [bench::c17(), shapes::grid("g", 3, 4), fanning_output()] {
                let circuit = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), dt);
                let table = SinkBound::new(&circuit, Objective::Mean, 1.0).expect("a table");
                let n = table.cdfs.len();
                let level = 1.0 - SINK_MASS_DUST - SINK_TOL_PER_OUTPUT * n as f64;
                let end = table.cdfs.iter().map(StepCdf::end).max().unwrap();
                let mean = circuit.ssta().sink_arrival().mean();
                let sel = PrunedSelector::new(1.0);
                for gate in nl.gate_ids() {
                    let front = sel.prebound_front(&circuit, gate);
                    let mut ks = vec![0_i64; n];
                    for &(node, delta) in &front {
                        let k = (delta / dt).round() as i64;
                        for j in reached(table.words, &table.reach, node) {
                            ks[j] = ks[j].max(k);
                        }
                    }
                    let (mut sum, mut carry) = (0.0_f64, 0.0_f64);
                    for z in 0..end {
                        let term = (level - table.product(z, &ks)).max(0.0);
                        let next = sum + term;
                        carry += if sum.abs() >= term {
                            (sum - next) + term
                        } else {
                            (term - next) + sum
                        };
                        sum = next;
                    }
                    let want = mean - dt * (sum + carry);
                    let got = table.bound_of(front);
                    assert!(
                        (got - want).abs() <= 1e-10,
                        "{} at dt {dt}, gate {gate}: reading {got} vs sum {want}",
                        nl.name()
                    );
                }
            }
        }
    }

    /// The mean reading taken bin by bin, one product per bin: the
    /// reference [`SinkBound::mean_lower_bound`] must match bit for bit.
    fn mean_lower_bound_per_bin(table: &SinkBound, level: f64, ks: &[i64]) -> f64 {
        let z0 = table
            .cdfs
            .iter()
            .zip(ks)
            .map(|(cdf, &k)| cdf.offset - k)
            .max()
            .unwrap_or(0)
            .max(0);
        let mut sum = z0 as f64 * level;
        for z in z0.. {
            let product = table.product_above(z, ks, MEAN_PRODUCT_FLOOR);
            if product >= level {
                break;
            }
            sum += level - product;
        }
        sum
    }

    /// The mean reading, built for the whole bin range factor by factor,
    /// is the bin-by-bin sum bit for bit, over random shift vectors:
    /// most outputs unshifted, some shifted by a few bins, some past the
    /// end of their CDF.
    #[test]
    fn mean_reading_pins_the_bin_by_bin_bits() {
        let lib = CellLibrary::synthetic_180nm();
        // SplitMix64: a fixed, dependency-free stream.
        let mut state = 0x5eed_u64;
        let mut next = move |below: u64| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % below
        };
        for dt in [1.0, 0.25] {
            for nl in [
                bench::c17(),
                fanning_output(),
                generator::generate_iscas("c432", 17).unwrap(),
            ] {
                let circuit = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), dt);
                let table = SinkBound::new(&circuit, Objective::Mean, 1.0).expect("a table");
                let Reading::Mean { level } = table.reading else {
                    unreachable!("a mean table reads the mean")
                };
                let span = table.cdfs.iter().map(|c| c.cum.len()).max().unwrap() as u64;
                for _ in 0..200 {
                    let ks: Vec<i64> = table
                        .cdfs
                        .iter()
                        .map(|_| match next(4) {
                            0 | 1 => 0,
                            2 => next(8) as i64,
                            _ => next(2 * span) as i64,
                        })
                        .collect();
                    let got = table.mean_lower_bound(level, &ks);
                    let want = mean_lower_bound_per_bin(&table, level, &ks);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{} at dt {dt}, shifts {ks:?}: {got} vs {want}",
                        nl.name()
                    );
                }
            }
        }
    }

    /// Checks every candidate's pre-bound against the walk it stands in
    /// for. The premise: walked up to the gate's own level, each
    /// pre-bound front node (the outputs of the gate's drivers and of the
    /// gate) shifts by at most its `Δ` on the body window, whole-bin and
    /// interpolated alike. The bound: the key is at least the gate's
    /// brute-force sensitivity, less `PRUNE_SLACK`. The key is not held
    /// to the initialized `Smx`, which may sit 1–3 bins higher from tail
    /// excesses outside the window (module docs). Returns how many
    /// candidates it checked.
    fn check_prebounds(nl: &Netlist, dt: f64, objective: Objective) -> usize {
        const LEVELS: [f64; 9] = [
            BODY_WINDOW.0,
            1e-4,
            0.1,
            0.5,
            0.9,
            0.99,
            0.999,
            1.0 - 1e-6,
            BODY_WINDOW.1,
        ];
        let lib = CellLibrary::synthetic_180nm();
        let circuit = TimedCircuit::new(nl, &lib, VariationModel::paper_default(), dt);
        let base = circuit.ssta();
        let graph = circuit.graph();
        let table = SinkBound::new(&circuit, objective, 1.0);
        let sel = PrunedSelector::new(1.0);
        let exact = BruteForceSelector::new(1.0).all_sensitivities(&circuit, objective);
        let mut scratch = DistScratch::new();
        for (gate, brute) in nl.gate_ids().zip(&exact) {
            let at = format!("{} at dt {dt}, {objective}, gate {gate}", nl.name());
            let overrides = circuit.overrides_for_resize(gate, 1.0);
            let mut walk = ConeWalk::new(graph, circuit.delays(), base, overrides);
            let own_level = graph.level(graph.out_node_of_gate(gate));
            while walk.next_level().is_some_and(|l| l <= own_level) {
                walk.step_level_with(&mut scratch);
            }
            for (node, delta) in sel.prebound_front(&circuit, gate) {
                let (a, b) = (base.arrival(node), walk.perturbed(node).expect("computed"));
                let whole = windowed_shift(a, b, BODY_WINDOW.0, BODY_WINDOW.1);
                assert!(whole <= delta, "{at}, node {node}: shift {whole} > {delta}");
                for p in LEVELS {
                    let shift = percentile_shift_at(a, b, p);
                    assert!(
                        shift <= delta + 1e-9,
                        "{at}, node {node}, p {p}: shift {shift} > {delta}"
                    );
                }
            }
            walk.recycle_into(&mut scratch);
            let front = sel.prebound_front(&circuit, gate);
            let key = prebound_key(&front, 1.0);
            let key = table.as_ref().map_or(key, |t| key.min(t.bound_of(front)));
            assert!(
                key >= brute.sensitivity - PRUNE_SLACK,
                "{at}: key {key} < sensitivity {}",
                brute.sensitivity
            );
        }
        exact.len()
    }

    /// The pre-bound is sound for every gate, under the sink-aware key
    /// (p 0.5, 0.9, 0.99) and the delay-only one (`Mean`).
    #[test]
    fn prebounds_hold_for_every_gate() {
        for dt in [1.0, 0.25] {
            for nl in [bench::c17(), shapes::grid("g", 3, 4)] {
                for objective in [
                    Objective::percentile(0.5),
                    Objective::percentile(0.9),
                    Objective::percentile(0.99),
                    Objective::Mean,
                ] {
                    assert!(check_prebounds(&nl, dt, objective) > 0);
                }
            }
        }
    }

    /// The same on the c432 profile at dt 0.25: run with
    /// `cargo test --release -q -p statsize --lib -- --ignored`.
    #[test]
    #[ignore = "slow: run in release with --ignored"]
    fn prebounds_hold_on_a_benchmark_profile() {
        let nl = generator::generate_iscas("c432", 17).unwrap();
        for objective in [
            Objective::percentile(0.5),
            Objective::percentile(0.9),
            Objective::percentile(0.99),
            Objective::Mean,
        ] {
            assert!(check_prebounds(&nl, 0.25, objective) > 0);
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

    /// A deadline can expire mid-sweep without leaving a worker waiting:
    /// at every budget and thread count the sweep returns either
    /// `DeadlineExceeded` or exactly the unlimited selection. So does the
    /// optimizer's reusing sweep on a fresh circuit, and the bounds it
    /// parked, expired or not, leave the next unlimited reusing sweep on
    /// that circuit exact.
    #[test]
    fn deadline_expiring_mid_sweep_hangs_no_worker() {
        let lib = CellLibrary::synthetic_180nm();
        let obj = Objective::percentile(0.99);
        for nl in [
            shapes::grid("g", 4, 5),
            generator::generate_iscas("c432", 1).unwrap(),
        ] {
            let circuit = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), 2.0);
            let want = PrunedSelector::new(1.0)
                .with_threads(1)
                .select_top_k(&circuit, obj, 2);
            for threads in [1, 2, 4] {
                for micros in [0, 100, 1_000, 10_000] {
                    let sel = PrunedSelector::new(1.0)
                        .with_threads(threads)
                        .with_deadline(Deadline::after(std::time::Duration::from_micros(micros)));
                    let at = format!("{}, threads={threads}, {micros} µs", nl.name());
                    match sel.try_select_top_k_with_stats(&circuit, obj, 2) {
                        Err(DeadlineExceeded) => {}
                        Ok((got, stats)) => {
                            assert_eq!(got, want, "{at}");
                            assert_eq!(stats.pruned + stats.completed, stats.candidates, "{at}");
                        }
                    }
                    let mut fresh =
                        TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), 2.0);
                    match sel.try_select_top_k_reusing(&mut fresh, obj, 2, None) {
                        Err(DeadlineExceeded) => {}
                        Ok((got, stats)) => {
                            assert_eq!(got, want, "{at}, reusing");
                            assert_eq!(stats.pruned + stats.completed, stats.candidates, "{at}");
                        }
                    }
                    let (got, _) = PrunedSelector::new(1.0)
                        .with_threads(threads)
                        .try_select_top_k_reusing(&mut fresh, obj, 2, None)
                        .expect("no deadline");
                    assert_eq!(got, want, "{at}, unlimited reusing after it");
                }
            }
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
