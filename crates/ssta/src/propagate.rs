//! Level-by-level propagation of perturbed arrival times through a
//! fan-out cone.
//!
//! [`ConeWalk`] is the machinery beneath both sides of the paper's
//! Section 3:
//!
//! * the **brute-force** statistical sensitivity (propagate a gate's
//!   perturbation all the way to the sink: [`ConeWalk::run_to_sink`]), and
//! * the **pruned** algorithm's perturbation fronts, which advance one
//!   level at a time ([`ConeWalk::step_level`], the paper's
//!   `PropagateOneLevel` of Figure 9) and may stop early when the front's
//!   sensitivity bound falls below the best exact sensitivity seen so far.
//!
//! The walk also powers exact incremental SSTA after a sizing commit
//! (with the new delays installed and no overrides).

use crate::analysis::SstaAnalysis;
use crate::delays::ArcDelays;
use crate::graph::TimingGraph;
use crate::node::TimingNode;
use statsize_dist::{Dist, DistScratch};
use statsize_netlist::GateId;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Override sets up to this size are probed by plain linear scan —
/// cheaper than binary search for the typical trial-resize set of
/// `1 + fanin` gates, whose entries fit in a cache line or two.
const LINEAR_SCAN_MAX: usize = 8;

/// A small set of per-gate delay replacements, representing the effect of
/// a trial sizing move: the resized gate's (faster) arcs and its fan-in
/// gates' (slower) arcs.
///
/// Entries live in a vector in insertion order, keeping walks fully
/// deterministic. [`get`](DelayOverrides::get) is called once per gate
/// edge of every propagated node, so lookup is a linear scan while the
/// set is small (the common trial-resize case) and a binary search over a
/// sorted side index once it grows past `LINEAR_SCAN_MAX`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DelayOverrides {
    entries: Vec<(GateId, Dist)>,
    /// Indices into `entries`, kept sorted by gate id.
    by_gate: Vec<u32>,
}

impl DelayOverrides {
    /// No overrides (used for incremental re-analysis with committed
    /// delays).
    pub fn none() -> Self {
        Self::default()
    }

    /// Adds or replaces an override for a gate.
    pub fn set(&mut self, gate: GateId, dist: Dist) {
        match self
            .by_gate
            .binary_search_by_key(&gate, |&i| self.entries[i as usize].0)
        {
            Ok(pos) => self.entries[self.by_gate[pos] as usize].1 = dist,
            Err(pos) => {
                self.by_gate.insert(pos, self.entries.len() as u32);
                self.entries.push((gate, dist));
            }
        }
    }

    /// The override for a gate, if any.
    pub fn get(&self, gate: GateId) -> Option<&Dist> {
        if self.entries.len() <= LINEAR_SCAN_MAX {
            return self
                .entries
                .iter()
                .find(|(g, _)| *g == gate)
                .map(|(_, d)| d);
        }
        self.by_gate
            .binary_search_by_key(&gate, |&i| self.entries[i as usize].0)
            .ok()
            .map(|pos| &self.entries[self.by_gate[pos] as usize].1)
    }

    /// The overridden gates, in insertion order.
    pub fn gates(&self) -> impl Iterator<Item = GateId> + '_ {
        self.entries.iter().map(|(g, _)| *g)
    }

    /// Number of overridden gates.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no gate is overridden.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A per-sweep memo of side-input edge convolutions
/// `base.arrival(from) ∗ delays.dist(gate)`.
///
/// Every perturbation front of one selector sweep walks the same base
/// analysis under the same committed delays, so a gate edge whose
/// upstream still carries its base arrival and whose gate is not
/// overridden convolves to the same distribution in every front that
/// reaches its head node. The memo computes each such edge once, on
/// first use, and serves every later front from it; the fan-in fold then
/// takes the memoized edge arrival through [`Dist::max_independent_into`],
/// which is bit-identical to the fused [`Dist::convolve_max_into`] it
/// replaces (both normalize the convolution the same way and call the
/// same max kernel with the same operand order).
///
/// Scope: one sweep over one immutable base analysis and delay set. The
/// memo borrows both, and [`ConeWalk::step_level_memoized`] panics when
/// handed a memo built over a different pair — an entry can never
/// outlive the arrivals and delays it was computed from.
#[derive(Debug)]
pub struct EdgeConvMemo<'a> {
    base: &'a SstaAnalysis,
    delays: &'a ArcDelays,
    convs: HashMap<(TimingNode, GateId), Dist>,
    reused: usize,
}

impl<'a> EdgeConvMemo<'a> {
    /// An empty memo over one base analysis and its delays.
    pub fn new(base: &'a SstaAnalysis, delays: &'a ArcDelays) -> Self {
        Self {
            base,
            delays,
            convs: HashMap::new(),
            reused: 0,
        }
    }

    /// Edge convolutions served from the memo instead of recomputed.
    pub fn reused(&self) -> usize {
        self.reused
    }

    /// Consumes the memo, recycling every memoized distribution into
    /// `scratch`.
    pub fn recycle_into(self, scratch: &mut DistScratch) {
        for (_, dist) in self.convs {
            scratch.recycle(dist);
        }
    }

    /// True when `upstream` *is* the base arrival of `from` — the same
    /// object, not merely an equal one — i.e. the walk has no perturbed
    /// arrival for `from`.
    fn is_base_arrival(&self, from: TimingNode, upstream: &Dist) -> bool {
        std::ptr::eq(upstream, self.base.arrival(from))
    }

    /// The base arrival of `from` convolved with `gate`'s committed
    /// delay, computed on first use.
    fn conv(&mut self, from: TimingNode, gate: GateId, scratch: &mut DistScratch) -> &Dist {
        match self.convs.entry((from, gate)) {
            Entry::Occupied(e) => {
                self.reused += 1;
                e.into_mut()
            }
            Entry::Vacant(e) => e.insert(
                self.base
                    .arrival(from)
                    .convolve_into(self.delays.dist(gate), scratch),
            ),
        }
    }
}

/// Computes one node's arrival distribution from its fan-in arrivals:
/// convolution along gate arcs (with per-gate overrides applied) and the
/// independent statistical max across incoming edges, fused per edge via
/// [`Dist::convolve_max_into`] so no intermediate per-edge distribution
/// is ever materialized. With a `memo`, side-input gate edges (base
/// upstream, no override) take their convolution from it instead.
///
/// All buffers cycle through `scratch`: the accumulator starts as a
/// plain borrow of the first wire edge's upstream (no clone) and is only
/// promoted to an owned distribution by the first real combine; replaced
/// intermediates are recycled immediately. Results are bit-identical to
/// the naive convolve-then-max edge fold, with or without a memo.
pub(crate) fn node_arrival<'a, F>(
    graph: &TimingGraph,
    node: TimingNode,
    delays: &ArcDelays,
    overrides: &DelayOverrides,
    resolve: F,
    scratch: &mut DistScratch,
    mut memo: Option<&mut EdgeConvMemo<'_>>,
) -> Dist
where
    F: Fn(TimingNode) -> &'a Dist,
{
    let ins = graph.in_edges(node);
    debug_assert!(!ins.is_empty(), "only the source has no in-edges");
    let mut borrowed: Option<&'a Dist> = None;
    let mut owned: Option<Dist> = None;
    for e in ins {
        let upstream = resolve(e.from);
        match e.gate {
            Some(g) => {
                let overridden = overrides.get(g);
                let memoized = match memo.as_deref_mut() {
                    Some(m) if overridden.is_none() && m.is_base_arrival(e.from, upstream) => {
                        Some(m.conv(e.from, g, scratch))
                    }
                    _ => None,
                };
                let delay = overridden.unwrap_or_else(|| delays.dist(g));
                let acc = owned.take();
                let next = match (acc.as_ref().or(borrowed.take()), memoized) {
                    (Some(first), Some(conv)) => first.max_independent_into(conv, scratch),
                    (Some(first), None) => first.convolve_max_into(upstream, delay, scratch),
                    (None, Some(conv)) => conv.copy_into(scratch),
                    (None, None) => upstream.convolve_into(delay, scratch),
                };
                if let Some(acc) = acc {
                    scratch.recycle(acc);
                }
                owned = Some(next);
            }
            None => {
                if let Some(acc) = owned.take() {
                    let next = acc.max_independent_into(upstream, scratch);
                    scratch.recycle(acc);
                    owned = Some(next);
                } else if let Some(first) = borrowed.take() {
                    owned = Some(first.max_independent_into(upstream, scratch));
                } else {
                    borrowed = Some(upstream);
                }
            }
        }
    }
    // A clone survives only for single-wire-edge nodes (PIs fed by the
    // source), whose upstream is the two-bin source point mass.
    owned.unwrap_or_else(|| borrowed.expect("at least one in-edge").clone())
}

/// What one call to [`ConeWalk::step_level`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepReport {
    /// The level that was processed.
    pub level: u32,
    /// Nodes whose perturbed arrival was computed at this level.
    pub computed: Vec<TimingNode>,
    /// Previously computed nodes whose entire fan-out is now computed;
    /// they no longer lie on the perturbation front (the paper's
    /// `fo_count = 0` retirement, Figure 9 steps 13–18).
    pub retired: Vec<TimingNode>,
}

/// A breadth-first, level-by-level walk of a perturbation's fan-out cone.
///
/// Seeded at the output nodes of the overridden gates, the walk computes
/// perturbed arrival-time distributions level by level. At any moment the
/// set of *active* nodes (computed, with uncomputed fan-outs) is a cut
/// separating the perturbed region from the sink — the paper's
/// **perturbation front** `Pk`, over which Theorem 4 bounds the eventual
/// sink perturbation.
#[derive(Debug)]
pub struct ConeWalk<'a> {
    graph: &'a TimingGraph,
    delays: &'a ArcDelays,
    base: &'a SstaAnalysis,
    overrides: DelayOverrides,
    /// Perturbed arrivals of computed nodes. With `retain_all = false`,
    /// retired nodes' entries are dropped to keep memory proportional to
    /// the front width rather than the cone size.
    perturbed: HashMap<TimingNode, Dist>,
    /// All nodes ever computed (survives retirement).
    computed: HashSet<TimingNode>,
    /// Scheduled-or-computed marker preventing duplicate scheduling.
    scheduled: HashSet<TimingNode>,
    /// Pending nodes, keyed by level.
    pending: BTreeMap<u32, Vec<TimingNode>>,
    /// Remaining uncomputed fan-out arcs per computed node.
    fo_remaining: HashMap<TimingNode, usize>,
    retain_all: bool,
    /// Buffer pool for the walk's lattice operations (used when no
    /// external pool is supplied; see
    /// [`step_level_with`](ConeWalk::step_level_with)).
    scratch: DistScratch,
}

impl<'a> ConeWalk<'a> {
    /// Starts a walk seeded at the output nodes of the overridden gates —
    /// the initial perturbation set `{x} ∪ fanin(x)` of the paper's
    /// `Initialize` (Figure 7), expressed on nets.
    pub fn new(
        graph: &'a TimingGraph,
        delays: &'a ArcDelays,
        base: &'a SstaAnalysis,
        overrides: DelayOverrides,
    ) -> Self {
        let seeds: Vec<TimingNode> = overrides
            .gates()
            .map(|g| graph.out_node_of_gate(g))
            .collect();
        Self::with_seeds(graph, delays, base, overrides, &seeds)
    }

    /// Starts a walk with explicit seed nodes (used for incremental SSTA,
    /// where the changed delays are already installed in `delays` and no
    /// overrides are needed).
    pub fn with_seeds(
        graph: &'a TimingGraph,
        delays: &'a ArcDelays,
        base: &'a SstaAnalysis,
        overrides: DelayOverrides,
        seeds: &[TimingNode],
    ) -> Self {
        let mut walk = Self {
            graph,
            delays,
            base,
            overrides,
            perturbed: HashMap::new(),
            computed: HashSet::new(),
            scheduled: HashSet::new(),
            pending: BTreeMap::new(),
            fo_remaining: HashMap::new(),
            retain_all: true,
            scratch: DistScratch::new(),
        };
        for &s in seeds {
            walk.schedule(s);
        }
        walk
    }

    /// Drops retired nodes' distributions as the walk advances, keeping
    /// memory proportional to the front width (the paper's `A'set`
    /// bookkeeping). The walk's results are unchanged; only
    /// [`into_perturbed`](ConeWalk::into_perturbed) sees fewer entries.
    #[must_use]
    pub fn evicting_retired(mut self) -> Self {
        self.retain_all = false;
        self
    }

    fn schedule(&mut self, node: TimingNode) {
        if self.scheduled.insert(node) {
            self.pending
                .entry(self.graph.level(node))
                .or_default()
                .push(node);
        }
    }

    /// The level the next [`step_level`](ConeWalk::step_level) will
    /// process, or `None` when the walk is complete.
    pub fn next_level(&self) -> Option<u32> {
        self.pending.keys().next().copied()
    }

    /// True once every scheduled node has been computed (the sink has been
    /// reached, or the cone was empty).
    pub fn is_done(&self) -> bool {
        self.pending.is_empty()
    }

    /// Processes every pending node at the lowest pending level — the
    /// paper's `PropagateOneLevel` (Figure 9). Returns `None` when done.
    ///
    /// Uses the walk's own buffer pool; interleaved walks (e.g. the
    /// pruned selector's candidate fronts) should share one pool via
    /// [`step_level_with`](ConeWalk::step_level_with) instead.
    pub fn step_level(&mut self) -> Option<StepReport> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let report = self.step_level_with(&mut scratch);
        self.scratch = scratch;
        report
    }

    /// [`step_level`](ConeWalk::step_level) drawing mass buffers from an
    /// external pool, so many walks can recycle through one scratch. With
    /// [`evicting_retired`](ConeWalk::evicting_retired), retired nodes'
    /// buffers go straight back into the pool, making a full walk cost
    /// O(front width) allocations instead of O(nodes).
    pub fn step_level_with(&mut self, scratch: &mut DistScratch) -> Option<StepReport> {
        self.step(scratch, None)
    }

    /// [`step_level_with`](ConeWalk::step_level_with) taking side-input
    /// edge convolutions from a memo shared by every walk of one sweep —
    /// bit-identical results, fewer convolutions.
    ///
    /// # Panics
    ///
    /// Panics if `memo` was built over another base analysis or delay set
    /// than this walk's.
    pub fn step_level_memoized(
        &mut self,
        scratch: &mut DistScratch,
        memo: &mut EdgeConvMemo<'_>,
    ) -> Option<StepReport> {
        assert!(
            std::ptr::eq(memo.base, self.base) && std::ptr::eq(memo.delays, self.delays),
            "edge-convolution memo belongs to another analysis"
        );
        self.step(scratch, Some(memo))
    }

    fn step(
        &mut self,
        scratch: &mut DistScratch,
        mut memo: Option<&mut EdgeConvMemo<'_>>,
    ) -> Option<StepReport> {
        let (&level, _) = self.pending.iter().next()?;
        let nodes = self.pending.remove(&level).expect("key just observed");

        let mut computed = Vec::with_capacity(nodes.len());
        let mut retired = Vec::new();
        for node in nodes {
            let arrival = {
                let perturbed = &self.perturbed;
                let base = self.base;
                node_arrival(
                    self.graph,
                    node,
                    self.delays,
                    &self.overrides,
                    |n| perturbed.get(&n).unwrap_or_else(|| base.arrival(n)),
                    scratch,
                    memo.as_deref_mut(),
                )
            };
            self.perturbed.insert(node, arrival);
            self.computed.insert(node);
            let fanout = self.graph.out_nodes(node).len();
            if fanout == 0 {
                // Only the sink has no fan-outs: it leaves the front
                // immediately, but its distribution is always retained —
                // it is the result of the walk.
                retired.push(node);
            } else {
                self.fo_remaining.insert(node, fanout);
            }

            // Retire fan-in nodes whose last uncomputed fan-out this was
            // (Figure 9, steps 13–18).
            for e in self.graph.in_edges(node) {
                if let Some(r) = self.fo_remaining.get_mut(&e.from) {
                    *r -= 1;
                    if *r == 0 {
                        self.fo_remaining.remove(&e.from);
                        if !self.retain_all {
                            if let Some(dist) = self.perturbed.remove(&e.from) {
                                scratch.recycle(dist);
                            }
                        }
                        retired.push(e.from);
                    }
                }
            }

            for &out in self.graph.out_nodes(node) {
                self.schedule(out);
            }
            computed.push(node);
        }
        Some(StepReport {
            level,
            computed,
            retired,
        })
    }

    /// Runs the walk to completion (the brute-force propagation of
    /// Section 3.1).
    pub fn run_to_sink(&mut self) {
        while self.step_level().is_some() {}
    }

    /// [`run_to_sink`](ConeWalk::run_to_sink) drawing mass buffers from
    /// an external pool — see
    /// [`step_level_with`](ConeWalk::step_level_with).
    pub fn run_to_sink_with(&mut self, scratch: &mut DistScratch) {
        while self.step_level_with(scratch).is_some() {}
    }

    /// The perturbed arrival at a node, falling back to the unperturbed
    /// baseline outside the computed cone.
    ///
    /// # Panics
    ///
    /// Panics if the node was computed and subsequently evicted (see
    /// [`evicting_retired`](ConeWalk::evicting_retired)).
    pub fn arrival(&self, node: TimingNode) -> &Dist {
        if let Some(d) = self.perturbed.get(&node) {
            return d;
        }
        assert!(
            self.retain_all || !self.computed.contains(&node),
            "arrival of {node} was evicted after retirement"
        );
        self.base.arrival(node)
    }

    /// The perturbed arrival at a node, if it has been computed (and not
    /// evicted).
    pub fn perturbed(&self, node: TimingNode) -> Option<&Dist> {
        self.perturbed.get(&node)
    }

    /// The perturbed sink arrival, once the walk has reached the sink.
    pub fn sink_arrival(&self) -> Option<&Dist> {
        self.perturbed.get(&TimingNode::SINK)
    }

    /// True if the node's perturbed arrival has been computed (even if
    /// since evicted).
    pub fn is_computed(&self, node: TimingNode) -> bool {
        self.computed.contains(&node)
    }

    /// True when one of `node`'s in-edges runs through an overridden
    /// gate. Every other node's arrival is built from its fan-in by
    /// convolutions with unchanged delays and independent maxes, the
    /// operators Theorems 1–3 bound.
    pub fn has_overridden_in_edge(&self, node: TimingNode) -> bool {
        self.graph
            .in_edges(node)
            .iter()
            .any(|e| e.gate.is_some_and(|g| self.overrides.get(g).is_some()))
    }

    /// Number of nodes computed so far.
    pub fn computed_count(&self) -> usize {
        self.computed.len()
    }

    /// The active front: computed nodes that still have uncomputed
    /// fan-outs. Together they form the cut `Pk` of Theorem 4.
    pub fn active_nodes(&self) -> impl Iterator<Item = TimingNode> + '_ {
        self.fo_remaining.keys().copied()
    }

    /// Consumes the walk and returns all retained perturbed arrivals.
    pub fn into_perturbed(self) -> HashMap<TimingNode, Dist> {
        self.perturbed
    }

    /// Consumes the walk, recycling every distribution it still owns —
    /// retained perturbed arrivals, the delay overrides, and its own
    /// idle buffers — into `scratch` for reuse by subsequent walks (the
    /// selector sweeps' per-candidate cleanup).
    pub fn recycle_into(self, scratch: &mut DistScratch) {
        for (_, dist) in self.perturbed {
            scratch.recycle(dist);
        }
        for (_, dist) in self.overrides.entries {
            scratch.recycle(dist);
        }
        scratch.absorb(self.scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use statsize_cells::{CellLibrary, DelayModel, GateSizes, VariationModel};
    use statsize_netlist::{bench, shapes, Netlist};

    struct Ctx {
        nl: Netlist,
        graph: TimingGraph,
        delays: ArcDelays,
        base: SstaAnalysis,
    }

    fn ctx(nl: Netlist, dt: f64) -> Ctx {
        let lib = CellLibrary::synthetic_180nm();
        let model = DelayModel::new(&lib, &nl);
        let sizes = GateSizes::minimum(&nl);
        let var = VariationModel::paper_default();
        let graph = TimingGraph::build(&nl);
        let delays = ArcDelays::compute(&nl, &model, &sizes, &var, dt);
        let base = SstaAnalysis::run(&graph, &delays);
        Ctx {
            nl,
            graph,
            delays,
            base,
        }
    }

    /// Overrides that shift one gate's delay distribution earlier by
    /// `bins` lattice steps.
    fn shift_override(c: &Ctx, gate: GateId, bins: i64) -> DelayOverrides {
        let mut o = DelayOverrides::none();
        o.set(gate, c.delays.dist(gate).shift_bins(-bins));
        o
    }

    #[test]
    fn walk_covers_exactly_the_fanout_cone() {
        let c = ctx(bench::c17(), 0.5);
        let n11 = c.nl.find_net("11").unwrap();
        let g11 = c.nl.net(n11).driver().unwrap();
        let mut walk = ConeWalk::new(&c.graph, &c.delays, &c.base, shift_override(&c, g11, 4));
        walk.run_to_sink();
        // Cone of gate 11: nets 11, 16, 19, 22, 23, and the sink.
        for name in ["11", "16", "19", "22", "23"] {
            let node = c.graph.node_of_net(c.nl.find_net(name).unwrap());
            assert!(walk.is_computed(node), "net {name} should be in the cone");
        }
        assert!(walk.sink_arrival().is_some());
        // Net 10 is outside the cone.
        let n10 = c.graph.node_of_net(c.nl.find_net("10").unwrap());
        assert!(!walk.is_computed(n10));
        // Only the overridden gate's own output has an overridden in-edge.
        let node = |name| c.graph.node_of_net(c.nl.find_net(name).unwrap());
        assert!(walk.has_overridden_in_edge(node("11")));
        for name in ["16", "19", "22", "23", "10"] {
            assert!(!walk.has_overridden_in_edge(node(name)), "net {name}");
        }
    }

    #[test]
    fn speeding_up_a_gate_improves_or_preserves_the_sink() {
        let c = ctx(bench::c17(), 0.5);
        let n16 = c.nl.find_net("16").unwrap();
        let g16 = c.nl.net(n16).driver().unwrap();
        let mut walk = ConeWalk::new(&c.graph, &c.delays, &c.base, shift_override(&c, g16, 6));
        walk.run_to_sink();
        let sink = walk.sink_arrival().unwrap();
        let base_t99 = c.base.sink_arrival().percentile(0.99);
        let new_t99 = sink.percentile(0.99);
        assert!(new_t99 <= base_t99 + 1e-9, "{new_t99} vs {base_t99}");
    }

    #[test]
    fn empty_overrides_reproduce_baseline_exactly() {
        let c = ctx(shapes::grid("g", 3, 3), 0.5);
        // Seed at a mid-grid node with no delay changes: recomputed
        // arrivals must equal the baseline bit for bit.
        let seed = c.graph.node_of_net(c.nl.find_net("g1_1").unwrap());
        let mut walk = ConeWalk::with_seeds(
            &c.graph,
            &c.delays,
            &c.base,
            DelayOverrides::none(),
            &[seed],
        );
        walk.run_to_sink();
        for (node, dist) in walk.into_perturbed() {
            assert_eq!(
                &dist,
                c.base.arrival(node),
                "recomputation must be deterministic at {node}"
            );
        }
    }

    #[test]
    fn levels_are_processed_in_order() {
        let c = ctx(shapes::grid("g", 4, 4), 1.0);
        let seed = c.graph.node_of_net(c.nl.find_net("g0_0").unwrap());
        let mut walk = ConeWalk::with_seeds(
            &c.graph,
            &c.delays,
            &c.base,
            DelayOverrides::none(),
            &[seed],
        );
        // Strict monotonicity from the first observed level: a `prev == 0`
        // escape hatch would vacuously accept repeated level-0 reports.
        let mut prev: Option<u32> = None;
        while let Some(report) = walk.step_level() {
            if let Some(p) = prev {
                assert!(report.level > p, "level {} after level {p}", report.level);
            }
            for &n in &report.computed {
                assert_eq!(c.graph.level(n), report.level);
            }
            prev = Some(report.level);
        }
        assert!(prev.is_some(), "the walk must process at least one level");
        assert!(walk.is_done());
        assert!(walk.next_level().is_none());
    }

    #[test]
    fn retirement_keeps_the_front_a_cut() {
        let c = ctx(bench::c17(), 0.5);
        let n11 = c.nl.find_net("11").unwrap();
        let g11 = c.nl.net(n11).driver().unwrap();
        let mut walk = ConeWalk::new(&c.graph, &c.delays, &c.base, shift_override(&c, g11, 3))
            .evicting_retired();
        let mut total_retired = 0;
        while let Some(report) = walk.step_level() {
            total_retired += report.retired.len();
            // Active nodes were all computed and not retired.
            for n in walk.active_nodes() {
                assert!(walk.is_computed(n));
            }
        }
        // Everything but the sink eventually retires (the sink has no
        // fan-outs and retires the moment it is computed).
        assert_eq!(total_retired, walk.computed_count());
    }

    #[test]
    fn eviction_does_not_change_the_sink_result() {
        let c = ctx(shapes::diamond("d", 3), 0.5);
        let input_gate = {
            let first = c.nl.find_net("a0s0").unwrap();
            c.nl.net(first).driver().unwrap()
        };
        let overrides = shift_override(&c, input_gate, 5);
        let mut keep = ConeWalk::new(&c.graph, &c.delays, &c.base, overrides.clone());
        keep.run_to_sink();
        let mut evict = ConeWalk::new(&c.graph, &c.delays, &c.base, overrides).evicting_retired();
        evict.run_to_sink();
        assert_eq!(keep.sink_arrival(), evict.sink_arrival());
    }

    #[test]
    fn overrides_set_replaces_existing() {
        let c = ctx(bench::c17(), 0.5);
        let g = c.nl.gate_ids().next().unwrap();
        let mut o = DelayOverrides::none();
        assert!(o.is_empty());
        o.set(g, c.delays.dist(g).shift_bins(-1));
        o.set(g, c.delays.dist(g).shift_bins(-2));
        assert_eq!(o.len(), 1);
        assert_eq!(o.get(g), Some(&c.delays.dist(g).shift_bins(-2)));
    }

    /// Past the linear-scan fast path the sorted index takes over; it
    /// must preserve the replace semantics and the insertion iteration
    /// order exactly.
    #[test]
    fn overrides_lookup_consistent_past_linear_scan() {
        let d = Dist::point(1.0, 3.0);
        let mut o = DelayOverrides::none();
        // Insert in a scrambled order well past LINEAR_SCAN_MAX.
        let ids: Vec<GateId> = [17u32, 3, 29, 11, 5, 23, 0, 19, 8, 26, 14, 2]
            .iter()
            .map(|&i| GateId::from_index(i as usize))
            .collect();
        for (i, &g) in ids.iter().enumerate() {
            o.set(g, d.shift_bins(i as i64));
        }
        assert_eq!(o.len(), ids.len());
        // Replacement by id, not by position.
        o.set(ids[7], d.shift_bins(-100));
        assert_eq!(o.len(), ids.len());
        assert_eq!(o.get(ids[7]), Some(&d.shift_bins(-100)));
        // Every entry resolves, absent gates do not.
        for (i, &g) in ids.iter().enumerate() {
            if i != 7 {
                assert_eq!(o.get(g), Some(&d.shift_bins(i as i64)), "gate {g}");
            }
        }
        assert_eq!(o.get(GateId::from_index(99)), None);
        // Iteration order is insertion order, replacements in place.
        let order: Vec<GateId> = o.gates().collect();
        assert_eq!(order, ids);
    }

    /// Walks sharing one external scratch pool must produce the same
    /// results as walks using their own buffers.
    #[test]
    fn shared_scratch_matches_private_buffers() {
        let c = ctx(bench::c17(), 0.5);
        let mut scratch = statsize_dist::DistScratch::new();
        for (i, g) in c.nl.gate_ids().enumerate() {
            let overrides = shift_override(&c, g, 2 + i as i64);
            let mut shared =
                ConeWalk::new(&c.graph, &c.delays, &c.base, overrides.clone()).evicting_retired();
            shared.run_to_sink_with(&mut scratch);
            let mut private = ConeWalk::new(&c.graph, &c.delays, &c.base, overrides);
            private.run_to_sink();
            assert_eq!(shared.sink_arrival(), private.sink_arrival(), "gate {g}");
            shared.recycle_into(&mut scratch);
        }
        assert!(scratch.pooled() > 0, "retired buffers must be recycled");
    }

    /// Which fold paths the memoized walks took, classified from the
    /// outside: the memo itself never reports why it hit.
    #[derive(Default)]
    struct MemoCases {
        hits: usize,
        first_edge_hit: bool,
        wire_then_gate_hit: bool,
        overridden_edge: bool,
        perturbed_upstream: bool,
    }

    /// Runs, for every gate in turn, a shifted-delay walk sharing `memo`
    /// and a memo-free walk, asserting every perturbed arrival and the
    /// sink bit-identical and classifying each gate edge the memoized
    /// walk folded.
    fn memoized_walks_match(c: &Ctx, memo: &mut EdgeConvMemo<'_>, cases: &mut MemoCases) {
        let mut scratch = DistScratch::new();
        let mut side_edges: HashSet<(TimingNode, GateId)> = HashSet::new();
        for (i, g) in c.nl.gate_ids().enumerate() {
            let overrides = shift_override(c, g, 1 + i as i64 % 3);
            let mut plain = ConeWalk::new(&c.graph, &c.delays, &c.base, overrides.clone());
            plain.run_to_sink();
            let mut memoized = ConeWalk::new(&c.graph, &c.delays, &c.base, overrides.clone());
            while let Some(report) = memoized.step_level_memoized(&mut scratch, memo) {
                for &node in &report.computed {
                    let mut wire_seen = false;
                    for (pos, e) in c.graph.in_edges(node).iter().enumerate() {
                        let Some(gate) = e.gate else {
                            wire_seen = true;
                            continue;
                        };
                        // The overridden and perturbed cases count only
                        // when the memo already holds the edge: a hit
                        // there would be wrong, so it must be bypassed.
                        let memoized_edge = side_edges.contains(&(e.from, gate));
                        if overrides.get(gate).is_some() {
                            cases.overridden_edge |= memoized_edge;
                        } else if memoized.is_computed(e.from) {
                            cases.perturbed_upstream |= memoized_edge;
                        } else if !side_edges.insert((e.from, gate)) {
                            cases.hits += 1;
                            cases.first_edge_hit |= pos == 0;
                            cases.wire_then_gate_hit |= wire_seen;
                        }
                    }
                }
            }
            assert_eq!(memoized.sink_arrival(), plain.sink_arrival(), "gate {g}");
            assert_eq!(
                memoized.into_perturbed(),
                plain.into_perturbed(),
                "gate {g}"
            );
        }
    }

    /// Side-input convolutions served from a memo shared by every walk
    /// leave every perturbed arrival bit-identical to the memo-free walk,
    /// on every fold path the memo can take.
    #[test]
    fn edge_memo_matches_memo_free_walks() {
        let mut cases = MemoCases::default();
        for dt in [1.0, 0.25] {
            let mut wired = ctx(bench::c17(), dt);
            let n22 = wired.graph.node_of_net(wired.nl.find_net("22").unwrap());
            wired.graph.prepend_source_edge(n22);
            wired.base = SstaAnalysis::run(&wired.graph, &wired.delays);
            for c in [
                ctx(bench::c17(), dt),
                ctx(shapes::grid("g", 3, 4), dt),
                wired,
            ] {
                let mut memo = EdgeConvMemo::new(&c.base, &c.delays);
                let before = cases.hits;
                memoized_walks_match(&c, &mut memo, &mut cases);
                assert_eq!(
                    memo.reused(),
                    cases.hits - before,
                    "every side-edge hit counted"
                );
            }
        }
        assert!(cases.hits > 0, "the memo must serve some edges");
        assert!(cases.first_edge_hit, "no first-edge hit exercised");
        assert!(cases.wire_then_gate_hit, "no wire-then-gate hit exercised");
        assert!(cases.overridden_edge, "no memoized overridden edge met");
        assert!(cases.perturbed_upstream, "no memoized perturbed edge met");
    }

    #[test]
    #[should_panic(expected = "belongs to another analysis")]
    fn memo_over_another_analysis_is_refused() {
        let c = ctx(bench::c17(), 1.0);
        let other = ctx(bench::c17(), 1.0);
        let mut memo = EdgeConvMemo::new(&other.base, &other.delays);
        let g = c.nl.gate_ids().next().unwrap();
        let mut walk = ConeWalk::new(&c.graph, &c.delays, &c.base, shift_override(&c, g, 1));
        walk.step_level_memoized(&mut DistScratch::new(), &mut memo);
    }
}
