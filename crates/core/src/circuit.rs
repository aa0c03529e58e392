//! The mutable timing state shared by all optimizers.

use crate::objective::Objective;
use statsize_cells::{CellLibrary, DelayModel, GateSizes, VariationModel};
use statsize_dist::Dist;
use statsize_netlist::{GateId, Netlist};
use statsize_ssta::{ArcDelays, DelayOverrides, SstaAnalysis, SstaUndo, TimingGraph};

/// Figure-7 bounds parked across optimizer sweeps: one `Smx` per gate
/// for a trial resize by `Δw`, which the next sweep pushes onto its heap
/// in place of re-running the gate's initialization.
///
/// An entry lives until a commit recomputes the output of its gate or of
/// one of the gate's drivers. Two premises make that rule exact:
///
/// 1. **Initialization reads only those outputs.** Its lazy bounds
///    measure only nodes with an overridden in-edge — the outputs of the
///    candidate and of its drivers — and every other front node inherits
///    `max(0, fan-in bounds)` over the fixed graph. So a parked `Smx`
///    depends only on those outputs' trial and base arrivals, which in
///    turn depend on their transitive fan-in and on the trial overrides;
///    the overrides depend on the widths of the candidate, of its
///    drivers, and of the gates on their output nets.
/// 2. **A commit recomputes a cone closed under fan-out.**
///    [`SstaAnalysis::update_after_delay_change`] recomputes the whole
///    fan-out cone of the resized gate's output and of its drivers'
///    outputs, to the sink. An arrival or delay change upstream of a
///    bound's outputs therefore recomputes them, and a width change on
///    the candidate, a driver or a gate on their output nets makes one
///    of them a seed of the cone.
///
/// The pruned selector's `parked_bounds_stay_exact` tests re-initialize
/// every live entry after each mutation path, compare bits, and check
/// that the initialization measured only those outputs; in debug builds
/// every invalidation asserts that the update's cone is closed under
/// fan-out. A change to either premise fails them.
///
/// Bounds are lattice shift bounds, so they do not depend on the
/// objective; they are keyed by `Δw` alone. Only the optimizer's sweeps
/// read and fill the cache (the public selector entry points stay cold),
/// and it is allocated by the first of them, not by
/// [`TimedCircuit::new`].
#[derive(Debug, Clone, Default)]
pub(crate) struct ParkedBounds {
    delta_w: f64,
    /// Indexed by gate id; empty until the first optimizer sweep.
    smx: Vec<Option<f64>>,
}

impl ParkedBounds {
    /// Readies the cache for a sweep over `gates` candidates with trial
    /// increment `delta_w`: allocated on first use, emptied when `Δw`
    /// changed.
    pub(crate) fn prepare(&mut self, gates: usize, delta_w: f64) {
        if self.delta_w.to_bits() != delta_w.to_bits() || self.smx.len() != gates {
            self.delta_w = delta_w;
            self.smx.clear();
            self.smx.resize(gates, None);
        }
    }

    /// The parked bound of `gate`, if still valid.
    pub(crate) fn get(&self, gate: GateId) -> Option<f64> {
        self.smx.get(gate.index()).copied().flatten()
    }

    /// Parks `gate`'s freshly initialized bound.
    pub(crate) fn park(&mut self, gate: GateId, smx: f64) {
        self.smx[gate.index()] = Some(smx);
    }

    /// Drops every entry whose candidate output or driver output the
    /// update recomputed.
    fn drop_recomputed(&mut self, netlist: &Netlist, graph: &TimingGraph, update: &SstaUndo) {
        if self.smx.is_empty() {
            return;
        }
        debug_assert!(
            {
                let cone: std::collections::HashSet<_> = update.recomputed_nodes().collect();
                cone.iter()
                    .all(|&n| graph.out_nodes(n).iter().all(|m| cone.contains(m)))
            },
            "premise 2: an update recomputes a cone closed under fan-out"
        );
        for node in update.recomputed_nodes() {
            let Some(net) = graph.net_of_node(node) else {
                continue; // the sink
            };
            let net = netlist.net(net);
            // The net's driver is a candidate whose output this is; its
            // loads are the candidates it drives.
            for gate in net.driver().into_iter().chain(net.loads().iter().copied()) {
                self.smx[gate.index()] = None;
            }
        }
    }
}

/// The owned, borrow-free timing state of a circuit: everything a
/// [`TimedCircuit`] computes and mutates, detached from the netlist and
/// library references it computes *against*.
///
/// [`TimedCircuit`] borrows its netlist and library, which is right for
/// a batch optimizer but wrong for a long-lived session that must own
/// its state across queries. The split: a session stores a
/// `TimingState` (plus shared ownership of the immutable design inputs)
/// and re-attaches it with [`TimedCircuit::from_state`] for the duration
/// of each query — a cheap move-in/move-out, no re-analysis. Cloning a
/// `TimingState` clones the full sizing/timing picture, which is exactly
/// the [`Session::fork`](crate::Session::fork) and snapshot primitive.
///
/// The state also carries the optimizer's parked selector bounds, so a
/// session's next `step` reuses what its last one left valid.
///
/// Equality ignores the timing graph (a pure function of the netlist)
/// and the parked bounds (a cache of values derived from the rest), and
/// compares the mutable layers — sizes, delays, arrivals — with their
/// bit-exact `PartialEq`s.
#[derive(Debug, Clone)]
pub struct TimingState {
    graph: TimingGraph,
    sizes: GateSizes,
    delays: ArcDelays,
    ssta: SstaAnalysis,
    parked: ParkedBounds,
}

impl TimingState {
    /// Current gate widths.
    pub fn sizes(&self) -> &GateSizes {
        &self.sizes
    }

    /// Current per-gate delay distributions.
    pub fn delays(&self) -> &ArcDelays {
        &self.delays
    }

    /// The SSTA result for the current sizing.
    pub fn ssta(&self) -> &SstaAnalysis {
        &self.ssta
    }
}

impl PartialEq for TimingState {
    fn eq(&self, other: &Self) -> bool {
        self.sizes == other.sizes && self.delays == other.delays && self.ssta == other.ssta
    }
}

/// The inverse record of one [`TimedCircuit::commit_resize_undoable`]:
/// the clobbered width, delay entries, and arrival distributions.
/// Consumed by [`TimedCircuit::undo_resize`], which restores all three
/// layers bit-for-bit — the speculative what-if primitive.
#[derive(Debug)]
pub struct ResizeUndo {
    gate: GateId,
    prior_width: f64,
    prior_delays: Vec<(GateId, f64, Dist)>,
    ssta: SstaUndo,
}

/// A circuit under sizing optimization: the netlist bound to a cell
/// library, with current gate widths, per-gate delay distributions, and an
/// always-up-to-date SSTA result.
///
/// Sizing moves go through [`commit_resize`](TimedCircuit::commit_resize),
/// which refreshes the affected delays and re-propagates arrival times in
/// the fan-out cone only — exactly equivalent to a full SSTA rerun, bit
/// for bit, since every convolution runs the one bit-exact dense kernel.
#[derive(Debug)]
pub struct TimedCircuit<'a> {
    netlist: &'a Netlist,
    model: DelayModel<'a>,
    variation: VariationModel,
    dt: f64,
    graph: TimingGraph,
    sizes: GateSizes,
    delays: ArcDelays,
    ssta: SstaAnalysis,
    parked: ParkedBounds,
}

impl<'a> TimedCircuit<'a> {
    /// Builds the timing state at minimum sizes.
    ///
    /// `dt` is the lattice step (ps) used for all distributions.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not finite and positive, or the library lacks a
    /// cell for some gate kind.
    pub fn new(
        netlist: &'a Netlist,
        library: &'a CellLibrary,
        variation: VariationModel,
        dt: f64,
    ) -> Self {
        let model = DelayModel::new(library, netlist);
        let sizes = GateSizes::minimum(netlist);
        let graph = TimingGraph::build(netlist);
        let delays = ArcDelays::compute(netlist, &model, &sizes, &variation, dt);
        let ssta = SstaAnalysis::run(&graph, &delays);
        Self {
            netlist,
            model,
            variation,
            dt,
            graph,
            sizes,
            delays,
            ssta,
            parked: ParkedBounds::default(),
        }
    }

    /// Re-attaches a detached [`TimingState`] to its design inputs,
    /// without re-analysis. The state must have been produced by
    /// [`into_state`](Self::into_state) on a circuit built from the
    /// *same* netlist, library, variation model, and `dt` — the state
    /// carries derived data only, so re-attaching it to different inputs
    /// silently misanalyzes; sessions guarantee the pairing by keeping
    /// state and design inputs in one place.
    pub fn from_state(
        netlist: &'a Netlist,
        library: &'a CellLibrary,
        variation: VariationModel,
        dt: f64,
        state: TimingState,
    ) -> Self {
        let model = DelayModel::new(library, netlist);
        Self {
            netlist,
            model,
            variation,
            dt,
            graph: state.graph,
            sizes: state.sizes,
            delays: state.delays,
            ssta: state.ssta,
            parked: state.parked,
        }
    }

    /// Detaches the owned timing state, dropping the netlist/library
    /// borrows. The inverse of [`from_state`](Self::from_state).
    pub fn into_state(self) -> TimingState {
        TimingState {
            graph: self.graph,
            sizes: self.sizes,
            delays: self.delays,
            ssta: self.ssta,
            parked: self.parked,
        }
    }

    /// The underlying netlist.
    pub fn netlist(&self) -> &'a Netlist {
        self.netlist
    }

    /// The delay model binding gates to cells.
    pub fn model(&self) -> &DelayModel<'a> {
        &self.model
    }

    /// The variation model.
    pub fn variation(&self) -> &VariationModel {
        &self.variation
    }

    /// The lattice step (ps).
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// The timing graph.
    pub fn graph(&self) -> &TimingGraph {
        &self.graph
    }

    /// Current gate widths.
    pub fn sizes(&self) -> &GateSizes {
        &self.sizes
    }

    /// Current per-gate delay distributions.
    pub fn delays(&self) -> &ArcDelays {
        &self.delays
    }

    /// The SSTA result for the current sizing (kept incrementally exact).
    pub fn ssta(&self) -> &SstaAnalysis {
        &self.ssta
    }

    /// Current total gate width `Σ w` — the paper's "total gate size".
    pub fn total_width(&self) -> f64 {
        self.sizes.total_width()
    }

    /// Current total area (width × per-cell area).
    pub fn area(&self) -> f64 {
        self.model.area(self.netlist, &self.sizes)
    }

    /// Evaluates an objective on the current circuit-delay distribution.
    pub fn objective_value(&self, objective: Objective) -> f64 {
        objective.value(self.ssta.sink_arrival())
    }

    /// The delay-distribution overrides describing a *trial* resize of
    /// `gate` by `delta_w`: new distributions for the gate itself (faster)
    /// and its fan-in drivers (slower). The circuit state is unchanged —
    /// this is the paper's temporary sizing of `Initialize` (Figure 7,
    /// steps 1 and 7).
    pub fn overrides_for_resize(&self, gate: GateId, delta_w: f64) -> DelayOverrides {
        let mut overrides = DelayOverrides::none();
        for (g, nominal) in self.nominal_overrides_for_resize(gate, delta_w) {
            overrides.set(g, self.variation.delay_dist(nominal, self.dt));
        }
        overrides
    }

    /// The *nominal* delays that a trial resize of `gate` by `delta_w`
    /// would give the affected gates (the gate itself and its fan-in
    /// drivers). Used directly by the deterministic optimizer and as the
    /// basis of [`overrides_for_resize`](Self::overrides_for_resize).
    pub fn nominal_overrides_for_resize(&self, gate: GateId, delta_w: f64) -> Vec<(GateId, f64)> {
        let g = self.netlist.gate(gate);
        let cell_x = self.model.cell(gate);
        let w_x = self.sizes.width(gate);
        let mut out = Vec::with_capacity(1 + g.fanin());

        // The gate itself: Ccell grows, load is unchanged (it depends on
        // the fan-out gates' widths only).
        let load_x = self.model.load(self.netlist, &self.sizes, g.output());
        out.push((gate, cell_x.delay(w_x + delta_w, load_x)));

        // Each distinct fan-in driver: its load grows by the resized
        // gate's extra pin capacitance, once per connected pin.
        for (i, &input) in g.inputs().iter().enumerate() {
            // Handle duplicate input nets once.
            if g.inputs()[..i].contains(&input) {
                continue;
            }
            let Some(driver) = self.netlist.net(input).driver() else {
                continue; // primary input: no driving gate to slow down
            };
            let pins = g.inputs().iter().filter(|&&n| n == input).count() as f64;
            let load = self.model.load(self.netlist, &self.sizes, input)
                + delta_w * cell_x.pin_cap_unit() * pins;
            let cell_d = self.model.cell(driver);
            out.push((driver, cell_d.delay(self.sizes.width(driver), load)));
        }
        out
    }

    /// Commits a resize: `w += Δw` on `gate`, refreshing the affected
    /// delay distributions and re-propagating arrival times in the fan-out
    /// cone. Equivalent to a full SSTA rerun (asserted by tests).
    pub fn commit_resize(&mut self, gate: GateId, delta_w: f64) {
        self.sizes.resize(gate, delta_w);
        let affected = ArcDelays::affected_by_resize(self.netlist, gate);
        self.delays.update_gates(
            self.netlist,
            &self.model,
            &self.sizes,
            &self.variation,
            affected.iter().copied(),
        );
        let update = self
            .ssta
            .update_after_delay_change(&self.graph, &self.delays, &affected);
        self.parked
            .drop_recomputed(self.netlist, &self.graph, &update);
    }

    /// [`commit_resize`](Self::commit_resize), additionally capturing
    /// everything the commit clobbers so [`undo_resize`](Self::undo_resize)
    /// can restore the pre-commit state **bit-for-bit**.
    ///
    /// This is deliberately not "resize by `-delta_w`": the delay model
    /// is not an involution under resize/undo at the floating-point
    /// level, so a counter-resize would leave the state bits subtly
    /// different from never having resized. Capturing and moving the
    /// old values back is exact by construction — the foundation of the
    /// serve-mode `what_if` contract (a what-if leaves no trace).
    pub fn commit_resize_undoable(&mut self, gate: GateId, delta_w: f64) -> ResizeUndo {
        let prior_width = self.sizes.width(gate);
        let affected = ArcDelays::affected_by_resize(self.netlist, gate);
        let prior_delays = affected
            .iter()
            .map(|&g| (g, self.delays.nominal(g), self.delays.dist(g).clone()))
            .collect();
        self.sizes.resize(gate, delta_w);
        self.delays.update_gates(
            self.netlist,
            &self.model,
            &self.sizes,
            &self.variation,
            affected.iter().copied(),
        );
        let ssta = self
            .ssta
            .update_after_delay_change(&self.graph, &self.delays, &affected);
        self.parked
            .drop_recomputed(self.netlist, &self.graph, &ssta);
        ResizeUndo {
            gate,
            prior_width,
            prior_delays,
            ssta,
        }
    }

    /// Reverts one [`commit_resize_undoable`](Self::commit_resize_undoable)
    /// by moving the captured width, delay entries, and arrivals back
    /// into place. Must be applied to the same circuit the undo was
    /// taken from, with no other commits in between.
    pub fn undo_resize(&mut self, undo: ResizeUndo) {
        self.sizes.set_width(undo.gate, undo.prior_width);
        for (g, nominal, dist) in undo.prior_delays {
            self.delays.restore(g, nominal, dist);
        }
        self.parked
            .drop_recomputed(self.netlist, &self.graph, &undo.ssta);
        self.ssta.apply_undo(undo.ssta);
    }

    /// Replaces the full sizing vector (one width per gate, indexed by
    /// gate id) and recomputes delays and arrivals from scratch — the
    /// optimizer's warm-start entry
    /// ([`Optimizer::with_initial_sizes`](crate::Optimizer::with_initial_sizes)).
    /// A from-scratch re-analysis is bit-identical to having committed
    /// the same widths incrementally (the incremental-equals-full
    /// contract), so a warm start introduces no new numerical path.
    ///
    /// # Panics
    ///
    /// Panics if `widths` does not match the gate count or contains a
    /// non-finite or below-minimum width.
    pub fn set_sizes(&mut self, widths: &[f64]) {
        assert_eq!(
            widths.len(),
            self.netlist.gate_count(),
            "sizing vector must match the gate count"
        );
        self.sizes = GateSizes::from_widths(widths.to_vec());
        self.recompute_from_scratch();
    }

    /// Recomputes everything from scratch (used by tests to validate the
    /// incremental path).
    pub fn recompute_from_scratch(&mut self) {
        self.delays = ArcDelays::compute(
            self.netlist,
            &self.model,
            &self.sizes,
            &self.variation,
            self.dt,
        );
        self.ssta = SstaAnalysis::run(&self.graph, &self.delays);
        self.parked = ParkedBounds::default();
    }

    /// Runs `sweep` with the parked bounds moved out beside a shared
    /// borrow of the circuit, then moves them back. A sweep that unwinds
    /// leaves the cache empty, which is always sound.
    pub(crate) fn with_parked_bounds<R>(
        &mut self,
        sweep: impl FnOnce(&TimedCircuit<'a>, &mut ParkedBounds) -> R,
    ) -> R {
        let mut parked = std::mem::take(&mut self.parked);
        let out = sweep(self, &mut parked);
        self.parked = parked;
        out
    }

    /// The parked bounds, for tests that check them against a fresh
    /// initialization.
    #[cfg(test)]
    pub(crate) fn parked_bounds(&self) -> &ParkedBounds {
        &self.parked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use statsize_netlist::{bench, shapes};

    #[test]
    fn commit_resize_matches_full_recompute() {
        let nl = bench::c17();
        let lib = CellLibrary::synthetic_180nm();
        let mut c = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), 0.5);
        let gates: Vec<GateId> = nl.gate_ids().collect();
        for (i, &g) in gates.iter().enumerate() {
            c.commit_resize(g, 0.5 + 0.25 * i as f64);
        }
        let incremental = c.ssta().clone();
        c.recompute_from_scratch();
        assert_eq!(&incremental, c.ssta(), "incremental SSTA must be exact");
    }

    #[test]
    fn overrides_do_not_mutate_state() {
        let nl = shapes::chain("c", 4);
        let lib = CellLibrary::synthetic_180nm();
        let c = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), 0.5);
        let before_sizes = c.sizes().clone();
        let before_ssta = c.ssta().clone();
        let g = nl.topological_gates()[1];
        let o = c.overrides_for_resize(g, 1.0);
        assert_eq!(o.len(), 2, "gate plus one fan-in driver");
        assert_eq!(c.sizes(), &before_sizes);
        assert_eq!(c.ssta(), &before_ssta);
    }

    #[test]
    fn override_distributions_reflect_the_resize() {
        let nl = shapes::chain("c", 3);
        let lib = CellLibrary::synthetic_180nm();
        let c = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), 0.25);
        let g1 = nl.topological_gates()[1];
        let g0 = nl.topological_gates()[0];
        let o = c.overrides_for_resize(g1, 1.0);
        let faster = o.get(g1).expect("resized gate overridden");
        let slower = o.get(g0).expect("fan-in overridden");
        assert!(faster.mean() < c.delays().dist(g1).mean());
        assert!(slower.mean() > c.delays().dist(g0).mean());
    }

    #[test]
    fn nominal_overrides_match_a_committed_resize() {
        let nl = bench::c17();
        let lib = CellLibrary::synthetic_180nm();
        let mut c = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), 0.5);
        let n16 = nl.find_net("16").unwrap();
        let g16 = nl.net(n16).driver().unwrap();
        let predicted = c.nominal_overrides_for_resize(g16, 0.75);
        c.commit_resize(g16, 0.75);
        for (g, nominal) in predicted {
            let actual = c.delays().nominal(g);
            assert!(
                (nominal - actual).abs() < 1e-9,
                "gate {g}: predicted {nominal} vs committed {actual}"
            );
        }
    }

    #[test]
    fn undoable_resize_round_trips_bit_exactly() {
        let nl = bench::c17();
        let lib = CellLibrary::synthetic_180nm();
        let mut c = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), 0.5);
        // Put the circuit in a non-trivial state first.
        let gates: Vec<GateId> = nl.gate_ids().collect();
        c.commit_resize(gates[2], 0.75);
        let before_sizes = c.sizes().clone();
        let before_delays = c.delays().clone();
        let before_ssta = c.ssta().clone();

        let undo = c.commit_resize_undoable(gates[3], 1.25);
        assert_ne!(c.ssta(), &before_ssta, "the resize must change arrivals");
        c.undo_resize(undo);
        assert_eq!(c.sizes(), &before_sizes);
        assert_eq!(c.delays(), &before_delays);
        assert_eq!(c.ssta(), &before_ssta);
    }

    #[test]
    fn state_detach_reattach_is_lossless() {
        let nl = bench::c17();
        let lib = CellLibrary::synthetic_180nm();
        let var = VariationModel::paper_default();
        let mut c = TimedCircuit::new(&nl, &lib, var, 0.5);
        let g = nl.gate_ids().next().unwrap();
        c.commit_resize(g, 0.5);
        let before_ssta = c.ssta().clone();

        let state = c.into_state();
        let state2 = state.clone();
        assert_eq!(state, state2, "clone compares equal");
        let c2 = TimedCircuit::from_state(&nl, &lib, var, 0.5, state);
        assert_eq!(c2.ssta(), &before_ssta);
        assert_eq!(c2.sizes().width(g), 1.5);
        // The re-attached circuit keeps the incremental-equals-full
        // contract: further commits stay exact.
        let mut c2 = c2;
        c2.commit_resize(g, 0.5);
        let incremental = c2.ssta().clone();
        c2.recompute_from_scratch();
        assert_eq!(&incremental, c2.ssta());
    }

    #[test]
    fn resize_improves_the_objective_on_a_chain() {
        let nl = shapes::chain("c", 5);
        let lib = CellLibrary::synthetic_180nm();
        let mut c = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), 0.5);
        let obj = Objective::percentile(0.99);
        let before = c.objective_value(obj);
        // Upsize the last gate (no fan-out penalty beyond the PO load).
        let last = *nl.topological_gates().last().unwrap();
        c.commit_resize(last, 1.0);
        assert!(c.objective_value(obj) < before);
        assert!(c.total_width() > 5.0);
        assert!(c.area() > 5.0);
    }
}
