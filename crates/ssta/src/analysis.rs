//! Full block-based SSTA passes and incremental re-analysis.

use crate::delays::ArcDelays;
use crate::graph::TimingGraph;
use crate::node::TimingNode;
use crate::propagate::{ConeWalk, DelayOverrides};
use statsize_dist::Dist;
use statsize_netlist::GateId;

/// The result of a block-based SSTA pass: one arrival-time distribution
/// per timing-graph node, computed in a single topological traversal with
/// convolution (edges) and the independence-approximation statistical max
/// (fan-in merges).
///
/// Reconvergent-fanout correlations are ignored, which makes the sink
/// distribution an *upper bound* on the true circuit-delay CDF (Agarwal et
/// al., DAC 2003); the paper defines its optimization objective on this
/// bound and validates it against Monte Carlo (< 1% at the 99-percentile).
#[derive(Debug, Clone, PartialEq)]
pub struct SstaAnalysis {
    arrivals: Vec<Dist>,
    dt: f64,
}

impl SstaAnalysis {
    /// Runs a full SSTA pass over the circuit.
    pub fn run(graph: &TimingGraph, delays: &ArcDelays) -> Self {
        let dt = delays.dt();
        let source_arrival = Dist::point(dt, 0.0);
        let mut arrivals: Vec<Option<Dist>> = vec![None; graph.node_count()];
        arrivals[TimingNode::SOURCE.index()] = Some(source_arrival);

        let no_overrides = DelayOverrides::none();
        // One buffer pool for the whole pass: every node's intermediate
        // fan-in accumulators recycle through it.
        let mut scratch = statsize_dist::DistScratch::new();
        for level in 1..=graph.sink_level() {
            for &node in graph.nodes_at_level(level) {
                let arrival = crate::propagate::node_arrival(
                    graph,
                    node,
                    delays,
                    &no_overrides,
                    |n| {
                        arrivals[n.index()]
                            .as_ref()
                            .expect("fan-in arrivals are computed at lower levels")
                    },
                    &mut scratch,
                    None,
                );
                arrivals[node.index()] = Some(arrival);
            }
        }
        let arrivals = arrivals
            .into_iter()
            .map(|a| a.expect("every node is reachable from the source"))
            .collect();
        Self { arrivals, dt }
    }

    /// The lattice step of all arrival distributions.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Arrival-time distribution at a node.
    pub fn arrival(&self, node: TimingNode) -> &Dist {
        &self.arrivals[node.index()]
    }

    /// The circuit-delay distribution: the arrival time at the sink.
    pub fn sink_arrival(&self) -> &Dist {
        self.arrival(TimingNode::SINK)
    }

    /// The `p`-percentile circuit delay `T(A_nf, p)` — the paper's
    /// objective function (used with `p = 0.99`).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `(0, 1)`.
    pub fn circuit_delay_percentile(&self, p: f64) -> f64 {
        self.sink_arrival().percentile(p)
    }

    /// Re-propagates arrival times in the fan-out cone of the given gates,
    /// after their entries in `delays` were refreshed (e.g. following a
    /// sizing commit). Exactly equivalent to re-running
    /// [`SstaAnalysis::run`], but touches only the affected cone.
    ///
    /// Returns the arrival distributions the update overwrote; callers
    /// that never revert simply drop it. Handing the [`SstaUndo`] to
    /// [`apply_undo`](Self::apply_undo) restores the analysis to its
    /// pre-update state **bit-for-bit** — the overwritten `Dist`s are
    /// moved out and moved back, never recomputed — which is what makes
    /// speculative what-if queries exact without cloning the whole
    /// analysis.
    pub fn update_after_delay_change(
        &mut self,
        graph: &TimingGraph,
        delays: &ArcDelays,
        changed_gates: &[GateId],
    ) -> SstaUndo {
        let seeds: Vec<TimingNode> = changed_gates
            .iter()
            .map(|&g| graph.out_node_of_gate(g))
            .collect();
        let mut walk = ConeWalk::with_seeds(graph, delays, self, DelayOverrides::none(), &seeds);
        walk.run_to_sink();
        let mut prior = Vec::new();
        for (node, dist) in walk.into_perturbed() {
            prior.push((
                node,
                std::mem::replace(&mut self.arrivals[node.index()], dist),
            ));
        }
        SstaUndo { prior }
    }

    /// [`update_after_delay_change`](Self::update_after_delay_change)
    /// with a `policy` argument that carries no choice (see
    /// [`statsize_dist::TierPolicy`]) and is ignored.
    pub fn update_after_delay_change_with_undo(
        &mut self,
        graph: &TimingGraph,
        delays: &ArcDelays,
        changed_gates: &[GateId],
        _policy: statsize_dist::TierPolicy,
    ) -> SstaUndo {
        self.update_after_delay_change(graph, delays, changed_gates)
    }

    /// Reverts one incremental update by moving the captured prior
    /// arrivals back into place. Must be applied to the same analysis
    /// the [`SstaUndo`] was taken from, with no other updates in
    /// between; under that discipline the analysis compares equal (in
    /// the bit-exact `PartialEq` sense) to its state before the update.
    pub fn apply_undo(&mut self, undo: SstaUndo) {
        for (node, dist) in undo.prior {
            self.arrivals[node.index()] = dist;
        }
    }
}

/// The inverse record of one incremental SSTA update: the overwritten
/// arrival distributions, keyed by node. Produced by
/// [`SstaAnalysis::update_after_delay_change`] and consumed by
/// [`SstaAnalysis::apply_undo`].
#[derive(Debug, Clone)]
pub struct SstaUndo {
    prior: Vec<(TimingNode, Dist)>,
}

impl SstaUndo {
    /// Number of nodes the update perturbed (and the undo will restore).
    pub fn perturbed_nodes(&self) -> usize {
        self.prior.len()
    }

    /// The nodes the update recomputed: the whole fan-out cone of the
    /// changed gates' outputs, up to and including the sink.
    pub fn recomputed_nodes(&self) -> impl Iterator<Item = TimingNode> + '_ {
        self.prior.iter().map(|&(node, _)| node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use statsize_cells::{CellLibrary, DelayModel, GateSizes, VariationModel};
    use statsize_netlist::{bench, shapes, Netlist};

    fn analyze(nl: &Netlist, dt: f64) -> (TimingGraph, ArcDelays, SstaAnalysis) {
        let lib = CellLibrary::synthetic_180nm();
        let model = DelayModel::new(&lib, nl);
        let sizes = GateSizes::minimum(nl);
        let var = VariationModel::paper_default();
        let graph = TimingGraph::build(nl);
        let delays = ArcDelays::compute(nl, &model, &sizes, &var, dt);
        let ssta = SstaAnalysis::run(&graph, &delays);
        (graph, delays, ssta)
    }

    #[test]
    fn chain_delay_is_sum_of_gate_delays() {
        let nl = shapes::chain("c", 6);
        let (graph, delays, ssta) = analyze(&nl, 0.5);
        let expected: f64 = nl.gate_ids().map(|g| delays.nominal(g)).sum();
        let mean = ssta.sink_arrival().mean();
        assert!(
            (mean - expected).abs() < 0.5,
            "mean {mean} vs sum of nominals {expected}"
        );
        // Variance of a sum of independent delays is the sum of variances.
        let var_expected: f64 = nl.gate_ids().map(|g| delays.dist(g).variance()).sum();
        let var = ssta.sink_arrival().variance();
        assert!(
            (var - var_expected).abs() / var_expected < 0.01,
            "variance {var} vs {var_expected}"
        );
        let _ = graph;
    }

    #[test]
    fn percentiles_are_ordered() {
        let nl = bench::c17();
        let (_, _, ssta) = analyze(&nl, 0.5);
        let t50 = ssta.circuit_delay_percentile(0.50);
        let t90 = ssta.circuit_delay_percentile(0.90);
        let t99 = ssta.circuit_delay_percentile(0.99);
        assert!(t50 < t90 && t90 < t99);
    }

    #[test]
    fn sink_dominates_every_po_arrival() {
        let nl = shapes::path_bundle("b", &[4, 6, 8]);
        let (graph, _, ssta) = analyze(&nl, 0.5);
        let sink = ssta.sink_arrival();
        for &po in nl.primary_outputs() {
            let a = ssta.arrival(graph.node_of_net(po));
            // Stochastic dominance: sink CDF ≤ each PO CDF pointwise.
            for bin in 0..sink.support_len() {
                let t = (sink.offset() + bin as i64) as f64 * sink.dt() + 0.25;
                assert!(sink.cdf_at(t) <= a.cdf_at(t) + 1e-9);
            }
        }
    }

    #[test]
    fn deterministic_variation_reduces_to_sta() {
        let nl = bench::c17();
        let lib = CellLibrary::synthetic_180nm();
        let model = DelayModel::new(&lib, &nl);
        let sizes = GateSizes::minimum(&nl);
        let var = VariationModel::deterministic();
        let graph = TimingGraph::build(&nl);
        let delays = ArcDelays::compute(&nl, &model, &sizes, &var, 0.25);
        let ssta = SstaAnalysis::run(&graph, &delays);
        let sta = crate::sta::run_sta(&graph, &delays);
        assert!(
            (ssta.sink_arrival().mean() - sta.circuit_delay()).abs() < 0.5,
            "ssta {} vs sta {}",
            ssta.sink_arrival().mean(),
            sta.circuit_delay()
        );
    }

    #[test]
    fn incremental_update_matches_full_rerun() {
        let nl = bench::c17();
        let lib = CellLibrary::synthetic_180nm();
        let model = DelayModel::new(&lib, &nl);
        let mut sizes = GateSizes::minimum(&nl);
        let var = VariationModel::paper_default();
        let graph = TimingGraph::build(&nl);
        let mut delays = ArcDelays::compute(&nl, &model, &sizes, &var, 0.5);
        let mut ssta = SstaAnalysis::run(&graph, &delays);

        // Resize a mid-circuit gate and update incrementally.
        let n16 = nl.find_net("16").unwrap();
        let g16 = nl.net(n16).driver().unwrap();
        sizes.resize(g16, 1.0);
        let affected = ArcDelays::affected_by_resize(&nl, g16);
        delays.update_gates(&nl, &model, &sizes, &var, affected.iter().copied());
        ssta.update_after_delay_change(&graph, &delays, &affected);

        let full = SstaAnalysis::run(&graph, &delays);
        assert_eq!(ssta, full, "incremental and full SSTA must agree exactly");
    }

    /// The update recomputes the changed gates' outputs and everything
    /// downstream of them: a set closed under fan-out.
    #[test]
    fn recomputed_nodes_are_closed_under_fan_out() {
        let nl = bench::c17();
        let (graph, delays, mut ssta) = analyze(&nl, 0.5);
        for gate in nl.gate_ids() {
            let affected = ArcDelays::affected_by_resize(&nl, gate);
            let undo = ssta.update_after_delay_change(&graph, &delays, &affected);
            let recomputed: std::collections::HashSet<TimingNode> =
                undo.recomputed_nodes().collect();
            for &g in &affected {
                assert!(recomputed.contains(&graph.out_node_of_gate(g)));
            }
            for &node in &recomputed {
                for out in graph.out_nodes(node) {
                    assert!(recomputed.contains(out), "{node} -> {out} left out");
                }
            }
            ssta.apply_undo(undo);
        }
    }

    #[test]
    fn undoable_update_round_trips_bit_exactly() {
        let nl = bench::c17();
        let lib = CellLibrary::synthetic_180nm();
        let model = DelayModel::new(&lib, &nl);
        let mut sizes = GateSizes::minimum(&nl);
        let var = VariationModel::paper_default();
        let graph = TimingGraph::build(&nl);
        let mut delays = ArcDelays::compute(&nl, &model, &sizes, &var, 0.5);
        let mut ssta = SstaAnalysis::run(&graph, &delays);
        let pristine = ssta.clone();

        let n16 = nl.find_net("16").unwrap();
        let g16 = nl.net(n16).driver().unwrap();
        // Capture the delay entries the resize will clobber, then resize.
        let affected = ArcDelays::affected_by_resize(&nl, g16);
        let captured: Vec<_> = affected
            .iter()
            .map(|&g| (g, delays.nominal(g), delays.dist(g).clone()))
            .collect();
        sizes.resize(g16, 1.0);
        delays.update_gates(&nl, &model, &sizes, &var, affected.iter().copied());
        let undo = ssta.update_after_delay_change(&graph, &delays, &affected);
        assert!(undo.perturbed_nodes() > 0);
        assert_ne!(ssta, pristine, "the update must actually change arrivals");

        // Undo both layers: arrivals via SstaUndo, delays via restore.
        ssta.apply_undo(undo);
        for (g, nominal, dist) in captured {
            delays.restore(g, nominal, dist);
        }
        assert_eq!(ssta, pristine, "undo must restore arrivals bit-exactly");
        let recomputed = {
            sizes.resize(g16, -1.0);
            ArcDelays::compute(&nl, &model, &sizes, &var, 0.5)
        };
        assert_eq!(
            delays, recomputed,
            "restored delays match the original sizing"
        );
    }
}
