//! Deterministic static timing analysis (nominal delays, critical path).
//!
//! This is the substrate of the paper's deterministic-optimization
//! baseline: sensitivities are computed only for gates on the critical
//! path, using nominal (mean) delays.

use crate::delays::ArcDelays;
use crate::graph::TimingGraph;
use crate::node::TimingNode;
use statsize_netlist::GateId;

/// The result of a deterministic STA pass: nominal arrival time per node
/// and the critical predecessor chain.
#[derive(Debug, Clone, PartialEq)]
pub struct StaResult {
    arrival: Vec<f64>,
    /// For each node, the in-edge realizing the max arrival:
    /// `(fan-in node, gate of the arc)`.
    critical_pred: Vec<Option<(TimingNode, Option<GateId>)>>,
}

/// Runs deterministic STA with the nominal delays of `delays`.
pub fn run_sta(graph: &TimingGraph, delays: &ArcDelays) -> StaResult {
    run_sta_with(graph, delays, &[])
}

/// Runs deterministic STA with selected gates' nominal delays replaced —
/// the trial-resize evaluation of the deterministic optimizer.
pub fn run_sta_with(
    graph: &TimingGraph,
    delays: &ArcDelays,
    nominal_overrides: &[(GateId, f64)],
) -> StaResult {
    let lookup = |g: GateId| -> f64 {
        nominal_overrides
            .iter()
            .find(|(og, _)| *og == g)
            .map(|&(_, d)| d)
            .unwrap_or_else(|| delays.nominal(g))
    };
    let mut arrival = vec![f64::NEG_INFINITY; graph.node_count()];
    let mut critical_pred: Vec<Option<(TimingNode, Option<GateId>)>> =
        vec![None; graph.node_count()];
    arrival[TimingNode::SOURCE.index()] = 0.0;

    for node in graph.nodes_in_level_order() {
        if node == TimingNode::SOURCE {
            continue;
        }
        let mut best = f64::NEG_INFINITY;
        let mut best_pred = None;
        for e in graph.in_edges(node) {
            let d = match e.gate {
                Some(g) => lookup(g),
                None => 0.0,
            };
            let t = arrival[e.from.index()] + d;
            if t > best {
                best = t;
                best_pred = Some((e.from, e.gate));
            }
        }
        arrival[node.index()] = best;
        critical_pred[node.index()] = best_pred;
    }
    StaResult {
        arrival,
        critical_pred,
    }
}

impl StaResult {
    /// Nominal arrival time at a node (ps).
    pub fn arrival(&self, node: TimingNode) -> f64 {
        self.arrival[node.index()]
    }

    /// The deterministic circuit delay: the nominal arrival at the sink.
    pub fn circuit_delay(&self) -> f64 {
        self.arrival(TimingNode::SINK)
    }

    /// The gates whose arcs lie on the critical path, in source→sink
    /// order. These are the only sizing candidates the deterministic
    /// optimizer considers (Section 3.1 of the paper).
    pub fn critical_gates(&self) -> Vec<GateId> {
        let mut gates = Vec::new();
        let mut cur = TimingNode::SINK;
        while let Some((pred, gate)) = self.critical_pred[cur.index()] {
            if let Some(g) = gate {
                gates.push(g);
            }
            cur = pred;
        }
        gates.reverse();
        gates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use statsize_cells::{CellLibrary, DelayModel, GateSizes, VariationModel};
    use statsize_netlist::{shapes, Netlist};

    fn sta_of(nl: &Netlist) -> (TimingGraph, ArcDelays, StaResult) {
        let lib = CellLibrary::synthetic_180nm();
        let model = DelayModel::new(&lib, nl);
        let sizes = GateSizes::minimum(nl);
        let var = VariationModel::paper_default();
        let graph = TimingGraph::build(nl);
        let delays = ArcDelays::compute(nl, &model, &sizes, &var, 1.0);
        let sta = run_sta(&graph, &delays);
        (graph, delays, sta)
    }

    #[test]
    fn chain_delay_is_sum_of_nominals() {
        let nl = shapes::chain("c", 5);
        let (_, delays, sta) = sta_of(&nl);
        let expected: f64 = nl.gate_ids().map(|g| delays.nominal(g)).sum();
        assert!((sta.circuit_delay() - expected).abs() < 1e-9);
    }

    #[test]
    fn critical_gates_follow_the_longest_bundle_path() {
        let nl = shapes::path_bundle("b", &[2, 6, 3]);
        let (_, _, sta) = sta_of(&nl);
        let gates = sta.critical_gates();
        assert_eq!(gates.len(), 6, "critical path is the 6-gate chain");
    }

    #[test]
    fn arrival_is_monotone_along_every_edge() {
        let nl = shapes::grid("g", 4, 4);
        let (graph, _, sta) = sta_of(&nl);
        for node in graph.nodes_in_level_order() {
            for e in graph.in_edges(node) {
                assert!(sta.arrival(node) >= sta.arrival(e.from) - 1e-12);
            }
        }
    }
}
