//! The timing graph (paper Definition 1).

use crate::node::TimingNode;
use statsize_netlist::{GateId, NetId, Netlist};

/// An incoming edge of a timing-graph node: where the arrival time comes
/// from and which gate's pin-to-pin delay the edge carries (`None` for the
/// zero-delay source→PI and PO→sink edges).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InEdge {
    /// Tail node of the edge.
    pub from: TimingNode,
    /// The gate whose delay this arc carries, if any.
    pub gate: Option<GateId>,
}

/// The paper's timing graph `G = {N, E, ns, nf}`: nodes are the circuit's
/// nets plus a virtual source and sink; edges are gate input→output arcs
/// plus zero-delay edges from the source to every primary input and from
/// every primary output to the sink.
///
/// Nodes carry longest-path levels: `level(source) = 0`, a net's level is
/// one more than its logic level, and the sink sits above everything.
/// Levels strictly increase along every edge, which is what allows the
/// paper's breadth-first, level-by-level propagation of perturbation
/// fronts ([`ConeWalk`](crate::ConeWalk)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimingGraph {
    in_edges: Vec<Vec<InEdge>>,
    out_nodes: Vec<Vec<TimingNode>>,
    level: Vec<u32>,
    nodes_by_level: Vec<Vec<TimingNode>>,
    gate_out: Vec<TimingNode>,
    node_count: usize,
    edge_count: usize,
}

impl TimingGraph {
    /// Builds the timing graph of a netlist.
    pub fn build(netlist: &Netlist) -> Self {
        let node_count = netlist.net_count() + 2;
        let mut in_edges: Vec<Vec<InEdge>> = vec![Vec::new(); node_count];
        let mut out_nodes: Vec<Vec<TimingNode>> = vec![Vec::new(); node_count];
        let mut level = vec![0u32; node_count];
        let mut edge_count = 0usize;

        let mut add_edge = |from: TimingNode, to: TimingNode, gate: Option<GateId>| {
            in_edges[to.index()].push(InEdge { from, gate });
            out_nodes[from.index()].push(to);
            edge_count += 1;
        };

        for &pi in netlist.primary_inputs() {
            add_edge(TimingNode::SOURCE, Self::node_of_net_impl(pi), None);
        }
        for gid in netlist.gate_ids() {
            let gate = netlist.gate(gid);
            let to = Self::node_of_net_impl(gate.output());
            for &input in gate.inputs() {
                add_edge(Self::node_of_net_impl(input), to, Some(gid));
            }
        }
        for &po in netlist.primary_outputs() {
            add_edge(Self::node_of_net_impl(po), TimingNode::SINK, None);
        }

        let mut max_level = 0u32;
        for net in netlist.net_ids() {
            let l = netlist.level(net) as u32 + 1;
            level[Self::node_of_net_impl(net).index()] = l;
            max_level = max_level.max(l);
        }
        level[TimingNode::SOURCE.index()] = 0;
        level[TimingNode::SINK.index()] = max_level + 1;

        let mut nodes_by_level: Vec<Vec<TimingNode>> = vec![Vec::new(); (max_level + 2) as usize];
        for i in 0..node_count {
            nodes_by_level[level[i] as usize].push(TimingNode(i as u32));
        }

        let gate_out = netlist
            .gate_ids()
            .map(|g| Self::node_of_net_impl(netlist.gate(g).output()))
            .collect();

        Self {
            in_edges,
            out_nodes,
            level,
            nodes_by_level,
            gate_out,
            node_count,
            edge_count,
        }
    }

    /// The timing-graph node carrying a gate's output net — where that
    /// gate's delay perturbations first appear.
    pub fn out_node_of_gate(&self, gate: GateId) -> TimingNode {
        self.gate_out[gate.index()]
    }

    fn node_of_net_impl(net: NetId) -> TimingNode {
        TimingNode(net.index() as u32 + 2)
    }

    /// The timing-graph node of a net.
    pub fn node_of_net(&self, net: NetId) -> TimingNode {
        Self::node_of_net_impl(net)
    }

    /// The net of a timing-graph node, or `None` for source/sink.
    pub fn net_of_node(&self, node: TimingNode) -> Option<NetId> {
        if node == TimingNode::SOURCE || node == TimingNode::SINK {
            None
        } else {
            Some(NetId::from_index(node.index() - 2))
        }
    }

    /// Number of nodes (nets + 2), as reported in the paper's Table 1.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of edges, as reported in the paper's Table 1.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Incoming edges of a node (empty only for the source).
    pub fn in_edges(&self, node: TimingNode) -> &[InEdge] {
        &self.in_edges[node.index()]
    }

    /// Fan-out nodes of a node (a target appears once per connecting arc).
    pub fn out_nodes(&self, node: TimingNode) -> &[TimingNode] {
        &self.out_nodes[node.index()]
    }

    /// Longest-path level of a node; strictly increases along every edge.
    pub fn level(&self, node: TimingNode) -> u32 {
        self.level[node.index()]
    }

    /// The sink's level — the "# of levels in G" of the paper's Figure 6.
    pub fn sink_level(&self) -> u32 {
        self.level[TimingNode::SINK.index()]
    }

    /// Nodes at a given level, in id order.
    pub fn nodes_at_level(&self, level: u32) -> &[TimingNode] {
        static EMPTY: Vec<TimingNode> = Vec::new();
        self.nodes_by_level.get(level as usize).unwrap_or(&EMPTY)
    }

    /// Iterates all nodes in level order (source first, sink last).
    pub fn nodes_in_level_order(&self) -> impl Iterator<Item = TimingNode> + '_ {
        self.nodes_by_level.iter().flatten().copied()
    }

    /// Adds a zero-delay source edge in front of `to`'s other in-edges —
    /// a shape no netlist produces (a gate-driven net is never a primary
    /// input), which exercises a fan-in fold meeting a wire edge before
    /// a gate edge.
    #[cfg(test)]
    pub(crate) fn prepend_source_edge(&mut self, to: TimingNode) {
        let edge = InEdge {
            from: TimingNode::SOURCE,
            gate: None,
        };
        self.in_edges[to.index()].insert(0, edge);
        self.out_nodes[TimingNode::SOURCE.index()].push(to);
        self.edge_count += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use statsize_netlist::{bench, shapes};

    #[test]
    fn c17_counts_match_structure() {
        let nl = bench::c17();
        let g = TimingGraph::build(&nl);
        let s = nl.stats();
        assert_eq!(g.node_count(), s.timing_nodes);
        assert_eq!(g.edge_count(), s.timing_edges);
    }

    #[test]
    fn levels_strictly_increase_along_edges() {
        let nl = shapes::grid("g", 4, 4);
        let g = TimingGraph::build(&nl);
        for node in g.nodes_in_level_order() {
            for e in g.in_edges(node) {
                assert!(
                    g.level(e.from) < g.level(node),
                    "edge {} -> {} does not increase level",
                    e.from,
                    node
                );
            }
        }
    }

    #[test]
    fn source_and_sink_are_unique_endpoints() {
        let nl = bench::c17();
        let g = TimingGraph::build(&nl);
        assert!(g.in_edges(TimingNode::SOURCE).is_empty());
        assert!(g.out_nodes(TimingNode::SINK).is_empty());
        assert_eq!(
            g.in_edges(TimingNode::SINK).len(),
            nl.primary_outputs().len()
        );
        assert_eq!(
            g.out_nodes(TimingNode::SOURCE).len(),
            nl.primary_inputs().len()
        );
    }

    #[test]
    fn net_node_round_trip() {
        let nl = bench::c17();
        let g = TimingGraph::build(&nl);
        for net in nl.net_ids() {
            let node = g.node_of_net(net);
            assert_eq!(g.net_of_node(node), Some(net));
        }
        assert_eq!(g.net_of_node(TimingNode::SOURCE), None);
        assert_eq!(g.net_of_node(TimingNode::SINK), None);
    }

    #[test]
    fn out_nodes_mirror_in_edges() {
        let nl = shapes::diamond("d", 3);
        let g = TimingGraph::build(&nl);
        let mut out_total = 0;
        let mut in_total = 0;
        for node in g.nodes_in_level_order() {
            out_total += g.out_nodes(node).len();
            in_total += g.in_edges(node).len();
        }
        assert_eq!(out_total, in_total);
        assert_eq!(out_total, g.edge_count());
    }
}
