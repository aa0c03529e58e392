//! The validated netlist representation and its derived graph properties.

use crate::id::{GateId, NetId};
use crate::GateKind;
use std::collections::HashMap;

/// A net: a named wire driven by at most one gate and consumed by any
/// number of gate inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Net {
    pub(crate) name: String,
    pub(crate) driver: Option<GateId>,
    pub(crate) loads: Vec<GateId>,
    pub(crate) is_output: bool,
}

impl Net {
    /// The net's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The gate driving this net, or `None` for a primary input.
    pub fn driver(&self) -> Option<GateId> {
        self.driver
    }

    /// The gates whose inputs this net feeds. A gate appears once per input
    /// pin it connects to.
    pub fn loads(&self) -> &[GateId] {
        &self.loads
    }

    /// True if the net is a primary output.
    pub fn is_primary_output(&self) -> bool {
        self.is_output
    }
}

/// A gate instance: a logic function, input nets, and one output net.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gate {
    pub(crate) kind: GateKind,
    pub(crate) inputs: Vec<NetId>,
    pub(crate) output: NetId,
}

impl Gate {
    /// The gate's logic function.
    pub fn kind(&self) -> GateKind {
        self.kind
    }

    /// Input nets, in pin order.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// The output net.
    pub fn output(&self) -> NetId {
        self.output
    }

    /// Number of input pins.
    pub fn fanin(&self) -> usize {
        self.inputs.len()
    }
}

/// Structural statistics of a netlist, including the timing-graph node and
/// edge counts reported in the paper's Table 1 (column 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetlistStats {
    /// Number of nets (primary inputs + gate outputs).
    pub nets: usize,
    /// Number of gates.
    pub gates: usize,
    /// Number of primary inputs.
    pub primary_inputs: usize,
    /// Number of primary outputs.
    pub primary_outputs: usize,
    /// Total gate input pins (pin-to-pin delay arcs).
    pub arcs: usize,
    /// Timing-graph nodes: nets plus virtual source and sink.
    pub timing_nodes: usize,
    /// Timing-graph edges: arcs plus source→PI and PO→sink edges.
    pub timing_edges: usize,
    /// Maximum logic level over all nets (primary inputs are level 0).
    pub depth: usize,
}

/// A validated, acyclic, gate-level combinational netlist.
///
/// Construct via [`NetlistBuilder`](crate::NetlistBuilder), the
/// [`bench`](crate::bench) parser, or the [`generator`](crate::generator).
/// All structural invariants hold by construction:
///
/// * every net has exactly one driver or is a primary input,
/// * every gate has ≥ 1 input (single-input kinds have exactly 1),
/// * the gate graph is acyclic,
/// * every net is consumed by a gate or marked as a primary output,
/// * there is at least one primary input and one primary output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Netlist {
    pub(crate) name: String,
    pub(crate) nets: Vec<Net>,
    pub(crate) gates: Vec<Gate>,
    pub(crate) primary_inputs: Vec<NetId>,
    pub(crate) primary_outputs: Vec<NetId>,
    /// Logic level per net: PIs at 0, a gate output at
    /// `1 + max(level of inputs)`.
    pub(crate) levels: Vec<usize>,
    /// Gates in topological order (by level, then id).
    pub(crate) topo_gates: Vec<GateId>,
}

impl Netlist {
    /// The netlist's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Number of gates.
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Looks up a net by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is not from this netlist.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// Looks up a gate by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is not from this netlist.
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// Finds a net by name.
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.nets
            .iter()
            .position(|n| n.name == name)
            .map(NetId::from_index)
    }

    /// Primary-input nets, in declaration order.
    pub fn primary_inputs(&self) -> &[NetId] {
        &self.primary_inputs
    }

    /// Primary-output nets, in declaration order.
    pub fn primary_outputs(&self) -> &[NetId] {
        &self.primary_outputs
    }

    /// Iterates over all net ids.
    pub fn net_ids(&self) -> impl Iterator<Item = NetId> + '_ {
        (0..self.nets.len()).map(NetId::from_index)
    }

    /// Iterates over all gate ids.
    pub fn gate_ids(&self) -> impl Iterator<Item = GateId> + '_ {
        (0..self.gates.len()).map(GateId::from_index)
    }

    /// Gates in topological (level) order: every gate appears after all
    /// gates driving its inputs.
    pub fn topological_gates(&self) -> &[GateId] {
        &self.topo_gates
    }

    /// Logic level of a net: primary inputs are level 0, a gate output is
    /// one more than the maximum level of the gate's inputs.
    pub fn level(&self, net: NetId) -> usize {
        self.levels[net.index()]
    }

    /// Maximum logic level over all nets.
    pub fn depth(&self) -> usize {
        self.levels.iter().copied().max().unwrap_or(0)
    }

    /// Total number of gate input pins (pin-to-pin timing arcs).
    pub fn arc_count(&self) -> usize {
        self.gates.iter().map(|g| g.inputs.len()).sum()
    }

    /// Structural statistics, including the paper's timing-graph node/edge
    /// counts (Table 1 column 2).
    pub fn stats(&self) -> NetlistStats {
        let arcs = self.arc_count();
        NetlistStats {
            nets: self.nets.len(),
            gates: self.gates.len(),
            primary_inputs: self.primary_inputs.len(),
            primary_outputs: self.primary_outputs.len(),
            arcs,
            timing_nodes: self.nets.len() + 2,
            timing_edges: arcs + self.primary_inputs.len() + self.primary_outputs.len(),
            depth: self.depth(),
        }
    }

    /// Evaluates the circuit on a primary-input assignment, returning the
    /// value of every net. Useful for functional sanity checks of parsers
    /// and generators.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` does not cover every primary input.
    pub fn evaluate(&self, inputs: &HashMap<NetId, bool>) -> Vec<bool> {
        let mut values = vec![false; self.nets.len()];
        for &pi in &self.primary_inputs {
            values[pi.index()] = *inputs
                .get(&pi)
                .unwrap_or_else(|| panic!("missing value for primary input {}", pi));
        }
        let mut buf = Vec::new();
        for &gid in &self.topo_gates {
            let gate = &self.gates[gid.index()];
            buf.clear();
            buf.extend(gate.inputs.iter().map(|n| values[n.index()]));
            values[gate.output.index()] = gate.kind.eval(&buf);
        }
        values
    }

    /// Computes net levels and the topological gate order for a structurally
    /// complete netlist. Used by constructors after cycle checking.
    pub(crate) fn compute_levels(nets: &[Net], gates: &[Gate]) -> (Vec<usize>, Vec<GateId>) {
        let mut levels = vec![0usize; nets.len()];
        // Kahn's algorithm over gates by in-degree on *driven* inputs.
        let mut remaining: Vec<usize> = gates
            .iter()
            .map(|g| {
                g.inputs
                    .iter()
                    .filter(|n| nets[n.index()].driver.is_some())
                    .count()
            })
            .collect();
        let mut ready: Vec<GateId> = gates
            .iter()
            .enumerate()
            .filter(|(_, g)| g.inputs.iter().all(|n| nets[n.index()].driver.is_none()))
            .map(|(i, _)| GateId::from_index(i))
            .collect();
        let mut topo = Vec::with_capacity(gates.len());
        while let Some(gid) = ready.pop() {
            topo.push(gid);
            let gate = &gates[gid.index()];
            let lvl = 1 + gate
                .inputs
                .iter()
                .map(|n| levels[n.index()])
                .max()
                .unwrap_or(0);
            levels[gate.output.index()] = lvl;
            for &load in &nets[gate.output.index()].loads {
                remaining[load.index()] -= 1;
                if remaining[load.index()] == 0 {
                    ready.push(load);
                }
            }
        }
        debug_assert_eq!(topo.len(), gates.len(), "cycle slipped past validation");
        // Deterministic order: sort by (level of output, id).
        topo.sort_by_key(|g| (levels[gates[g.index()].output.index()], g.index()));
        (levels, topo)
    }
}

#[cfg(test)]
mod tests {
    use crate::{GateKind, NetlistBuilder};
    use std::collections::HashMap;

    fn full_adder() -> crate::Netlist {
        let mut b = NetlistBuilder::new("full_adder");
        for n in ["a", "b", "cin"] {
            b.input(n).unwrap();
        }
        b.gate(GateKind::Xor, "ab", &["a", "b"]).unwrap();
        b.gate(GateKind::Xor, "sum", &["ab", "cin"]).unwrap();
        b.gate(GateKind::And, "t1", &["ab", "cin"]).unwrap();
        b.gate(GateKind::And, "t2", &["a", "b"]).unwrap();
        b.gate(GateKind::Or, "cout", &["t1", "t2"]).unwrap();
        b.output("sum").unwrap();
        b.output("cout").unwrap();
        b.build().unwrap()
    }

    #[test]
    fn stats_count_structure() {
        let nl = full_adder();
        let s = nl.stats();
        assert_eq!(s.nets, 8);
        assert_eq!(s.gates, 5);
        assert_eq!(s.primary_inputs, 3);
        assert_eq!(s.primary_outputs, 2);
        assert_eq!(s.arcs, 10);
        assert_eq!(s.timing_nodes, 10);
        assert_eq!(s.timing_edges, 15);
        // Longest path: a → ab → t1 → cout.
        assert_eq!(s.depth, 3);
    }

    #[test]
    fn levels_follow_longest_path() {
        let nl = full_adder();
        let ab = nl.find_net("ab").unwrap();
        let sum = nl.find_net("sum").unwrap();
        let cout = nl.find_net("cout").unwrap();
        assert_eq!(nl.level(ab), 1);
        assert_eq!(nl.level(sum), 2);
        assert_eq!(nl.level(cout), 3);
        assert_eq!(nl.level(nl.find_net("a").unwrap()), 0);
    }

    #[test]
    fn topological_order_respects_dependencies() {
        let nl = full_adder();
        let mut seen = vec![false; nl.net_count()];
        for &pi in nl.primary_inputs() {
            seen[pi.index()] = true;
        }
        for &gid in nl.topological_gates() {
            let g = nl.gate(gid);
            for &inp in g.inputs() {
                assert!(seen[inp.index()], "input {} not ready", nl.net(inp).name());
            }
            seen[g.output().index()] = true;
        }
    }

    #[test]
    fn evaluate_computes_full_adder_truth_table() {
        let nl = full_adder();
        let a = nl.find_net("a").unwrap();
        let b = nl.find_net("b").unwrap();
        let cin = nl.find_net("cin").unwrap();
        let sum = nl.find_net("sum").unwrap();
        let cout = nl.find_net("cout").unwrap();
        for bits in 0..8u8 {
            let (va, vb, vc) = (bits & 1 != 0, bits & 2 != 0, bits & 4 != 0);
            let mut inputs = HashMap::new();
            inputs.insert(a, va);
            inputs.insert(b, vb);
            inputs.insert(cin, vc);
            let values = nl.evaluate(&inputs);
            let total = va as u8 + vb as u8 + vc as u8;
            assert_eq!(values[sum.index()], total % 2 == 1, "sum at {bits:03b}");
            assert_eq!(values[cout.index()], total >= 2, "cout at {bits:03b}");
        }
    }

    #[test]
    fn loads_are_tracked_per_pin() {
        let nl = full_adder();
        let ab = nl.find_net("ab").unwrap();
        assert_eq!(nl.net(ab).loads().len(), 2);
        let a = nl.find_net("a").unwrap();
        assert_eq!(nl.net(a).loads().len(), 2);
    }
}
