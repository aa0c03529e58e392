//! Bounded-lookahead heuristic selection (the paper's "future work").
//!
//! Section 4 observes that when many gates have similar sensitivities,
//! exact identification of the argmax is expensive *and* unimportant for
//! optimization quality, and proposes "fast heuristics for finding the
//! most sensitive gate" as future work. This selector implements the
//! natural such heuristic: propagate each candidate's perturbation front
//! only a fixed number of levels past initialization and select on the
//! front bound `Smx` (an upper bound on the exact sensitivity). With
//! `lookahead = ∞` it degenerates to exact brute force; with `lookahead =
//! 0` it ranks gates by their local perturbation only.

use crate::circuit::TimedCircuit;
use crate::deadline::{Deadline, DeadlineExceeded};
use crate::objective::Objective;
use crate::parallel::{default_threads, normalize_threads, run_indexed};
use crate::selection::Selection;
use statsize_dist::{lattice_shift_bound, DistScratch};
use statsize_netlist::GateId;
use statsize_ssta::{ConeWalk, EdgeConvMemo, TimingNode};
use std::collections::HashMap;

/// Approximate selector: rank candidates by the perturbation-front bound
/// after a fixed number of propagation levels.
///
/// Candidate scores are independent of each other (there is no shared
/// pruning threshold), so the sweep parallelizes embarrassingly: with
/// [`with_threads`](Self::with_threads) `> 1`, workers steal candidates
/// from a shared cursor, and the scores are reduced in gate order by the
/// deterministic (sensitivity, lowest gate id) order — the result is
/// bit-identical for every thread count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeuristicSelector {
    delta_w: f64,
    lookahead: usize,
    threads: usize,
    deadline: Deadline,
}

impl HeuristicSelector {
    /// Creates a selector propagating each front at most `lookahead`
    /// levels beyond its initialization before scoring it.
    ///
    /// The sweep runs serially by default; see
    /// [`with_threads`](Self::with_threads) (and the
    /// `STATSIZE_SELECTOR_THREADS` environment variable, which overrides
    /// the default for every selector).
    ///
    /// # Panics
    ///
    /// Panics if `delta_w` is not finite and positive.
    pub fn new(delta_w: f64, lookahead: usize) -> Self {
        assert!(
            delta_w.is_finite() && delta_w > 0.0,
            "Δw must be finite and positive, got {delta_w}"
        );
        Self {
            delta_w,
            lookahead,
            threads: default_threads(),
            deadline: Deadline::none(),
        }
    }

    /// The trial width increment.
    pub fn delta_w(&self) -> f64 {
        self.delta_w
    }

    /// Sets a cooperative [`Deadline`] for the sweep (default: none),
    /// polled once per candidate lookahead walk. Use
    /// [`try_select`](Self::try_select) with a deadline set; the
    /// infallible [`select`](Self::select) panics on expiry.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = deadline;
        self
    }

    /// The lookahead depth in levels.
    pub fn lookahead(&self) -> usize {
        self.lookahead
    }

    /// Overrides the worker-thread count for the candidate sweep,
    /// mirroring [`MonteCarlo::with_threads`](statsize_ssta::MonteCarlo::with_threads):
    /// results are bit-identical for every thread count. `0` is clamped
    /// to 1; counts above the number of candidate gates are capped at it.
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

    /// One candidate's bounded-lookahead score: the front bound, or the
    /// exact sensitivity if the front reached the sink within the
    /// lookahead.
    fn score(
        &self,
        circuit: &TimedCircuit<'_>,
        objective: Objective,
        base_cost: f64,
        gate: GateId,
        scratch: &mut DistScratch,
        memo: &mut EdgeConvMemo<'_>,
    ) -> Selection {
        let base = circuit.ssta();
        let overrides = circuit.overrides_for_resize(gate, self.delta_w);
        let mut walk =
            ConeWalk::new(circuit.graph(), circuit.delays(), base, overrides).evicting_retired();
        let own_level = circuit
            .graph()
            .level(circuit.graph().out_node_of_gate(gate));

        let mut deltas: HashMap<TimingNode, f64> = HashMap::new();
        let mut budget = self.lookahead;
        let mut exact: Option<f64> = None;
        while let Some(level) = walk.next_level() {
            if level > own_level {
                if budget == 0 {
                    break;
                }
                budget -= 1;
            }
            let report = walk
                .step_level_memoized(scratch, memo)
                .expect("level observed pending");
            for &node in &report.computed {
                if node == TimingNode::SINK {
                    continue;
                }
                let p = walk.perturbed(node).expect("just computed");
                deltas.insert(node, lattice_shift_bound(base.arrival(node), p));
            }
            for &node in &report.retired {
                deltas.remove(&node);
            }
            if let Some(sink) = walk.sink_arrival() {
                exact = Some((base_cost - objective.value(sink)) / self.delta_w);
                break;
            }
        }
        let score = exact.unwrap_or_else(|| {
            deltas.values().fold(f64::NEG_INFINITY, |a, &b| a.max(b)) / self.delta_w
        });
        walk.recycle_into(scratch);
        Selection {
            gate,
            sensitivity: score,
        }
    }

    /// Selects the gate with the best bounded-lookahead score. The
    /// reported sensitivity is the front bound (exact if the front reached
    /// the sink within the lookahead). Returns `None` when no candidate
    /// scores positive.
    ///
    /// # Panics
    ///
    /// Panics if a configured [`with_deadline`](Self::with_deadline)
    /// expires — use [`try_select`](Self::try_select) with deadlines.
    pub fn select(&self, circuit: &TimedCircuit<'_>, objective: Objective) -> Option<Selection> {
        self.try_select(circuit, objective)
            .expect("sweep deadline exceeded; use try_select with a deadline")
    }

    /// Fallible form of [`select`](Self::select): `Err` when the
    /// configured [`with_deadline`](Self::with_deadline) expires
    /// mid-sweep (partial results are discarded).
    pub fn try_select(
        &self,
        circuit: &TimedCircuit<'_>,
        objective: Objective,
    ) -> Result<Option<Selection>, DeadlineExceeded> {
        let base_cost = circuit.objective_value(objective);
        let gates: Vec<GateId> = circuit.netlist().gate_ids().collect();
        let threads = normalize_threads(self.threads, gates.len());
        // Workers claim candidates from a shared cursor, each with its own
        // buffer pool and side-edge convolution memo; one worker runs on
        // the calling thread and scores the gates in order.
        let scores = run_indexed(
            threads,
            gates.len(),
            || {
                (
                    DistScratch::new(),
                    EdgeConvMemo::new(circuit.ssta(), circuit.delays()),
                )
            },
            |(scratch, memo), idx| {
                // Cooperative deadline, once per candidate walk. Once
                // expired it stays expired, so every later claim errs at
                // once.
                self.deadline.check()?;
                Ok(self.score(circuit, objective, base_cost, gates[idx], scratch, memo))
            },
        );
        // Deterministic reduction in gate order: `better_than` is a total
        // order on (sensitivity, gate id), so the best is independent of
        // which worker scored which candidate.
        let mut best: Option<Selection> = None;
        for score in scores {
            let cand = score?;
            if best.is_none_or(|b| cand.better_than(&b)) {
                best = Some(cand);
            }
        }
        Ok(best.filter(|b| b.sensitivity > 0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::BruteForceSelector;
    use statsize_cells::{CellLibrary, VariationModel};
    use statsize_netlist::{bench, shapes};

    #[test]
    fn huge_lookahead_matches_brute_force_choice() {
        let nl = bench::c17();
        let lib = CellLibrary::synthetic_180nm();
        let circuit = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), 1.0);
        let obj = Objective::percentile(0.99);
        let h = HeuristicSelector::new(1.0, usize::MAX)
            .select(&circuit, obj)
            .unwrap();
        let b = BruteForceSelector::new(1.0).select(&circuit, obj).unwrap();
        assert_eq!(h.gate, b.gate);
        assert_eq!(h.sensitivity, b.sensitivity);
    }

    #[test]
    fn zero_lookahead_still_selects_usefully() {
        let nl = shapes::path_bundle("b", &[2, 8]);
        let lib = CellLibrary::synthetic_180nm();
        let circuit = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), 1.0);
        let sel = HeuristicSelector::new(1.0, 0)
            .select(&circuit, Objective::percentile(0.99))
            .unwrap();
        // The score is a bound: at least the exact sensitivity of the gate.
        assert!(sel.sensitivity > 0.0);
    }

    #[test]
    fn parallel_sweep_matches_serial_bit_for_bit() {
        let nl = shapes::grid("g", 3, 5);
        let lib = CellLibrary::synthetic_180nm();
        let circuit = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), 1.0);
        let obj = Objective::percentile(0.99);
        let want = HeuristicSelector::new(1.0, 2)
            .with_threads(1)
            .select(&circuit, obj);
        assert_eq!(HeuristicSelector::new(1.0, 2).with_threads(0).threads(), 1);
        for threads in [2, 4, 100] {
            let got = HeuristicSelector::new(1.0, 2)
                .with_threads(threads)
                .select(&circuit, obj);
            assert_eq!(want, got, "threads={threads}");
        }
    }

    #[test]
    fn expired_deadline_errors_on_both_sweeps() {
        let nl = bench::c17();
        let lib = CellLibrary::synthetic_180nm();
        let circuit = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), 1.0);
        let obj = Objective::percentile(0.99);
        for threads in [1usize, 4] {
            let sel = HeuristicSelector::new(1.0, 1)
                .with_threads(threads)
                .with_deadline(Deadline::after(std::time::Duration::ZERO));
            assert_eq!(
                sel.try_select(&circuit, obj),
                Err(DeadlineExceeded),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn score_bounds_exact_sensitivity_from_above() {
        let nl = bench::c17();
        let lib = CellLibrary::synthetic_180nm();
        let circuit = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), 1.0);
        let obj = Objective::percentile(0.99);
        let h = HeuristicSelector::new(1.0, 1)
            .select(&circuit, obj)
            .unwrap();
        let b = BruteForceSelector::new(1.0).select(&circuit, obj).unwrap();
        assert!(
            h.sensitivity >= b.sensitivity - 1e-12,
            "bound {} must dominate exact max {}",
            h.sensitivity,
            b.sensitivity
        );
    }
}
