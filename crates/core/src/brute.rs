//! Brute-force statistical sensitivity selection (paper Section 3.1).

use crate::circuit::TimedCircuit;
use crate::deadline::{Deadline, DeadlineExceeded};
use crate::objective::Objective;
use crate::parallel::{default_threads, normalize_threads, run_indexed, Grant};
use crate::selection::Selection;
use statsize_dist::DistScratch;
use statsize_netlist::GateId;
use statsize_ssta::ConeWalk;

/// The straightforward statistical selector: for every gate, propagate its
/// trial-resize perturbation all the way to the sink and measure the exact
/// change of the objective.
///
/// This is an SSTA cone-propagation per gate per sizing iteration —
/// `O(N·E)` per iteration, the runtime bottleneck the paper's pruning
/// algorithm removes. Kept both as the reference implementation (the
/// pruned selector must match it *exactly*) and as the Table 2 baseline.
///
/// Per-gate cone walks are fully independent, so the sweep parallelizes
/// embarrassingly: with [`with_threads`](Self::with_threads) `> 1`,
/// workers steal gates from a shared cursor and each sensitivity is
/// written back to its gate's slot — the output order (and every bit of
/// every value) is identical for any thread count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BruteForceSelector {
    delta_w: f64,
    threads: usize,
    deadline: Deadline,
}

impl BruteForceSelector {
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

    /// Sets a cooperative [`Deadline`] for the sweep (default: none),
    /// polled once per candidate cone walk — the sweep's natural work
    /// unit. Use the `try_*` entry points with a deadline set; the
    /// infallible ones panic on expiry.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = deadline;
        self
    }

    /// Overrides the worker-thread count for the sensitivity sweep,
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

    /// Finds the gate with the highest exact sensitivity
    /// `Sx = (cost − cost′)/Δw`, or `None` when no gate improves the
    /// objective. Ties break toward the lower gate id.
    ///
    /// # Panics
    ///
    /// Panics if a configured [`with_deadline`](Self::with_deadline)
    /// expires — use [`try_select`](Self::try_select) with deadlines.
    pub fn select(&self, circuit: &TimedCircuit<'_>, objective: Objective) -> Option<Selection> {
        let mut top = self.select_top_k(circuit, objective, 1);
        top.pop()
    }

    /// Fallible form of [`select`](Self::select): `Err` when the
    /// configured [`with_deadline`](Self::with_deadline) expires
    /// mid-sweep.
    pub fn try_select(
        &self,
        circuit: &TimedCircuit<'_>,
        objective: Objective,
    ) -> Result<Option<Selection>, DeadlineExceeded> {
        let mut top = self.try_select_top_k(circuit, objective, 1)?;
        Ok(top.pop())
    }

    /// The exact sensitivities of every gate, unsorted (in gate-id
    /// order). Exposed for analyses that want the full sensitivity
    /// profile, not just the argmax.
    ///
    /// # Panics
    ///
    /// Panics if a configured [`with_deadline`](Self::with_deadline)
    /// expires — use
    /// [`try_all_sensitivities`](Self::try_all_sensitivities) with
    /// deadlines.
    pub fn all_sensitivities(
        &self,
        circuit: &TimedCircuit<'_>,
        objective: Objective,
    ) -> Vec<Selection> {
        self.try_all_sensitivities(circuit, objective)
            .expect("sweep deadline exceeded; use try_all_sensitivities with a deadline")
    }

    /// Fallible form of
    /// [`all_sensitivities`](Self::all_sensitivities): `Err` when the
    /// configured [`with_deadline`](Self::with_deadline) expires
    /// mid-sweep (partial results are discarded).
    pub fn try_all_sensitivities(
        &self,
        circuit: &TimedCircuit<'_>,
        objective: Objective,
    ) -> Result<Vec<Selection>, DeadlineExceeded> {
        self.sensitivities(circuit, objective, None)
    }

    /// [`try_all_sensitivities`](Self::try_all_sensitivities), its
    /// workers growing by what `loan`'s pool receives mid-sweep.
    fn sensitivities(
        &self,
        circuit: &TimedCircuit<'_>,
        objective: Objective,
        loan: Option<&Grant<'_>>,
    ) -> Result<Vec<Selection>, DeadlineExceeded> {
        let gates: Vec<GateId> = circuit.netlist().gate_ids().collect();
        let threads = normalize_threads(self.threads, gates.len());
        let base_cost = circuit.objective_value(objective);
        // Workers claim gates from a shared cursor (load balances across
        // the wildly varying cone sizes), each with one buffer pool for
        // all its walks, and the results land in gate-id order: every
        // walk reads only the immutable circuit state. One worker runs on
        // the calling thread and walks the gates in order.
        run_indexed(
            threads,
            loan,
            gates.len(),
            DistScratch::new,
            |scratch, idx| {
                // Cooperative deadline, once per candidate cone walk. Once
                // expired it stays expired, so every later claim errs at once.
                self.deadline.check()?;
                Ok(self.one_sensitivity(circuit, objective, base_cost, gates[idx], scratch))
            },
        )
        .into_iter()
        .collect()
    }

    /// One gate's exact sensitivity: full perturbation propagation to the
    /// sink. Deliberately without the pruned sweep's edge-convolution
    /// memo: brute force is the reference the memoized sweeps are
    /// checked against.
    fn one_sensitivity(
        &self,
        circuit: &TimedCircuit<'_>,
        objective: Objective,
        base_cost: f64,
        gate: GateId,
        scratch: &mut DistScratch,
    ) -> Selection {
        let overrides = circuit.overrides_for_resize(gate, self.delta_w);
        let mut walk = ConeWalk::new(circuit.graph(), circuit.delays(), circuit.ssta(), overrides)
            .evicting_retired();
        walk.run_to_sink_with(scratch);
        let sink = walk
            .sink_arrival()
            .expect("every gate's fan-out cone reaches the sink");
        let sensitivity = (base_cost - objective.value(sink)) / self.delta_w;
        walk.recycle_into(scratch);
        Selection { gate, sensitivity }
    }

    /// The `k` most sensitive gates with positive sensitivity, sorted by
    /// descending sensitivity (ties toward lower gate ids) — the
    /// reference for the multi-gate-per-iteration sizing variant.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero, or if a configured
    /// [`with_deadline`](Self::with_deadline) expires — use
    /// [`try_select_top_k`](Self::try_select_top_k) with deadlines.
    pub fn select_top_k(
        &self,
        circuit: &TimedCircuit<'_>,
        objective: Objective,
        k: usize,
    ) -> Vec<Selection> {
        self.try_select_top_k(circuit, objective, k)
            .expect("sweep deadline exceeded; use try_select_top_k with a deadline")
    }

    /// Fallible form of [`select_top_k`](Self::select_top_k): `Err` when
    /// the configured [`with_deadline`](Self::with_deadline) expires
    /// mid-sweep.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn try_select_top_k(
        &self,
        circuit: &TimedCircuit<'_>,
        objective: Objective,
        k: usize,
    ) -> Result<Vec<Selection>, DeadlineExceeded> {
        self.try_select_top_k_lending(circuit, objective, k, None)
    }

    /// The optimizer's sweep: [`try_select_top_k`](Self::try_select_top_k),
    /// its workers growing by what `loan`'s pool receives mid-sweep.
    pub(crate) fn try_select_top_k_lending(
        &self,
        circuit: &TimedCircuit<'_>,
        objective: Objective,
        k: usize,
        loan: Option<&Grant<'_>>,
    ) -> Result<Vec<Selection>, DeadlineExceeded> {
        assert!(k > 0, "k must be positive");
        let mut all = self.sensitivities(circuit, objective, loan)?;
        all.sort_by(|a, b| {
            if a.better_than(b) {
                std::cmp::Ordering::Less
            } else if b.better_than(a) {
                std::cmp::Ordering::Greater
            } else {
                std::cmp::Ordering::Equal
            }
        });
        all.truncate(k);
        all.retain(|s| s.sensitivity > 0.0);
        Ok(all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use statsize_cells::{CellLibrary, VariationModel};
    use statsize_netlist::{bench, shapes};

    #[test]
    fn selects_a_positive_sensitivity_gate_on_c17() {
        let nl = bench::c17();
        let lib = CellLibrary::synthetic_180nm();
        let circuit = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), 1.0);
        let sel = BruteForceSelector::new(1.0)
            .select(&circuit, Objective::percentile(0.99))
            .expect("minimum-size c17 must have an improving gate");
        assert!(sel.sensitivity > 0.0);
    }

    #[test]
    fn committing_the_selection_improves_the_objective() {
        let nl = shapes::path_bundle("b", &[3, 6]);
        let lib = CellLibrary::synthetic_180nm();
        let mut circuit = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), 1.0);
        let obj = Objective::percentile(0.99);
        let before = circuit.objective_value(obj);
        let sel = BruteForceSelector::new(1.0).select(&circuit, obj).unwrap();
        circuit.commit_resize(sel.gate, 1.0);
        let after = circuit.objective_value(obj);
        assert!(
            after < before,
            "objective must improve: {before} -> {after}"
        );
        // The measured improvement matches the predicted sensitivity.
        assert!(
            ((before - after) - sel.sensitivity).abs() < 1e-6,
            "predicted {} vs measured {}",
            sel.sensitivity,
            before - after
        );
    }

    #[test]
    fn on_a_bundle_the_long_path_gate_wins() {
        // Only gates on the longest chain can improve the 99-percentile
        // delay meaningfully; the selector must pick one of them.
        let nl = shapes::path_bundle("b", &[2, 9]);
        let lib = CellLibrary::synthetic_180nm();
        let circuit = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), 1.0);
        let sel = BruteForceSelector::new(1.0)
            .select(&circuit, Objective::percentile(0.99))
            .unwrap();
        let out_net = nl.gate(sel.gate).output();
        assert!(
            nl.net(out_net).name().starts_with("p1"),
            "expected a long-chain gate, got {}",
            nl.net(out_net).name()
        );
    }

    #[test]
    #[should_panic(expected = "Δw must be finite and positive")]
    fn zero_delta_w_rejected() {
        BruteForceSelector::new(0.0);
    }

    #[test]
    fn expired_deadline_errors_on_both_sweeps() {
        let nl = bench::c17();
        let lib = CellLibrary::synthetic_180nm();
        let circuit = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), 1.0);
        let obj = Objective::percentile(0.99);
        for threads in [1usize, 4] {
            let sel = BruteForceSelector::new(1.0)
                .with_threads(threads)
                .with_deadline(Deadline::after(std::time::Duration::ZERO));
            assert_eq!(
                sel.try_select(&circuit, obj),
                Err(DeadlineExceeded),
                "threads={threads}"
            );
            assert_eq!(
                sel.try_all_sensitivities(&circuit, obj),
                Err(DeadlineExceeded),
                "threads={threads}"
            );
        }
        // An unlimited deadline changes nothing, bit for bit.
        let plain = BruteForceSelector::new(1.0).select(&circuit, obj);
        let unlimited = BruteForceSelector::new(1.0)
            .with_deadline(Deadline::none())
            .try_select(&circuit, obj)
            .expect("unlimited deadline never expires");
        assert_eq!(plain, unlimited);
    }

    #[test]
    fn parallel_sweep_matches_serial_bit_for_bit() {
        let nl = shapes::grid("g", 4, 4);
        let lib = CellLibrary::synthetic_180nm();
        let circuit = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), 1.0);
        let obj = Objective::percentile(0.99);
        let serial = BruteForceSelector::new(1.0).with_threads(1);
        let want = serial.all_sensitivities(&circuit, obj);
        // 0 is clamped to 1; counts above the gate count are capped.
        assert_eq!(BruteForceSelector::new(1.0).with_threads(0).threads(), 1);
        for threads in [2, 3, 8, 500] {
            let par = BruteForceSelector::new(1.0).with_threads(threads);
            assert_eq!(
                want,
                par.all_sensitivities(&circuit, obj),
                "threads={threads}"
            );
            assert_eq!(
                serial.select_top_k(&circuit, obj, 4),
                par.select_top_k(&circuit, obj, 4),
                "threads={threads}"
            );
        }
    }
}
