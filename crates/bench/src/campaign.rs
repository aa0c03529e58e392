//! JSON rendering of campaign reports (the `statsize-campaign` artifact).
//!
//! The emitted document has a **deterministic core**: with
//! `include_timing == false` (the default of the CLI), the bytes depend
//! only on the corpus and the campaign configuration — bit-identical
//! across shard counts and machines, and across checkpoint/resume
//! boundaries — so CI can diff reports directly (including a resumed
//! report against an uninterrupted one). `include_timing == true`
//! appends the schedule-dependent extras for human consumption:
//! per-circuit and total wall clocks, shard metadata, the cached-job
//! count, and the pruned/completed split (whose sum, `candidates`, is
//! deterministic and always present).
//!
//! Every job renders with a `status` field — `completed`, `failed`,
//! `timed_out`, or `skipped` — so a report accounts for every job it was
//! given even when some faulted; the document-level tallies mirror
//! [`CampaignReport::counts`].

use crate::emit::JsonObject;
use statsize::{CampaignReport, JobOutcome};

/// Renders one job outcome as a JSON object string.
fn render_outcome(outcome: &JobOutcome, objective: &str, include_timing: bool) -> String {
    let mut o = JsonObject::new();
    match outcome {
        JobOutcome::Completed(c) => {
            o.string("name", &c.name)
                .string("status", "completed")
                .integer("nodes", c.nodes as u64)
                .integer("edges", c.edges as u64)
                .integer("depth", c.depth as u64)
                .string("objective", objective)
                .number("initial_objective_ps", c.initial_objective)
                .number("final_objective_ps", c.final_objective)
                .number("initial_width", c.initial_width)
                .number("final_width", c.final_width)
                .integer("iterations", c.iterations as u64)
                .string("stop", &format!("{:?}", c.stop))
                .integer("candidates", c.candidates as u64);
            if c.degraded {
                // Only ever true on deadline-fallback runs, which are
                // already outside the bit-identical contract; omitting
                // the field otherwise keeps deadline-free reports stable
                // against this schema addition.
                o.boolean("degraded", true);
            }
            if c.warm_started {
                // Part of the deterministic core: a warm start changes
                // the optimization trajectory, so the flag is outcome
                // identity, not schedule metadata. Rendered only when
                // true (like `degraded`) so store-free reports keep
                // their historical bytes.
                o.boolean("warm_started", true);
            }
            if include_timing {
                // The pruned/completed *split* is schedule-dependent
                // (only the sum, `candidates`, is deterministic — see
                // `OutcomeKey`), so it rides with the timing fields
                // rather than the deterministic core.
                o.integer("pruned", c.pruned as u64)
                    .integer("completed", c.completed as u64)
                    .number("wall_ms", c.wall.as_secs_f64() * 1e3);
                if c.cached {
                    // Cache provenance is runtime-only: a cache hit
                    // produces byte-identical deterministic-core output,
                    // so the marker rides with the timing extras.
                    o.boolean("cached", true);
                }
            }
        }
        JobOutcome::Failed(e) => {
            o.string("name", &e.name)
                .string("status", "failed")
                .string("stage", &e.stage.to_string())
                .string("error", &e.message);
        }
        JobOutcome::TimedOut(t) => {
            o.string("name", &t.name)
                .string("status", "timed_out")
                .number("deadline_ms", t.deadline.as_secs_f64() * 1e3)
                .integer("iterations_committed", t.iterations_committed as u64)
                .boolean("fallback_attempted", t.fallback_attempted);
        }
        JobOutcome::Skipped(s) => {
            o.string("name", &s.name)
                .string("status", "skipped")
                .string("reason", &s.reason);
        }
    }
    o.render()
}

/// Renders a whole campaign report as a single-line JSON document.
///
/// `objective` is the display form of the objective the campaign
/// minimized (e.g. `T(99%)`), recorded per circuit so reports from
/// different campaigns remain self-describing when concatenated.
pub fn render_report(report: &CampaignReport, objective: &str, include_timing: bool) -> String {
    let results: Vec<String> = report
        .outcomes
        .iter()
        .map(|o| render_outcome(o, objective, include_timing))
        .collect();
    let counts = report.counts();
    let mut doc = JsonObject::new();
    doc.string("report", "statsize-campaign")
        .integer("circuits", report.outcomes.len() as u64)
        .integer("completed", counts.completed as u64)
        .integer("degraded", counts.degraded as u64)
        .integer("failed", counts.failed as u64)
        .integer("timed_out", counts.timed_out as u64)
        .integer("skipped", counts.skipped as u64);
    if include_timing {
        // Schedule metadata lives with the timings: like the wall clock,
        // it describes *how* the campaign ran, not what it computed, and
        // must not break the bit-identical-across-shard-counts (and
        // across-resume) contract.
        doc.integer("shards", report.shards as u64)
            .integer("threads_per_shard", report.threads_per_shard as u64)
            .integer("lent_sweeps", report.lent_sweeps as u64)
            .integer("cached", report.cached as u64);
    }
    doc.array("results", &results);
    if include_timing {
        doc.number("wall_ms", report.wall.as_secs_f64() * 1e3);
    }
    doc.render() + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;
    use statsize::{Campaign, CampaignJob, Objective, SelectorKind};
    use statsize_cells::CellLibrary;
    use statsize_netlist::bench;
    use std::time::Duration;

    fn small_report() -> CampaignReport {
        let jobs = vec![CampaignJob::new("c17", bench::c17())];
        let lib = CellLibrary::synthetic_180nm();
        Campaign::new(Objective::percentile(0.99), SelectorKind::Pruned)
            .with_max_iterations(2)
            .run(&jobs, &lib)
    }

    #[test]
    fn deterministic_rendering_excludes_wall_clock() {
        let report = small_report();
        let json = render_report(&report, "T(99%)", false);
        assert!(json.contains("\"name\":\"c17\""));
        assert!(json.contains("\"status\":\"completed\""));
        assert!(json.contains("\"objective\":\"T(99%)\""));
        assert!(json.contains("\"completed\":1"), "document-level tallies");
        assert!(!json.contains("shards"), "schedule metadata is timing-only");
        assert!(
            !json.contains("lent_sweeps"),
            "thread lending is timing-only"
        );
        assert!(!json.contains("wall_ms"));
        assert!(
            !json.contains("\"pruned\""),
            "the schedule-dependent prune split is timing-only"
        );
        assert!(json.contains("\"candidates\""), "the sum is deterministic");
        assert!(
            !json.contains("degraded\":true"),
            "deadline-free outcomes never carry the degraded marker"
        );
        assert!(
            !json.contains("warm_started"),
            "cold runs never carry the warm-start marker"
        );
        assert!(
            !json.contains("cached"),
            "cache provenance is timing-only and absent on cold runs"
        );
        // Two renders of the same report are byte-identical.
        assert_eq!(json, render_report(&report, "T(99%)", false));
    }

    #[test]
    fn timing_mode_appends_wall_fields() {
        let report = small_report();
        let json = render_report(&report, "T(99%)", true);
        assert!(json.contains("\"wall_ms\":"));
        assert!(json.contains("\"shards\":1"));
        assert!(
            json.contains("\"lent_sweeps\":0"),
            "one shard has no one to lend to"
        );
        assert!(json.contains("\"cached\":0"));
        assert!(json.contains("\"pruned\":"));
    }

    #[test]
    fn fault_outcomes_render_with_their_status() {
        let jobs = vec![
            CampaignJob::new("c17", bench::c17()),
            CampaignJob::quarantined("broken.bench", "parse error: line 3"),
        ];
        let lib = CellLibrary::synthetic_180nm();
        let report = Campaign::new(Objective::percentile(0.99), SelectorKind::Pruned)
            .with_max_iterations(2)
            .with_job_deadline(Duration::ZERO)
            .run(&jobs, &lib);
        let json = render_report(&report, "T(99%)", false);
        assert!(json.contains("\"status\":\"timed_out\""), "{json}");
        assert!(json.contains("\"fallback_attempted\":false"), "{json}");
        assert!(json.contains("\"status\":\"skipped\""), "{json}");
        assert!(
            json.contains("\"reason\":\"parse error: line 3\""),
            "{json}"
        );
        assert!(json.contains("\"timed_out\":1"), "{json}");
        assert!(json.contains("\"skipped\":1"), "{json}");
    }
}
