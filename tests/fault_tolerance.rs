//! Fault-tolerant campaign execution, end to end and without fault
//! injection: malformed corpus files are quarantined (never fatal),
//! deadline overruns become structured `TimedOut` outcomes (degrading to
//! a fallback selector when one is configured), and an interrupted
//! campaign repeated against its result store reproduces the
//! uninterrupted report byte for byte — even when the store itself has a
//! corrupt entry.
//!
//! The companion suite `fault_injection.rs` (behind the `failpoints`
//! feature) covers the faults that need in-process injection: forced
//! panics and forced deadline overruns at named sites.

use statsize::{Campaign, CampaignJob, JobOutcome, Objective, ResultStore, SelectorKind};
use statsize_bench::campaign::render_report;
use statsize_cells::CellLibrary;
use statsize_netlist::generator::{generate_scaled, ScaledProfile};
use statsize_netlist::{bench, corpus};
use std::path::PathBuf;
use std::time::Duration;

/// A unique scratch directory (removed by the caller when done).
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("statsize-ft-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn reference_campaign() -> Campaign {
    Campaign::new(Objective::percentile(0.99), SelectorKind::Pruned).with_max_iterations(2)
}

fn two_circuit_corpus() -> Vec<CampaignJob> {
    vec![
        CampaignJob::new("c17", bench::c17()),
        CampaignJob::new(
            "gen200",
            generate_scaled(&ScaledProfile::with_nodes(200), 1),
        ),
    ]
}

#[test]
fn malformed_bench_files_are_quarantined_not_fatal() {
    // A corpus directory with one good file and three classes of broken
    // input: truncated mid-gate, binary garbage, and empty. The lenient
    // loader must keep the good circuit, reject the rest with per-file
    // errors, and the campaign must account for every file — the broken
    // ones as `skipped` outcomes — without panicking.
    let dir = scratch_dir("corpus");
    std::fs::write(dir.join("c17.bench"), bench::C17).unwrap();
    std::fs::write(
        dir.join("truncated.bench"),
        &bench::C17[..bench::C17.len() / 2],
    )
    .unwrap();
    std::fs::write(dir.join("garbage.bench"), "\u{0}\u{1}!! not a netlist").unwrap();
    std::fs::write(dir.join("empty.bench"), "").unwrap();

    let loaded = corpus::load_dir_lenient(&dir).expect("directory itself is readable");
    assert_eq!(loaded.entries.len(), 1);
    assert_eq!(loaded.rejected.len(), 3);

    let mut jobs: Vec<CampaignJob> = loaded
        .entries
        .into_iter()
        .map(|e| CampaignJob::new(e.name, e.netlist))
        .collect();
    for err in &loaded.rejected {
        let name = err
            .path()
            .file_name()
            .unwrap()
            .to_string_lossy()
            .into_owned();
        jobs.push(CampaignJob::quarantined(name, err.to_string()));
    }
    std::fs::remove_dir_all(&dir).unwrap();

    let lib = CellLibrary::synthetic_180nm();
    let report = reference_campaign().run(&jobs, &lib);
    let counts = report.counts();
    assert_eq!(counts.completed, 1);
    assert_eq!(counts.skipped, 3);
    assert_eq!(counts.failed, 0);
    assert!(!report.has_faults(), "skips are not faults");

    let json = render_report(&report, "T(99%)", false);
    assert!(json.contains("\"status\":\"completed\""));
    assert!(json.contains("\"name\":\"truncated.bench\""));
    assert!(json.contains("\"status\":\"skipped\""));
    assert!(json.contains("\"skipped\":3"));

    // The strict loader must still refuse the same directory outright.
    let dir = scratch_dir("corpus-strict");
    std::fs::write(dir.join("garbage.bench"), "!! not a netlist").unwrap();
    assert!(corpus::load_dir(&dir).is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn zero_deadline_times_out_with_structured_outcomes() {
    // An already-expired budget: every job must surface as `TimedOut`
    // (not a panic, not a silent partial result), with the configured
    // deadline recorded in the outcome.
    let jobs = two_circuit_corpus();
    let lib = CellLibrary::synthetic_180nm();
    let report = reference_campaign()
        .with_job_deadline(Duration::ZERO)
        .run(&jobs, &lib);
    assert!(report.has_faults());
    for outcome in &report.outcomes {
        match outcome {
            JobOutcome::TimedOut(t) => {
                assert_eq!(t.deadline, Duration::ZERO);
                assert_eq!(t.iterations_committed, 0);
                assert!(!t.fallback_attempted);
            }
            other => panic!("expected TimedOut, got {other:?}"),
        }
    }

    // With a fallback configured but the budget still zero, the fallback
    // attempt is made (and recorded) but cannot beat the clock either.
    let report = reference_campaign()
        .with_job_deadline(Duration::ZERO)
        .with_deadline_fallback(SelectorKind::Deterministic)
        .run(&jobs, &lib);
    for outcome in &report.outcomes {
        match outcome {
            JobOutcome::TimedOut(t) => assert!(t.fallback_attempted),
            other => panic!("expected TimedOut, got {other:?}"),
        }
    }
}

#[test]
fn generous_deadline_leaves_the_report_bit_identical() {
    // A deadline nothing overruns must not perturb one byte of the
    // deterministic report relative to an unbounded run: the cooperative
    // checks are observation-only until they trip.
    let jobs = two_circuit_corpus();
    let lib = CellLibrary::synthetic_180nm();
    let unbounded = reference_campaign().run(&jobs, &lib);
    let bounded = reference_campaign()
        .with_job_deadline(Duration::from_secs(3600))
        .run(&jobs, &lib);
    assert_eq!(
        render_report(&unbounded, "T(99%)", false),
        render_report(&bounded, "T(99%)", false)
    );
}

#[test]
fn resumed_campaign_reproduces_the_uninterrupted_report_byte_for_byte() {
    let jobs = vec![
        CampaignJob::new("c17", bench::c17()),
        CampaignJob::new(
            "gen200",
            generate_scaled(&ScaledProfile::with_nodes(200), 1),
        ),
        CampaignJob::new(
            "gen400",
            generate_scaled(&ScaledProfile::with_nodes(400), 1),
        ),
    ];
    let lib = CellLibrary::synthetic_180nm();
    let campaign = reference_campaign();
    let uninterrupted = render_report(&campaign.run(&jobs, &lib), "T(99%)", false);

    // "Interrupt" the campaign by recording only the first two jobs,
    // exactly as a killed process would leave the store.
    let dir = scratch_dir("resume");
    let path = dir.join("campaign.store");
    let mut store = ResultStore::create(&path).expect("create store");
    campaign.run_with_store(&jobs[..2], &lib, None, Some(&mut store));
    drop(store);

    // Repeat over the full corpus: the two recorded jobs are replayed
    // (not re-run), the third runs fresh, and the report is bit-equal.
    let mut store = ResultStore::open(&path).expect("reopen store");
    assert_eq!(store.len(), 2);
    assert!(store.corrupt_entries().is_empty());
    let resumed = campaign.run_with_store(&jobs, &lib, None, Some(&mut store));
    assert_eq!(resumed.cached, 2);
    assert_eq!(render_report(&resumed, "T(99%)", false), uninterrupted);
    drop(store);

    // A corrupt record line (torn write) is quarantined, its job re-runs,
    // and the final report is still byte-identical.
    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    assert_eq!(lines.len(), 4, "header plus three records");
    lines[2] = lines[2][..lines[2].len() / 2].to_string();
    std::fs::write(&path, lines.join("\n") + "\n").unwrap();

    let mut store = ResultStore::open(&path).expect("corrupt entries are not fatal");
    assert_eq!(store.len(), 2, "the torn record is dropped");
    assert_eq!(store.corrupt_entries().len(), 1);
    let repaired = campaign.run_with_store(&jobs, &lib, None, Some(&mut store));
    assert_eq!(repaired.cached, 2);
    assert_eq!(render_report(&repaired, "T(99%)", false), uninterrupted);
    drop(store);

    // A missing or mangled header is a hard error: the file is not a
    // result store, and silently starting over would discard the
    // operator's checkpoint expectations.
    std::fs::write(&path, "not a store\n").unwrap();
    assert!(ResultStore::open(&path).is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}
