//! Fault-injection integration suite: arms the failpoints compiled in
//! behind the `failpoints` cargo feature and proves each injected fault
//! surfaces as the documented structured [`JobOutcome`] — never a
//! process abort, never a silently wrong report.
//!
//! Run with `cargo test --features failpoints --test fault_injection`.
//! CI's fault-injection job does exactly that, plus an end-to-end CLI
//! run armed through the `STATSIZE_FAILPOINTS` environment variable.
//!
//! The failpoint registry is process-global (campaign workers run on
//! plain threads), so every campaign test here arms with a detail filter
//! unique to its own corpus — concurrently running tests cannot trip
//! each other's faults. The WAL tests cannot: their details are record
//! kinds and line numbers every WAL shares, so they hold [`WAL_FAULTS`]
//! instead.
#![cfg(feature = "failpoints")]

use statsize::failpoint::{arm, FaultAction};
use statsize::wal::{self, Wal};
use statsize::{Campaign, CampaignJob, JobOutcome, JobStage, Objective, ResultStore, SelectorKind};
use statsize_bench::campaign::render_report;
use statsize_bench::serve::Server;
use statsize_cells::CellLibrary;
use statsize_netlist::bench;
use statsize_netlist::generator::{generate_scaled, ScaledProfile};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

/// Serializes the tests that arm WAL failpoints: a `wal::replay` fault
/// armed by one would otherwise tear the other's `wal::read`.
static WAL_FAULTS: Mutex<()> = Mutex::new(());

/// A two-job corpus whose names embed `tag`, so each test's armed
/// failpoints match only its own jobs.
fn corpus(tag: &str) -> Vec<CampaignJob> {
    vec![
        CampaignJob::new(format!("{tag}-healthy"), bench::c17()),
        CampaignJob::new(format!("{tag}-target"), bench::c17()),
    ]
}

fn campaign() -> Campaign {
    Campaign::new(Objective::percentile(0.99), SelectorKind::Pruned).with_max_iterations(2)
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("statsize-fi-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn injected_optimizer_panic_is_isolated_to_its_job() {
    let jobs = corpus("fi-job");
    let _fp = arm("campaign::job", Some("fi-job-target"), FaultAction::Panic);
    let report = campaign().run(&jobs, &CellLibrary::synthetic_180nm());
    assert!(report.has_faults());
    assert_eq!(report.counts().completed, 1, "the healthy job survives");
    match &report.outcomes[1] {
        JobOutcome::Failed(e) => {
            assert_eq!(e.name, "fi-job-target");
            assert_eq!(e.stage, JobStage::Selector);
            assert!(
                e.message.contains("panic during optimization"),
                "{}",
                e.message
            );
        }
        other => panic!("expected Failed, got {other:?}"),
    }
    // The failed job still renders, with provenance, in the report.
    let json = render_report(&report, "T(99%)", false);
    assert!(json.contains("\"status\":\"failed\""));
    assert!(json.contains("\"stage\":\"selector\""));
}

#[test]
fn injected_setup_panic_reports_ssta_provenance() {
    let jobs = corpus("fi-setup");
    let _fp = arm(
        "campaign::setup",
        Some("fi-setup-target"),
        FaultAction::Panic,
    );
    let report = campaign().run(&jobs, &CellLibrary::synthetic_180nm());
    match &report.outcomes[1] {
        JobOutcome::Failed(e) => {
            assert_eq!(e.stage, JobStage::Ssta);
            assert!(
                e.message.contains("panic while building the timed circuit"),
                "{}",
                e.message
            );
        }
        other => panic!("expected Failed, got {other:?}"),
    }
    assert!(report.outcomes[0].completed().is_some());
}

#[test]
fn injected_deadline_overrun_times_out_only_the_target() {
    let jobs = corpus("fi-dl");
    let _fp = arm(
        "campaign::deadline",
        Some("fi-dl-target"),
        FaultAction::Trigger,
    );
    // A budget nothing legitimately overruns: only the injected job may
    // time out, proving the overrun came from the failpoint.
    let report = campaign()
        .with_job_deadline(Duration::from_secs(3600))
        .run(&jobs, &CellLibrary::synthetic_180nm());
    assert!(report.outcomes[0].completed().is_some());
    match &report.outcomes[1] {
        JobOutcome::TimedOut(t) => {
            assert_eq!(t.name, "fi-dl-target");
            assert!(!t.fallback_attempted);
        }
        other => panic!("expected TimedOut, got {other:?}"),
    }
}

#[test]
fn injected_deadline_overrun_degrades_to_the_fallback() {
    let jobs = corpus("fi-fb");
    let _fp = arm(
        "campaign::deadline",
        Some("fi-fb-target"),
        FaultAction::Trigger,
    );
    // The fallback rerun uses the *configured* budget (an hour), not the
    // injected zero, so it completes — degraded, and marked as such.
    let report = campaign()
        .with_job_deadline(Duration::from_secs(3600))
        .with_deadline_fallback(SelectorKind::Deterministic)
        .run(&jobs, &CellLibrary::synthetic_180nm());
    let counts = report.counts();
    assert_eq!(counts.completed, 1, "degraded runs tally separately");
    assert_eq!(counts.degraded, 1);
    assert!(!report.has_faults(), "a degraded completion is not a fault");
    let degraded = report.outcomes[1].completed().expect("fallback completes");
    assert!(degraded.degraded);
    let json = render_report(&report, "T(99%)", false);
    assert!(json.contains("\"degraded\":true"));
}

#[test]
fn fail_fast_halts_after_an_injected_fault() {
    // Eight jobs, the first rigged to panic, one shard (so completion
    // order is corpus order): fail-fast must skip everything scheduled
    // after the fault rather than burn the rest of the corpus.
    let mut jobs = vec![CampaignJob::new("fi-ff-target", bench::c17())];
    for i in 0..7 {
        jobs.push(CampaignJob::new(format!("fi-ff-rest-{i}"), bench::c17()));
    }
    let _fp = arm("campaign::job", Some("fi-ff-target"), FaultAction::Panic);
    let report = campaign()
        .with_fail_fast(true)
        .run(&jobs, &CellLibrary::synthetic_180nm());
    let counts = report.counts();
    assert_eq!(counts.failed, 1);
    assert_eq!(counts.skipped, 7, "every later job is skipped, not run");
    assert_eq!(
        report.outcomes.len(),
        jobs.len(),
        "every job is accounted for"
    );
}

#[test]
fn injected_store_corruption_quarantines_and_reruns() {
    // Record a two-job campaign, then reopen the store with the reader
    // rigged to tear entry line 3 (the second record). The store must
    // quarantine that entry — not abort — the affected job must re-run,
    // and the repeated report must match the uninterrupted bytes. The
    // store is content-addressed, so the two jobs need distinct
    // circuits to leave two records.
    let jobs = vec![
        CampaignJob::new("fi-store-small", bench::c17()),
        CampaignJob::new(
            "fi-store-large",
            generate_scaled(&ScaledProfile::with_nodes(200), 1),
        ),
    ];
    let lib = CellLibrary::synthetic_180nm();
    let uninterrupted = render_report(&campaign().run(&jobs, &lib), "T(99%)", false);

    let dir = scratch_dir("store");
    let path = dir.join("campaign.store");
    let mut store = ResultStore::create(&path).expect("create store");
    campaign().run_with_store(&jobs, &lib, None, Some(&mut store));
    drop(store);

    let _fp = arm("store::read", Some("3"), FaultAction::Trigger);
    let mut store = ResultStore::open(&path).expect("corruption is quarantined, not fatal");
    assert_eq!(store.len(), 1, "the torn entry is dropped");
    assert_eq!(store.corrupt_entries().len(), 1);
    let report = campaign().run_with_store(&jobs, &lib, None, Some(&mut store));
    assert_eq!(report.cached, 1, "only the intact entry replays");
    assert_eq!(report.counts().completed, 2);
    assert_eq!(render_report(&report, "T(99%)", false), uninterrupted);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The serve-mode transcript behind the WAL fault tests. The armed
/// record kind (`step`) arrives only at line 5, so four durable records
/// land before the injected tear.
const WAL_SCRIPT: [&str; 6] = [
    r#"{"id":1,"op":"load","design":"c17"}"#,
    r#"{"id":2,"op":"open","session":"main","design":"c17","iters":4}"#,
    r#"{"id":3,"op":"commit","session":"main","gate":"22","delta_w":1}"#,
    r#"{"id":4,"op":"snapshot","session":"main","name":"base"}"#,
    r#"{"id":5,"op":"step","session":"main"}"#,
    r#"{"id":6,"op":"commit","session":"main","gate":"16","delta_w":1}"#,
];

fn drive(server: &mut Server, lines: &[&str]) -> Vec<String> {
    lines
        .iter()
        .filter_map(|line| server.handle_line(line))
        .collect()
}

#[test]
fn injected_torn_wal_append_recovers_to_the_durable_prefix() {
    // Rig the WAL writer to crash mid-write on the first `step` record:
    // half the line's bytes land (no newline) and the writer goes
    // permanently quiet, exactly like a process killed inside `write`.
    let _serial = WAL_FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    let dir = scratch_dir("wal-append");
    let path = dir.join("serve.wal");
    let _fp = arm("wal::append", Some("step"), FaultAction::Trigger);
    let mut server = Server::new().with_wal(Wal::create(&path).expect("create WAL"));
    drive(&mut server, &WAL_SCRIPT);
    drop(server);

    // Recovery is not a hard error: the torn tail is quarantined and
    // the four records before the tear replay.
    let contents = wal::read(&path).expect("a torn tail is quarantined, not fatal");
    assert_eq!(contents.records.len(), 4, "load/open/commit/snapshot");
    assert_eq!(contents.quarantined.len(), 1, "the half-written step line");
    assert!(!contents.sealed);
    let mut recovered = Server::new();
    recovered.restore(&contents).expect("prefix replays");

    // The recovered state equals a fresh server fed only the requests
    // whose records became durable — later mutations are honestly lost.
    let probe = r#"{"id":9,"op":"query","session":"main"}"#;
    let mut reference = Server::new();
    drive(&mut reference, &WAL_SCRIPT[..4]);
    assert_eq!(
        drive(&mut recovered, &[probe]),
        drive(&mut reference, &[probe])
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn injected_read_time_corruption_truncates_the_wal_history() {
    // Write a healthy WAL, then rig the *reader* to tear line 4 (the
    // commit record — the header is line 1). Everything from the tear on
    // is quarantined: history cannot be trusted past a torn line.
    let _serial = WAL_FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    let dir = scratch_dir("wal-replay");
    let path = dir.join("serve.wal");
    let mut server = Server::new().with_wal(Wal::create(&path).expect("create WAL"));
    drive(&mut server, &WAL_SCRIPT);
    drop(server);

    let _fp = arm("wal::replay", Some("4"), FaultAction::Trigger);
    let contents = wal::read(&path).expect("read-time corruption is quarantined");
    assert_eq!(
        contents.records.len(),
        2,
        "only load + open precede the tear"
    );
    assert!(
        contents.quarantined.len() >= 2,
        "the torn line and everything after it: {:?}",
        contents.quarantined
    );
    let mut recovered = Server::new();
    recovered
        .restore(&contents)
        .expect("the short prefix replays");
    let response = drive(
        &mut recovered,
        &[r#"{"id":9,"op":"query","session":"main"}"#],
    );
    assert!(
        response[0].contains("\"commits\":0"),
        "the torn-away commit must not resurface: {}",
        response[0]
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn injected_admission_refusal_is_typed_and_scoped_to_its_session() {
    // `service::admit` forces the capacity check to fail for one session
    // name, with no cap configured — proving the rejection path is typed
    // and leaves the rest of the table untouched.
    let _fp = arm("service::admit", Some("fi-victim"), FaultAction::Trigger);
    let mut server = Server::new();
    drive(&mut server, &[r#"{"id":1,"op":"load","design":"c17"}"#]);
    let refused = drive(
        &mut server,
        &[r#"{"id":2,"op":"open","session":"fi-victim","design":"c17"}"#],
    );
    assert!(
        refused[0].contains("\"ok\":false") && refused[0].contains("\"code\":\"session_limit\""),
        "{}",
        refused[0]
    );
    let admitted = drive(
        &mut server,
        &[r#"{"id":3,"op":"open","session":"fi-other","design":"c17"}"#],
    );
    assert!(admitted[0].contains("\"ok\":true"), "{}", admitted[0]);
}
