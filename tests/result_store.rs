//! Cross-campaign result store, end to end: a second identical campaign
//! is served entirely from the store with a byte-identical default
//! report; a delta campaign (same circuits, different `dt` or objective)
//! warm-starts from the stored sizing vectors deterministically — the
//! same trajectory for every shard schedule — and never ends worse than
//! a cold run; torn store tails are quarantined, their scenarios re-run;
//! read-only stores serve hits without growing the file.

use statsize::{
    Campaign, CampaignJob, JobOutcome, Objective, OutcomeKey, ResultStore, SelectorKind,
};
use statsize_bench::campaign::render_report;
use statsize_cells::CellLibrary;
use statsize_netlist::bench;
use statsize_netlist::generator::{generate_iscas, generate_scaled, ScaledProfile};
use std::path::PathBuf;

/// A unique scratch directory (removed by the caller when done).
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("statsize-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn corpus() -> Vec<CampaignJob> {
    vec![
        CampaignJob::new("c17", bench::c17()),
        CampaignJob::new(
            "gen200",
            generate_scaled(&ScaledProfile::with_nodes(200), 1),
        ),
    ]
}

fn campaign() -> Campaign {
    Campaign::new(Objective::percentile(0.99), SelectorKind::Pruned).with_max_iterations(2)
}

fn keys(outcomes: &[JobOutcome]) -> Vec<OutcomeKey> {
    outcomes
        .iter()
        .map(|o| match o {
            JobOutcome::Completed(c) => c.deterministic_key(),
            other => panic!("expected completed outcomes only, got {other:?}"),
        })
        .collect()
}

#[test]
fn second_identical_run_is_served_entirely_from_the_store() {
    let dir = scratch_dir("replay");
    let path = dir.join("store.jsonl");
    let jobs = corpus();
    let lib = CellLibrary::synthetic_180nm();

    let mut store = ResultStore::create(&path).expect("create store");
    let cold = campaign().run_with_store(&jobs, &lib, None, Some(&mut store));
    assert_eq!(cold.cached, 0, "an empty store cannot serve hits");
    drop(store);

    let mut store = ResultStore::open(&path).expect("reopen store");
    assert_eq!(store.len(), jobs.len(), "every completion was recorded");
    let replay = campaign().run_with_store(&jobs, &lib, None, Some(&mut store));
    assert_eq!(replay.cached, jobs.len(), "every job replays from cache");
    for outcome in &replay.outcomes {
        let JobOutcome::Completed(c) = outcome else {
            panic!("cached replay must complete: {outcome:?}");
        };
        assert!(c.cached, "replayed outcomes carry the runtime marker");
    }
    assert_eq!(
        keys(&cold.outcomes),
        keys(&replay.outcomes),
        "cache hits reproduce the deterministic outcome exactly"
    );
    // The default (timing-free) report is byte-identical: cache
    // provenance is runtime-only and must not leak into the bytes CI
    // diffs.
    assert_eq!(
        render_report(&cold, "T(99%)", false),
        render_report(&replay, "T(99%)", false)
    );
    drop(store);

    // Exact hits never re-append: a third open sees the same entries.
    let store = ResultStore::open(&path).expect("reopen after replay");
    assert_eq!(store.len(), jobs.len(), "replays do not grow the store");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn store_keys_isolate_scenarios() {
    let dir = scratch_dir("isolate");
    let path = dir.join("store.jsonl");
    let jobs = corpus();
    let lib = CellLibrary::synthetic_180nm();

    let mut store = ResultStore::create(&path).expect("create store");
    campaign().run_with_store(&jobs, &lib, None, Some(&mut store));
    drop(store);

    // Same circuits, different optimizer configuration (iteration cap):
    // not an exact hit — but close enough to warm-start.
    let mut store = ResultStore::open(&path).expect("reopen store");
    let delta = Campaign::new(Objective::percentile(0.99), SelectorKind::Pruned)
        .with_max_iterations(3)
        .run_with_store(&jobs, &lib, None, Some(&mut store));
    assert_eq!(delta.cached, 0, "a changed iteration cap misses the cache");
    for outcome in &delta.outcomes {
        let JobOutcome::Completed(c) = outcome else {
            panic!("delta run must complete: {outcome:?}");
        };
        assert!(c.warm_started, "the same circuit class warm-starts");
    }
    drop(store);

    // A different corpus seed shares nothing: no hits, no warm starts
    // (the generated netlist content differs, and c17's stored scenario
    // carries the old seed in its key).
    let mut store = ResultStore::open(&path).expect("reopen store");
    let reseeded = vec![
        CampaignJob::new("c17", bench::c17()),
        CampaignJob::new(
            "gen200",
            generate_scaled(&ScaledProfile::with_nodes(200), 7),
        ),
    ];
    let other =
        campaign()
            .with_corpus_seed(7)
            .run_with_store(&reseeded, &lib, None, Some(&mut store));
    assert_eq!(other.cached, 0, "a different seed is a different scenario");
    for outcome in &other.outcomes {
        let JobOutcome::Completed(c) = outcome else {
            panic!("reseeded run must complete: {outcome:?}");
        };
        assert!(!c.warm_started, "no warm candidates across seeds");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn warm_started_delta_runs_are_deterministic_and_no_worse_than_cold() {
    let dir = scratch_dir("warm");
    let path = dir.join("store.jsonl");
    let jobs = vec![
        CampaignJob::new(
            "c432",
            generate_iscas("c432", 1).expect("c432 is a known ISCAS-85 profile"),
        ),
        CampaignJob::new(
            "c880",
            generate_iscas("c880", 1).expect("c880 is a known ISCAS-85 profile"),
        ),
    ];
    let lib = CellLibrary::synthetic_180nm();

    let mut store = ResultStore::create(&path).expect("create store");
    campaign().run_with_store(&jobs, &lib, None, Some(&mut store));
    drop(store);

    // The delta scenario: same circuits, coarser time step. Cold
    // reference first, then warm runs across shard schedules.
    let delta = || campaign().with_dt(2.5);
    let cold = delta().run(&jobs, &lib);

    let mut reports = Vec::new();
    for shards in [1usize, 2] {
        // Read-only: the first leg must not record its delta results
        // and turn the second leg into exact cache hits.
        let mut store = ResultStore::open_read_only(&path).expect("reopen store");
        let report =
            delta()
                .with_shards(shards)
                .run_with_store(&jobs, &lib, None, Some(&mut store));
        assert_eq!(report.cached, 0, "a changed dt misses the exact key");
        reports.push(report);
    }
    assert_eq!(
        keys(&reports[0].outcomes),
        keys(&reports[1].outcomes),
        "warm starts are bit-identical across shard schedules"
    );
    assert_eq!(
        render_report(&reports[0], "T(99%)", false),
        render_report(&reports[1], "T(99%)", false),
        "default report bytes are schedule-independent"
    );
    for (warm, cold) in reports[0].outcomes.iter().zip(&cold.outcomes) {
        let (JobOutcome::Completed(w), JobOutcome::Completed(c)) = (warm, cold) else {
            panic!("both legs must complete: {warm:?} vs {cold:?}");
        };
        assert!(w.warm_started, "{}: delta run must warm-start", w.name);
        assert!(
            w.initial_objective <= c.initial_objective,
            "{}: the warm seed starts at (or below) the cold initial point",
            w.name
        );
        assert!(
            w.final_objective <= c.final_objective + 1e-9,
            "{}: warm-started objective must be no worse than cold \
             ({} vs {} ps)",
            w.name,
            w.final_objective,
            c.final_objective
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_store_tail_is_quarantined_and_the_scenario_reruns() {
    let dir = scratch_dir("torn");
    let path = dir.join("store.jsonl");
    let jobs = corpus();
    let lib = CellLibrary::synthetic_180nm();

    let mut store = ResultStore::create(&path).expect("create store");
    campaign().run_with_store(&jobs, &lib, None, Some(&mut store));
    drop(store);

    // Tear the final record in half — the shape a crash mid-append
    // leaves behind.
    let text = std::fs::read_to_string(&path).unwrap();
    let whole = text.strip_suffix('\n').unwrap();
    let last_start = whole.rfind('\n').unwrap() + 1;
    let torn = format!(
        "{}{}\n",
        &whole[..last_start],
        &whole[last_start..last_start + (whole.len() - last_start) / 2]
    );
    std::fs::write(&path, torn).unwrap();

    let mut store = ResultStore::open(&path).expect("torn tails are not fatal");
    assert_eq!(store.len(), jobs.len() - 1, "the torn record is dropped");
    assert_eq!(store.corrupt_entries().len(), 1, "and reported");
    let report = campaign().run_with_store(&jobs, &lib, None, Some(&mut store));
    assert_eq!(report.cached, jobs.len() - 1, "intact scenarios replay");
    assert!(!report.has_faults(), "the torn scenario re-runs cleanly");
    drop(store);

    // The re-run re-recorded the torn scenario after the torn line (the
    // store is append-only — quarantine is not repair, so the torn line
    // itself stays on disk and stays reported), and the next run is
    // fully cached again.
    let mut store = ResultStore::open(&path).expect("reopen healed store");
    assert_eq!(
        store.corrupt_entries().len(),
        1,
        "the torn line persists in the append-only file"
    );
    let healed = campaign().run_with_store(&jobs, &lib, None, Some(&mut store));
    assert_eq!(healed.cached, jobs.len(), "the scenario re-recorded");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn read_only_stores_serve_hits_without_growing_the_file() {
    let dir = scratch_dir("readonly");
    let path = dir.join("store.jsonl");
    let jobs = corpus();
    let lib = CellLibrary::synthetic_180nm();

    let mut store = ResultStore::create(&path).expect("create store");
    campaign().run_with_store(&jobs, &lib, None, Some(&mut store));
    drop(store);
    let frozen = std::fs::read(&path).unwrap();

    // Exact replays and a delta run (which would record in read-write
    // mode) both leave a read-only store's bytes untouched.
    let mut store = ResultStore::open_read_only(&path).expect("open read-only");
    let replay = campaign().run_with_store(&jobs, &lib, None, Some(&mut store));
    assert_eq!(replay.cached, jobs.len());
    let delta = campaign()
        .with_dt(2.5)
        .run_with_store(&jobs, &lib, None, Some(&mut store));
    assert_eq!(delta.cached, 0);
    drop(store);
    assert_eq!(
        std::fs::read(&path).unwrap(),
        frozen,
        "read-only mode never appends"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
