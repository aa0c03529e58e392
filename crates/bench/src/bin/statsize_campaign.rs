//! Sharded multi-circuit optimization campaigns.
//!
//! Optimizes every circuit of a corpus in one invocation, stealing
//! circuits across shard workers, and writes a structured JSON report.
//!
//! ```text
//! cargo run --release -p statsize-bench --bin statsize-campaign -- \
//!     [--corpus-dir=DIR] [--profiles=c17,c432,gen12000] [--shards=N] \
//!     [--out=PATH] [--iters=N] [--dt=PS] [--seed=N] [--threads=N] \
//!     [--selector=pruned|brute|deterministic|heuristic:K] [--timing] \
//!     [--deadline-ms=N] [--fallback=SELECTOR] [--fail-fast] \
//!     [--store=PATH | --store-readonly=PATH] [--no-store]
//! ```
//!
//! * `--corpus-dir=DIR` — load every `*.bench` file in `DIR` (sorted by
//!   name) as a job. Unloadable files are quarantined and reported as
//!   `skipped` jobs (the run keeps going); under `--fail-fast` the first
//!   bad file aborts the run with exit 2 instead.
//! * `--profiles=a,b,c` — add generated jobs: `c17`, any ISCAS-85
//!   profile name, or `gen<N>` for a scaled profile with `N` nodes.
//! * `--shards=N` — circuit-level workers (default 1).
//! * `--threads=N` — **total** selector-thread budget: each shard owns
//!   `N / shards` threads (at least one) while it has jobs; the rest,
//!   and the threads of shards that run out of jobs, are lent to the
//!   selector sweeps that are running (default: one selector thread per
//!   shard). Shards claim the largest circuits first.
//! * `--out=PATH` — report path (default `campaign_report.json`).
//! * `--timing` — include wall-clock fields in the report. Off by
//!   default so the report bytes are **bit-identical across shard
//!   counts and across an interrupted-and-repeated run** (see
//!   `--store`); timings always print to stdout.
//! * `--deadline-ms=N` — cooperative per-job deadline; overrunning jobs
//!   report `timed_out`.
//! * `--fallback=SELECTOR` — on deadline overrun, retry the job once
//!   with this (cheaper) selector before giving up; a fallback
//!   completion is marked `degraded`.
//! * `--fail-fast` — stop scheduling new jobs after the first fault and
//!   refuse quarantined corpus files up front.
//! * `--store=PATH` — consult and grow a cross-campaign result store at
//!   `PATH` (created if absent). A job whose full scenario key — netlist
//!   content, library and variation fingerprints, `--dt`, objective,
//!   selector configuration, corpus seed — is already on record is
//!   served from the store (`cached` status) without running the
//!   optimizer; a job matching a stored scenario except for the
//!   objective or `--dt` warm-starts from the stored sizing vector
//!   (`warm_started` in the report). Completed jobs are recorded as they
//!   finish, so this is also checkpoint/resume: repeating an interrupted
//!   run with the same `--store` replays its completed jobs and runs
//!   only the rest, and the report is byte-identical to an
//!   uninterrupted run's. Torn trailing lines are quarantined; their
//!   scenarios re-run and re-record. A corrupt header is a hard error.
//! * `--store-readonly=PATH` — consult an existing store (hard error if
//!   missing) without recording new results.
//! * `--no-store` — ignore any `--store`/`--store-readonly` earlier on
//!   the command line; run every job cold.
//!
//! Exit status: `2` for hard errors (bad arguments, unreadable corpus
//! directory or store, unwritable report), `1` when any job failed,
//! timed out, or violated the optimizer's improvement invariant, `0`
//! otherwise. Quarantined (`skipped`) jobs alone do not fail the run
//! unless `--fail-fast` is set.

use statsize::{Campaign, CampaignJob, JobOutcome, Objective, ResultStore, SelectorKind};
use statsize_bench::emit::{ps_as_ns, Table};
use statsize_bench::{campaign, suite};
use statsize_cells::CellLibrary;
use statsize_netlist::corpus;
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    corpus_dir: Option<String>,
    profiles: Vec<String>,
    shards: usize,
    threads: usize,
    out: String,
    iters: usize,
    dt: f64,
    seed: u64,
    selector: SelectorKind,
    timing: bool,
    deadline_ms: Option<u64>,
    fallback: Option<SelectorKind>,
    fail_fast: bool,
    store: Option<String>,
    store_readonly: Option<String>,
    no_store: bool,
}

fn usage(arg: &str) -> ! {
    eprintln!(
        "error: unrecognized argument `{arg}`\n\
         usage: --corpus-dir=DIR --profiles=c17,c432,gen12000 --shards=N \
         --out=PATH --iters=N --dt=PS --seed=N --threads=N \
         --selector=pruned|brute|deterministic|heuristic:K --timing \
         --deadline-ms=N --fallback=SELECTOR \
         --fail-fast --store=PATH --store-readonly=PATH --no-store"
    );
    std::process::exit(2);
}

fn parse_selector(v: &str) -> SelectorKind {
    match v {
        "pruned" => SelectorKind::Pruned,
        "brute" => SelectorKind::BruteForce,
        "deterministic" => SelectorKind::Deterministic,
        _ => match v.strip_prefix("heuristic:").and_then(|k| k.parse().ok()) {
            Some(lookahead) => SelectorKind::Heuristic { lookahead },
            None => usage(&format!("--selector={v}")),
        },
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        corpus_dir: None,
        profiles: Vec::new(),
        shards: 1,
        threads: 0,
        out: "campaign_report.json".to_string(),
        iters: 40,
        dt: 2.0,
        seed: 1,
        selector: SelectorKind::Pruned,
        timing: false,
        deadline_ms: None,
        fallback: None,
        fail_fast: false,
        store: None,
        store_readonly: None,
        no_store: false,
    };
    for arg in std::env::args().skip(1) {
        if let Some(v) = arg.strip_prefix("--corpus-dir=") {
            args.corpus_dir = Some(v.to_string());
        } else if let Some(v) = arg.strip_prefix("--profiles=") {
            args.profiles = v.split(',').map(|s| s.trim().to_string()).collect();
        } else if let Some(v) = arg.strip_prefix("--shards=") {
            args.shards = v.parse().unwrap_or_else(|_| usage(&arg));
        } else if let Some(v) = arg.strip_prefix("--threads=") {
            args.threads = v.parse().unwrap_or_else(|_| usage(&arg));
        } else if let Some(v) = arg.strip_prefix("--out=") {
            args.out = v.to_string();
        } else if let Some(v) = arg.strip_prefix("--iters=") {
            args.iters = v.parse().unwrap_or_else(|_| usage(&arg));
        } else if let Some(v) = arg.strip_prefix("--dt=") {
            args.dt = v.parse().unwrap_or_else(|_| usage(&arg));
        } else if let Some(v) = arg.strip_prefix("--seed=") {
            args.seed = v.parse().unwrap_or_else(|_| usage(&arg));
        } else if let Some(v) = arg.strip_prefix("--selector=") {
            args.selector = parse_selector(v);
        } else if arg == "--timing" {
            args.timing = true;
        } else if let Some(v) = arg.strip_prefix("--deadline-ms=") {
            args.deadline_ms = Some(v.parse().unwrap_or_else(|_| usage(&arg)));
        } else if let Some(v) = arg.strip_prefix("--fallback=") {
            args.fallback = Some(parse_selector(v));
        } else if arg == "--fail-fast" {
            args.fail_fast = true;
        } else if let Some(v) = arg.strip_prefix("--store=") {
            args.store = Some(v.to_string());
        } else if let Some(v) = arg.strip_prefix("--store-readonly=") {
            args.store_readonly = Some(v.to_string());
        } else if arg == "--no-store" {
            args.no_store = true;
        } else {
            usage(&arg);
        }
    }
    if args.store.is_some() && args.store_readonly.is_some() {
        eprintln!("error: pass either --store (read-write) or --store-readonly, not both");
        std::process::exit(2);
    }
    if args.no_store {
        args.store = None;
        args.store_readonly = None;
    }
    args
}

/// Assembles the corpus-directory jobs. Default mode loads leniently:
/// unloadable files become quarantined jobs the campaign reports as
/// `skipped`. Under `--fail-fast` the strict loader refuses the first
/// bad file.
fn corpus_jobs(dir: &str, fail_fast: bool, jobs: &mut Vec<CampaignJob>) -> Result<(), String> {
    if fail_fast {
        let entries = corpus::load_dir(dir).map_err(|e| e.to_string())?;
        for e in entries {
            println!(
                "loaded {} ({} nodes) from {}",
                e.name,
                e.netlist.stats().timing_nodes,
                e.path.display()
            );
            jobs.push(CampaignJob::new(e.name, e.netlist));
        }
        return Ok(());
    }
    let loaded = corpus::load_dir_lenient(dir).map_err(|e| e.to_string())?;
    for e in loaded.entries {
        println!(
            "loaded {} ({} nodes) from {}",
            e.name,
            e.netlist.stats().timing_nodes,
            e.path.display()
        );
        jobs.push(CampaignJob::new(e.name, e.netlist));
    }
    for err in loaded.rejected {
        let name = err
            .path()
            .file_name()
            .map(|f| f.to_string_lossy().into_owned())
            .unwrap_or_else(|| err.path().display().to_string());
        eprintln!("warning: quarantined {name}: {err}");
        jobs.push(CampaignJob::quarantined(name, err.to_string()));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = parse_args();

    // Assemble the job list: corpus files first (already name-sorted),
    // then generated profiles in the order given.
    let mut jobs: Vec<CampaignJob> = Vec::new();
    if let Some(dir) = &args.corpus_dir {
        if let Err(e) = corpus_jobs(dir, args.fail_fast, &mut jobs) {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    }
    for name in &args.profiles {
        match suite::try_build_circuit(name, args.seed) {
            Ok(netlist) => jobs.push(CampaignJob::new(name.clone(), netlist)),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if jobs.is_empty() {
        eprintln!("error: no circuits — pass --corpus-dir and/or --profiles");
        return ExitCode::from(2);
    }

    // Result store: read-write (--store, created if absent) or
    // read-only (--store-readonly, must exist).
    let mut store = match (&args.store, &args.store_readonly) {
        (Some(path), None) => match ResultStore::open_or_create(path) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        },
        (None, Some(path)) => match ResultStore::open_read_only(path) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        },
        _ => None,
    };
    if let Some(s) = &store {
        for err in s.corrupt_entries() {
            eprintln!("warning: {err}; the affected scenario will re-run");
        }
        println!(
            "consulting result store {} ({} scenarios on record{})",
            s.path().display(),
            s.len(),
            if s.read_only() { ", read-only" } else { "" }
        );
    }

    let objective = Objective::percentile(0.99);
    let mut campaign_cfg = Campaign::new(objective, args.selector)
        .with_max_iterations(args.iters)
        .with_dt(args.dt)
        .with_shards(args.shards)
        .with_total_threads(args.threads)
        .with_fail_fast(args.fail_fast)
        // The corpus seed shapes every generated profile, so it is part
        // of the scenario key: a store run under a different seed must
        // not replay this run's results.
        .with_corpus_seed(args.seed);
    if let Some(ms) = args.deadline_ms {
        campaign_cfg = campaign_cfg.with_job_deadline(Duration::from_millis(ms));
    }
    if let Some(fallback) = args.fallback {
        campaign_cfg = campaign_cfg.with_deadline_fallback(fallback);
    }
    let report =
        campaign_cfg.run_with_store(&jobs, &CellLibrary::synthetic_180nm(), None, store.as_mut());

    // Human-readable summary (always includes wall clocks).
    let mut table = Table::new([
        "circuit",
        "status",
        "nodes",
        "iters",
        "T99 before (ns)",
        "T99 after (ns)",
        "wall (ms)",
    ]);
    let mut invariant_failures = 0usize;
    for outcome in &report.outcomes {
        match outcome {
            JobOutcome::Completed(o) => {
                table.row([
                    o.name.clone(),
                    if o.cached {
                        "cached"
                    } else if o.degraded {
                        "degraded"
                    } else if o.warm_started {
                        "warm"
                    } else {
                        "completed"
                    }
                    .to_string(),
                    o.nodes.to_string(),
                    o.iterations.to_string(),
                    ps_as_ns(o.initial_objective),
                    ps_as_ns(o.final_objective),
                    format!("{:.1}", o.wall.as_secs_f64() * 1e3),
                ]);
                // The optimizer's contract: the objective never degrades
                // (a NaN objective is equally a failure).
                if o.final_objective.is_nan() || o.final_objective > o.initial_objective + 1e-9 {
                    eprintln!(
                        "error: {} degraded from {} to {} ps",
                        o.name, o.initial_objective, o.final_objective
                    );
                    invariant_failures += 1;
                }
            }
            JobOutcome::Failed(e) => {
                table.row([
                    e.name.clone(),
                    "failed".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                ]);
                eprintln!("error: {e}");
            }
            JobOutcome::TimedOut(t) => {
                table.row([
                    t.name.clone(),
                    "timed out".to_string(),
                    "-".to_string(),
                    t.iterations_committed.to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                ]);
                eprintln!(
                    "error: {} exceeded its {:.0} ms deadline ({} iterations committed{})",
                    t.name,
                    t.deadline.as_secs_f64() * 1e3,
                    t.iterations_committed,
                    if t.fallback_attempted {
                        "; fallback also overran"
                    } else {
                        ""
                    }
                );
            }
            JobOutcome::Skipped(s) => {
                table.row([
                    s.name.clone(),
                    "skipped".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                ]);
            }
        }
    }
    print!("{}", table.render());
    let counts = report.counts();
    println!(
        "{} jobs ({} completed, {} degraded, {} failed, {} timed out, {} skipped, {} cached), \
         {} shards x {} selector threads, {} sweeps on lent threads, total {:.1} ms",
        report.outcomes.len(),
        counts.completed,
        counts.degraded,
        counts.failed,
        counts.timed_out,
        counts.skipped,
        report.cached,
        report.shards,
        report.threads_per_shard,
        report.lent_sweeps,
        report.wall.as_secs_f64() * 1e3
    );

    let json = campaign::render_report(&report, &objective.to_string(), args.timing);
    if let Err(e) = std::fs::write(&args.out, json) {
        eprintln!("error: cannot write report to `{}`: {e}", args.out);
        return ExitCode::from(2);
    }
    println!("wrote {}", args.out);

    if report.has_faults() || invariant_failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
