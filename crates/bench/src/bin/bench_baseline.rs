//! Records a machine-readable baseline of the lattice-kernel hot paths
//! (`BENCH_dist_ops.json`), for coarse regression tracking across PRs.
//!
//! Measures the same operations as the `dist_ops` criterion bench —
//! convolution, independent max, percentile query, and the whole-bin
//! shift measure — plus the allocation-free `_into`/fused variants,
//! sweep-shaped rows whose outputs trim their tails
//! (`{convolve_into,max_independent,convolve_max_fused}/tail{521x55,2083x217}`,
//! at dt = 1 and 0.25; the ±3σ `arrival_like` rows never trim),
//! wide-arrival rows (2048/4096/8192 bins), per-backend rows
//! (`convolve/1024/{scalar,simd}`, the in-situ delay×arrival shapes
//! `convolve/{55x650,190x3100}/<backend>` on every backend the CPU runs,
//! and wide×wide `convolve_pair/{4096,8192}/{scalar,simd}`, forced through
//! `Dist::convolve_dense` — the `STATSIZE_KERNEL_TIER` override is read
//! once per process, so one run can cover every backend), an end-to-end
//! `cone_walk` over generated benchmark circuits, whole pruned
//! selection sweeps at 1/2/4/8 worker threads (`pruned_parallel/*`; the
//! threaded rows are the median of five independent runs, one under
//! `--quick`), a six-iteration serial gen1200 descent
//! (`optimizer_run/gen1200/i6`, followed by its per-iteration nodes
//! computed, bounds reused and candidates pruned on their pre-bound),
//! the campaign benchmark's warm c1355 job under the mean at dt = 0.25
//! (`optimizer_run/c1355/mean_warm`, followed by its per-iteration nodes
//! computed, fronts completed, and candidates pruned on the sink-aware
//! bound and on their pre-bound),
//! 3-circuit sharded campaigns (`campaign/*`), result-store campaign
//! paths (`campaign_store/*`: cold vs cache-replayed vs warm-started
//! delta run), and serve-mode query latency (`service_query/*`: cold
//! from-scratch re-analysis vs a warm session's incremental `what_if`),
//! with a deterministic sample loop, and emits one JSON object per
//! operation/size pair under a header giving the machine's `nproc` and
//! the active kernel `backend`.
//!
//! Usage: `cargo run --release -p statsize-bench --bin bench_baseline
//! [--out=PATH] [--quick] [--compare=PATH]`
//!
//! * `--out=PATH` — where to write the JSON (default
//!   `BENCH_dist_ops.json` in the current directory).
//! * `--quick` — reduced-iteration smoke mode for CI: fewer samples and
//!   shorter batches, report-only accuracy.
//! * `--compare=PATH` — read a previously committed baseline and print
//!   its median next to each fresh measurement with the relative delta.
//!   Purely informational: no thresholds, never fails.

use statsize::{
    Campaign, CampaignJob, Design, Objective, Optimizer, PruneStats, PrunedSelector, ResultStore,
    SelectorKind, Session, TimedCircuit,
};
use statsize_bench::emit::JsonObject;
use statsize_bench::suite;
use statsize_cells::{CellLibrary, DelayModel, GateSizes, VariationModel};
use statsize_dist::{max_percentile_shift, Dist, DistScratch, KernelBackend, TruncatedGaussian};
use statsize_ssta::{ArcDelays, ConeWalk, DelayOverrides, SstaAnalysis, TimingGraph};
use std::hint::black_box;
use std::time::Instant;

/// An arrival-time-like distribution with the requested support width.
fn arrival_like(bins: usize) -> Dist {
    let sigma = bins as f64 / 6.0;
    TruncatedGaussian::new(1000.0, sigma, 3.0).discretize(1.0)
}

/// A Gaussian-shaped distribution exactly `bins` wide (±3σ).
fn bell(bins: usize) -> Dist {
    let mid = (bins as f64 - 1.0) / 2.0;
    let sigma = (bins as f64 / 6.0).max(0.5);
    let mass: Vec<f64> = (0..bins)
        .map(|i| (-0.5 * ((i as f64 - mid) / sigma).powi(2)).exp())
        .collect();
    let total: f64 = mass.iter().sum();
    Dist::new(1.0, 0, mass.into_iter().map(|m| m / total).collect()).expect("valid bell")
}

fn delay_like() -> Dist {
    TruncatedGaussian::from_nominal(100.0, 0.1, 3.0).discretize(1.0)
}

/// An arrival and an arc delay shaped like a sizing sweep's at lattice
/// step `dt`: the arrival's Gaussian tails are cut only by the lattice's
/// own `1e-12` trim (about ±7σ, 521 bins at dt = 1), the delay is
/// truncated at ±3σ (55 taps at dt = 1). Unlike the ±3σ
/// [`arrival_like`] inputs, whose outputs never trim, convolving these
/// or taking their max trims the output's tails, as most operations in
/// a sweep do.
fn sweep_like(dt: f64) -> (Dist, Dist) {
    let arrival = TruncatedGaussian::new(1000.0, 37.0, 9.0).discretize(dt);
    let delay = TruncatedGaussian::new(100.0, 9.0, 3.0).discretize(dt);
    (arrival, delay)
}

/// Measurement effort: full baseline recording or the CI smoke profile.
#[derive(Clone, Copy)]
struct Effort {
    samples: usize,
    batch_target: f64,
    warmup: f64,
    /// Independent [`measure`] runs behind each threaded row (see
    /// [`measure_repeated`]).
    repeats: usize,
}

const FULL: Effort = Effort {
    samples: 15,
    batch_target: 0.01,
    warmup: 0.02,
    repeats: 5,
};
const QUICK: Effort = Effort {
    samples: 5,
    batch_target: 0.002,
    warmup: 0.005,
    repeats: 1,
};

/// Median and minimum per-iteration nanoseconds over `effort.samples`
/// timed batches sized to roughly `effort.batch_target` seconds each.
fn measure<F: FnMut()>(effort: Effort, mut op: F) -> (f64, f64) {
    // Calibrate the batch size with a short warm-up.
    let t0 = Instant::now();
    let mut warm = 0u64;
    while t0.elapsed().as_secs_f64() < effort.warmup {
        op();
        warm += 1;
    }
    let per_iter = t0.elapsed().as_secs_f64() / warm.max(1) as f64;
    let batch = ((effort.batch_target / per_iter.max(1e-9)) as u64).max(1);
    let mut per_iter_ns: Vec<f64> = (0..effort.samples)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                op();
            }
            t.elapsed().as_secs_f64() * 1e9 / batch as f64
        })
        .collect();
    per_iter_ns.sort_by(f64::total_cmp);
    (per_iter_ns[effort.samples / 2], per_iter_ns[0])
}

/// The median of `effort.repeats` independent [`measure`] runs (and the
/// least minimum). A threaded sweep's median swings with where the
/// scheduler puts its workers for a whole run — one recording moved
/// `pruned_parallel/c880/t4` from 11.4 to 24.3 ms — so one run is not a
/// row.
fn measure_repeated<F: FnMut()>(effort: Effort, mut op: F) -> (f64, f64) {
    let mut runs: Vec<(f64, f64)> = (0..effort.repeats)
        .map(|_| measure(effort, &mut op))
        .collect();
    runs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let min = runs.iter().map(|r| r.1).fold(f64::INFINITY, f64::min);
    (runs[runs.len() / 2].0, min)
}

/// Extracts `(name, median_ns)` pairs from a previously emitted baseline
/// file — a hand-rolled scan matching exactly the flat shape
/// `bench_baseline` writes, so no JSON dependency is needed.
fn parse_baseline(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(i) = rest.find("{\"name\":\"") {
        rest = &rest[i + 9..];
        let Some(j) = rest.find('"') else { break };
        let name = rest[..j].to_string();
        let Some(k) = rest.find("\"median_ns\":") else {
            break;
        };
        rest = &rest[k + 12..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        if let Ok(median) = rest[..end].trim().parse::<f64>() {
            out.push((name, median));
        }
    }
    out
}

/// Timing state for one generated circuit, ready to run perturbation
/// cone walks from a mid-level gate.
struct WalkBench {
    graph: TimingGraph,
    delays: ArcDelays,
    base: SstaAnalysis,
    overrides: DelayOverrides,
}

impl WalkBench {
    fn build(circuit: &str) -> Self {
        let nl = suite::build_circuit(circuit, 1);
        let lib = CellLibrary::synthetic_180nm();
        let model = DelayModel::new(&lib, &nl);
        let sizes = GateSizes::minimum(&nl);
        let variation = VariationModel::paper_default();
        let graph = TimingGraph::build(&nl);
        let delays = ArcDelays::compute(&nl, &model, &sizes, &variation, 2.0);
        let base = SstaAnalysis::run(&graph, &delays);
        // Perturb a mid-level gate two bins earlier — the shape of a
        // trial upsize, with a realistically deep fan-out cone.
        let mid = nl.topological_gates()[nl.gate_count() / 2];
        let mut overrides = DelayOverrides::none();
        overrides.set(mid, delays.dist(mid).shift_bins(-2));
        Self {
            graph,
            delays,
            base,
            overrides,
        }
    }
}

fn main() {
    let out_path = std::env::args()
        .find_map(|a| a.strip_prefix("--out=").map(String::from))
        .unwrap_or_else(|| "BENCH_dist_ops.json".to_string());
    let effort = if std::env::args().any(|a| a == "--quick") {
        QUICK
    } else {
        FULL
    };
    let committed: Vec<(String, f64)> = std::env::args()
        .find_map(|a| a.strip_prefix("--compare=").map(String::from))
        .map(|path| {
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("read comparison baseline {path}: {e}"));
            parse_baseline(&text)
        })
        .unwrap_or_default();

    let delay = delay_like();
    let mut results: Vec<String> = Vec::new();
    let mut record = |name: String, (median_ns, min_ns): (f64, f64)| {
        let vs = committed
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, old)| {
                format!(
                    "  committed {old:>12.1} ns  delta {:>+7.1}%",
                    (median_ns - old) / old * 100.0
                )
            })
            .unwrap_or_default();
        println!("{name:<28} median {median_ns:>12.1} ns  min {min_ns:>12.1} ns{vs}");
        let mut o = JsonObject::new();
        o.string("name", &name)
            .number("median_ns", median_ns)
            .number("min_ns", min_ns);
        results.push(o.render());
    };

    for bins in [64usize, 256, 1024] {
        let arrival = arrival_like(bins);
        record(
            format!("convolve/{bins}"),
            measure(effort, || {
                black_box(black_box(&arrival).convolve(&delay));
            }),
        );
        let mut scratch = DistScratch::new();
        record(
            format!("convolve_into/{bins}"),
            measure(effort, || {
                let r = black_box(black_box(&arrival).convolve_into(&delay, &mut scratch));
                scratch.recycle(r);
            }),
        );
        let other = arrival.shift_bins(bins as i64 / 10);
        record(
            format!("max_independent/{bins}"),
            measure(effort, || {
                black_box(black_box(&arrival).max_independent(&other));
            }),
        );
        record(
            format!("convolve_max_fused/{bins}"),
            measure(effort, || {
                let r =
                    black_box(black_box(&arrival).convolve_max_into(&other, &delay, &mut scratch));
                scratch.recycle(r);
            }),
        );
        record(
            format!("max_percentile_shift/{bins}"),
            measure(effort, || {
                black_box(max_percentile_shift(black_box(&arrival), &other));
            }),
        );
    }
    // Sweep-shaped inputs whose outputs trim: the rows above never do.
    for dt in [1.0, 0.25] {
        let (arrival, delay) = sweep_like(dt);
        let other = arrival.shift_bins(arrival.support_len() as i64 / 10);
        let shape = format!("tail{}x{}", arrival.support_len(), delay.support_len());
        let raw = arrival.support_len() + delay.support_len() - 1;
        assert!(
            arrival.convolve(&delay).support_len() < raw,
            "{shape}: the convolution must trim"
        );
        let mut scratch = DistScratch::new();
        record(
            format!("convolve_into/{shape}"),
            measure(effort, || {
                let r = black_box(black_box(&arrival).convolve_into(&delay, &mut scratch));
                scratch.recycle(r);
            }),
        );
        record(
            format!("max_independent/{shape}"),
            measure(effort, || {
                let r = black_box(black_box(&arrival).max_independent_into(&other, &mut scratch));
                scratch.recycle(r);
            }),
        );
        record(
            format!("convolve_max_fused/{shape}"),
            measure(effort, || {
                let r =
                    black_box(black_box(&arrival).convolve_max_into(&other, &delay, &mut scratch));
                scratch.recycle(r);
            }),
        );
    }
    // Wide arrival ⊛ narrow delay: the shape every SSTA convolution has.
    for bins in [2048usize, 4096, 8192] {
        let arrival = arrival_like(bins);
        record(
            format!("convolve/{bins}"),
            measure(effort, || {
                black_box(black_box(&arrival).convolve(&delay));
            }),
        );
    }

    // Per-backend rows, forced through `convolve_dense`. The `simd`
    // row uses the best backend this CPU offers (`KernelBackend`
    // dispatch target); on a machine without SIMD it degenerates to a
    // second scalar row.
    {
        let simd = KernelBackend::detected();
        let mut scratch = DistScratch::new();
        let a1024 = arrival_like(1024);
        record(
            "convolve/1024/scalar".to_string(),
            measure(effort, || {
                let r =
                    black_box(&a1024).convolve_dense(&delay, KernelBackend::Scalar, &mut scratch);
                scratch.recycle(black_box(r));
            }),
        );
        record(
            "convolve/1024/simd".to_string(),
            measure(effort, || {
                let r = black_box(&a1024).convolve_dense(&delay, simd, &mut scratch);
                scratch.recycle(black_box(r));
            }),
        );
        // In-situ shapes, delay taps × arrival bins, on every backend
        // this CPU runs: 55×650 is typical of gen1200 at dt = 1, and
        // 190×3100 of c1355 at dt = 0.25 (its arrival p90 is ~3,200
        // bins). Outputs this wide spill L1 under a kernel that makes
        // one pass over them per tap block, which the hot-cache
        // 1024-bin rows above do not show.
        for (taps, bins) in [(55usize, 650usize), (190, 3100)] {
            let delay = bell(taps);
            let arrival = bell(bins);
            for backend in KernelBackend::ALL {
                if !backend.is_available() {
                    continue;
                }
                record(
                    format!("convolve/{taps}x{bins}/{}", backend.name()),
                    measure(effort, || {
                        let r = black_box(&arrival).convolve_dense(&delay, backend, &mut scratch);
                        scratch.recycle(black_box(r));
                    }),
                );
            }
        }
        // Wide×wide pairs: the widest dense products.
        for bins in [4096usize, 8192] {
            let a = arrival_like(bins);
            let b = arrival_like(bins).shift_bins(bins as i64 / 16);
            record(
                format!("convolve_pair/{bins}/scalar"),
                measure(effort, || {
                    let r = black_box(&a).convolve_dense(&b, KernelBackend::Scalar, &mut scratch);
                    scratch.recycle(black_box(r));
                }),
            );
            record(
                format!("convolve_pair/{bins}/simd"),
                measure(effort, || {
                    let r = black_box(&a).convolve_dense(&b, simd, &mut scratch);
                    scratch.recycle(black_box(r));
                }),
            );
        }
    }

    let a512 = arrival_like(512);
    record(
        "percentile_p99/512".to_string(),
        measure(effort, || {
            black_box(black_box(&a512).percentile(0.99));
        }),
    );

    // End-to-end: a full perturbation cone walk to the sink, the unit of
    // work both selectors repeat per candidate gate.
    for circuit in ["c432", "c880"] {
        let wb = WalkBench::build(circuit);
        let mut scratch = DistScratch::new();
        record(
            format!("cone_walk/{circuit}"),
            measure(effort, || {
                let mut walk = ConeWalk::new(&wb.graph, &wb.delays, &wb.base, wb.overrides.clone())
                    .evicting_retired();
                walk.run_to_sink_with(&mut scratch);
                black_box(walk.sink_arrival().expect("cone reaches the sink"));
                walk.recycle_into(&mut scratch);
            }),
        );
    }

    // One whole pruned selection sweep per thread count: the same
    // best-bound-first loop on one worker (`t1`) or on `t2`/`t4`/`t8`
    // workers sharing its heap (bit-identical selections; only the wall
    // clock and the prune/complete split change), each the median of
    // independent runs. The `--compare` column against a committed baseline is how
    // the speedup is tracked across PRs.
    for circuit in ["c432", "c880"] {
        let nl = suite::build_circuit(circuit, 1);
        let lib = CellLibrary::synthetic_180nm();
        let timed = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), 2.0);
        let objective = Objective::percentile(0.99);
        for threads in [1usize, 2, 4, 8] {
            let selector = PrunedSelector::new(1.0).with_threads(threads);
            let op = || {
                black_box(selector.select(black_box(&timed), objective));
            };
            record(
                format!("pruned_parallel/{circuit}/t{threads}"),
                if threads > 1 {
                    measure_repeated(effort, op)
                } else {
                    measure(effort, op)
                },
            );
        }
    }

    // A whole serial descent: six `Optimizer::run` iterations on gen1200
    // at dt = 1 from minimum sizes (including building the timing
    // state), where each sweep after the first reuses the Figure-7
    // bounds the commits before it left valid, and every sweep prunes
    // most candidates on their pre-bound before initializing them. The
    // row is followed by the descent's per-iteration work counters,
    // which are deterministic on one worker.
    {
        let nl = suite::build_circuit("gen1200", 1);
        let lib = CellLibrary::synthetic_180nm();
        let optimizer = Optimizer::new(Objective::percentile(0.99), SelectorKind::Pruned)
            .with_threads(1)
            .with_max_iterations(6);
        let descend = || {
            let mut timed = TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), 1.0);
            optimizer.run(&mut timed)
        };
        record(
            "optimizer_run/gen1200/i6".to_string(),
            measure(effort, || {
                black_box(descend());
            }),
        );
        let sweeps: Vec<PruneStats> = descend()
            .iterations
            .iter()
            .filter_map(|r| r.prune)
            .collect();
        let column = |f: fn(&PruneStats) -> usize| sweeps.iter().map(f).collect::<Vec<_>>();
        println!(
            "{:<28} nodes {:?}  bounds_reused {:?}  prebound_pruned {:?}",
            "",
            column(|s| s.nodes_computed),
            column(|s| s.bounds_reused),
            column(|s| s.prebound_pruned),
        );
    }

    // The campaign benchmark's warm job that the sink-aware bound for
    // the mean prunes most: c1355 at dt = 0.25, two serial `Optimizer::run`
    // iterations under the mean from the sizes of a two-step 99th-percentile
    // descent (including building the timing state at those sizes),
    // followed by the per-iteration work counters.
    {
        let nl = suite::build_circuit("c1355", 1);
        let lib = CellLibrary::synthetic_180nm();
        let timed = || TimedCircuit::new(&nl, &lib, VariationModel::paper_default(), 0.25);
        let mut sized = timed();
        Optimizer::new(Objective::percentile(0.99), SelectorKind::Pruned)
            .with_threads(1)
            .with_max_iterations(2)
            .run(&mut sized);
        let optimizer = Optimizer::new(Objective::Mean, SelectorKind::Pruned)
            .with_threads(1)
            .with_max_iterations(2)
            .with_initial_sizes(sized.sizes().widths().to_vec());
        let descend = || optimizer.run(&mut timed());
        record(
            "optimizer_run/c1355/mean_warm".to_string(),
            measure(effort, || {
                black_box(descend());
            }),
        );
        let sweeps: Vec<PruneStats> = descend()
            .iterations
            .iter()
            .filter_map(|r| r.prune)
            .collect();
        let column = |f: fn(&PruneStats) -> usize| sweeps.iter().map(f).collect::<Vec<_>>();
        println!(
            "{:<28} nodes {:?}  completed {:?}  sink_pruned {:?}  prebound_pruned {:?}",
            "",
            column(|s| s.nodes_computed),
            column(|s| s.completed),
            column(|s| s.sink_pruned),
            column(|s| s.prebound_pruned),
        );
    }

    // End-to-end sharded campaign over a 3-circuit corpus (the smallest
    // real circuit plus two generated profiles), 2 sizing iterations
    // each: the unit of work `statsize-campaign` repeats per corpus.
    // `s1` is the serial reference; `s2` runs two shard workers. The
    // `c432+c880+c1355` corpus lists its largest circuit last: shards
    // claim it first, and the shard that drains the small ones lends its
    // thread to the big circuit's remaining sweeps.
    {
        let lib = CellLibrary::synthetic_180nm();
        let corpora: [(&[&str], &[usize]); 2] = [
            (&["c17", "c432", "c880"], &[1, 2]),
            (&["c432", "c880", "c1355"], &[2]),
        ];
        for (names, shard_counts) in corpora {
            let jobs: Vec<CampaignJob> = names
                .iter()
                .map(|name| CampaignJob::new(*name, suite::build_circuit(name, 1)))
                .collect();
            for &shards in shard_counts {
                let campaign = Campaign::new(Objective::percentile(0.99), SelectorKind::Pruned)
                    .with_max_iterations(2)
                    .with_shards(shards);
                record(
                    format!("campaign/{}/s{shards}", names.join("+")),
                    measure(effort, || {
                        black_box(campaign.run(black_box(&jobs), &lib));
                    }),
                );
            }
        }
    }

    // Result-store campaign paths over one mid-size circuit: `cold` is
    // the storeless reference, `cached` replays the identical scenario
    // from a pre-populated store (zero optimizer sweeps — the price is
    // store open + outcome clone), and `warm` runs a delta scenario
    // (different `dt`) warm-started from the stored sizing vector.
    {
        let jobs = vec![CampaignJob::new("c432", suite::build_circuit("c432", 1))];
        let lib = CellLibrary::synthetic_180nm();
        let campaign =
            Campaign::new(Objective::percentile(0.99), SelectorKind::Pruned).with_max_iterations(2);
        record(
            "campaign_store/c432/cold".to_string(),
            measure(effort, || {
                black_box(campaign.run(black_box(&jobs), &lib));
            }),
        );
        let dir = std::env::temp_dir().join(format!("statsize-bench-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create store scratch dir");
        let path = dir.join("store.jsonl");
        let mut seed_store = ResultStore::create(&path).expect("create result store");
        campaign.run_with_store(&jobs, &lib, None, Some(&mut seed_store));
        drop(seed_store);
        record(
            "campaign_store/c432/cached".to_string(),
            measure(effort, || {
                let mut store = ResultStore::open_read_only(&path).expect("open result store");
                black_box(campaign.run_with_store(black_box(&jobs), &lib, None, Some(&mut store)));
            }),
        );
        let delta = Campaign::new(Objective::percentile(0.99), SelectorKind::Pruned)
            .with_max_iterations(2)
            .with_dt(2.5);
        record(
            "campaign_store/c432/warm".to_string(),
            measure(effort, || {
                let mut store = ResultStore::open_read_only(&path).expect("open result store");
                black_box(delta.run_with_store(black_box(&jobs), &lib, None, Some(&mut store)));
            }),
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    // Serve-mode query latency: what a warm session saves. `cold` is the
    // stateless-server price for one what-if — rebuild sizes, delays,
    // and the full SSTA pass from scratch for the mutated circuit.
    // `warm` asks a live `service::Session` the same question: an
    // incremental cone update plus an exact-bits undo. The answers are
    // bit-identical (tests/service_sessions.rs pins that); only the
    // cost differs.
    for circuit in ["c432", "c499"] {
        let nl = suite::build_circuit(circuit, 1);
        let lib = CellLibrary::synthetic_180nm();
        let probe_gate = nl.topological_gates()[nl.gate_count() / 2];
        let probe_net = nl.net(nl.gate(probe_gate).output()).name().to_string();
        let design = std::sync::Arc::new(Design::new(circuit, nl, lib));
        record(
            format!("service_query/{circuit}/cold"),
            measure(effort, || {
                let netlist = design.netlist();
                let model = DelayModel::new(design.library(), netlist);
                let mut sizes = GateSizes::minimum(netlist);
                sizes.resize(probe_gate, 1.0);
                let graph = TimingGraph::build(netlist);
                let delays =
                    ArcDelays::compute(netlist, &model, &sizes, design.variation(), design.dt());
                let ssta = SstaAnalysis::run(&graph, &delays);
                black_box(Objective::percentile(0.99).value(ssta.sink_arrival()));
            }),
        );
        let mut session = Session::open(
            std::sync::Arc::clone(&design),
            Optimizer::new(Objective::percentile(0.99), SelectorKind::Pruned),
        );
        record(
            format!("service_query/{circuit}/warm"),
            measure(effort, || {
                black_box(session.what_if(&probe_net, 1.0).expect("valid probe"));
            }),
        );
    }

    let unix_secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut doc = JsonObject::new();
    doc.string("bench", "dist_ops")
        .string("profile", "release")
        .integer("recorded_unix", unix_secs)
        .integer(
            "nproc",
            std::thread::available_parallelism()
                .map(|n| n.get() as u64)
                .unwrap_or(1),
        )
        .string("backend", KernelBackend::active().name())
        .array("results", &results);
    std::fs::write(&out_path, doc.render() + "\n").expect("write baseline file");
    println!("\nwrote {out_path}");
}
