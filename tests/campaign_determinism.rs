//! Campaign determinism: a sharded multi-circuit campaign must be
//! bit-identical to running each circuit serially — same outcomes, same
//! report bytes — for every shard count and thread budget. This is the
//! corpus-level analogue of `parallel_determinism.rs` and the contract
//! the serve-mode API will schedule onto.

use statsize::{Campaign, CampaignJob, Objective, SelectorKind};
use statsize_bench::campaign::render_report;
use statsize_cells::CellLibrary;
use statsize_netlist::generator::{generate_iscas, generate_scaled, ScaledProfile};
use statsize_netlist::{bench, corpus};

/// The 3-circuit reference corpus: the real c17, an ISCAS-85 profile,
/// and a scaled generated profile.
fn three_circuit_corpus() -> Vec<CampaignJob> {
    vec![
        CampaignJob::new("c17", bench::c17()),
        CampaignJob::new("c432", generate_iscas("c432", 1).unwrap()),
        CampaignJob::new(
            "gen400",
            generate_scaled(&ScaledProfile::with_nodes(400), 1),
        ),
    ]
}

fn reference_campaign() -> Campaign {
    Campaign::new(Objective::percentile(0.99), SelectorKind::Pruned).with_max_iterations(3)
}

#[test]
fn report_is_bit_identical_across_shard_counts() {
    let jobs = three_circuit_corpus();
    let lib = CellLibrary::synthetic_180nm();
    let objective = Objective::percentile(0.99).to_string();

    let serial = reference_campaign().with_shards(1).run(&jobs, &lib);
    let serial_json = render_report(&serial, &objective, false);
    assert!(serial_json.contains("\"name\":\"gen400\""));

    for shards in [2usize, 4] {
        let sharded = reference_campaign().with_shards(shards).run(&jobs, &lib);
        // Struct-level: every schedule-independent field matches.
        assert_eq!(serial.outcomes.len(), sharded.outcomes.len());
        for (a, b) in serial.outcomes.iter().zip(&sharded.outcomes) {
            assert_eq!(
                a.completed().unwrap().deterministic_key(),
                b.completed().unwrap().deterministic_key(),
                "outcome diverged at {shards} shards"
            );
        }
        // Byte-level: the emitted report is identical, bit for bit.
        assert_eq!(
            serial_json,
            render_report(&sharded, &objective, false),
            "report bytes diverged at {shards} shards"
        );
    }

    // A widened thread budget changes the per-shard selector thread
    // count (and with it the schedule-dependent pruned/completed split),
    // but not one byte of the deterministic report.
    let budgeted = reference_campaign()
        .with_shards(2)
        .with_total_threads(8)
        .run(&jobs, &lib);
    assert_eq!(budgeted.threads_per_shard, 4);
    assert_eq!(
        serial_json,
        render_report(&budgeted, &objective, false),
        "report bytes diverged under a wider thread budget"
    );
}

#[test]
fn lent_threads_keep_the_largest_last_corpus_bit_identical() {
    // The largest circuit listed last: shards claim it first, and once
    // the other shard has drained the small jobs, its threads are lent
    // to the big circuit's remaining sweeps.
    let jobs = vec![
        CampaignJob::new("c17", bench::c17()),
        CampaignJob::new("gen60", generate_scaled(&ScaledProfile::with_nodes(60), 1)),
        CampaignJob::new(
            "gen400",
            generate_scaled(&ScaledProfile::with_nodes(400), 1),
        ),
    ];
    let lib = CellLibrary::synthetic_180nm();
    let campaign = reference_campaign();
    let keys = |report: &statsize::CampaignReport| -> Vec<_> {
        report
            .outcomes
            .iter()
            .map(|o| {
                o.completed()
                    .expect("every job completes")
                    .deterministic_key()
            })
            .collect()
    };
    let serial = campaign.with_shards(1).run(&jobs, &lib);
    assert_eq!(serial.lent_sweeps, 0, "a lone shard has no one to lend to");
    for total in [2usize, 4] {
        let lent = campaign
            .with_shards(2)
            .with_total_threads(total)
            .run(&jobs, &lib);
        assert_eq!(keys(&serial), keys(&lent), "budget {total}");
        assert!(
            lent.lent_sweeps > 0,
            "budget {total}: the drained shard's threads were never lent"
        );
    }
}

#[test]
fn disk_corpus_matches_the_in_memory_corpus() {
    // Writing the corpus to .bench files and campaigning over the loaded
    // copies must reproduce the in-memory outcomes exactly: the format
    // round-trip preserves everything the timing model sees.
    let jobs = three_circuit_corpus();
    let dir = std::env::temp_dir().join(format!("statsize-campdet-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for job in &jobs {
        std::fs::write(
            dir.join(format!("{}.bench", job.name)),
            bench::write(job.netlist().unwrap()),
        )
        .unwrap();
    }
    let loaded: Vec<CampaignJob> = corpus::load_dir(&dir)
        .unwrap()
        .into_iter()
        .map(|e| CampaignJob::new(e.name, e.netlist))
        .collect();
    std::fs::remove_dir_all(&dir).unwrap();

    let lib = CellLibrary::synthetic_180nm();
    let objective = Objective::percentile(0.99).to_string();
    let from_memory = reference_campaign().with_shards(2).run(&jobs, &lib);
    let from_disk = reference_campaign().with_shards(2).run(&loaded, &lib);
    assert_eq!(
        render_report(&from_memory, &objective, false),
        render_report(&from_disk, &objective, false)
    );
}

#[test]
fn large_profile_campaign_is_sharded_and_deterministic() {
    // A >10k-node scaled profile alongside small circuits: the campaign
    // must handle corpus members two orders of magnitude apart. The
    // deterministic selector keeps a 12k-node optimization cheap enough
    // for a debug-profile test (one STA pass per iteration).
    let jobs = vec![
        CampaignJob::new("c17", bench::c17()),
        CampaignJob::new(
            "gen12000",
            generate_scaled(&ScaledProfile::with_nodes(12_000), 1),
        ),
        CampaignJob::new("c432", generate_iscas("c432", 1).unwrap()),
    ];
    assert!(jobs[1].netlist().unwrap().stats().timing_nodes > 10_000);
    let lib = CellLibrary::synthetic_180nm();
    let campaign = Campaign::new(Objective::percentile(0.99), SelectorKind::Deterministic)
        .with_max_iterations(2);

    let sharded = campaign.with_shards(2).run(&jobs, &lib);
    assert_eq!(sharded.shards, 2);
    let big = sharded.outcomes[1].completed().expect("gen12000 completes");
    assert_eq!(big.name, "gen12000");
    assert!(big.nodes > 10_000);
    assert!(
        big.final_objective < big.initial_objective,
        "sizing must improve the 12k-node circuit"
    );

    let serial = campaign.with_shards(1).run(&jobs, &lib);
    for (a, b) in serial.outcomes.iter().zip(&sharded.outcomes) {
        assert_eq!(
            a.completed().unwrap().deterministic_key(),
            b.completed().unwrap().deterministic_key()
        );
    }
}
