//! Differential tests for the streaming random-injection tier.
//!
//! The claims under test are exactly the guarantees the engine
//! advertises: sharding is free (N worker shards produce the same
//! campaign as one, bit for bit, in both execution engines, for both
//! servers under both encodings), the draw
//! stream is partition-invariant (any split of the index range yields
//! the same multiset of (offset, bit) pairs), and a campaign killed
//! mid-run resumes from its ledger to tallies identical to an
//! uninterrupted run — which `fisec stats` then reproduces from the
//! ledger alone, confidence intervals included.

use fisec_apps::AppSpec;
use fisec_core::random::{
    self, read_ledger, render_report, resume_random_streaming, run_random_streaming,
    truncate_torn_tail, RandomConfig,
};
use fisec_core::{trace, EncodingScheme, ExecutionMode};
use fisec_inject::{golden_run, EngineOpts, FirstFetchPass};
use fisec_telemetry::{metric, JsonlSink, MemorySink, NullSink, Phase, Telemetry, TraceEvent};
use std::path::PathBuf;
use std::sync::Arc;

const RUNS: usize = 160;
const SEED: u64 = 0xD5A1_2001;

fn cfg(mode: ExecutionMode, threads: usize) -> RandomConfig {
    RandomConfig {
        runs: RUNS,
        seed: SEED,
        mode,
        threads,
        batch: 40,
        ..RandomConfig::default()
    }
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fisec-random-diff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// N shards and 1 shard must fold to the same campaign, bit for bit,
/// and the snapshot engine (first-fetch rungs, never-fetched draws
/// served without running) must agree with booting every run from
/// scratch — for both servers under both encodings.
#[test]
fn sharded_campaign_is_bit_identical_to_unsharded_in_both_modes() {
    for app in [AppSpec::ftpd(), AppSpec::sshd()] {
        for scheme in [EncodingScheme::Baseline, EncodingScheme::NewEncoding] {
            let at = |mode, threads| RandomConfig {
                scheme,
                ..cfg(mode, threads)
            };
            let baseline = run_random_streaming(
                &app,
                &at(ExecutionMode::Snapshot, 1),
                &Telemetry::disabled(),
            )
            .unwrap();
            assert_eq!(baseline.result.runs, RUNS);
            for mode in [ExecutionMode::Snapshot, ExecutionMode::FromScratch] {
                for threads in [1, 2, 8] {
                    let sharded =
                        run_random_streaming(&app, &at(mode, threads), &Telemetry::disabled())
                            .unwrap();
                    // Tallies and histograms are the experiment; the mode
                    // label is the only field allowed to differ across
                    // engines.
                    let what = format!("{} {scheme:?} {mode:?} x{threads}", app.name);
                    assert_eq!(
                        sharded.result, baseline.result,
                        "{what}: tallies diverged from unsharded snapshot campaign"
                    );
                    assert_eq!(
                        sharded.hists, baseline.hists,
                        "{what}: icount histograms diverged"
                    );
                }
            }
        }
    }
}

/// The random tier's own telemetry shows where its time goes and what
/// the first-fetch pass saved: never-fetched draws count as NA
/// pre-filtered runs, every replay and walk step as a restore, and the
/// phase table is no longer all zeros.
#[test]
fn random_campaign_reports_phases_and_shortcut_counts() {
    let app = AppSpec::ftpd();
    let cfg = cfg(ExecutionMode::Snapshot, 1);
    let tel = Telemetry::new(Arc::new(NullSink), false);
    let stats = run_random_streaming(&app, &cfg, &tel).unwrap();
    assert_eq!(stats.result.runs, RUNS);

    let golden = golden_run(&app.image, &app.clients[0]).unwrap();
    let pass =
        FirstFetchPass::run(&app.image, &app.clients[0], &golden, EngineOpts::default()).unwrap();
    let rungs: Vec<Option<u64>> = (0..RUNS as u64)
        .map(|i| pass.rung(random::draw(SEED, i, app.image.text.len()).0))
        .collect();
    let unfetched = rungs.iter().filter(|t| t.is_none()).count() as u64;
    assert!(unfetched > 0 && unfetched < RUNS as u64, "{unfetched}");

    let snap = tel.metrics.snapshot();
    assert_eq!(snap.counter(metric::RUNS), RUNS as u64);
    // Process loads: the golden run, the first-fetch pass and the one
    // worker's runner.
    assert_eq!(snap.counter(metric::FRESH_BOOTS), 3);
    assert_eq!(snap.counter(metric::NA_PREFILTER_RUNS), unfetched);
    // One restore per replayed draw plus one per walk step: a distinct
    // rung above icount 0 within a batch.
    let steps: usize = rungs
        .chunks(cfg.batch)
        .map(|b| {
            let mut ts: Vec<u64> = b.iter().flatten().copied().filter(|&t| t > 0).collect();
            ts.sort_unstable();
            ts.dedup();
            ts.len()
        })
        .sum();
    assert_eq!(
        snap.counter(metric::RESTORES),
        RUNS as u64 - unfetched + steps as u64
    );
    let phases = snap.phases();
    for phase in [Phase::Boot, Phase::Snapshot, Phase::Replay] {
        assert!(phases.get(phase) > 0, "{phase:?} was never charged");
    }
}

/// Seed 2001's 4,000 ftpd draws replay 24 budget-bound sessions; 13 of
/// them are proven loops (9 exact cycles, 4 output loops) and skip their
/// whole periods. The per-step engine skips none, and the two campaigns
/// agree on every tally and icount histogram.
#[test]
fn hang_fast_forward_counts_are_pinned() {
    let app = AppSpec::ftpd();
    let campaign = |block_cache: bool| {
        let cfg = RandomConfig {
            runs: 4000,
            seed: 2001,
            engine: EngineOpts {
                block_cache,
                ..EngineOpts::default()
            },
            ..RandomConfig::default()
        };
        let sink = Arc::new(MemorySink::new());
        let stats = run_random_streaming(&app, &cfg, &Telemetry::new(sink.clone(), false)).unwrap();
        let end = sink
            .events()
            .into_iter()
            .find_map(|e| match e {
                TraceEvent::RandomEnd(end) => Some(end),
                _ => None,
            })
            .expect("the campaign ends with a trailer");
        (stats, end.fast_forwarded_runs, end.skipped_guest_insts)
    };
    let (blocks, runs, skipped) = campaign(true);
    assert_eq!(runs, 13);
    assert!(skipped > 13 * 300_000, "{skipped}");
    let (steps, runs, skipped) = campaign(false);
    assert_eq!((runs, skipped), (0, 0));
    assert_eq!(blocks.result, steps.result);
    assert_eq!(blocks.hists, steps.hists);
    assert_eq!(render_report(&blocks), render_report(&steps));
}

/// The draw stream is a pure function of (seed, index, text_len):
/// partitioning the index range into shards of any geometry yields
/// exactly the full sequence. This is the property that makes the
/// sharded campaign's determinism trivial rather than lucky.
#[test]
fn draw_stream_is_partition_invariant() {
    for (seed, text_len) in [(0u64, 13usize), (SEED, 4096), (u64::MAX, 1)] {
        let full: Vec<(usize, u8)> = (0..512).map(|i| random::draw(seed, i, text_len)).collect();
        for shards in [1u64, 3, 7, 64] {
            let mut stitched = vec![(0usize, 0u8); 512];
            for s in 0..shards {
                let mut i = s;
                while i < 512 {
                    stitched[i as usize] = random::draw(seed, i, text_len);
                    i += shards;
                }
            }
            assert_eq!(stitched, full, "seed {seed} len {text_len} x{shards}");
        }
        assert!(full.iter().all(|&(off, bit)| off < text_len && bit < 8));
    }
}

/// Kill/resume: truncate the ledger to its first committed batch (a
/// crash between checkpoints), resume, and demand the final tallies —
/// and the rendered report with its confidence intervals — equal an
/// uninterrupted run's.
#[test]
fn killed_campaign_resumes_to_identical_tallies() {
    let app = AppSpec::ftpd();
    let cfg = cfg(ExecutionMode::Snapshot, 2);
    let uninterrupted = run_random_streaming(&app, &cfg, &Telemetry::disabled()).unwrap();

    let path = tmp("killed.jsonl");
    let tel = Telemetry::new(Arc::new(JsonlSink::create(&path).unwrap()), false);
    run_random_streaming(&app, &cfg, &tel).unwrap();
    tel.sink.flush();

    // Simulate the kill: keep the header, the first committed batch,
    // and a torn half-written line.
    let full = std::fs::read_to_string(&path).unwrap();
    let mut lines = full.lines();
    let truncated = format!(
        "{}\n{}\n{{\"type\":\"random_ba",
        lines.next().unwrap(),
        lines.next().unwrap()
    );
    std::fs::write(&path, truncated).unwrap();

    let ledger = read_ledger(&path).unwrap();
    assert!(!ledger.finished);
    assert_eq!(ledger.committed, cfg.batch as u64);
    truncate_torn_tail(&path, &ledger).unwrap();
    let tel = Telemetry::new(Arc::new(JsonlSink::append(&path).unwrap()), false);
    let resumed = resume_random_streaming(&app, &cfg, &ledger, &tel).unwrap();
    tel.sink.flush();

    assert_eq!(
        resumed, uninterrupted,
        "resumed campaign must be bit-identical to an uninterrupted one"
    );
    assert_eq!(render_report(&resumed), render_report(&uninterrupted));

    // The stitched ledger replays to the same finished campaign.
    let replay = trace::read_trace(&path).unwrap();
    assert_eq!(replay.random.len(), 1);
    assert_eq!(replay.random[0].stats, uninterrupted);
    std::fs::remove_file(&path).ok();
}

/// A resumed campaign must refuse a ledger recorded under different
/// campaign parameters — silently continuing a different draw stream
/// would corrupt the tallies.
#[test]
fn resume_rejects_a_mismatched_ledger() {
    let app = AppSpec::ftpd();
    let cfg = cfg(ExecutionMode::Snapshot, 1);
    let path = tmp("mismatch.jsonl");
    let tel = Telemetry::new(Arc::new(JsonlSink::create(&path).unwrap()), false);
    run_random_streaming(&app, &cfg, &tel).unwrap();
    tel.sink.flush();

    let ledger = read_ledger(&path).unwrap();
    let other = RandomConfig {
        seed: cfg.seed + 1,
        ..cfg
    };
    let err = resume_random_streaming(&app, &other, &ledger, &Telemetry::disabled()).unwrap_err();
    assert!(err.contains("does not match"), "{err}");
    std::fs::remove_file(&path).ok();
}

/// `fisec stats` round-trip: the report rebuilt from the ledger alone
/// must match the live one byte for byte — tallies, violation rate,
/// Wilson and Clopper-Pearson intervals, histograms.
#[test]
fn stats_replay_rebuilds_the_live_report_byte_for_byte() {
    let app = AppSpec::ftpd();
    let cfg = cfg(ExecutionMode::Snapshot, 4);
    let path = tmp("roundtrip.jsonl");
    let tel = Telemetry::new(Arc::new(JsonlSink::create(&path).unwrap()), false);
    let live = run_random_streaming(&app, &cfg, &tel).unwrap();
    tel.sink.flush();

    let replay = trace::read_trace(&path).unwrap();
    assert_eq!(replay.random.len(), 1);
    let replayed = &replay.random[0];
    assert_eq!(replayed.stats, live);
    assert_eq!(render_report(&replayed.stats), render_report(&live));
    assert_eq!(
        replayed.stats.json_summary(),
        live.json_summary(),
        "intervals must survive the ledger round-trip"
    );
    assert!(replayed.end.is_some(), "finished ledger carries a trailer");
    std::fs::remove_file(&path).ok();
}

/// `--target-ci` stops at a deterministic batch boundary regardless of
/// worker count: the stop decision is made by the in-order committer,
/// never by a racing shard.
#[test]
fn target_ci_stop_point_is_thread_count_invariant() {
    let app = AppSpec::ftpd();
    let make = |threads| RandomConfig {
        runs: 600,
        seed: SEED,
        threads,
        batch: 50,
        target_ci: Some(0.05),
        ..RandomConfig::default()
    };
    let one = run_random_streaming(&app, &make(1), &Telemetry::disabled()).unwrap();
    assert!(one.result.runs < 600, "0.05 must stop the campaign early");
    assert!(
        one.result.runs.is_multiple_of(50),
        "stops on a batch boundary"
    );
    assert!(one.wilson95().width() < 0.05);
    for threads in [2, 8] {
        let many = run_random_streaming(&app, &make(threads), &Telemetry::disabled()).unwrap();
        assert_eq!(many, one, "x{threads} stopped at a different point");
    }
}
