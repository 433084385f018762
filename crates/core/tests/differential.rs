//! Full-campaign differential tests: the checkpoint-based engine (the
//! default) must reproduce the from-scratch reference oracle
//! bit-for-bit over the complete ftpd and sshd campaigns, and both must
//! reproduce the headline numbers recorded in EXPERIMENTS.md (Tables
//! 1/3/5 inputs and the Figure 4 latency vector).

use fisec_apps::AppSpec;
use fisec_core::{
    run_campaign, CampaignConfig, CampaignResult, EncodingScheme, EngineOpts, ExecutionMode,
};

fn cfg(scheme: EncodingScheme, mode: ExecutionMode) -> CampaignConfig {
    CampaignConfig {
        scheme,
        mode,
        ..CampaignConfig::default()
    }
}

/// Every observable per-client artefact must match between engines:
/// tallies, location breakdowns, latencies, deviation counts and the
/// full per-run record vectors.
fn assert_campaigns_identical(fast: &CampaignResult, slow: &CampaignResult) {
    assert_eq!(fast.runs_per_client, slow.runs_per_client);
    assert_eq!(fast.clients.len(), slow.clients.len());
    for (f, s) in fast.clients.iter().zip(&slow.clients) {
        assert_eq!(f.client, s.client);
        assert_eq!(
            f.counts, s.counts,
            "{} {} tallies diverged",
            fast.app, f.client
        );
        assert_eq!(
            f.brkfsv_by_location, s.brkfsv_by_location,
            "{} {} location breakdown diverged",
            fast.app, f.client
        );
        assert_eq!(
            f.crash_latencies, s.crash_latencies,
            "{} {} Figure-4 latencies diverged",
            fast.app, f.client
        );
        assert_eq!(f.transient_deviations, s.transient_deviations);
        assert_eq!(
            f.records, s.records,
            "{} {} per-run records diverged",
            fast.app, f.client
        );
    }
}

#[test]
fn ftpd_full_campaign_identical_across_engines_and_pinned() {
    let app = AppSpec::ftpd();
    for scheme in [EncodingScheme::Baseline, EncodingScheme::NewEncoding] {
        let fast = run_campaign(&app, &cfg(scheme, ExecutionMode::Snapshot));
        let slow = run_campaign(&app, &cfg(scheme, ExecutionMode::FromScratch));
        assert_campaigns_identical(&fast, &slow);
        // EXPERIMENTS.md pins (Tables 1 and 5): 1072 target bits;
        // Client1 BRK 4 baseline -> 1 new encoding; Client3 BRK 3
        // baseline; granted clients never break in.
        assert_eq!(fast.runs_per_client, 1072);
        match scheme {
            EncodingScheme::Baseline => {
                assert_eq!(fast.clients[0].counts.brk, 4);
                assert_eq!(fast.clients[2].counts.brk, 3);
            }
            EncodingScheme::NewEncoding => {
                assert_eq!(fast.clients[0].counts.brk, 1);
            }
        }
        for c in &fast.clients {
            if !c.golden_denied {
                assert_eq!(c.counts.brk, 0, "{} must not break in", c.client);
            }
        }
    }
}

#[test]
fn sshd_full_campaign_identical_across_engines_and_pinned() {
    let app = AppSpec::sshd();
    for scheme in [EncodingScheme::Baseline, EncodingScheme::NewEncoding] {
        let fast = run_campaign(&app, &cfg(scheme, ExecutionMode::Snapshot));
        let slow = run_campaign(&app, &cfg(scheme, ExecutionMode::FromScratch));
        assert_campaigns_identical(&fast, &slow);
        // EXPERIMENTS.md pins: 1160 target bits; Client1 BRK 20
        // baseline -> 7 new encoding.
        assert_eq!(fast.runs_per_client, 1160);
        let want_brk = match scheme {
            EncodingScheme::Baseline => 20,
            EncodingScheme::NewEncoding => 7,
        };
        assert_eq!(fast.clients[0].counts.brk, want_brk);
    }
}

#[test]
fn full_campaigns_identical_with_and_without_block_cache() {
    // The interpreter's basic-block engine is a pure speedup: over the
    // complete ftpd and sshd campaigns, in both execution modes, every
    // per-run record must be identical with the cache disabled.
    for app in [AppSpec::ftpd(), AppSpec::sshd()] {
        for mode in [ExecutionMode::Snapshot, ExecutionMode::FromScratch] {
            let blk = run_campaign(&app, &cfg(EncodingScheme::Baseline, mode));
            let stp = run_campaign(
                &app,
                &CampaignConfig {
                    engine: EngineOpts {
                        block_cache: false,
                        ..EngineOpts::default()
                    },
                    ..cfg(EncodingScheme::Baseline, mode)
                },
            );
            assert_campaigns_identical(&blk, &stp);
        }
    }
}

#[test]
fn full_campaigns_identical_with_and_without_trace_cache() {
    // The tier-2 trace engine (superblocks across taken branches) is a
    // pure speedup on top of the block cache: over the complete ftpd
    // and sshd campaigns, in both execution modes, every per-run record
    // must be identical with the trace cache disabled.
    for app in [AppSpec::ftpd(), AppSpec::sshd()] {
        for mode in [ExecutionMode::Snapshot, ExecutionMode::FromScratch] {
            let tier2 = run_campaign(&app, &cfg(EncodingScheme::Baseline, mode));
            let tier1 = run_campaign(
                &app,
                &CampaignConfig {
                    engine: EngineOpts {
                        trace_cache: false,
                        ..EngineOpts::default()
                    },
                    ..cfg(EncodingScheme::Baseline, mode)
                },
            );
            assert_campaigns_identical(&tier2, &tier1);
        }
    }
}

#[test]
fn full_campaigns_identical_with_and_without_flight_recorder() {
    // The flight recorder is a pure observer: over the complete ftpd
    // campaign, in both execution modes, recorder-on results must be
    // bit-identical to recorder-off — and the trace-derived crash
    // latencies must reproduce the live Figure 4 vector exactly.
    let app = AppSpec::ftpd();
    for mode in [ExecutionMode::Snapshot, ExecutionMode::FromScratch] {
        let off = run_campaign(&app, &cfg(EncodingScheme::Baseline, mode));
        let on = run_campaign(
            &app,
            &CampaignConfig {
                engine: EngineOpts {
                    flight_recorder: true,
                    ..EngineOpts::default()
                },
                ..cfg(EncodingScheme::Baseline, mode)
            },
        );
        assert_campaigns_identical(&on, &off);
        for (c_on, c_off) in on.clients.iter().zip(&off.clients) {
            assert!(
                c_off.trace_crash_latencies.is_empty(),
                "recorder-off campaigns record no traces"
            );
            assert_eq!(
                c_on.trace_crash_latencies, c_on.crash_latencies,
                "{:?} {} trace-derived Figure 4 diverged from live",
                mode, c_on.client
            );
        }
    }
}

#[test]
fn snapshot_engine_agrees_sequential_vs_threaded() {
    // The work-queue scheduler must not perturb results or ordering.
    let mut app = AppSpec::ftpd();
    app.auth_funcs = vec!["pass"];
    app.clients.truncate(2);
    let seq = run_campaign(
        &app,
        &CampaignConfig {
            threads: 1,
            ..CampaignConfig::default()
        },
    );
    let par = run_campaign(
        &app,
        &CampaignConfig {
            threads: 4,
            ..CampaignConfig::default()
        },
    );
    assert_campaigns_identical(&par, &seq);
}

#[test]
fn from_scratch_engine_agrees_sequential_vs_threaded() {
    let mut app = AppSpec::ftpd();
    app.auth_funcs = vec!["pass"];
    app.clients.truncate(1);
    let base = CampaignConfig {
        mode: ExecutionMode::FromScratch,
        ..CampaignConfig::default()
    };
    let seq = run_campaign(&app, &CampaignConfig { threads: 1, ..base });
    let par = run_campaign(&app, &CampaignConfig { threads: 4, ..base });
    assert_campaigns_identical(&par, &seq);
}
