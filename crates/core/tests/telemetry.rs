//! Telemetry differential tests: the traced campaign must emit exactly
//! one run event per injection run with tallies matching the campaign
//! result in both execution modes, produce results bit-identical to the
//! untraced engine, and round-trip through the JSONL trace format back
//! into the same Table 1.

use fisec_apps::AppSpec;
use fisec_core::{
    run_campaign, run_campaign_cached, tables, trace, CampaignConfig, CampaignResult,
    EncodingScheme, ExecutionMode,
};
use fisec_inject::OutcomeClass;
use fisec_telemetry::{metric, JsonlSink, MemorySink, Telemetry, TraceEvent};
use std::sync::Arc;

fn cfg(mode: ExecutionMode) -> CampaignConfig {
    CampaignConfig {
        scheme: EncodingScheme::Baseline,
        mode,
        ..CampaignConfig::default()
    }
}

/// The event stream must carry the whole campaign: header first,
/// trailer last, one run event per experiment, with per-client
/// per-outcome tallies equal to the result's counts.
fn assert_stream_matches(events: &[TraceEvent], result: &CampaignResult) {
    assert!(
        matches!(events.first(), Some(TraceEvent::Campaign(_))),
        "stream must open with a campaign header"
    );
    assert!(
        matches!(events.last(), Some(TraceEvent::CampaignEnd(_))),
        "stream must close with a campaign trailer"
    );
    let runs: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Run(r) => Some(r),
            _ => None,
        })
        .collect();
    assert_eq!(
        runs.len(),
        result.runs_per_client * result.clients.len(),
        "exactly one event per injection run"
    );
    for (ci, client) in result.clients.iter().enumerate() {
        for class in OutcomeClass::ALL {
            let from_events = runs
                .iter()
                .filter(|r| r.client == ci && r.outcome == class.abbrev())
                .count();
            assert_eq!(
                from_events,
                client.counts.get(class),
                "{} {} tally mismatch between events and result",
                client.client,
                class.abbrev()
            );
        }
    }
    if let Some(TraceEvent::CampaignEnd(end)) = events.last() {
        assert_eq!(end.runs as usize, runs.len());
        assert_eq!(
            end.na_prefilter_runs as usize,
            runs.iter().filter(|r| r.na_prefilter).count()
        );
    }
}

#[test]
fn traced_ftpd_campaign_matches_result_in_both_modes() {
    let app = AppSpec::ftpd();
    let untraced = run_campaign(&app, &cfg(ExecutionMode::Snapshot));
    for mode in [ExecutionMode::Snapshot, ExecutionMode::FromScratch] {
        let sink = Arc::new(MemorySink::new());
        let tel = Telemetry::new(sink.clone(), false);
        let result = run_campaign_cached(&app, &cfg(mode), &tel, None);
        assert_stream_matches(&sink.events(), &result);
        // Telemetry must not perturb the experiment.
        for (t, u) in result.clients.iter().zip(&untraced.clients) {
            assert_eq!(t.counts, u.counts, "{mode:?} diverged from untraced");
            assert_eq!(t.records, u.records, "{mode:?} records diverged");
        }
        // The metrics registry agrees with the event stream.
        let snap = tel.metrics.snapshot();
        assert_eq!(
            snap.counter(metric::RUNS) as usize,
            result.runs_per_client * result.clients.len()
        );
        if mode == ExecutionMode::Snapshot {
            assert!(snap.counter(metric::GROUPS) > 0);
            assert!(snap.histogram(metric::GROUP_SIZE).is_some());
        }
        assert!(snap.histogram(metric::ICOUNT).is_some());
    }
}

#[test]
fn jsonl_trace_round_trips_to_identical_table1() {
    let app = AppSpec::ftpd();
    let dir = std::env::temp_dir().join(format!("fisec-telemetry-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ftpd.jsonl");

    let sink = Arc::new(JsonlSink::create(&path).unwrap());
    let tel = Telemetry::new(sink, false);
    let live = run_campaign_cached(&app, &cfg(ExecutionMode::Snapshot), &tel, None);
    tel.sink.flush();

    let replay = trace::read_trace(&path).unwrap();
    assert_eq!(replay.campaigns.len(), 1);
    let replayed = &replay.campaigns[0].result;
    assert_eq!(
        tables::render_table1(&[replayed]),
        tables::render_table1(&[&live]),
        "replayed Table 1 must be byte-identical to the live one"
    );
    // The stats rendering leads with that same table.
    let stats = trace::render_stats(&replay);
    assert!(
        stats.starts_with(&tables::render_table1(&[&live])),
        "{stats}"
    );

    std::fs::remove_dir_all(&dir).ok();
}
