//! Replay a saved telemetry trace back into campaign results.
//!
//! `fisec <cmd> --trace-out run.jsonl` records one [`RunEvent`] per
//! injection run between a campaign header and trailer. This module
//! rebuilds [`CampaignResult`]s from that stream so `fisec stats` can
//! re-render the paper's tables (byte-identical to the live output for
//! a complete trace) plus the phase breakdown — without re-running a
//! single injection.

use crate::campaign::{CampaignResult, ClientCampaign, RunRecord};
use crate::counts::{LocationCounts, OutcomeCounts};
use crate::random::{render_report, RandomCampaignResult, RandomStats};
use crate::tables::render_table1;
use fisec_encoding::EncodingScheme;
use fisec_inject::{ErrorLocation, GoldenRun, OutcomeClass};
use fisec_net::{ClientStatus, Trace};
use fisec_os::Stop;
use fisec_telemetry::{
    metric, read_jsonl_path, render_phase_table, CampaignEndEvent, CampaignEvent, LogHistogram,
    OutcomeHists, PhaseTimes, ProfileEvent, PropagationEvent, RandomCampaignEvent, RandomEndEvent,
    RunEvent, SpanEvent, TraceEvent,
};
use std::path::Path;

/// One campaign reconstructed from a trace: its header, the rebuilt
/// result, the trailer (absent when the stream was truncated) and the
/// raw run events for custom analysis.
#[derive(Debug, Clone)]
pub struct ReplayedCampaign {
    /// Campaign header as recorded.
    pub header: CampaignEvent,
    /// Result rebuilt from the run events. The golden runs are stubs
    /// (only `golden_denied` survives a trace); every consumer of the
    /// tables reads tallies and records, not golden state.
    pub result: CampaignResult,
    /// Campaign trailer, when the stream contains one.
    pub end: Option<CampaignEndEvent>,
    /// Run events in emission order.
    pub run_events: Vec<RunEvent>,
    /// Hot-spot profile, when the campaign ran with `--profile`.
    pub profile: Option<ProfileEvent>,
    /// Propagation aggregate, when the campaign ran with
    /// `--propagation`.
    pub propagation: Option<PropagationEvent>,
}

/// One random campaign reconstructed from its ledger checkpoints.
#[derive(Debug, Clone)]
pub struct ReplayedRandom {
    /// Campaign header as recorded.
    pub header: RandomCampaignEvent,
    /// Aggregation state of the last committed checkpoint, in the same
    /// shape the live engine reports — [`render_report`] on it is
    /// byte-identical to the live output for a complete ledger.
    pub stats: RandomStats,
    /// Campaign trailer, when the ledger contains one (absent after a
    /// kill: the campaign is resumable).
    pub end: Option<RandomEndEvent>,
}

/// Everything a trace replays to: the targeted campaigns and the random
/// campaigns that shared the stream.
#[derive(Debug, Clone, Default)]
pub struct ReplayedTrace {
    /// Targeted (breakpoint) campaigns, in stream order.
    pub campaigns: Vec<ReplayedCampaign>,
    /// Random (latent-error) campaigns, in stream order.
    pub random: Vec<ReplayedRandom>,
    /// Span events in emission order (present when the trace was
    /// recorded with `--chrome-trace`); the Perfetto exporter's input.
    pub spans: Vec<SpanEvent>,
}

fn outcome_of(abbrev: &str) -> Result<OutcomeClass, String> {
    OutcomeClass::ALL
        .into_iter()
        .find(|o| o.abbrev() == abbrev)
        .ok_or_else(|| format!("unknown outcome `{abbrev}`"))
}

fn outcome_char(o: OutcomeClass) -> char {
    match o {
        OutcomeClass::NotActivated => 'N',
        OutcomeClass::NotManifested => 'M',
        OutcomeClass::SystemDetection => 'S',
        OutcomeClass::FailSilenceViolation => 'F',
        OutcomeClass::Breakin => 'B',
    }
}

/// A placeholder golden run for replayed results: traces record only
/// whether the golden run denied the client, which is all the renderers
/// consult.
fn stub_golden(denied: bool) -> GoldenRun {
    GoldenRun {
        stop: Stop::Exited(0),
        client: if denied {
            ClientStatus::Denied
        } else {
            ClientStatus::Granted
        },
        trace: Trace::default(),
        icount: 0,
    }
}

fn stats_of(header: &RandomCampaignEvent) -> RandomStats {
    RandomStats {
        app: header.app.clone(),
        scheme: header.scheme.clone(),
        mode: header.mode.clone(),
        client: header.client.clone(),
        seed: header.seed,
        batch: header.batch as usize,
        target_ci: header.target_ci,
        result: RandomCampaignResult::default(),
        hists: OutcomeHists::default(),
    }
}

/// Group a parsed event stream into campaigns.
///
/// # Errors
/// A message when a run event appears outside a campaign, references a
/// client the header does not name, carries an unknown label, or when
/// random-campaign checkpoints are non-contiguous or contradict their
/// trailer.
pub fn parse_trace(events: &[TraceEvent]) -> Result<ReplayedTrace, String> {
    let mut campaigns: Vec<ReplayedCampaign> = Vec::new();
    let mut random: Vec<ReplayedRandom> = Vec::new();
    let mut spans: Vec<SpanEvent> = Vec::new();
    let mut open = false;
    let mut random_open = false;
    for (i, ev) in events.iter().enumerate() {
        let at = || format!("event {}", i + 1);
        match ev {
            TraceEvent::Campaign(hdr) => {
                if hdr.clients.len() != hdr.golden_denied.len() {
                    return Err(format!(
                        "{}: campaign header names {} clients but {} golden verdicts",
                        at(),
                        hdr.clients.len(),
                        hdr.golden_denied.len()
                    ));
                }
                let clients = hdr
                    .clients
                    .iter()
                    .zip(&hdr.golden_denied)
                    .map(|(name, &denied)| ClientCampaign {
                        client: name.clone(),
                        golden_denied: denied,
                        golden: stub_golden(denied),
                        counts: OutcomeCounts::default(),
                        brkfsv_by_location: LocationCounts::default(),
                        crash_latencies: Vec::new(),
                        trace_crash_latencies: Vec::new(),
                        transient_deviations: 0,
                        propagation: None,
                        records: Vec::new(),
                    })
                    .collect();
                campaigns.push(ReplayedCampaign {
                    header: hdr.clone(),
                    result: CampaignResult {
                        app: hdr.app.clone(),
                        scheme: EncodingScheme::by_name(&hdr.scheme).ok_or_else(|| {
                            format!("{}: unknown scheme label `{}`", at(), hdr.scheme)
                        })?,
                        instructions: hdr.instructions,
                        cond_branches: hdr.cond_branches,
                        runs_per_client: hdr.runs_per_client,
                        clients,
                    },
                    end: None,
                    run_events: Vec::new(),
                    profile: None,
                    propagation: None,
                });
                open = true;
            }
            TraceEvent::Run(run) => {
                if !open {
                    return Err(format!("{}: run event outside a campaign", at()));
                }
                let campaign = campaigns.last_mut().expect("open implies a campaign");
                let outcome = outcome_of(&run.outcome).map_err(|e| format!("{}: {e}", at()))?;
                let location = *ErrorLocation::ALL
                    .get(run.location as usize)
                    .ok_or_else(|| {
                        format!("{}: location index {} out of range", at(), run.location)
                    })?;
                let cc =
                    campaign.result.clients.get_mut(run.client).ok_or_else(|| {
                        format!("{}: client index {} out of range", at(), run.client)
                    })?;
                cc.counts.add(outcome);
                if matches!(
                    outcome,
                    OutcomeClass::Breakin | OutcomeClass::FailSilenceViolation
                ) {
                    cc.brkfsv_by_location.add(location);
                }
                if let Some(lat) = run.crash_latency {
                    cc.crash_latencies.push(lat);
                }
                if let Some(lat) = run.trace_latency {
                    cc.trace_crash_latencies.push(lat);
                }
                if run.transient_deviation {
                    cc.transient_deviations += 1;
                }
                cc.records.push(RunRecord {
                    addr: run.addr,
                    byte_index: run.byte_index,
                    bit: run.bit,
                    outcome_abbrev: outcome_char(outcome),
                    location_index: run.location,
                    crash_latency: run.crash_latency,
                    transient_deviation: run.transient_deviation,
                });
                campaign.run_events.push(run.clone());
            }
            TraceEvent::CampaignEnd(end) => {
                if !open {
                    return Err(format!("{}: campaign_end without a campaign", at()));
                }
                campaigns.last_mut().expect("open implies a campaign").end = Some(*end);
                open = false;
            }
            TraceEvent::RandomCampaign(hdr) => {
                random.push(ReplayedRandom {
                    header: hdr.clone(),
                    stats: stats_of(hdr),
                    end: None,
                });
                random_open = true;
            }
            TraceEvent::RandomBatch(b) => {
                if !random_open {
                    return Err(format!("{}: random_batch outside a random campaign", at()));
                }
                let r = random.last_mut().expect("random_open implies a campaign");
                let committed = r.stats.result.runs as u64;
                if b.start != committed || b.end <= b.start {
                    return Err(format!(
                        "{}: non-contiguous checkpoint: batch covers [{}, {}) but {} runs are committed",
                        at(),
                        b.start,
                        b.end,
                        committed
                    ));
                }
                let total = b.no_effect + b.sd + b.fsv + b.brk;
                if total != b.end {
                    return Err(format!(
                        "{}: checkpoint tallies sum to {total} but claim {} runs",
                        at(),
                        b.end
                    ));
                }
                r.stats.result = RandomCampaignResult {
                    runs: b.end as usize,
                    no_effect: b.no_effect as usize,
                    sd: b.sd as usize,
                    fsv: b.fsv as usize,
                    brk: b.brk as usize,
                };
                r.stats.hists = b.hists.clone();
            }
            TraceEvent::RandomEnd(end) => {
                if !random_open {
                    return Err(format!("{}: random_end without a random campaign", at()));
                }
                let r = random.last_mut().expect("random_open implies a campaign");
                let c = &r.stats.result;
                let committed = (
                    c.runs as u64,
                    c.no_effect as u64,
                    c.sd as u64,
                    c.fsv as u64,
                    c.brk as u64,
                );
                let claimed = (end.runs, end.no_effect, end.sd, end.fsv, end.brk);
                if committed != claimed {
                    return Err(format!(
                        "{}: trailer tallies {claimed:?} contradict the committed checkpoints {committed:?}",
                        at()
                    ));
                }
                r.end = Some(end.clone());
                random_open = false;
            }
            TraceEvent::Span(s) => spans.push(s.clone()),
            // Cache consult/store events annotate the stream; the
            // replayed tables are built from the run events alone.
            TraceEvent::Cache(_) => {}
            TraceEvent::Profile(p) => {
                if !open {
                    return Err(format!("{}: profile event outside a campaign", at()));
                }
                campaigns
                    .last_mut()
                    .expect("open implies a campaign")
                    .profile = Some((**p).clone());
            }
            TraceEvent::Propagation(p) => {
                if !open {
                    return Err(format!("{}: propagation event outside a campaign", at()));
                }
                campaigns
                    .last_mut()
                    .expect("open implies a campaign")
                    .propagation = Some(p.clone());
            }
        }
    }
    Ok(ReplayedTrace {
        campaigns,
        random,
        spans,
    })
}

/// Read and group a JSONL trace file.
///
/// # Errors
/// A message for unreadable files, malformed lines or an inconsistent
/// event stream.
pub fn read_trace(path: impl AsRef<Path>) -> Result<ReplayedTrace, String> {
    parse_trace(&read_jsonl_path(path)?)
}

fn is_complete(c: &ReplayedCampaign) -> bool {
    c.run_events.len() == c.result.runs_per_client * c.result.clients.len()
}

/// The stats line for masked replays; empty when none was masked (from
/// scratch, older traces), so their output stays byte-stable.
fn masked_line(masked: u64, replays: u64) -> String {
    if masked == 0 {
        return String::new();
    }
    format!(
        "masked {masked} of {replays} replays (re-joined golden after the flipped instruction)\n"
    )
}

/// The cache line of a campaign trailer: memoized groups folded from
/// the store, a different animal from the NA pre-filter's derived
/// groups, and the runs sibling stores answered when there were any.
/// Empty for cache-off campaigns, so their output stays byte-stable.
pub(crate) fn cache_line(end: &CampaignEndEvent) -> String {
    if end.cache_hit_groups + end.cache_miss_groups + end.cache_stale_groups == 0 {
        return String::new();
    }
    let shared = if end.cache_shared_runs > 0 {
        format!("  shared runs {}", end.cache_shared_runs)
    } else {
        String::new()
    };
    format!(
        "cache: hit groups {} ({} memoized runs)  miss {}  stale {}{shared}\n",
        end.cache_hit_groups, end.cache_synth_runs, end.cache_miss_groups, end.cache_stale_groups
    )
}

/// Render the summary for a replayed trace: the Table 1 layout per
/// consecutive same-scheme group of campaigns (byte-identical to the
/// live `fisec table1` output when the trace is complete), then a
/// per-campaign detail block with engine aggregates, the phase
/// breakdown and replay-cost histograms, then the random-campaign
/// report per ledger (byte-identical to the live `fisec random` report
/// for a complete ledger).
pub fn render_stats(trace: &ReplayedTrace) -> String {
    let campaigns = &trace.campaigns;
    let mut out = String::new();
    let mut i = 0;
    while i < campaigns.len() {
        let scheme = campaigns[i].result.scheme;
        let mut j = i;
        while j < campaigns.len() && campaigns[j].result.scheme == scheme {
            j += 1;
        }
        let refs: Vec<&CampaignResult> = campaigns[i..j].iter().map(|c| &c.result).collect();
        out.push_str(&render_table1(&refs));
        out.push('\n');
        i = j;
    }

    for c in campaigns {
        out.push_str(&format!(
            "== {} [{}] — {} engine ==\n",
            c.header.app, c.header.scheme, c.header.mode
        ));
        out.push_str(&format!(
            "{} instructions ({} conditional branches), {} runs x {} clients\n",
            c.header.instructions,
            c.header.cond_branches,
            c.header.runs_per_client,
            c.header.clients.len()
        ));
        if !is_complete(c) {
            out.push_str(&format!(
                "TRUNCATED trace: {} of {} run events present\n",
                c.run_events.len(),
                c.result.runs_per_client * c.result.clients.len()
            ));
        }
        if let Some(end) = c.end {
            out.push_str(&format!(
                "runs {}  na-prefilter {}  fresh boots {}  restores {}\n",
                end.runs, end.na_prefilter_runs, end.fresh_boots, end.restores
            ));
            out.push_str(&masked_line(end.masked_runs, end.restores));
            out.push_str(&cache_line(&end));
            let phases = PhaseTimes {
                micros: [
                    end.boot_micros,
                    end.snapshot_micros,
                    end.replay_micros,
                    end.classify_micros,
                    end.reassemble_micros,
                ],
            };
            out.push_str(&render_phase_table(&phases, end.wall_micros));
        }
        // Propagation aggregate, for campaigns that ran the taint
        // tracer. Omitted entirely otherwise to keep existing traces
        // and golden fixtures byte-stable.
        if let Some(p) = &c.propagation {
            out.push_str(&format!(
                "propagation: seeded {}  reached decision {}  compare-first {}  \
                 deaths {}  frozen {}\n",
                p.seeded, p.reached_decision, p.compare_first, p.deaths, p.frozen
            ));
            if p.fsv_seeded > 0 {
                out.push_str(&format!(
                    "propagation FSV: {}/{} reached a tainted decision ({:.1}%), \
                     {} compare-before-store\n",
                    p.fsv_reached_decision,
                    p.fsv_seeded,
                    100.0 * p.fsv_reached_decision as f64 / p.fsv_seeded as f64,
                    p.fsv_compare_first
                ));
            }
        }
        // Rebuild per-run cost histograms from the executed events (the
        // pre-filter's and the cache's synthesized runs would skew them
        // toward zero).
        let mut micros = LogHistogram::default();
        let mut icount = LogHistogram::default();
        for run in c
            .run_events
            .iter()
            .filter(|r| !r.na_prefilter && !r.cache_hit)
        {
            micros.record(run.micros);
            icount.record(run.icount);
        }
        for (name, h) in [(metric::REPLAY_MICROS, &micros), (metric::ICOUNT, &icount)] {
            if h.count > 0 {
                let (p50, p95, p99) = h.percentiles();
                out.push_str(&format!(
                    "{name:<24} n={:<9} mean={:<11.1} p50={:<9.1} p95={:<9.1} p99={:<11.1} max={}\n",
                    h.count,
                    h.mean(),
                    p50,
                    p95,
                    p99,
                    h.max
                ));
            }
        }
        out.push('\n');
    }

    // Aggregate engine view across every campaign that carries a
    // trailer — the single phase table `--progress` prints live at the
    // end of a multi-campaign invocation (e.g. table5), so an offline
    // trace replays to the same bottom line.
    let ends: Vec<&CampaignEndEvent> = campaigns.iter().filter_map(|c| c.end.as_ref()).collect();
    if ends.len() > 1 {
        out.push_str(&format!(
            "== all {} campaigns — engine aggregate ==\n",
            ends.len()
        ));
        let sum = |f: fn(&CampaignEndEvent) -> u64| ends.iter().map(|e| f(e)).sum::<u64>();
        out.push_str(&format!(
            "runs {}  na-prefilter {}  fresh boots {}  restores {}\n",
            sum(|e| e.runs),
            sum(|e| e.na_prefilter_runs),
            sum(|e| e.fresh_boots),
            sum(|e| e.restores)
        ));
        out.push_str(&masked_line(sum(|e| e.masked_runs), sum(|e| e.restores)));
        out.push_str(&cache_line(&CampaignEndEvent {
            cache_hit_groups: sum(|e| e.cache_hit_groups),
            cache_miss_groups: sum(|e| e.cache_miss_groups),
            cache_stale_groups: sum(|e| e.cache_stale_groups),
            cache_synth_runs: sum(|e| e.cache_synth_runs),
            cache_shared_runs: sum(|e| e.cache_shared_runs),
            ..CampaignEndEvent::default()
        }));
        let phases = PhaseTimes {
            micros: [
                sum(|e| e.boot_micros),
                sum(|e| e.snapshot_micros),
                sum(|e| e.replay_micros),
                sum(|e| e.classify_micros),
                sum(|e| e.reassemble_micros),
            ],
        };
        out.push_str(&render_phase_table(&phases, sum(|e| e.wall_micros)));
        out.push('\n');
    }

    for r in &trace.random {
        out.push_str(&render_report(&r.stats));
        match &r.end {
            Some(end) => {
                let secs = end.wall_micros as f64 / 1e6;
                let rate = if secs > 0.0 {
                    r.stats.result.runs as f64 / secs
                } else {
                    0.0
                };
                out.push_str(&format!("wall {secs:.1}s ({rate:.0} runs/s)\n"));
            }
            None => {
                out.push_str(&format!(
                    "RESUMABLE ledger: {} of {} runs committed, no trailer \
                     (fisec random --resume <ledger> continues it)\n",
                    r.stats.result.runs, r.header.runs
                ));
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_ev(client: usize, outcome: &str, bit: u8) -> TraceEvent {
        TraceEvent::Run(RunEvent {
            client,
            addr: 0x0804_8000,
            byte_index: 0,
            bit,
            outcome: outcome.to_string(),
            location: 0,
            worker: 0,
            snapshot_replay: true,
            na_prefilter: false,
            cache_hit: false,
            icount: 1000,
            micros: 10,
            crash_latency: if outcome == "SD" { Some(7) } else { None },
            transient_deviation: false,
            divergence_depth: None,
            trace_latency: if outcome == "SD" { Some(7) } else { None },
            taint_decision: None,
            taint_width: None,
            taint_compare_first: None,
        })
    }

    fn header(runs_per_client: usize) -> TraceEvent {
        TraceEvent::Campaign(CampaignEvent {
            app: "ftpd".to_string(),
            scheme: "baseline x86".to_string(),
            mode: "snapshot".to_string(),
            instructions: 1,
            cond_branches: 1,
            runs_per_client,
            clients: vec!["Client1".to_string()],
            golden_denied: vec![true],
        })
    }

    #[test]
    fn rebuilds_tallies_from_events() {
        let events = vec![
            header(3),
            run_ev(0, "NA", 0),
            run_ev(0, "SD", 1),
            run_ev(0, "BRK", 2),
            TraceEvent::CampaignEnd(CampaignEndEvent {
                runs: 3,
                ..CampaignEndEvent::default()
            }),
        ];
        let replay = parse_trace(&events).unwrap();
        assert_eq!(replay.campaigns.len(), 1);
        let c = &replay.campaigns[0];
        assert!(is_complete(c));
        assert_eq!(c.result.clients[0].counts.na, 1);
        assert_eq!(c.result.clients[0].counts.sd, 1);
        assert_eq!(c.result.clients[0].counts.brk, 1);
        assert_eq!(c.result.clients[0].crash_latencies, vec![7]);
        assert_eq!(c.result.clients[0].records.len(), 3);
        assert_eq!(c.end.unwrap().runs, 3);
        let s = render_stats(&replay);
        assert!(s.contains("FTPD Client1"), "{s}");
        assert!(s.contains("snapshot engine"), "{s}");
    }

    #[test]
    fn cache_line_names_shared_runs_only_when_a_sibling_answered() {
        let end = |miss, shared| CampaignEndEvent {
            runs: 1,
            cache_miss_groups: miss,
            cache_shared_runs: shared,
            ..CampaignEndEvent::default()
        };
        assert_eq!(cache_line(&end(0, 0)), "", "cache-off campaigns print none");
        assert_eq!(
            cache_line(&end(70, 0)),
            "cache: hit groups 0 (0 memoized runs)  miss 70  stale 0\n"
        );
        assert_eq!(
            cache_line(&end(70, 1222)),
            "cache: hit groups 0 (0 memoized runs)  miss 70  stale 0  shared runs 1222\n"
        );
        // The engine aggregate sums the shared runs of every trailer.
        let events = vec![
            header(1),
            run_ev(0, "NA", 0),
            TraceEvent::CampaignEnd(end(70, 0)),
            header(1),
            run_ev(0, "NA", 0),
            TraceEvent::CampaignEnd(end(70, 1222)),
        ];
        let s = render_stats(&parse_trace(&events).unwrap());
        assert!(s.contains("miss 140  stale 0  shared runs 1222\n"), "{s}");
    }

    #[test]
    fn multi_campaign_trace_renders_the_progress_aggregate() {
        let end = |runs, boot| {
            TraceEvent::CampaignEnd(CampaignEndEvent {
                runs,
                boot_micros: boot,
                wall_micros: boot * 2,
                ..CampaignEndEvent::default()
            })
        };
        let events = vec![
            header(1),
            run_ev(0, "NA", 0),
            end(1, 100_000),
            header(1),
            run_ev(0, "SD", 1),
            end(1, 300_000),
        ];
        let s = render_stats(&parse_trace(&events).unwrap());
        assert!(
            s.contains("== all 2 campaigns — engine aggregate =="),
            "{s}"
        );
        // Counter and phase sums across the two trailers.
        assert!(s.contains("runs 2"), "{s}");
        assert!(
            s.lines()
                .any(|l| l.contains("boot") && l.contains("0.400s")),
            "{s}"
        );
        // A single-campaign trace keeps the per-campaign table only.
        let single = render_stats(&parse_trace(&events[..3]).unwrap());
        assert!(!single.contains("aggregate"), "{single}");
        // The replayed latencies carry the trace-derived cross-check
        // column along (run_ev gives SD runs trace_latency == 7).
        let replay = parse_trace(&events).unwrap();
        assert_eq!(
            replay.campaigns[1].result.clients[0].trace_crash_latencies,
            vec![7]
        );
    }

    #[test]
    fn rejects_orphan_and_malformed_events() {
        assert!(parse_trace(&[run_ev(0, "NA", 0)]).is_err());
        assert!(parse_trace(&[TraceEvent::CampaignEnd(CampaignEndEvent::default())]).is_err());
        assert!(parse_trace(&[header(1), run_ev(5, "NA", 0)]).is_err());
        assert!(parse_trace(&[header(1), run_ev(0, "XX", 0)]).is_err());
    }

    #[test]
    fn truncated_trace_is_flagged_not_fatal() {
        let replay = parse_trace(&[header(3), run_ev(0, "NA", 0)]).unwrap();
        assert!(!is_complete(&replay.campaigns[0]));
        assert!(replay.campaigns[0].end.is_none());
        let s = render_stats(&replay);
        assert!(s.contains("TRUNCATED"), "{s}");
    }

    fn random_header(runs: u64) -> TraceEvent {
        TraceEvent::RandomCampaign(RandomCampaignEvent {
            app: "ftpd".to_string(),
            scheme: "baseline x86".to_string(),
            mode: "snapshot".to_string(),
            client: "Client1".to_string(),
            seed: 7,
            runs,
            batch: 2,
            text_len: 512,
            target_ci: None,
        })
    }

    fn random_batch(start: u64, end: u64, sd: u64, brk: u64) -> TraceEvent {
        TraceEvent::RandomBatch(Box::new(fisec_telemetry::RandomBatchEvent {
            start,
            end,
            no_effect: end - sd - brk,
            sd,
            fsv: 0,
            brk,
            hists: OutcomeHists::default(),
        }))
    }

    #[test]
    fn random_ledger_replays_to_the_campaign_report() {
        let end = TraceEvent::RandomEnd(RandomEndEvent {
            runs: 4,
            no_effect: 2,
            sd: 1,
            fsv: 0,
            brk: 1,
            wall_micros: 2_000_000,
            violation_rate: 0.25,
            wilson_low: 0.0,
            wilson_high: 0.7,
            cp_low: 0.0,
            cp_high: 0.8,
        });
        let events = vec![
            random_header(4),
            random_batch(0, 2, 1, 0),
            random_batch(2, 4, 1, 1),
            end,
        ];
        let replay = parse_trace(&events).unwrap();
        assert!(replay.campaigns.is_empty());
        assert_eq!(replay.random.len(), 1);
        let r = &replay.random[0];
        assert_eq!(r.stats.result.runs, 4);
        assert_eq!(r.stats.result.brk, 1);
        assert!(r.end.is_some());
        let s = render_stats(&replay);
        assert!(s.contains("== random injection: ftpd"), "{s}");
        assert!(s.contains("Wilson 95%"), "{s}");
        assert!(s.contains("wall 2.0s (2 runs/s)"), "{s}");
        assert!(!s.contains("RESUMABLE"), "{s}");
    }

    #[test]
    fn truncated_random_ledger_is_resumable_not_fatal() {
        let replay = parse_trace(&[random_header(10), random_batch(0, 2, 0, 0)]).unwrap();
        let r = &replay.random[0];
        assert!(r.end.is_none());
        assert_eq!(r.stats.result.runs, 2);
        let s = render_stats(&replay);
        assert!(s.contains("RESUMABLE ledger: 2 of 10 runs"), "{s}");
    }

    #[test]
    fn random_ledger_integrity_is_validated() {
        // Checkpoint before any header.
        assert!(parse_trace(&[random_batch(0, 2, 0, 0)]).is_err());
        // Trailer before any header.
        let end = TraceEvent::RandomEnd(RandomEndEvent {
            runs: 2,
            no_effect: 2,
            sd: 0,
            fsv: 0,
            brk: 0,
            wall_micros: 0,
            violation_rate: 0.0,
            wilson_low: 0.0,
            wilson_high: 0.0,
            cp_low: 0.0,
            cp_high: 0.0,
        });
        assert!(parse_trace(std::slice::from_ref(&end)).is_err());
        // A gap in the checkpoint stream.
        let e = parse_trace(&[random_header(10), random_batch(2, 4, 0, 0)]).unwrap_err();
        assert!(e.contains("non-contiguous"), "{e}");
        // Tallies that do not sum to the claimed run count.
        let bad = TraceEvent::RandomBatch(Box::new(fisec_telemetry::RandomBatchEvent {
            start: 0,
            end: 5,
            no_effect: 1,
            sd: 0,
            fsv: 0,
            brk: 0,
            hists: OutcomeHists::default(),
        }));
        let e = parse_trace(&[random_header(10), bad]).unwrap_err();
        assert!(e.contains("sum to 1"), "{e}");
        // A trailer contradicting the committed checkpoints.
        let e = parse_trace(&[random_header(10), random_batch(0, 4, 0, 0), end]).unwrap_err();
        assert!(e.contains("contradict"), "{e}");
    }
}
