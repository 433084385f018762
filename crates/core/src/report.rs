//! `fisec report`: regenerate the experiment's figures from a saved
//! trace as one self-contained HTML file.
//!
//! Everything is derived from the trace alone — no re-execution, no
//! timestamps, no external assets — so the same trace always renders
//! the same bytes (pinned by a golden-file test) and the file can be
//! archived next to the ledger it describes. The Table 1 section embeds
//! the *exact* text `fisec stats` prints, so the report and the CLI can
//! never drift apart.

use crate::campaign::CampaignResult;
use crate::figure4;
use crate::hotblocks::{render_hot_blocks, DEFAULT_TOP};
use crate::random::render_report;
use crate::tables::render_table1;
use crate::trace::{cache_line, ReplayedCampaign, ReplayedTrace};
use fisec_apps::AppSpec;
use fisec_telemetry::{metric, render_phase_table, LogHistogram, PhaseTimes};
use std::fmt::Write as _;

/// Escape text for embedding inside an HTML `<pre>`.
fn esc(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

fn pre(out: &mut String, title: &str, body: &str) {
    let _ = writeln!(out, "<h2>{}</h2>", esc(title));
    let _ = writeln!(out, "<pre>{}</pre>", esc(body.trim_end()));
}

fn campaign_title(c: &ReplayedCampaign) -> String {
    format!(
        "{} [{}] — {} engine",
        c.header.app, c.header.scheme, c.header.mode
    )
}

/// The divergence-depth histograms a recorder campaign's run events
/// rebuild, `(metric name, histogram)` per outcome with any samples.
fn divergence_hists(c: &ReplayedCampaign) -> Vec<(&'static str, LogHistogram)> {
    let mut hists = [
        (metric::DIVERGENCE_DEPTH_NM, "NM", LogHistogram::default()),
        (metric::DIVERGENCE_DEPTH_SD, "SD", LogHistogram::default()),
        (metric::DIVERGENCE_DEPTH_FSV, "FSV", LogHistogram::default()),
        (metric::DIVERGENCE_DEPTH_BRK, "BRK", LogHistogram::default()),
    ];
    for run in &c.run_events {
        if let Some(d) = run.divergence_depth {
            if let Some(h) = hists.iter_mut().find(|(_, abbr, _)| *abbr == run.outcome) {
                h.2.record(d);
            }
        }
    }
    hists
        .into_iter()
        .filter(|(_, _, h)| h.count > 0)
        .map(|(name, _, h)| (name, h))
        .collect()
}

/// The taint histograms a propagation campaign's run events rebuild:
/// taint-to-decision latency and peak taint width per outcome class.
fn taint_hists(c: &ReplayedCampaign) -> Vec<(&'static str, LogHistogram)> {
    let mut lat = [
        (metric::TAINT_TO_BRANCH_NM, "NM", LogHistogram::default()),
        (metric::TAINT_TO_BRANCH_SD, "SD", LogHistogram::default()),
        (metric::TAINT_TO_BRANCH_FSV, "FSV", LogHistogram::default()),
        (metric::TAINT_TO_BRANCH_BRK, "BRK", LogHistogram::default()),
    ];
    let mut width = [
        (metric::TAINT_WIDTH_NM, "NM", LogHistogram::default()),
        (metric::TAINT_WIDTH_SD, "SD", LogHistogram::default()),
        (metric::TAINT_WIDTH_FSV, "FSV", LogHistogram::default()),
        (metric::TAINT_WIDTH_BRK, "BRK", LogHistogram::default()),
    ];
    for run in &c.run_events {
        if let Some(d) = run.taint_decision {
            if let Some(h) = lat.iter_mut().find(|(_, abbr, _)| *abbr == run.outcome) {
                h.2.record(d);
            }
        }
        if let Some(w) = run.taint_width {
            if let Some(h) = width.iter_mut().find(|(_, abbr, _)| *abbr == run.outcome) {
                h.2.record(w);
            }
        }
    }
    lat.into_iter()
        .chain(width)
        .filter(|(_, _, h)| h.count > 0)
        .map(|(name, _, h)| (name, h))
        .collect()
}

/// One histogram line in the shared p50/p95/p99 format.
fn hist_line(name: &str, h: &LogHistogram) -> String {
    let (p50, p95, p99) = h.percentiles();
    format!(
        "{name:<24} n={:<9} mean={:<11.1} p50={:<9.1} p95={:<9.1} p99={:<11.1} max={}\n",
        h.count,
        h.mean(),
        p50,
        p95,
        p99,
        h.max
    )
}

/// Render the whole trace as one self-contained HTML document.
#[allow(clippy::too_many_lines)]
pub fn render_html(trace: &ReplayedTrace) -> String {
    let mut out = String::new();
    out.push_str(
        "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n\
         <title>fisec campaign report</title>\n<style>\n\
         body { font-family: sans-serif; max-width: 72rem; margin: 2rem auto; padding: 0 1rem; }\n\
         pre { background: #f4f4f4; padding: 0.75rem; overflow-x: auto; font-size: 0.85rem; }\n\
         h1 { border-bottom: 2px solid #444; padding-bottom: 0.3rem; }\n\
         h2 { margin-top: 2rem; color: #234; }\n\
         </style>\n</head>\n<body>\n<h1>fisec campaign report</h1>\n",
    );
    let _ = writeln!(
        out,
        "<p>{} targeted campaign(s), {} random campaign(s), {} span event(s), \
         regenerated entirely from the saved trace.</p>",
        trace.campaigns.len(),
        trace.random.len(),
        trace.spans.len()
    );

    // Table 1, per consecutive same-scheme group — the exact bytes
    // `fisec stats` prints for this trace.
    let campaigns = &trace.campaigns;
    let mut i = 0;
    while i < campaigns.len() {
        let scheme = campaigns[i].result.scheme;
        let mut j = i;
        while j < campaigns.len() && campaigns[j].result.scheme == scheme {
            j += 1;
        }
        let refs: Vec<&CampaignResult> = campaigns[i..j].iter().map(|c| &c.result).collect();
        pre(
            &mut out,
            &format!("Table 1 [{scheme}]"),
            &render_table1(&refs),
        );
        i = j;
    }

    for c in campaigns {
        let title = campaign_title(c);

        // Phase profile + engine aggregates from the trailer.
        if let Some(end) = c.end {
            let mut body = format!(
                "runs {}  na-prefilter {}  fresh boots {}  restores {}\n",
                end.runs, end.na_prefilter_runs, end.fresh_boots, end.restores
            );
            body.push_str(&cache_line(&end));
            let phases = PhaseTimes {
                micros: [
                    end.boot_micros,
                    end.snapshot_micros,
                    end.replay_micros,
                    end.classify_micros,
                    end.reassemble_micros,
                ],
            };
            body.push_str(&render_phase_table(&phases, end.wall_micros));
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
                    body.push_str(&hist_line(name, h));
                }
            }
            pre(&mut out, &format!("Phase profile — {title}"), &body);
        }

        // Figure 4 per client with crash latencies.
        for (ci, cc) in c.result.clients.iter().enumerate() {
            if cc.crash_latencies.is_empty() {
                continue;
            }
            let h = figure4::histogram(&cc.crash_latencies);
            let mut body = figure4::render(&h);
            let _ = writeln!(
                body,
                "transient deviations before crash: {} of {}",
                cc.transient_deviations,
                cc.crash_latencies.len()
            );
            pre(
                &mut out,
                &format!(
                    "Figure 4 — {title}, {}",
                    c.header.clients.get(ci).map_or("?", String::as_str)
                ),
                &body,
            );
        }

        // Divergence-depth histograms (recorder campaigns only).
        let div = divergence_hists(c);
        if !div.is_empty() {
            let mut body = String::new();
            for (name, h) in &div {
                body.push_str(&hist_line(name, h));
            }
            pre(&mut out, &format!("Divergence depth — {title}"), &body);
        }

        // Propagation profile (taint-traced campaigns only).
        if let Some(p) = &c.propagation {
            let mut body = format!(
                "seeded {}  reached decision {}  compare-first {}  deaths {}  frozen {}\n",
                p.seeded, p.reached_decision, p.compare_first, p.deaths, p.frozen
            );
            if p.fsv_seeded > 0 {
                let pct = 100.0 * p.fsv_reached_decision as f64 / p.fsv_seeded as f64;
                let _ = writeln!(
                    body,
                    "FSV: {}/{} reached a tainted decision ({pct:.1}%), \
                     {} compare-before-store",
                    p.fsv_reached_decision, p.fsv_seeded, p.fsv_compare_first
                );
            }
            for (name, h) in taint_hists(c) {
                body.push_str(&hist_line(name, &h));
            }
            pre(&mut out, &format!("Propagation — {title}"), &body);
        }

        // Hot-block table (profiler campaigns only).
        if let Some(p) = &c.profile {
            let app = AppSpec::by_name(&p.app);
            let body = render_hot_blocks(&p.data, app.as_ref().map(|a| &a.image), DEFAULT_TOP);
            pre(&mut out, &format!("Hot blocks — {title}"), &body);
        }
    }

    for r in &trace.random {
        let mut body = render_report(&r.stats);
        match &r.end {
            Some(end) => {
                let secs = end.wall_micros as f64 / 1e6;
                let rate = if secs > 0.0 {
                    r.stats.result.runs as f64 / secs
                } else {
                    0.0
                };
                let _ = writeln!(body, "wall {secs:.1}s ({rate:.0} runs/s)");
            }
            None => {
                let _ = writeln!(
                    body,
                    "RESUMABLE ledger: {} of {} runs committed, no trailer \
                     (fisec random --resume <ledger> continues it)",
                    r.stats.result.runs, r.header.runs
                );
            }
        }
        pre(
            &mut out,
            &format!(
                "Random injection — {} [{}], {}",
                r.header.app, r.header.scheme, r.header.client
            ),
            &body,
        );
    }

    out.push_str("</body>\n</html>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::parse_trace;
    use fisec_telemetry::{
        CampaignEndEvent, CampaignEvent, HotBlock, ProfileData, ProfileEvent, PropagationEvent,
        RunEvent, TraceEvent,
    };

    fn run_ev(outcome: &str, bit: u8) -> TraceEvent {
        TraceEvent::Run(RunEvent {
            client: 0,
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
            divergence_depth: if outcome == "NA" { None } else { Some(12) },
            trace_latency: None,
            taint_decision: if outcome == "NA" { None } else { Some(40) },
            taint_width: if outcome == "NA" { None } else { Some(3) },
            taint_compare_first: if outcome == "NA" {
                None
            } else {
                Some(outcome == "BRK")
            },
        })
    }

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Campaign(CampaignEvent {
                app: "ftpd".to_string(),
                scheme: "baseline x86".to_string(),
                mode: "snapshot".to_string(),
                instructions: 1,
                cond_branches: 1,
                runs_per_client: 3,
                clients: vec!["Client1".to_string()],
                golden_denied: vec![true],
            }),
            run_ev("NA", 0),
            run_ev("SD", 1),
            run_ev("BRK", 2),
            TraceEvent::Profile(Box::new(ProfileEvent {
                app: "ftpd".to_string(),
                mode: "snapshot".to_string(),
                data: ProfileData {
                    blocks: vec![HotBlock {
                        addr: 0x0804_8000,
                        dispatches: 3,
                        retired: 30,
                    }],
                    ..ProfileData::default()
                },
            })),
            TraceEvent::Propagation(PropagationEvent {
                app: "ftpd".to_string(),
                mode: "snapshot".to_string(),
                seeded: 2,
                reached_decision: 2,
                compare_first: 1,
                deaths: 0,
                frozen: 0,
                fsv_seeded: 0,
                fsv_reached_decision: 0,
                fsv_compare_first: 0,
            }),
            TraceEvent::CampaignEnd(CampaignEndEvent {
                runs: 3,
                wall_micros: 5000,
                replay_micros: 3000,
                ..CampaignEndEvent::default()
            }),
        ]
    }

    #[test]
    fn report_embeds_table1_byte_for_byte() {
        let replay = parse_trace(&sample_events()).unwrap();
        let html = render_html(&replay);
        let refs: Vec<&CampaignResult> = replay.campaigns.iter().map(|c| &c.result).collect();
        let table1 = render_table1(&refs);
        assert!(
            html.contains(&esc(table1.trim_end())),
            "report must embed the stats Table 1 verbatim:\n{table1}"
        );
        assert!(html.starts_with("<!DOCTYPE html>"), "{html}");
        assert!(html.trim_end().ends_with("</html>"), "{html}");
    }

    #[test]
    fn report_carries_every_observatory_section() {
        let html = render_html(&parse_trace(&sample_events()).unwrap());
        assert!(html.contains("Phase profile"), "{html}");
        assert!(html.contains("Figure 4"), "{html}");
        assert!(html.contains("Divergence depth"), "{html}");
        assert!(html.contains("divergence_depth_sd"), "{html}");
        assert!(html.contains("Propagation —"), "{html}");
        assert!(html.contains("taint_to_branch_sd"), "{html}");
        assert!(html.contains("taint_width_brk"), "{html}");
        assert!(html.contains("Hot blocks"), "{html}");
        assert!(
            html.contains("pass+") || html.contains("0x08048000"),
            "{html}"
        );
    }

    #[test]
    fn report_is_deterministic() {
        let replay = parse_trace(&sample_events()).unwrap();
        assert_eq!(render_html(&replay), render_html(&replay));
    }

    #[test]
    fn html_escaping_covers_the_angle_brackets() {
        assert_eq!(esc("a<b>&c"), "a&lt;b&gt;&amp;c");
    }
}
