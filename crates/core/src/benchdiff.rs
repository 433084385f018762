//! `fisec bench-diff`: the perf-regression gate.
//!
//! Compares a freshly *measured* campaign against the recorded baseline
//! in `BENCH_campaign.json` with a per-metric threshold, and reports
//! which metrics regressed — the CLI exits nonzero when any did, so CI
//! fails the build instead of letting a slow engine land silently.
//!
//! The measured leg is deliberately small and deterministic in shape: a
//! full ftpd baseline campaign (the same workload the baseline file
//! records under `flight_recorder.campaign_ftpd_full_ms.recorder_off`),
//! timed plain, then in back-to-back pairs of plain and profiled,
//! plain and taint-traced runs — the medians of those pairs gate the
//! observatory's own promises that profiling and propagation tracing
//! each cost ≤ 10%. Pairs of plain and cold-store runs, then warm reruns
//! against the same throwaway incremental-cache store, gate the cache's
//! two promises: populating it costs ≤ 10% extra wall, and an
//! unchanged-tree warm rerun is ≥ 5x faster than the cold run.
//!
//! Thresholds are ratios over the baseline, scaled by `--factor` so a
//! cold shared CI runner can use generous headroom while a quiet
//! development box keeps the tight default.

use crate::cache::CampaignCache;
use crate::campaign::{run_campaign_cached, CampaignConfig};
use fisec_apps::AppSpec;
use fisec_inject::EngineOpts;
use fisec_telemetry::{metric, Telemetry};
use serde::Value;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Default wall-clock headroom over the recorded baseline (cold caches,
/// scheduler noise) before `--factor` scales it.
const WALL_HEADROOM: f64 = 1.6;

/// Default headroom on the mean per-replay cost.
const REPLAY_HEADROOM: f64 = 1.6;

/// The observatory's contract: profiling a campaign costs at most this
/// fraction of extra wall-clock (before `--factor`).
const PROFILER_OVERHEAD_LIMIT: f64 = 0.10;

/// The taint tracer's contract: a propagation-traced campaign costs at
/// most this fraction of extra wall-clock (before `--factor`).
const PROPAGATION_OVERHEAD_LIMIT: f64 = 0.10;

/// Headroom under the recorded ALU-loop throughput floor: the measured
/// rate may drop to `baseline / (ALU_HEADROOM * factor)` before the
/// gate trips (throughput floors divide where wall-clock ceilings
/// multiply).
const ALU_HEADROOM: f64 = 1.6;

/// Iterations of the measured ALU loop (4 retired instructions each).
const ALU_LOOP_ITERS: u32 = 2_000_000;

/// The incremental cache's contract on a cold campaign: populating the
/// store costs at most this fraction of extra wall-clock over a
/// cache-off run (before `--factor`).
const COLD_CACHE_OVERHEAD_LIMIT: f64 = 0.10;

/// The incremental cache's contract on a warm campaign: an
/// unchanged-tree rerun must be at least this many times faster than
/// the cold run that populated the store (`--factor` lowers the floor).
const WARM_SPEEDUP_FLOOR: f64 = 5.0;

/// The baseline numbers `bench-diff` reads out of `BENCH_campaign.json`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Baseline {
    /// `flight_recorder.campaign_ftpd_full_ms.recorder_off`.
    pub campaign_ftpd_full_ms: f64,
    /// `replay_phase.block_engine.mean_micros_per_replay`.
    pub mean_micros_per_replay: f64,
    /// `tier2.alu_loop_minst_per_s` — the tier-2 interpreter's ALU-loop
    /// throughput floor, in millions of instructions per second.
    pub alu_loop_minst_per_s: f64,
    /// `incremental.cold_overhead` — the recorded extra wall fraction a
    /// cold cached campaign costs over a cache-off one.
    pub cache_cold_overhead: f64,
    /// `incremental.warm_speedup` — the recorded cold/warm wall ratio
    /// of an unchanged-tree rerun.
    pub cache_warm_speedup: f64,
}

/// What the fresh measurement produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    /// Wall-clock of one full ftpd baseline campaign, in milliseconds.
    pub campaign_ftpd_full_ms: f64,
    /// Mean of the campaign's `replay_micros_per_run` histogram.
    pub mean_micros_per_replay: f64,
    /// Extra wall-clock fraction of the same campaign with the profiler
    /// on (0.07 = 7% slower).
    pub profiler_overhead: f64,
    /// ALU-loop throughput under the full engine (tier 2 on), in
    /// millions of instructions per second.
    pub alu_loop_minst_per_s: f64,
    /// Extra wall-clock fraction of a cold cached campaign (fresh
    /// store) over the cache-off run.
    pub cache_cold_overhead: f64,
    /// Cold-cached wall divided by warm-cached wall on the same store.
    pub cache_warm_speedup: f64,
    /// Extra wall-clock fraction of the same campaign with the taint
    /// tracer on (0.07 = 7% slower).
    pub propagation_overhead: f64,
}

/// One compared metric: the gate's verdict plus everything needed to
/// render the row.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// Metric name.
    pub name: &'static str,
    /// Recorded baseline value.
    pub baseline: f64,
    /// Freshly measured value.
    pub measured: f64,
    /// Boundary value the gate accepts: a ceiling for cost metrics, a
    /// floor when [`DiffRow::floor`] is set.
    pub limit: f64,
    /// Is `limit` a throughput floor (measured must stay *above* it)
    /// rather than a cost ceiling?
    pub floor: bool,
    /// Within the limit?
    pub ok: bool,
}

fn num(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::UInt(u) => Some(*u as f64),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

/// Extract the baseline metrics from a parsed `BENCH_campaign.json`.
///
/// # Errors
/// A message naming the missing or non-numeric field.
pub fn baseline_of(v: &Value) -> Result<Baseline, String> {
    let wall = num(v
        .field("flight_recorder")
        .field("campaign_ftpd_full_ms")
        .field("recorder_off"))
    .ok_or("baseline lacks flight_recorder.campaign_ftpd_full_ms.recorder_off")?;
    let replay = num(v
        .field("replay_phase")
        .field("block_engine")
        .field("mean_micros_per_replay"))
    .ok_or("baseline lacks replay_phase.block_engine.mean_micros_per_replay")?;
    let alu = num(v.field("tier2").field("alu_loop_minst_per_s"))
        .ok_or("baseline lacks tier2.alu_loop_minst_per_s")?;
    let cold = num(v.field("incremental").field("cold_overhead"))
        .ok_or("baseline lacks incremental.cold_overhead")?;
    let warm = num(v.field("incremental").field("warm_speedup"))
        .ok_or("baseline lacks incremental.warm_speedup")?;
    Ok(Baseline {
        campaign_ftpd_full_ms: wall,
        mean_micros_per_replay: replay,
        alu_loop_minst_per_s: alu,
        cache_cold_overhead: cold,
        cache_warm_speedup: warm,
    })
}

/// Read and extract the baseline from a `BENCH_campaign.json` file.
///
/// # Errors
/// A message for unreadable files, malformed JSON or missing fields.
pub fn read_baseline(path: impl AsRef<Path>) -> Result<Baseline, String> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v: Value = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    baseline_of(&v)
}

/// Back-to-back (plain, variant) campaign pairs behind each overhead
/// row; the row reads the median pair.
const PAIRS: usize = 5;

/// Run the measured leg: one full ftpd baseline campaign plain, then
/// five plain/profiled and five plain/propagation-traced pairs, then the
/// cache legs.
pub fn measure() -> Measured {
    let app = AppSpec::ftpd();
    let cfg = CampaignConfig::default();
    let run_ms = |cfg: &CampaignConfig| -> (f64, f64) {
        let tel = Telemetry::collecting();
        let start = Instant::now();
        run_campaign_cached(&app, cfg, &tel, None);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let snap = tel.metrics.snapshot();
        let mean = snap
            .histogram(metric::REPLAY_MICROS)
            .map_or(0.0, fisec_telemetry::LogHistogram::mean);
        (ms, mean)
    };
    let (plain_ms, mean_replay) = run_ms(&cfg);
    let overhead_with = |engine: EngineOpts| {
        let variant = CampaignConfig { engine, ..cfg };
        median_overhead(|| run_ms(&cfg).0, || run_ms(&variant).0)
    };
    let profiler_overhead = overhead_with(EngineOpts {
        profiler: true,
        ..cfg.engine
    });
    let propagation_overhead = overhead_with(EngineOpts {
        propagation: true,
        ..cfg.engine
    });
    let (cold_overhead, warm_speedup) = measure_cached(&app, &cfg);
    Measured {
        campaign_ftpd_full_ms: plain_ms,
        mean_micros_per_replay: mean_replay,
        profiler_overhead,
        alu_loop_minst_per_s: measure_alu_loop(),
        cache_cold_overhead: cold_overhead,
        cache_warm_speedup: warm_speedup,
        propagation_overhead,
    }
}

/// The extra wall fraction of `variant` over `plain`, floored at 0: the
/// median of `variant / plain - 1` over [`PAIRS`] back-to-back pairs. A
/// sub-10% effect is well inside single-shot scheduler noise, and slow
/// drift hits both halves of a pair alike.
fn median_overhead(mut plain: impl FnMut() -> f64, mut variant: impl FnMut() -> f64) -> f64 {
    let mut ratios: Vec<f64> = (0..PAIRS)
        .map(|_| {
            let base = plain();
            variant() / base
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    (ratios[PAIRS / 2] - 1.0).max(0.0)
}

/// Time the campaign plain (no cache), cold (empty store, every group
/// replayed and recorded) and warm (unchanged tree, every group folded
/// from the store). Returns `(cold_overhead, warm_speedup)`: the cold
/// row is a [`median_overhead`] over plain/cold pairs, the warm row the
/// fastest cold run over the fastest of three warm ones.
fn measure_cached(app: &AppSpec, cfg: &CampaignConfig) -> (f64, f64) {
    let dir = std::env::temp_dir().join(format!("fisec-benchdiff-{}", std::process::id()));
    let cached_ms = |cache: Option<&CampaignCache>| {
        let tel = Telemetry::collecting();
        let start = Instant::now();
        run_campaign_cached(app, cfg, &tel, cache);
        start.elapsed().as_secs_f64() * 1e3
    };
    let mut cold_min = f64::MAX;
    let overhead = median_overhead(
        || cached_ms(None),
        || {
            let _ = std::fs::remove_dir_all(&dir);
            let cold = cached_ms(Some(&CampaignCache::at(dir.clone())));
            cold_min = cold_min.min(cold);
            cold
        },
    );
    // The last cold run above left the store populated: warm reuses it.
    let warm_min = (0..3)
        .map(|_| cached_ms(Some(&CampaignCache::at(dir.clone()))))
        .fold(f64::MAX, f64::min);
    let _ = std::fs::remove_dir_all(&dir);
    (overhead, cold_min / warm_min)
}

/// Time the interpreter benchmark's tight ALU loop under the full
/// engine (block cache + trace cache, the defaults) and return millions
/// of retired instructions per second — the throughput the `tier2`
/// baseline block records.
fn measure_alu_loop() -> f64 {
    use fisec_x86::{Machine, Memory, Perms, Region};
    let n = ALU_LOOP_ITERS;
    let mut text = vec![0xB9];
    text.extend_from_slice(&n.to_le_bytes());
    text.extend_from_slice(&[
        0x83, 0xC0, 0x01, // top: add eax, 1
        0x83, 0xF0, 0x03, // xor eax, 3
        0x49, // dec ecx
        0x75, 0xF7, // jne top (back 9 bytes)
        0xEB, 0xFE, // jmp self (we stop via budget)
    ]);
    let insts = 1 + u64::from(n) * 4;
    let mut mem = Memory::new();
    mem.map(Region::with_data("text", 0x1000, text, Perms::RX))
        .unwrap();
    let mut m = Machine::new(mem);
    m.cpu.eip = 0x1000;
    let start = Instant::now();
    let out = m.run_until_event(insts);
    let secs = start.elapsed().as_secs_f64();
    std::hint::black_box((out, m.cpu.regs[0]));
    insts as f64 / secs / 1e6
}

/// The pure gate: compare a measurement against the baseline under
/// `factor`-scaled thresholds. Deterministic and side-effect free — the
/// regression test injects a slow measurement here and asserts the gate
/// trips.
pub fn compare(baseline: &Baseline, measured: &Measured, factor: f64) -> Vec<DiffRow> {
    let row = |name, base: f64, got: f64, limit: f64| DiffRow {
        name,
        baseline: base,
        measured: got,
        limit,
        floor: false,
        ok: got <= limit,
    };
    let alu_floor = baseline.alu_loop_minst_per_s / (ALU_HEADROOM * factor);
    vec![
        row(
            "campaign_ftpd_full_ms",
            baseline.campaign_ftpd_full_ms,
            measured.campaign_ftpd_full_ms,
            baseline.campaign_ftpd_full_ms * WALL_HEADROOM * factor,
        ),
        row(
            "mean_micros_per_replay",
            baseline.mean_micros_per_replay,
            measured.mean_micros_per_replay,
            baseline.mean_micros_per_replay * REPLAY_HEADROOM * factor,
        ),
        row(
            "profiler_overhead",
            PROFILER_OVERHEAD_LIMIT,
            measured.profiler_overhead,
            PROFILER_OVERHEAD_LIMIT * factor,
        ),
        DiffRow {
            name: "alu_loop_minst_per_s",
            baseline: baseline.alu_loop_minst_per_s,
            measured: measured.alu_loop_minst_per_s,
            limit: alu_floor,
            floor: true,
            ok: measured.alu_loop_minst_per_s >= alu_floor,
        },
        row(
            "cache_cold_overhead",
            baseline.cache_cold_overhead,
            measured.cache_cold_overhead,
            COLD_CACHE_OVERHEAD_LIMIT * factor,
        ),
        DiffRow {
            name: "cache_warm_speedup",
            baseline: baseline.cache_warm_speedup,
            measured: measured.cache_warm_speedup,
            limit: WARM_SPEEDUP_FLOOR / factor,
            floor: true,
            ok: measured.cache_warm_speedup >= WARM_SPEEDUP_FLOOR / factor,
        },
        row(
            "propagation_overhead",
            PROPAGATION_OVERHEAD_LIMIT,
            measured.propagation_overhead,
            PROPAGATION_OVERHEAD_LIMIT * factor,
        ),
    ]
}

/// Did any metric exceed its limit?
pub fn regressed(rows: &[DiffRow]) -> bool {
    rows.iter().any(|r| !r.ok)
}

/// Render the comparison table.
pub fn render(rows: &[DiffRow], factor: f64) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== bench-diff (threshold factor {factor:.2}) ==");
    let _ = writeln!(
        out,
        "{:<24} {:>12} {:>12} {:>12}  verdict",
        "metric", "baseline", "measured", "limit"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<24} {:>12.2} {:>12.2} {:>12.2}  {}{}",
            r.name,
            r.baseline,
            r.measured,
            r.limit,
            if r.ok { "ok" } else { "REGRESSED" },
            if r.floor { " (floor)" } else { "" }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline() -> Baseline {
        Baseline {
            campaign_ftpd_full_ms: 100.0,
            mean_micros_per_replay: 50.0,
            alu_loop_minst_per_s: 320.0,
            cache_cold_overhead: 0.03,
            cache_warm_speedup: 10.0,
        }
    }

    fn ok_measured() -> Measured {
        Measured {
            campaign_ftpd_full_ms: 100.0,
            mean_micros_per_replay: 50.0,
            profiler_overhead: 0.02,
            alu_loop_minst_per_s: 310.0,
            cache_cold_overhead: 0.04,
            cache_warm_speedup: 9.0,
            propagation_overhead: 0.03,
        }
    }

    #[test]
    fn within_thresholds_passes() {
        let m = Measured {
            campaign_ftpd_full_ms: 120.0,
            mean_micros_per_replay: 60.0,
            profiler_overhead: 0.05,
            ..ok_measured()
        };
        let rows = compare(&baseline(), &m, 1.0);
        assert!(!regressed(&rows), "{rows:?}");
        let s = render(&rows, 1.0);
        assert!(s.contains("ok"), "{s}");
        assert!(!s.contains("REGRESSED"), "{s}");
    }

    #[test]
    fn injected_regression_trips_the_gate() {
        // A 3x-slower campaign must fail the 1.6x wall threshold.
        let m = Measured {
            campaign_ftpd_full_ms: 300.0,
            mean_micros_per_replay: 55.0,
            ..ok_measured()
        };
        let rows = compare(&baseline(), &m, 1.0);
        assert!(regressed(&rows));
        let s = render(&rows, 1.0);
        assert!(s.contains("campaign_ftpd_full_ms"), "{s}");
        assert!(s.contains("REGRESSED"), "{s}");
        // A blown profiler-overhead budget trips its own row.
        let m = Measured {
            profiler_overhead: 0.4,
            ..ok_measured()
        };
        let rows = compare(&baseline(), &m, 1.0);
        assert!(regressed(&rows));
        assert!(!rows[2].ok, "{rows:?}");
        // A blown propagation-overhead budget trips its own row too.
        let m = Measured {
            propagation_overhead: 0.4,
            ..ok_measured()
        };
        let rows = compare(&baseline(), &m, 1.0);
        assert!(regressed(&rows));
        assert!(!rows[6].ok, "{rows:?}");
        let s = render(&rows, 1.0);
        assert!(s.contains("propagation_overhead"), "{s}");
    }

    #[test]
    fn cache_rows_gate_cold_overhead_and_warm_speedup() {
        // An expensive cold store population trips its ceiling.
        let m = Measured {
            cache_cold_overhead: 0.25,
            ..ok_measured()
        };
        let rows = compare(&baseline(), &m, 1.0);
        assert!(regressed(&rows), "{rows:?}");
        assert!(!rows[4].ok && !rows[4].floor, "{rows:?}");
        // A warm run barely faster than cold trips the speedup floor.
        let m = Measured {
            cache_warm_speedup: 1.2,
            ..ok_measured()
        };
        let rows = compare(&baseline(), &m, 1.0);
        assert!(regressed(&rows), "{rows:?}");
        assert!(!rows[5].ok && rows[5].floor, "{rows:?}");
        let s = render(&rows, 1.0);
        assert!(s.contains("cache_warm_speedup"), "{s}");
        // A generous factor lowers the floor: 5.0 / 4 = 1.25 > 1.2
        // still trips, 5.0 / 8 = 0.625 passes.
        assert!(regressed(&compare(&baseline(), &m, 4.0)));
        assert!(!regressed(&compare(&baseline(), &m, 8.0)));
    }

    #[test]
    fn throughput_floor_trips_when_the_interpreter_slows_down() {
        // 320 / 1.6 = 200 M inst/s is the floor at factor 1.
        let mut m = Measured {
            alu_loop_minst_per_s: 201.0,
            ..ok_measured()
        };
        assert!(!regressed(&compare(&baseline(), &m, 1.0)));
        m.alu_loop_minst_per_s = 150.0;
        let rows = compare(&baseline(), &m, 1.0);
        assert!(regressed(&rows), "{rows:?}");
        assert!(!rows[3].ok && rows[3].floor, "{rows:?}");
        let s = render(&rows, 1.0);
        assert!(s.contains("alu_loop_minst_per_s"), "{s}");
        assert!(s.contains("(floor)"), "{s}");
        // A generous factor lowers the floor instead of raising it.
        assert!(!regressed(&compare(&baseline(), &m, 3.0)));
    }

    #[test]
    fn factor_scales_every_threshold() {
        let m = Measured {
            campaign_ftpd_full_ms: 300.0,
            mean_micros_per_replay: 120.0,
            profiler_overhead: 0.25,
            alu_loop_minst_per_s: 120.0,
            cache_cold_overhead: 0.25,
            cache_warm_speedup: 2.0,
            propagation_overhead: 0.25,
        };
        assert!(regressed(&compare(&baseline(), &m, 1.0)));
        assert!(!regressed(&compare(&baseline(), &m, 3.0)));
    }

    #[test]
    fn baseline_parses_the_checked_in_bench_file() {
        let b = read_baseline(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_campaign.json"
        ))
        .unwrap();
        assert!(b.campaign_ftpd_full_ms > 0.0);
        assert!(b.mean_micros_per_replay > 0.0);
        assert!(b.alu_loop_minst_per_s > 0.0);
        assert!(b.cache_cold_overhead >= 0.0);
        assert!(b.cache_warm_speedup >= WARM_SPEEDUP_FLOOR);
    }

    #[test]
    fn missing_fields_are_reported() {
        let v: Value = serde_json::from_str("{}").unwrap();
        let e = baseline_of(&v).unwrap_err();
        assert!(e.contains("recorder_off"), "{e}");
    }
}
