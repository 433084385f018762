//! Steady end-to-end and per-layer benchmark of the fault-injection
//! campaign engine. See `README.md` next to this crate for the workloads,
//! the metrics and what each layer is expected to move.
//!
//! ```text
//! fisec-benchmark --workload <exhaustive|random|warm_cache> --seed N --seconds S --trace <0|1>
//! fisec-benchmark --print-expected [--seed N]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod expected;
mod ledger;
mod refkernel;
mod stats;
mod tally;
mod workload;

use ledger::{Ledger, Summary};
use refkernel::RefKernel;
use stats::{median, normalized_secs, percentile, spread, Unit};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Bench, Workload};

/// Independent set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Quantile of the per-unit normalized throughputs reported as
/// `runs_per_s_norm`. Host interference only slows a unit down, and on
/// the reference VM the fast decile repeated across runs where the
/// median did not (see `README.md`).
const FAST_QUANTILE: f64 = 0.9;

const USAGE: &str = "usage: fisec-benchmark --workload <exhaustive|random|warm_cache> \
--seed N --seconds S --trace <0|1>\n       fisec-benchmark --print-expected [--seed N]";

#[derive(Debug, PartialEq)]
enum Command {
    Run {
        workload: Workload,
        seed: u64,
        seconds: u64,
        trace: bool,
    },
    PrintExpected {
        seed: u64,
    },
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut print) =
        (None, None, None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--print-expected" {
            print = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if print {
        return Ok(Command::PrintExpected {
            seed: seed.unwrap_or(2001),
        });
    }
    Ok(Command::Run {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A per-run scratch directory under the working directory, removed on
/// drop. Campaign stores live here, never in the user's cache.
struct Scratch(PathBuf);

const SCRATCH_PARENT: &str = ".bench_scratch";

impl Scratch {
    fn create() -> Result<Scratch, String> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let dir = Path::new(SCRATCH_PARENT).join(format!("run-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        if let Err(e) = std::fs::remove_dir_all(&self.0) {
            eprintln!("warning: could not remove {}: {e}", self.0.display());
        }
        // Only succeeds once no concurrent run still uses it.
        let _ = std::fs::remove_dir(SCRATCH_PARENT);
    }
}

struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn report_mismatches(what: &str, mismatches: &[String]) {
    for m in mismatches {
        eprintln!("MISMATCH ({what}): {m}");
    }
}

/// End-to-end run: set up `SETUP_REPS` times, then alternate the
/// reference kernel and a timed unit for `seconds`.
fn run_end_to_end(bench: &Bench<'_>, seconds: u64) -> Result<Report, String> {
    let mut setup_raw = Vec::with_capacity(SETUP_REPS);
    let mut setup_norm = Vec::with_capacity(SETUP_REPS);
    let mut setup_ok = true;
    let mut peak_rss = None;
    let mut kernel: Option<RefKernel> = None;
    let mut prepared = None;
    for rep in 0..SETUP_REPS {
        drop(prepared.take()); // never hold two set-ups at once
        let start = Instant::now();
        let p = bench.set_up(rep);
        let secs = start.elapsed().as_secs_f64();
        if peak_rss.is_none() {
            // Set-up ends with a full warm-up pass, so the program's peak
            // is reached; read it before the kernel's tables exist.
            peak_rss = Some(peak_rss_mb()?);
        }
        let ref_secs = kernel.get_or_insert_with(RefKernel::new).time();
        setup_raw.push(secs);
        setup_norm.push(normalized_secs(secs, ref_secs));
        report_mismatches("set-up", &p.mismatches);
        setup_ok &= p.mismatches.is_empty();
        prepared = Some(p);
    }
    let (p, mut kernel) = (
        prepared.expect("at least one set-up"),
        kernel.expect("kernel built"),
    );
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut units = Vec::new();
    let mut failed = 0;
    while units.is_empty() || Instant::now() < deadline {
        let ref_secs = kernel.time();
        let c = bench.unit(&p, units.len());
        report_mismatches(&format!("unit {}", units.len()), &c.mismatches);
        failed += usize::from(!c.mismatches.is_empty());
        units.push(Unit {
            runs: c.runs,
            secs: c.secs,
            ref_secs,
        });
    }
    let raw: Vec<f64> = units.iter().map(Unit::rate).collect();
    let norm: Vec<f64> = units.iter().map(Unit::normalized_rate).collect();
    let refs: Vec<f64> = units.iter().map(|u| u.ref_secs * 1e3).collect();
    eprintln!(
        "{} units of {} runs; set-up {:.3} s raw (median of {SETUP_REPS})",
        units.len(),
        units[0].runs,
        median(&setup_raw)
    );
    for (name, v) in [
        ("raw runs/s", &raw),
        ("normalized runs/s", &norm),
        ("kernel ms", &refs),
    ] {
        eprintln!(
            "{name}: median {:.1}, p90 {:.1}, within-run spread {:.3}",
            median(v),
            percentile(v, 0.9),
            if v.len() >= 2 { spread(v) } else { 0.0 }
        );
    }
    Ok(Report {
        correct: setup_ok && failed == 0,
        attempted: units.len(),
        failed,
        metrics: vec![
            ("setup_s", median(&setup_norm), "s"),
            ("runs_per_s_norm", percentile(&norm, FAST_QUANTILE), "1/s"),
            (
                "peak_rss_mb",
                peak_rss.expect("read after the first set-up"),
                "MiB",
            ),
        ],
    })
}

/// Traced run: one set-up, then traced passes for `seconds`, each
/// preceded by the reference kernel. Only the ledger is reported.
fn run_traced(bench: &Bench<'_>, seconds: u64) -> Report {
    let p = bench.set_up(0);
    report_mismatches("set-up", &p.mismatches);
    let mut kernel = RefKernel::new();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut summary = Summary::default();
    let (mut passes, mut failed) = (0, 0);
    while passes == 0 || Instant::now() < deadline {
        let ref_ms = kernel.time() * 1e3;
        let mut l = Ledger::default();
        let start = Instant::now();
        let mismatches = bench.traced_pass(&p, passes, &mut l);
        let wall_ms = ledger::ms(start.elapsed());
        bench.clean_up(passes);
        report_mismatches(&format!("traced pass {passes}"), &mismatches);
        failed += usize::from(!mismatches.is_empty());
        summary.add_pass(&l, wall_ms, ref_ms);
        passes += 1;
    }
    for d in &summary.drift {
        eprintln!("COUNT DRIFT: {d}");
    }
    let metrics = summary.metrics(&[("apps.build_ms", p.build_secs * 1e3)]);
    Report {
        correct: p.mismatches.is_empty() && failed == 0,
        attempted: passes,
        failed,
        metrics,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scratch = match Scratch::create() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match cmd {
        Command::PrintExpected { seed } => {
            for line in workload::current_campaign_lines(&scratch.0) {
                println!("    \"{line}\",");
            }
            let apps = workload::Apps::build();
            let t = workload::traced_random(&apps, seed, &mut Ledger::default());
            println!("random seed {seed}: {t:?}");
            ExitCode::SUCCESS
        }
        Command::Run {
            workload,
            seed,
            seconds,
            trace,
        } => {
            let bench = Bench::new(workload, seed, &scratch.0);
            let report = if trace {
                Ok(run_traced(&bench, seconds))
            } else {
                run_end_to_end(&bench, seconds)
            };
            match report {
                Ok(r) => {
                    for (name, value, unit) in &r.metrics {
                        eprintln!("{:<28} {value:>14.4} {unit}", format!("{}:", name));
                    }
                    println!("{}", r.json());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        assert_eq!(
            parse_args(&args("--workload random --seed 7 --seconds 10 --trace 1")),
            Ok(Command::Run {
                workload: Workload::Random,
                seed: 7,
                seconds: 10,
                trace: true
            })
        );
        assert!(parse_args(&args("--workload random --seed 7 --seconds 10")).is_err());
        assert!(parse_args(&args("--workload nope --seed 7 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&args("--workload random --seed x --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&args("--workload random --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&args("--workload random --sed 1")).is_err());
    }

    /// BENCHMARK.json names exactly the metrics the benchmark prints.
    #[test]
    fn benchmark_json_matches_the_printed_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let entry =
            |name: &str, unit: &str| format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
        for (name, unit) in ledger::PER_LAYER {
            assert!(json.contains(&entry(name, unit)), "{name} [{unit}] missing");
        }
        for (name, unit) in [
            ("runs_per_s_norm", "1/s"),
            ("setup_s", "s"),
            ("peak_rss_mb", "MiB"),
        ] {
            assert!(json.contains(&entry(name, unit)), "{name} [{unit}] missing");
        }
        for w in Workload::ALL {
            assert!(json.contains(&format!("\"name\": \"{}\"", w.name())));
        }
        let names = json.matches("\"name\":").count();
        assert_eq!(names, ledger::PER_LAYER.len() + 3 + Workload::ALL.len());
    }

    #[test]
    fn report_is_one_json_line() {
        let r = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("setup_s", 0.8127, "s"), ("runs_per_s", 1e4, "1/s")],
        };
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": \
             {\"value\": 0.8127, \"unit\": \"s\"}, \"runs_per_s\": {\"value\": 10000, \"unit\": \"1/s\"}}}"
        );
    }
}
