//! Crash forensics: what did the server execute between error activation
//! and the crash?
//!
//! The paper's §5.4 examines crash cases with long latency — the
//! *transient window of vulnerability* — by looking at the work the
//! server performed while corrupted ("in several cases erroneous
//! messages were sent out"). This module re-runs an injection with EIP
//! tracing enabled and summarizes the corrupted execution path at
//! function granularity.
//!
//! For edge-granular analysis — the first divergent control-flow edge,
//! propagation depth, and the corrupted-state delta against the golden
//! continuation — see [`crate::divergence`], which supersedes this view
//! wherever per-edge detail matters; the function-granular path here
//! remains the compact summary `fisec forensics` prints.

use crate::classify::GoldenRun;
use crate::target::InjectionTarget;
use crate::{plant, run_budget};
use fisec_apps::ClientSpec;
use fisec_asm::Image;
use fisec_encoding::EncodingScheme;
use fisec_os::{Process, Stop};
use std::fmt;

/// Per-function slice of the corrupted execution path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathSegment {
    /// Function name, or `"?"` for addresses outside any known symbol.
    pub func: String,
    /// Consecutive instructions spent there.
    pub instructions: u64,
}

/// Forensic report for one crashing injection.
#[derive(Debug, Clone)]
pub struct CrashReport {
    /// Instructions between activation and crash.
    pub latency: u64,
    /// How the run ended.
    pub stop: Stop,
    /// Function-granular path from activation to the crash (merged
    /// consecutive segments, capped by the trace window).
    pub path: Vec<PathSegment>,
    /// Messages the corrupted server emitted after activation (bytes).
    pub messages_after_activation: usize,
}

impl fmt::Display for CrashReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "crash after {} instructions ({}), {} bytes sent while corrupted",
            self.latency, self.stop, self.messages_after_activation
        )?;
        for seg in &self.path {
            writeln!(f, "  {:<24} {:>8} instructions", seg.func, seg.instructions)?;
        }
        Ok(())
    }
}

/// Size of the EIP ring buffer used for path reconstruction.
pub const TRACE_WINDOW: usize = 65_536;

/// Re-run an injection with tracing and produce a [`CrashReport`]. The
/// experiment is the campaign's own: the same breakpoint, the same flip
/// and the same budget against `golden`, so a report exists exactly when
/// [`run_injection`](crate::run_injection) crashes, with its latency.
/// Returns `None` when the target does not activate or the run does not
/// crash.
///
/// # Errors
/// Propagates [`fisec_os::LoadError`].
pub fn crash_forensics(
    image: &Image,
    client: &ClientSpec,
    golden: &GoldenRun,
    target: &InjectionTarget,
    scheme: EncodingScheme,
) -> Result<Option<CrashReport>, fisec_os::LoadError> {
    let mut p = Process::load(image, client.make())?;
    p.set_budget(run_budget(golden));
    p.machine.add_breakpoint(target.addr);
    let Stop::Breakpoint(_) = p.run() else {
        return Ok(None);
    };
    let activation_icount = p.icount();
    p.machine.remove_breakpoint(target.addr);
    plant(&mut p, target, scheme);
    p.machine.enable_eip_trace(TRACE_WINDOW);
    let bytes_before: usize = traffic_bytes(&p);

    let stop = p.run();
    if !stop.is_crash() {
        return Ok(None);
    }
    let latency = p.icount() - activation_icount;
    let bytes_after = traffic_bytes(&p) - bytes_before;

    // Reconstruct the function-level path.
    let path = merge_path(p.machine.eip_trace().iter().map(|&eip| {
        image
            .symbols
            .funcs
            .iter()
            .find(|f| (f.start..f.end).contains(&eip))
            .map_or("?", |f| f.name.as_str())
    }));
    Ok(Some(CrashReport {
        latency,
        stop,
        path,
        messages_after_activation: bytes_after,
    }))
}

fn traffic_bytes(p: &Process) -> usize {
    p.trace().messages().iter().map(|m| m.bytes.len()).sum()
}

/// Merge a per-instruction stream of function names (one per retired
/// EIP, `"?"` for addresses outside every known symbol) into
/// consecutive [`PathSegment`]s: equal neighbours coalesce, every
/// name change — including into and out of `"?"` gaps — starts a new
/// segment. The segment instruction counts sum to the input length, so
/// a trace capped at [`TRACE_WINDOW`] yields a path capped the same.
pub fn merge_path<'a>(names: impl IntoIterator<Item = &'a str>) -> Vec<PathSegment> {
    let mut path: Vec<PathSegment> = Vec::new();
    for name in names {
        match path.last_mut() {
            Some(seg) if seg.func == name => seg.instructions += 1,
            _ => path.push(PathSegment {
                func: name.to_string(),
                instructions: 1,
            }),
        }
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::enumerate_targets;
    use crate::{golden_run, run_injection};
    use fisec_apps::AppSpec;

    #[test]
    fn forensics_reconstructs_crash_paths() {
        let app = AppSpec::ftpd();
        let client = &app.clients[0];
        let golden = golden_run(&app.image, client).unwrap();
        let set = enumerate_targets(&app.image, &["pass"], true);
        // Find a crashing target among offset-byte flips.
        let mut found = false;
        for t in set.targets.iter().filter(|t| t.byte_index == 1).take(64) {
            if let Some(report) =
                crash_forensics(&app.image, client, &golden, t, EncodingScheme::Baseline).unwrap()
            {
                assert!(report.latency >= 1);
                assert!(!report.path.is_empty());
                let total: u64 = report.path.iter().map(|s| s.instructions).sum();
                assert!(total <= TRACE_WINDOW as u64);
                // The path must pass through the injected function or its
                // callees before dying.
                let display = format!("{report}");
                assert!(display.contains("instructions"));
                found = true;
                break;
            }
        }
        assert!(found, "no crashing offset flip found in pass()");
    }

    /// Forensics re-runs the campaign's experiment: over every target of
    /// both servers' Client1 it reports exactly the runs that crash, with
    /// the campaign's crash latency.
    #[test]
    fn forensics_reports_exactly_the_campaign_crashes() {
        for app in [AppSpec::ftpd(), AppSpec::sshd()] {
            let client = &app.clients[0];
            let golden = golden_run(&app.image, client).unwrap();
            let set = enumerate_targets(&app.image, &app.auth_funcs, false);
            let mut crashes = 0;
            for t in &set.targets {
                let scheme = EncodingScheme::Baseline;
                let run = run_injection(&app.image, client, &golden, t, scheme).unwrap();
                let report = crash_forensics(&app.image, client, &golden, t, scheme).unwrap();
                assert_eq!(
                    report.map(|r| r.latency),
                    run.crash_latency,
                    "{} {:#010x} byte {} bit {}",
                    app.name,
                    t.addr,
                    t.byte_index,
                    t.bit
                );
                crashes += usize::from(run.crash_latency.is_some());
            }
            assert!(crashes > 0, "{}: no target crashed", app.name);
        }
    }

    #[test]
    fn merge_path_coalesces_consecutive_same_function_segments() {
        let path = merge_path(["main", "main", "auth", "auth", "auth", "main"]);
        assert_eq!(
            path,
            vec![
                PathSegment {
                    func: "main".into(),
                    instructions: 2
                },
                PathSegment {
                    func: "auth".into(),
                    instructions: 3
                },
                PathSegment {
                    func: "main".into(),
                    instructions: 1
                },
            ]
        );
    }

    #[test]
    fn merge_path_keeps_symbol_gaps_as_separate_segments() {
        // "?" gaps must not be merged into neighbouring functions, and
        // two separate excursions outside the symbol table must remain
        // two segments (re-entering a name starts a new segment).
        let path = merge_path(["f", "?", "?", "f", "?", "g"]);
        let funcs: Vec<&str> = path.iter().map(|s| s.func.as_str()).collect();
        assert_eq!(funcs, ["f", "?", "f", "?", "g"]);
        assert_eq!(path[1].instructions, 2);
        assert_eq!(path[3].instructions, 1);
    }

    #[test]
    fn merge_path_is_capped_by_the_trace_window() {
        // A trace longer than the window arrives pre-capped (the EIP
        // ring holds the most recent TRACE_WINDOW entries); the merged
        // path's instruction total equals the input length exactly.
        let long = vec!["spin"; TRACE_WINDOW + 1000];
        let capped = &long[..TRACE_WINDOW];
        let path = merge_path(capped.iter().copied());
        assert_eq!(path.len(), 1);
        assert_eq!(path[0].instructions, TRACE_WINDOW as u64);
        assert!(merge_path(std::iter::empty()).is_empty());
    }

    #[test]
    fn non_activating_target_yields_none() {
        let app = AppSpec::ftpd();
        let client = &app.clients[0]; // denied: never reaches retr()'s body
        let golden = golden_run(&app.image, client).unwrap();
        let set = enumerate_targets(&app.image, &["retr"], true);
        let r = crash_forensics(
            &app.image,
            client,
            &golden,
            &set.targets[0],
            EncodingScheme::Baseline,
        )
        .unwrap();
        assert!(r.is_none());
    }
}
