//! Stable, versioned digests of injection outcomes for the incremental
//! campaign cache.
//!
//! A cached checkpoint group stores one [`CachedRun`] per target, built
//! from the [`InjectionRun`](crate::InjectionRun) plus the divergence
//! observables the campaign layer digests out of a
//! [`DivergenceReport`](crate::DivergenceReport). Enum-valued fields are
//! flattened to short, stable strings with their own codecs below, so
//! the stored form only changes when [`DIGEST_SCHEMA`] is bumped
//! deliberately; the cache's store codec frames them as it frames any
//! other string. Decoding is total: malformed input yields `None` (the
//! cache layer treats it as a miss), never a panic.

use crate::classify::{InjectionRun, OutcomeClass};
use fisec_net::ClientStatus;
use fisec_os::Stop;
use fisec_x86::Fault;

/// Version tag for the digested-run serialization. Bump on any change
/// to [`CachedRun`]'s fields or the string codecs below; the cache
/// treats entries with a different schema as misses.
pub const DIGEST_SCHEMA: u32 = 1;

/// One memoized injection outcome: everything the campaign layer folds
/// into `CampaignResults` for a run, with enum fields flattened to
/// stable strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedRun {
    /// Outcome abbreviation: NA/NM/SD/FSV/BRK.
    pub outcome: String,
    /// Whether the corrupted instruction executed.
    pub activated: bool,
    /// Stop reason, via [`stop_to_string`].
    pub stop: String,
    /// Client verdict, via [`client_to_string`].
    pub client: String,
    /// Figure 4 crash latency, when the run crashed.
    pub crash_latency: Option<u64>,
    /// Whether pre-crash traffic deviated from golden.
    pub transient_deviation: bool,
    /// Human-readable first trace divergence.
    pub divergence: Option<String>,
    /// Whether the run carried a flight-recorder divergence digest
    /// (distinguishes "recorder off" from "recorder on, no data").
    pub has_div: bool,
    /// Instructions from activation to the first diverging edge.
    pub divergence_depth: Option<u64>,
    /// Instructions from activation to the first trace divergence.
    pub trace_latency: Option<u64>,
}

/// Digested divergence observables: `(divergence_depth, trace_latency)`.
pub type DivObservables = (Option<u64>, Option<u64>);

/// Flatten a run and its digested divergence observables.
pub fn encode_run(run: &InjectionRun, div: Option<DivObservables>) -> CachedRun {
    CachedRun {
        outcome: run.outcome.abbrev().to_string(),
        activated: run.activated,
        stop: stop_to_string(run.stop.clone()),
        client: client_to_string(run.client).to_string(),
        crash_latency: run.crash_latency,
        transient_deviation: run.transient_deviation,
        divergence: run.divergence.clone(),
        has_div: div.is_some(),
        divergence_depth: div.and_then(|(d, _)| d),
        trace_latency: div.and_then(|(_, t)| t),
    }
}

/// Rebuild the run and divergence observables. `None` on any malformed
/// field — the caller treats the whole entry as a cache miss.
pub fn decode_run(c: &CachedRun) -> Option<(InjectionRun, Option<DivObservables>)> {
    let run = InjectionRun {
        outcome: outcome_from_abbrev(&c.outcome)?,
        activated: c.activated,
        stop: stop_from_string(&c.stop)?,
        client: client_from_string(&c.client)?,
        crash_latency: c.crash_latency,
        transient_deviation: c.transient_deviation,
        divergence: c.divergence.clone(),
    };
    let div = c.has_div.then_some((c.divergence_depth, c.trace_latency));
    Some((run, div))
}

/// Stable string form of a [`Stop`]: `exit:<code>`, `crash:<fault>`,
/// `budget`, `deadlock`, `bp:<hex addr>`.
pub fn stop_to_string(stop: Stop) -> String {
    match stop {
        Stop::Exited(code) => format!("exit:{code}"),
        Stop::Crashed(f) => format!("crash:{}", fault_to_string(f)),
        Stop::Budget => "budget".to_string(),
        Stop::Deadlock => "deadlock".to_string(),
        Stop::Breakpoint(addr) => format!("bp:{addr:x}"),
    }
}

/// Inverse of [`stop_to_string`]; `None` on malformed input.
pub fn stop_from_string(s: &str) -> Option<Stop> {
    match s {
        "budget" => return Some(Stop::Budget),
        "deadlock" => return Some(Stop::Deadlock),
        _ => {}
    }
    let (tag, rest) = s.split_once(':')?;
    match tag {
        "exit" => rest.parse().ok().map(Stop::Exited),
        "crash" => fault_from_string(rest).map(Stop::Crashed),
        "bp" => u32::from_str_radix(rest, 16).ok().map(Stop::Breakpoint),
        _ => None,
    }
}

fn fault_to_string(f: Fault) -> String {
    match f {
        Fault::InvalidOpcode(a) => format!("ud:{a:x}"),
        Fault::GeneralProtection(a) => format!("gp:{a:x}"),
        Fault::MemAccess { addr, write } => {
            format!("mem:{addr:x}:{}", if write { 'w' } else { 'r' })
        }
        Fault::FetchFault(a) => format!("fetch:{a:x}"),
        Fault::DivideError(a) => format!("div:{a:x}"),
        Fault::Trap(a) => format!("trap:{a:x}"),
    }
}

fn fault_from_string(s: &str) -> Option<Fault> {
    let (tag, rest) = s.split_once(':')?;
    let hex = |s: &str| u32::from_str_radix(s, 16).ok();
    match tag {
        "ud" => hex(rest).map(Fault::InvalidOpcode),
        "gp" => hex(rest).map(Fault::GeneralProtection),
        "mem" => {
            let (addr, rw) = rest.split_once(':')?;
            let write = match rw {
                "w" => true,
                "r" => false,
                _ => return None,
            };
            hex(addr).map(|addr| Fault::MemAccess { addr, write })
        }
        "fetch" => hex(rest).map(Fault::FetchFault),
        "div" => hex(rest).map(Fault::DivideError),
        "trap" => hex(rest).map(Fault::Trap),
        _ => None,
    }
}

/// Stable string form of a [`ClientStatus`].
pub fn client_to_string(c: ClientStatus) -> &'static str {
    match c {
        ClientStatus::InProgress => "in-progress",
        ClientStatus::Granted => "granted",
        ClientStatus::Denied => "denied",
        ClientStatus::Confused => "confused",
    }
}

/// Inverse of [`client_to_string`]; `None` on malformed input.
pub fn client_from_string(s: &str) -> Option<ClientStatus> {
    match s {
        "in-progress" => Some(ClientStatus::InProgress),
        "granted" => Some(ClientStatus::Granted),
        "denied" => Some(ClientStatus::Denied),
        "confused" => Some(ClientStatus::Confused),
        _ => None,
    }
}

/// Outcome class from its Table 1 abbreviation; `None` on malformed
/// input.
pub fn outcome_from_abbrev(s: &str) -> Option<OutcomeClass> {
    OutcomeClass::ALL.iter().copied().find(|o| o.abbrev() == s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stop_codec_round_trips_every_variant() {
        let stops = [
            Stop::Exited(0),
            Stop::Exited(-1),
            Stop::Crashed(Fault::InvalidOpcode(0x8048_0001)),
            Stop::Crashed(Fault::GeneralProtection(0x1234)),
            Stop::Crashed(Fault::MemAccess {
                addr: 0xdead_beef,
                write: true,
            }),
            Stop::Crashed(Fault::MemAccess {
                addr: 0,
                write: false,
            }),
            Stop::Crashed(Fault::FetchFault(0xffff_ffff)),
            Stop::Crashed(Fault::DivideError(0x80)),
            Stop::Crashed(Fault::Trap(3)),
            Stop::Budget,
            Stop::Deadlock,
            Stop::Breakpoint(0x8048_1234),
        ];
        for stop in stops {
            let s = stop_to_string(stop.clone());
            assert_eq!(stop_from_string(&s), Some(stop), "via {s:?}");
        }
    }

    #[test]
    fn malformed_strings_decode_to_none_not_panic() {
        for s in [
            "",
            "exit",
            "exit:",
            "exit:x",
            "crash",
            "crash:",
            "crash:mem:zz:w",
            "crash:mem:10:x",
            "crash:nope:1",
            "bp:",
            "bp:zz",
            "unknown:5",
        ] {
            assert_eq!(stop_from_string(s), None, "input {s:?}");
        }
        assert_eq!(client_from_string("Granted"), None);
        assert_eq!(outcome_from_abbrev("XX"), None);
        assert_eq!(outcome_from_abbrev("na"), None);
    }

    #[test]
    fn run_codec_round_trips() {
        let run = InjectionRun {
            outcome: OutcomeClass::FailSilenceViolation,
            activated: true,
            stop: Stop::Crashed(Fault::MemAccess {
                addr: 0x2004,
                write: true,
            }),
            client: ClientStatus::Confused,
            crash_latency: Some(4242),
            transient_deviation: true,
            divergence: Some("msg 3 differs".to_string()),
        };
        // Recorder on, with observables.
        let enc = encode_run(&run, Some((Some(17), None)));
        let (dec, div) = decode_run(&enc).unwrap();
        assert_eq!(dec, run);
        assert_eq!(div, Some((Some(17), None)));
        // Recorder off: no divergence side at all.
        let enc = encode_run(&run, None);
        let (_, div) = decode_run(&enc).unwrap();
        assert_eq!(div, None);
    }

    #[test]
    fn bad_outcome_or_stop_is_a_miss() {
        let run = InjectionRun {
            outcome: OutcomeClass::NotManifested,
            activated: true,
            stop: Stop::Exited(0),
            client: ClientStatus::Denied,
            crash_latency: None,
            transient_deviation: false,
            divergence: None,
        };
        let mut c = encode_run(&run, None);
        c.outcome = "??".to_string();
        assert!(decode_run(&c).is_none());
        let mut c = encode_run(&run, None);
        c.stop = "crash:mem:10".to_string();
        assert!(decode_run(&c).is_none());
        let mut c = encode_run(&run, None);
        c.client = "granted!".to_string();
        assert!(decode_run(&c).is_none());
    }
}
