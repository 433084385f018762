//! Outcome classification (paper §5.1) against the golden run.

use fisec_net::{ClientStatus, Dir, Trace};
use fisec_os::Stop;
use std::fmt;

/// The paper's five outcome categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OutcomeClass {
    /// NA — the corrupted instruction was never executed.
    NotActivated,
    /// NM — executed, but no observable impact.
    NotManifested,
    /// SD — the server crashed (system detection).
    SystemDetection,
    /// FSV — fail-silence violation: traffic/behaviour deviates, the
    /// client hangs, or access is wrongfully denied.
    FailSilenceViolation,
    /// BRK — security break-in: access granted that the golden run denies.
    Breakin,
}

impl OutcomeClass {
    /// All five classes in the paper's Table 1 row order.
    pub const ALL: [OutcomeClass; 5] = [
        OutcomeClass::NotActivated,
        OutcomeClass::NotManifested,
        OutcomeClass::SystemDetection,
        OutcomeClass::FailSilenceViolation,
        OutcomeClass::Breakin,
    ];

    /// The paper's abbreviation.
    pub fn abbrev(self) -> &'static str {
        match self {
            OutcomeClass::NotActivated => "NA",
            OutcomeClass::NotManifested => "NM",
            OutcomeClass::SystemDetection => "SD",
            OutcomeClass::FailSilenceViolation => "FSV",
            OutcomeClass::Breakin => "BRK",
        }
    }
}

impl fmt::Display for OutcomeClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abbrev())
    }
}

/// The recorded golden (error-free) run for one client pattern.
///
/// `PartialEq`/`Eq` compare every field so the engine differential
/// tests can pin block-mode and step-mode golden runs against each
/// other.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoldenRun {
    /// How the golden server stopped (normally `Exited(0)`).
    pub stop: Stop,
    /// The client's golden verdict.
    pub client: ClientStatus,
    /// Golden traffic.
    pub trace: Trace,
    /// Golden instruction count.
    pub icount: u64,
}

/// Result of one injection experiment.
///
/// `PartialEq`/`Eq` compare every field; the differential tests lean on
/// this to prove the checkpointed engine bit-identical to from-scratch
/// replays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectionRun {
    /// Classified outcome.
    pub outcome: OutcomeClass,
    /// Whether the corrupted instruction executed.
    pub activated: bool,
    /// How the server stopped.
    pub stop: Stop,
    /// The client's final verdict.
    pub client: ClientStatus,
    /// For crashes: instructions between error activation and the crash
    /// (Figure 4's metric; excludes kernel work by construction).
    pub crash_latency: Option<u64>,
    /// For crashes: did the traffic deviate from golden before the crash?
    /// (The paper's *transient window of vulnerability* evidence.)
    pub transient_deviation: bool,
    /// Human-readable description of the first trace divergence.
    pub divergence: Option<String>,
}

impl InjectionRun {
    /// The run of an error whose instruction never executed: the server
    /// stopped with `stop` and the client's verdict was `client`, both
    /// exactly as the error-free prefix left them.
    pub fn not_activated(stop: Stop, client: ClientStatus) -> InjectionRun {
        InjectionRun {
            outcome: OutcomeClass::NotActivated,
            activated: false,
            stop,
            client,
            crash_latency: None,
            transient_deviation: false,
            divergence: None,
        }
    }
}

/// Is `t` a truncated prefix of `golden`? The final server→client message
/// of a crashed run may be cut short, so the last compared message only
/// needs to be a byte-prefix.
pub(crate) fn trace_is_prefix(t: &Trace, golden: &Trace) -> bool {
    let a = t.messages();
    let b = golden.messages();
    if a.len() > b.len() {
        return false;
    }
    for (i, m) in a.iter().enumerate() {
        let g = &b[i];
        if m.dir != g.dir {
            return false;
        }
        if i + 1 == a.len() {
            if !g.bytes.starts_with(&m.bytes) {
                return false;
            }
        } else if m.bytes != g.bytes {
            return false;
        }
    }
    true
}

/// Classify an activated run against the golden run.
///
/// Priority (categories are exclusive): BRK > SD > FSV > NM. A granted
/// session that should have been denied is a break-in even if the server
/// crashes afterwards; otherwise any crash is SD (with the pre-crash
/// deviation recorded separately); otherwise behavioural deviation or a
/// hang is FSV; otherwise NM.
pub fn classify_run(
    golden: &GoldenRun,
    stop: Stop,
    client: ClientStatus,
    trace: Trace,
    crash_latency: Option<u64>,
) -> InjectionRun {
    let golden_denied = golden.client != ClientStatus::Granted;
    let divergence = golden
        .trace
        .first_divergence(&trace)
        .map(|(i, d)| format!("message {i}: {d}"));

    let outcome = if golden_denied && client == ClientStatus::Granted {
        OutcomeClass::Breakin
    } else if stop.is_crash() {
        OutcomeClass::SystemDetection
    } else if stop.is_hang() {
        OutcomeClass::FailSilenceViolation
    } else {
        // Ran to an exit: compare behaviour.
        let same_traffic = divergence.is_none();
        let same_verdict = client == golden.client;
        let same_exit = stop == golden.stop;
        if same_traffic && same_verdict && same_exit {
            OutcomeClass::NotManifested
        } else {
            OutcomeClass::FailSilenceViolation
        }
    };

    let transient_deviation = stop.is_crash() && !trace_is_prefix(&trace, &golden.trace);

    InjectionRun {
        outcome,
        activated: true,
        stop,
        client,
        crash_latency,
        transient_deviation,
        divergence,
    }
}

/// Helper for building traces in tests and examples.
pub fn trace_from(parts: &[(Dir, &str)]) -> Trace {
    Trace::normalized(
        parts
            .iter()
            .map(|(d, s)| fisec_net::Message {
                dir: *d,
                bytes: s.as_bytes().to_vec(),
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fisec_x86::Fault;

    fn golden_denied() -> GoldenRun {
        GoldenRun {
            stop: Stop::Exited(0),
            client: ClientStatus::Denied,
            trace: trace_from(&[
                (Dir::ToClient, "220 ready\r\n"),
                (Dir::ToServer, "USER alice\r\n"),
                (Dir::ToClient, "331 Password required.\r\n"),
                (Dir::ToServer, "PASS wrong\r\n"),
                (Dir::ToClient, "530 Login incorrect.\r\n"),
            ]),
            icount: 10_000,
        }
    }

    #[test]
    fn identical_run_is_nm() {
        let g = golden_denied();
        let r = classify_run(
            &g,
            Stop::Exited(0),
            ClientStatus::Denied,
            g.trace.clone(),
            None,
        );
        assert_eq!(r.outcome, OutcomeClass::NotManifested);
        assert!(r.divergence.is_none());
    }

    #[test]
    fn granted_when_denied_is_brk() {
        let g = golden_denied();
        let r = classify_run(
            &g,
            Stop::Exited(0),
            ClientStatus::Granted,
            g.trace.clone(),
            None,
        );
        assert_eq!(r.outcome, OutcomeClass::Breakin);
    }

    #[test]
    fn brk_takes_priority_over_crash() {
        // Access granted, then the server died: the window was open.
        let g = golden_denied();
        let r = classify_run(
            &g,
            Stop::Crashed(Fault::InvalidOpcode(0x1000)),
            ClientStatus::Granted,
            g.trace.clone(),
            Some(123),
        );
        assert_eq!(r.outcome, OutcomeClass::Breakin);
        assert_eq!(r.crash_latency, Some(123));
    }

    #[test]
    fn crash_is_sd_with_latency() {
        let g = golden_denied();
        let r = classify_run(
            &g,
            Stop::Crashed(Fault::MemAccess {
                addr: 0,
                write: true,
            }),
            ClientStatus::InProgress,
            trace_from(&[(Dir::ToClient, "220 ready\r\n")]),
            Some(57),
        );
        assert_eq!(r.outcome, OutcomeClass::SystemDetection);
        assert_eq!(r.crash_latency, Some(57));
        assert!(!r.transient_deviation); // clean prefix
    }

    #[test]
    fn crash_with_deviant_traffic_flags_transient_window() {
        let g = golden_denied();
        let r = classify_run(
            &g,
            Stop::Crashed(Fault::InvalidOpcode(0)),
            ClientStatus::Confused,
            trace_from(&[(Dir::ToClient, "999 garbage\r\n")]),
            Some(20_000),
        );
        assert_eq!(r.outcome, OutcomeClass::SystemDetection);
        assert!(r.transient_deviation);
    }

    #[test]
    fn hang_is_fsv() {
        let g = golden_denied();
        for stop in [Stop::Budget, Stop::Deadlock] {
            let r = classify_run(&g, stop, ClientStatus::InProgress, g.trace.clone(), None);
            assert_eq!(r.outcome, OutcomeClass::FailSilenceViolation);
        }
    }

    #[test]
    fn deviant_traffic_without_crash_is_fsv() {
        let g = golden_denied();
        let mut msgs = vec![
            (Dir::ToClient, "220 ready\r\n"),
            (Dir::ToServer, "USER alice\r\n"),
            (Dir::ToClient, "500 command not understood.\r\n"),
        ];
        let r = classify_run(
            &g,
            Stop::Exited(0),
            ClientStatus::Confused,
            trace_from(&msgs),
            None,
        );
        assert_eq!(r.outcome, OutcomeClass::FailSilenceViolation);
        assert!(r.divergence.unwrap().contains("message 2"));
        msgs.pop();
        // Truncated-but-matching traffic with same verdict/exit is still
        // FSV because the trace differs (missing messages).
        let r = classify_run(
            &g,
            Stop::Exited(0),
            ClientStatus::Denied,
            trace_from(&msgs),
            None,
        );
        assert_eq!(r.outcome, OutcomeClass::FailSilenceViolation);
    }

    #[test]
    fn wrongful_deny_for_legit_client_is_fsv_not_brk() {
        let mut g = golden_denied();
        g.client = ClientStatus::Granted; // golden grants (Client2-style)
        let r = classify_run(
            &g,
            Stop::Exited(0),
            ClientStatus::Denied,
            trace_from(&[(Dir::ToClient, "530 Login incorrect.\r\n")]),
            None,
        );
        assert_eq!(r.outcome, OutcomeClass::FailSilenceViolation);
    }

    #[test]
    fn granted_matching_golden_grant_is_nm() {
        let mut g = golden_denied();
        g.client = ClientStatus::Granted;
        let r = classify_run(
            &g,
            Stop::Exited(0),
            ClientStatus::Granted,
            g.trace.clone(),
            None,
        );
        assert_eq!(r.outcome, OutcomeClass::NotManifested);
    }

    #[test]
    fn prefix_logic() {
        let g = golden_denied().trace;
        let p = trace_from(&[
            (Dir::ToClient, "220 ready\r\n"),
            (Dir::ToServer, "USER alice\r\n"),
            (Dir::ToClient, "331 Pass"),
        ]);
        assert!(trace_is_prefix(&p, &g));
        let bad = trace_from(&[(Dir::ToClient, "221 bye\r\n")]);
        assert!(!trace_is_prefix(&bad, &g));
        let too_long = trace_from(&[
            (Dir::ToClient, "220 ready\r\n"),
            (Dir::ToServer, "USER alice\r\n"),
            (Dir::ToClient, "331 Password required.\r\n"),
            (Dir::ToServer, "PASS wrong\r\n"),
            (Dir::ToClient, "530 Login incorrect.\r\n"),
            (Dir::ToServer, "extra\r\n"),
        ]);
        assert!(!trace_is_prefix(&too_long, &g));
        // Wrong direction.
        let wrong_dir = trace_from(&[(Dir::ToServer, "220 ready\r\n")]);
        assert!(!trace_is_prefix(&wrong_dir, &g));
    }

    #[test]
    fn budget_exhaustion_is_fsv_hang() {
        // A run that spins until the instruction budget runs out is a
        // hang-class fail-silence violation even when the traffic so far
        // matches golden perfectly.
        let g = golden_denied();
        let r = classify_run(
            &g,
            Stop::Budget,
            ClientStatus::InProgress,
            g.trace.clone(),
            None,
        );
        assert_eq!(r.outcome, OutcomeClass::FailSilenceViolation);
        assert!(r.stop.is_hang());
        assert_eq!(r.crash_latency, None);
        assert!(!r.transient_deviation);
    }

    #[test]
    fn breakpoint_stop_is_fsv_not_nm() {
        // A stray breakpoint stop (e.g. the corrupted program jumping
        // back onto a still-armed breakpoint address) is neither a clean
        // exit nor a crash/hang: it must not classify as NotManifested
        // even with golden-identical traffic and verdict.
        let g = golden_denied();
        let r = classify_run(
            &g,
            Stop::Breakpoint(0x1000),
            g.client,
            g.trace.clone(),
            None,
        );
        assert_eq!(r.outcome, OutcomeClass::FailSilenceViolation);
    }

    #[test]
    fn empty_client_trace_against_golden() {
        // A run that dies before any traffic: empty trace is a valid
        // prefix (no transient deviation), but a non-crash empty-trace
        // run diverges from golden ("extra message" on golden's side).
        let g = golden_denied();
        let empty = Trace::default();
        assert!(trace_is_prefix(&empty, &g.trace));
        let r = classify_run(
            &g,
            Stop::Crashed(Fault::InvalidOpcode(0x2000)),
            ClientStatus::InProgress,
            empty.clone(),
            Some(1),
        );
        assert_eq!(r.outcome, OutcomeClass::SystemDetection);
        assert!(!r.transient_deviation);
        let r = classify_run(&g, Stop::Exited(0), ClientStatus::InProgress, empty, None);
        assert_eq!(r.outcome, OutcomeClass::FailSilenceViolation);
        assert!(r.divergence.unwrap().contains("extra message"));
    }

    #[test]
    fn empty_golden_trace_is_handled() {
        // Degenerate golden (server said nothing): identical empty run
        // is NM; any traffic at all is divergence.
        let g = GoldenRun {
            stop: Stop::Exited(0),
            client: ClientStatus::Denied,
            trace: Trace::default(),
            icount: 100,
        };
        let r = classify_run(
            &g,
            Stop::Exited(0),
            ClientStatus::Denied,
            Trace::default(),
            None,
        );
        assert_eq!(r.outcome, OutcomeClass::NotManifested);
        let r = classify_run(
            &g,
            Stop::Exited(0),
            ClientStatus::Denied,
            trace_from(&[(Dir::ToClient, "garbage")]),
            None,
        );
        assert_eq!(r.outcome, OutcomeClass::FailSilenceViolation);
        assert!(r.divergence.unwrap().contains("missing message"));
    }

    #[test]
    fn outcome_abbrevs() {
        assert_eq!(OutcomeClass::NotActivated.abbrev(), "NA");
        assert_eq!(OutcomeClass::Breakin.abbrev(), "BRK");
        assert_eq!(OutcomeClass::ALL.len(), 5);
        assert_eq!(format!("{}", OutcomeClass::SystemDetection), "SD");
    }
}
