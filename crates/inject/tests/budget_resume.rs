//! Stopping a session at an instruction budget and resuming it is
//! exact: the stop, icount, traffic trace and client verdict equal the
//! uninterrupted session's, for both servers under the stepwise and
//! block engines, whether the session resumes in place or from a
//! checkpoint taken at the stop. The latent-error
//! runner's golden walk stops at each rung this way, so every replay
//! starts from exactly golden's state at that icount.

use fisec_apps::AppSpec;
use fisec_net::{ClientStatus, Trace};
use fisec_os::{Process, Stop};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Session budget, far beyond either server's golden session.
const BUDGET: u64 = 5_000_000;

/// Block cache off (stepwise) and on.
const ENGINES: [bool; 2] = [false, true];

type Session = (Stop, u64, Trace, ClientStatus);

fn boot(app: &AppSpec, block: bool) -> Process {
    let mut p = Process::load(&app.image, app.clients[0].make()).expect("bundled image loads");
    p.machine.set_block_engine(block);
    p.set_budget(BUDGET);
    p
}

fn finish(p: &mut Process) -> Session {
    let stop = p.run();
    (stop, p.icount(), p.trace(), p.client_status())
}

/// Both servers with their uninterrupted Client1 session per engine.
fn fixtures() -> &'static [(AppSpec, Vec<Session>)] {
    static FIXTURES: OnceLock<Vec<(AppSpec, Vec<Session>)>> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        [AppSpec::ftpd(), AppSpec::sshd()]
            .into_iter()
            .map(|app| {
                let whole = ENGINES
                    .iter()
                    .map(|&e| finish(&mut boot(&app, e)))
                    .collect();
                (app, whole)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn stopping_at_a_budget_and_resuming_is_exact(seed in any::<u64>()) {
        for (app, whole) in fixtures() {
            for (engine, expect) in ENGINES.into_iter().zip(whole) {
                prop_assert!(matches!(expect.0, Stop::Exited(_) | Stop::Deadlock));
                let t = seed % expect.1;
                let mut p = boot(app, engine);
                p.set_budget(t);
                prop_assert_eq!(p.run(), Stop::Budget, "{} {:?} t={}", app.name, engine, t);
                prop_assert_eq!(p.icount(), t);
                let rung = p.snapshot();
                p.set_budget(BUDGET);
                prop_assert_eq!(&finish(&mut p), expect, "{} {:?} in place, t={}", app.name, engine, t);
                p.restore(&rung);
                p.set_budget(BUDGET);
                prop_assert_eq!(&finish(&mut p), expect, "{} {:?} restored, t={}", app.name, engine, t);
            }
        }
    }
}
