//! One snapshot-engine runner serving many checkpoint groups against one
//! one-shot call per group: identical runs, replay restores and
//! executed-code footprints for every checkpoint group of both servers,
//! every client and both encodings. The footprint keys the campaign
//! cache, so a single differing range would silently change every cache
//! key. The runner serves the groups in activation order (its walk only
//! moves forward) and then again in address order (its walk restarts
//! from icount 0 whenever a group lies behind it), so the check also
//! pins that a group's outcome does not depend on what the runner
//! walked before it.
//!
//! The same runner in activation order is also checked against the
//! breakpoint oracle, [`run_injection_recorded`], target for target, with
//! the default engine and with the taint tracer on: every executed run
//! field for field, its icount from activation, and its propagation
//! report. The masked replays (classified as golden one instruction
//! after the flip) are pinned per server and scheme, so a change that
//! turns the shortcut off fails as surely as one that masks a run the
//! oracle sees diverge.

use fisec_apps::AppSpec;
use fisec_encoding::EncodingScheme;
use fisec_inject::{
    enumerate_targets, golden_run, run_injection_group_recorded, run_injection_recorded,
    EngineOpts, FirstFetchPass, LatentRunner,
};

const SCHEMES: [EncodingScheme; 2] = [EncodingScheme::Baseline, EncodingScheme::NewEncoding];

fn assert_runner_matches_one_shots(app: &AppSpec) {
    let set = enumerate_targets(&app.image, &app.auth_funcs, false);
    let groups: Vec<_> = set.targets.chunk_by(|a, b| a.addr == b.addr).collect();
    let engine = EngineOpts::default().with_footprint();
    for spec in &app.clients {
        let golden = golden_run(&app.image, spec).unwrap();
        let pass = FirstFetchPass::run(&app.image, spec, &golden, engine).unwrap();
        assert!(pass.qualifies(), "{} {}", app.name, spec.name);
        let mut by_activation: Vec<usize> = (0..groups.len()).collect();
        by_activation.sort_by_key(|&gi| pass.activation(groups[gi][0].addr));
        for scheme in SCHEMES {
            let one_shots: Vec<_> = groups
                .iter()
                .map(|group| {
                    run_injection_group_recorded(&app.image, spec, &golden, group, scheme, engine)
                        .unwrap()
                })
                .collect();
            let mut runner = LatentRunner::with_pass(&app.image, spec, &pass);
            let mut executed = 0;
            let orders = [
                ("activation", by_activation.clone()),
                ("address", (0..groups.len()).collect()),
            ];
            for (order, indices) in orders {
                for gi in indices {
                    let group = groups[gi];
                    let what = format!(
                        "{} {} {scheme:?} group at {:#010x} in {order} order",
                        app.name, spec.name, group[0].addr
                    );
                    let (warm, wmeta, _, wfp) = runner.run_group(&golden, group, scheme).unwrap();
                    let (fresh, fmeta, _, ffp) = &one_shots[gi];
                    assert_eq!(
                        wfp.unwrap().ranges(),
                        ffp.as_ref().unwrap().ranges(),
                        "{what}"
                    );
                    assert_eq!(wmeta.restores, fmeta.restores, "{what}");
                    assert_eq!(wmeta.activated, fmeta.activated, "{what}");
                    assert_eq!(
                        wmeta.activated,
                        pass.activation(group[0].addr).is_some(),
                        "{what}"
                    );
                    assert_eq!(
                        wmeta.fresh_boot,
                        wmeta.activated && executed == 0,
                        "{what}: one load per runner, on its first executed group"
                    );
                    executed += usize::from(wmeta.activated);
                    assert!(fmeta.fresh_boot, "{what}: the one-shot call loads");
                    for ((w, wm, _, _), (f, fm, _, _)) in warm.iter().zip(fresh) {
                        assert_eq!(w, f, "{what}");
                        assert_eq!(wm.icount, fm.icount, "{what}");
                    }
                    assert_eq!(warm.len(), fresh.len(), "{what}");
                }
            }
            assert_eq!(runner.loads(), 1, "{} {}", app.name, spec.name);
        }
    }
}

#[test]
fn ftpd_runner_groups_match_fresh_boots() {
    assert_runner_matches_one_shots(&AppSpec::ftpd());
}

#[test]
fn sshd_runner_groups_match_fresh_boots() {
    assert_runner_matches_one_shots(&AppSpec::sshd());
}

/// Every executed group of every client of `app`, served by one runner
/// per client and scheme in activation order, against one oracle run per
/// target. Returns the masked replays per scheme (baseline, new
/// encoding).
fn assert_runner_matches_oracle(app: &AppSpec, engine: EngineOpts) -> [u64; 2] {
    let set = enumerate_targets(&app.image, &app.auth_funcs, false);
    let groups: Vec<_> = set.targets.chunk_by(|a, b| a.addr == b.addr).collect();
    let mut masked = [0; 2];
    for spec in &app.clients {
        let golden = golden_run(&app.image, spec).unwrap();
        let pass = FirstFetchPass::run(&app.image, spec, &golden, engine).unwrap();
        let mut executed: Vec<_> = groups
            .iter()
            .filter_map(|&group| Some((pass.activation(group[0].addr)?, group)))
            .collect();
        executed.sort_by_key(|&(activation, _)| activation);
        for (scheme, masked) in SCHEMES.into_iter().zip(&mut masked) {
            let mut runner = LatentRunner::with_pass(&app.image, spec, &pass);
            for &(activation, group) in &executed {
                let (runs, meta, ..) = runner.run_group(&golden, group, scheme).unwrap();
                assert!(meta.masked <= meta.restores);
                *masked += meta.masked;
                for (target, (run, run_meta, _, prop)) in group.iter().zip(runs) {
                    let what = format!(
                        "{} {} {scheme:?} {:#010x} byte {} bit {}",
                        app.name, spec.name, target.addr, target.byte_index, target.bit
                    );
                    let (oracle, ..) =
                        run_injection_recorded(&app.image, spec, &golden, target, scheme, engine)
                            .unwrap();
                    let (want, want_meta, _, want_prop) = &oracle[0];
                    assert_eq!(&run, want, "{what}");
                    assert_eq!(run_meta.icount, want_meta.icount - activation, "{what}");
                    assert_eq!(&prop, want_prop, "{what}");
                    assert_eq!(prop.is_some(), engine.propagation, "{what}");
                }
            }
        }
    }
    masked
}

#[test]
fn ftpd_runner_matches_the_oracle_with_masked_replays() {
    let masked = assert_runner_matches_oracle(&AppSpec::ftpd(), EngineOpts::default());
    assert_eq!(masked, [290, 163]);
}

#[test]
fn sshd_runner_matches_the_oracle_with_masked_replays() {
    let masked = assert_runner_matches_oracle(&AppSpec::sshd(), EngineOpts::default());
    assert_eq!(masked, [209, 159]);
}

/// With the taint tracer on, a replay is masked only once the flipped
/// instruction left no live taint, so its propagation log is final.
fn taint_engine() -> EngineOpts {
    EngineOpts {
        propagation: true,
        ..EngineOpts::default()
    }
}

#[test]
fn ftpd_runner_matches_the_traced_oracle_with_masked_replays() {
    let masked = assert_runner_matches_oracle(&AppSpec::ftpd(), taint_engine());
    assert_eq!(masked, [290, 162]);
}

#[test]
fn sshd_runner_matches_the_traced_oracle_with_masked_replays() {
    let masked = assert_runner_matches_oracle(&AppSpec::sshd(), taint_engine());
    assert_eq!(masked, [204, 140]);
}
