//! The warm per-worker group runner against one fresh process per
//! group: identical runs, replay restores and executed-code footprints
//! for every checkpoint group of both servers, every client and both
//! encodings. The footprint keys the campaign cache, so a single
//! differing range would silently change every cache key.

use fisec_apps::AppSpec;
use fisec_encoding::EncodingScheme;
use fisec_inject::{
    enumerate_targets, golden_run, run_injection_group_recorded, EngineOpts, GroupRunner,
};

fn assert_runner_matches_fresh_boots(app: &AppSpec) {
    let set = enumerate_targets(&app.image, &app.auth_funcs, false);
    let groups: Vec<_> = set.targets.chunk_by(|a, b| a.addr == b.addr).collect();
    let engine = EngineOpts::default().with_footprint();
    for spec in &app.clients {
        let golden = golden_run(&app.image, spec).unwrap();
        for scheme in [EncodingScheme::Baseline, EncodingScheme::NewEncoding] {
            let mut runner = GroupRunner::new(&app.image, spec, &golden, engine).unwrap();
            for (gi, group) in groups.iter().enumerate() {
                let what = format!(
                    "{} {} {scheme:?} group at {:#010x}",
                    app.name, spec.name, group[0].addr
                );
                let (warm, wmeta, _, wfp) = runner.run(group, scheme);
                let (fresh, fmeta, _, ffp) =
                    run_injection_group_recorded(&app.image, spec, &golden, group, scheme, engine)
                        .unwrap();
                assert_eq!(wfp.unwrap().ranges(), ffp.unwrap().ranges(), "{what}");
                assert_eq!(wmeta.restores, fmeta.restores, "{what}");
                assert_eq!(wmeta.activated, fmeta.activated, "{what}");
                assert_eq!(wmeta.fresh_boot, gi == 0, "{what}: one load per runner");
                assert!(fmeta.fresh_boot, "{what}: the one-shot call loads");
                for ((w, wm, _, _), (f, fm, _, _)) in warm.iter().zip(&fresh) {
                    assert_eq!(w, f, "{what}");
                    assert_eq!(wm.icount, fm.icount, "{what}");
                }
                assert_eq!(warm.len(), fresh.len(), "{what}");
            }
        }
    }
}

#[test]
fn ftpd_runner_groups_match_fresh_boots() {
    assert_runner_matches_fresh_boots(&AppSpec::ftpd());
}

#[test]
fn sshd_runner_groups_match_fresh_boots() {
    assert_runner_matches_fresh_boots(&AppSpec::sshd());
}
