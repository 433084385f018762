//! Differential tests: the snapshot engine's checkpoint groups must be
//! observably indistinguishable from booting every experiment from
//! scratch.
//!
//! `run_injection_group_recorded` replays a snapshot taken at the
//! instruction's activation icount for every byte×bit of it; these
//! tests re-run the same pinned target slices through the
//! one-boot-per-experiment `run_injection_recorded` oracle and require
//! the full `InjectionRun` records — outcome class, activation, stop
//! reason, client verdict, crash latency, transient deviation flag and
//! divergence text — to agree field for field, for both servers and
//! both encodings. With the flight recorder and the taint tracer on,
//! every run's divergence and propagation reports must agree as well.

use fisec_apps::{AppSpec, ClientSpec};
use fisec_encoding::EncodingScheme;
use fisec_inject::{
    enumerate_targets, golden_run, golden_run_opts, run_injection, run_injection_group_recorded,
    run_injection_recorded, EngineOpts, GoldenRun, GroupRun, InjectionRun, InjectionTarget,
    OutcomeClass,
};

/// Group a target slice into contiguous same-address runs.
fn by_addr(targets: &[InjectionTarget]) -> Vec<&[InjectionTarget]> {
    let mut groups = Vec::new();
    let mut start = 0;
    for i in 1..=targets.len() {
        if i == targets.len() || targets[i].addr != targets[start].addr {
            groups.push(&targets[start..i]);
            start = i;
        }
    }
    groups
}

/// The classified runs of one checkpoint group.
fn group_runs(
    app: &AppSpec,
    spec: &ClientSpec,
    golden: &GoldenRun,
    group: &[InjectionTarget],
    scheme: EncodingScheme,
    engine: EngineOpts,
) -> Vec<InjectionRun> {
    let (runs, ..) =
        run_injection_group_recorded(&app.image, spec, golden, group, scheme, engine).unwrap();
    runs.into_iter().map(|(run, ..)| run).collect()
}

/// Run every target in `slice` through both engines and compare records,
/// once with every observer off and once with the flight recorder and
/// the taint tracer on, where each run's reports must agree too.
fn assert_paths_agree(app: &AppSpec, client_idx: usize, slice: &[InjectionTarget]) {
    let spec = &app.clients[client_idx];
    let golden = golden_run(&app.image, spec).unwrap();
    let observed = EngineOpts {
        flight_recorder: true,
        propagation: true,
        ..EngineOpts::default()
    };
    for engine in [EngineOpts::default(), observed] {
        for scheme in [EncodingScheme::Baseline, EncodingScheme::NewEncoding] {
            for group in by_addr(slice) {
                let (fast, ..) =
                    run_injection_group_recorded(&app.image, spec, &golden, group, scheme, engine)
                        .unwrap();
                let slow: Vec<GroupRun> = group
                    .iter()
                    .flat_map(|t| {
                        run_injection_recorded(&app.image, spec, &golden, t, scheme, engine)
                            .unwrap()
                            .0
                    })
                    .collect();
                let runs = |r: &[GroupRun]| -> Vec<InjectionRun> {
                    r.iter().map(|(run, ..)| run.clone()).collect()
                };
                assert_eq!(
                    runs(&fast),
                    runs(&slow),
                    "{} {} {:?} group at {:#010x} diverged between engines",
                    app.name,
                    spec.name,
                    scheme,
                    group[0].addr
                );
                for (t, ((run, _, fdiv, fprop), (_, _, sdiv, sprop))) in
                    group.iter().zip(fast.iter().zip(&slow))
                {
                    let what = format!(
                        "{} {} {:?} {:#010x} byte {} bit {}",
                        app.name, spec.name, scheme, t.addr, t.byte_index, t.bit
                    );
                    assert_eq!(fdiv, sdiv, "{what}: divergence reports differ");
                    assert_eq!(fprop, sprop, "{what}: propagation reports differ");
                    if engine == observed {
                        assert_eq!(fdiv.is_some(), run.activated, "{what}: report missing");
                        assert_eq!(fprop.is_some(), run.activated, "{what}: report missing");
                    }
                }
            }
        }
    }
}

#[test]
fn ftpd_pass_slice_agrees_between_engines() {
    let app = AppSpec::ftpd();
    let set = enumerate_targets(&app.image, &["pass"], true);
    // Every bit of the first four pass() branch instructions: activated
    // runs with BRK/SD/FSV/NM mixes under Client1 (attack).
    let slice: Vec<_> = set.targets.iter().take(4 * 48).copied().collect();
    assert!(slice.len() >= 96, "expected several instructions' worth");
    assert_paths_agree(&app, 0, &slice);
}

#[test]
fn ftpd_granted_client_slice_agrees_between_engines() {
    // Client2 (correct password): golden grants, so the engines must
    // also agree on the no-BRK side of the classification.
    let app = AppSpec::ftpd();
    let set = enumerate_targets(&app.image, &["pass"], true);
    let slice: Vec<_> = set.targets.iter().take(2 * 48).copied().collect();
    assert_paths_agree(&app, 1, &slice);
}

#[test]
fn sshd_auth_password_slice_agrees_between_engines() {
    let app = AppSpec::sshd();
    let set = enumerate_targets(&app.image, &["auth_password"], true);
    let slice: Vec<_> = set.targets.iter().take(3 * 48).copied().collect();
    assert!(!slice.is_empty());
    assert_paths_agree(&app, 0, &slice);
}

/// Run a target slice through the group replayer with the block engine
/// on and off — golden runs included — and require field-for-field
/// identical `InjectionRun` records under both encodings.
fn assert_block_modes_agree(app: &AppSpec, client_idx: usize, slice: &[InjectionTarget]) {
    let spec = &app.clients[client_idx];
    let blk = EngineOpts {
        block_cache: true,
        ..EngineOpts::default()
    };
    let stp = EngineOpts {
        block_cache: false,
        ..EngineOpts::default()
    };
    let golden_blk = golden_run_opts(&app.image, spec, blk).unwrap();
    let golden_stp = golden_run_opts(&app.image, spec, stp).unwrap();
    assert_eq!(
        golden_blk, golden_stp,
        "{} {} golden runs diverged between block and step engines",
        app.name, spec.name
    );
    for scheme in [EncodingScheme::Baseline, EncodingScheme::NewEncoding] {
        for group in by_addr(slice) {
            let fast = group_runs(app, spec, &golden_blk, group, scheme, blk);
            let slow = group_runs(app, spec, &golden_stp, group, scheme, stp);
            assert_eq!(
                fast, slow,
                "{} {} {:?} group at {:#010x} diverged between block and step engines",
                app.name, spec.name, scheme, group[0].addr
            );
        }
    }
}

#[test]
fn ftpd_block_engine_agrees_with_step_engine() {
    let app = AppSpec::ftpd();
    let set = enumerate_targets(&app.image, &["pass"], true);
    let slice: Vec<_> = set.targets.iter().take(3 * 48).copied().collect();
    assert!(slice.len() >= 96);
    assert_block_modes_agree(&app, 0, &slice);
}

#[test]
fn sshd_block_engine_agrees_with_step_engine() {
    let app = AppSpec::sshd();
    let set = enumerate_targets(&app.image, &["auth_password"], true);
    let slice: Vec<_> = set.targets.iter().take(2 * 48).copied().collect();
    assert!(!slice.is_empty());
    assert_block_modes_agree(&app, 0, &slice);
}

/// The flight recorder must be a pure observer: recorder-on runs
/// produce field-for-field identical `InjectionRun`s, and the recorded
/// traces themselves are identical between the block and step engines.
#[test]
fn flight_recorder_is_a_pure_observer_and_engine_independent() {
    let app = AppSpec::ftpd();
    let spec = &app.clients[0];
    let golden = golden_run(&app.image, spec).unwrap();
    let set = enumerate_targets(&app.image, &["pass"], true);
    let slice: Vec<_> = set.targets.iter().take(2 * 48).copied().collect();
    let plain = EngineOpts::default();
    let recorded = EngineOpts {
        flight_recorder: true,
        ..EngineOpts::default()
    };
    let recorded_stp = EngineOpts {
        block_cache: false,
        flight_recorder: true,
        ..EngineOpts::default()
    };
    for group in by_addr(&slice) {
        let off_runs = group_runs(&app, spec, &golden, group, EncodingScheme::Baseline, plain);
        let on = run_injection_group_recorded(
            &app.image,
            spec,
            &golden,
            group,
            EncodingScheme::Baseline,
            recorded,
        )
        .unwrap();
        let on_stp = run_injection_group_recorded(
            &app.image,
            spec,
            &golden,
            group,
            EncodingScheme::Baseline,
            recorded_stp,
        )
        .unwrap();
        let on_runs: Vec<_> = on.0.iter().map(|(run, _, _, _)| run.clone()).collect();
        assert_eq!(
            off_runs, on_runs,
            "recorder changed outcomes at {:#010x}",
            group[0].addr
        );
        // Every activated run carries a report, and the recorded control
        // flow is engine-independent.
        for ((run, _, rep, _), (_, _, rep_stp, _)) in on.0.iter().zip(&on_stp.0) {
            assert_eq!(run.activated, rep.is_some());
            if let (Some(a), Some(b)) = (rep, rep_stp) {
                assert_eq!(a.faulty, b.faulty, "faulty trace diverged between engines");
                assert_eq!(
                    a.golden.as_ref(),
                    b.golden.as_ref(),
                    "golden continuation diverged between engines"
                );
                assert_eq!(a.first_divergence, b.first_divergence);
                assert_eq!(a.divergence_depth, b.divergence_depth);
                // A crashed run's trace-derived latency equals the live
                // Figure 4 measurement by construction.
                if let Some(lat) = run.crash_latency {
                    assert_eq!(a.faulty.retired(), lat);
                }
            }
        }
    }
}

/// The hot-spot profiler must also be a pure observer: profiler-on runs
/// produce field-for-field identical `InjectionRun`s in both execution
/// modes, and the profile itself accounts for every retired instruction.
#[test]
fn profiler_is_a_pure_observer_in_both_engines() {
    let app = AppSpec::ftpd();
    let spec = &app.clients[0];
    let golden = golden_run(&app.image, spec).unwrap();
    let set = enumerate_targets(&app.image, &["pass"], true);
    let slice: Vec<_> = set.targets.iter().take(2 * 48).copied().collect();
    for block_cache in [true, false] {
        let plain = EngineOpts {
            block_cache,
            ..EngineOpts::default()
        };
        let profiled = EngineOpts {
            block_cache,
            profiler: true,
            ..EngineOpts::default()
        };
        for group in by_addr(&slice) {
            let off = run_injection_group_recorded(
                &app.image,
                spec,
                &golden,
                group,
                EncodingScheme::Baseline,
                plain,
            )
            .unwrap();
            let (on_runs, on_group, profile, _) = run_injection_group_recorded(
                &app.image,
                spec,
                &golden,
                group,
                EncodingScheme::Baseline,
                profiled,
            )
            .unwrap();
            let off_runs: Vec<_> = off.0.into_iter().map(|(run, ..)| run).collect();
            let on_runs: Vec<_> = on_runs.into_iter().map(|(run, _, _, _)| run).collect();
            assert_eq!(
                off_runs, on_runs,
                "profiler changed outcomes at {:#010x} (block_cache={block_cache})",
                group[0].addr
            );
            assert_eq!(off.1.activated, on_group.activated);
            let profile = profile.expect("profiler was requested");
            assert!(
                profile.total_retired() > 0,
                "an activated group retires instructions"
            );
            if !block_cache {
                assert!(
                    profile.blocks.is_empty(),
                    "step engine never dispatches blocks"
                );
            }
        }
    }
}

#[test]
fn unreached_group_is_na_in_both_engines() {
    // Client1 is denied and never drives retr(); a whole group there
    // must come back NotActivated from both engines, with identical
    // stop/client fields.
    let app = AppSpec::ftpd();
    let spec = &app.clients[0];
    let golden = golden_run(&app.image, spec).unwrap();
    let set = enumerate_targets(&app.image, &["retr"], true);
    let group = by_addr(&set.targets)[0];
    let fast = group_runs(
        &app,
        spec,
        &golden,
        group,
        EncodingScheme::Baseline,
        EngineOpts::default(),
    );
    assert!(fast.iter().all(|r| r.outcome == OutcomeClass::NotActivated));
    let slow: Vec<_> = group
        .iter()
        .map(|t| run_injection(&app.image, spec, &golden, t, EncodingScheme::Baseline).unwrap())
        .collect();
    assert_eq!(fast, slow);
}

#[test]
fn empty_group_is_empty() {
    let app = AppSpec::ftpd();
    let spec = &app.clients[0];
    let golden = golden_run(&app.image, spec).unwrap();
    let runs = group_runs(
        &app,
        spec,
        &golden,
        &[],
        EncodingScheme::Baseline,
        EngineOpts::default(),
    );
    assert!(runs.is_empty());
}
