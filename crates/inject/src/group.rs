//! Checkpoint-group execution: the selective-exhaustive campaign's unit
//! of work.
//!
//! A checkpoint group is every target sharing one instruction address.
//! The process boots with a breakpoint at that address exactly as
//! [`run_injection`](crate::run_injection) does. If the breakpoint is
//! never hit, every target is NA with the record a from-scratch run
//! would produce (pre-activation execution is deterministic). Otherwise
//! the process is checkpointed at the breakpoint and each target
//! replays only its post-flip suffix from the checkpoint: peek the
//! pristine byte, flip, disarm, run, classify.
//!
//! [`GroupRunner`] is the group counterpart of
//! [`LatentRunner`](crate::LatentRunner): one per worker and client.
//! It loads the image once, checkpoints at icount 0, and starts every
//! later group by restoring that checkpoint. A restore rewinds
//! registers, memory, icount, breakpoints and the client channel, so
//! each group starts from exactly the state a fresh boot reaches,
//! while the decoded-instruction, block and trace caches stay warm
//! across groups (they are exact under the executable-write journal).
//! The one-shot entry point
//! [`run_injection_group_recorded`](crate::run_injection_group_recorded)
//! is a runner that serves a single group from a fresh process.

use crate::classify::{classify_run, GoldenRun, InjectionRun};
use crate::divergence::{self, DivergenceReport};
use crate::propagation::PropagationReport;
use crate::target::InjectionTarget;
use crate::{
    byte_ctx, decision_site, golden_continuation, micros_since, EngineOpts, GroupMeta,
    OutcomeClass, RunMeta, BUDGET_FLOOR, BUDGET_MULTIPLIER, RECORDER_EDGES,
};
use fisec_apps::ClientSpec;
use fisec_asm::Image;
use fisec_encoding::{remap_flip, EncodingScheme};
use fisec_os::{Process, ProcessSnapshot, Stop};
use fisec_x86::{ExecProfile, Footprint, DEFAULT_TAINT_HORIZON};
use std::time::Instant;

/// One replayed run of a checkpoint group: the classified run, its
/// metadata, and its divergence and propagation reports when the
/// engine options asked for them.
pub type GroupRun = (
    InjectionRun,
    RunMeta,
    Option<DivergenceReport>,
    Option<PropagationReport>,
);

/// Everything one checkpoint group yields: its runs in target order,
/// the group's boot/restore metadata, and the group's execution profile
/// and executed-code footprint when the engine options asked for them.
pub type GroupOutcome = (
    Vec<GroupRun>,
    GroupMeta,
    Option<ExecProfile>,
    Option<Footprint>,
);

/// Reusable checkpoint-group executor for one (image, client) pair.
/// Create one per worker thread; every [`run`](GroupRunner::run) is
/// independent of the groups before it.
pub struct GroupRunner<'a> {
    image: &'a Image,
    golden: &'a GoldenRun,
    engine: EngineOpts,
    process: Process,
    /// The icount-0 checkpoint every group after the first restores
    /// (`None` for a one-shot runner).
    boot: Option<ProcessSnapshot>,
    /// Host microseconds of the process load, billed to the first
    /// group; `None` once a group has run (later groups restore `boot`).
    load_micros: Option<u64>,
}

impl<'a> GroupRunner<'a> {
    /// Load the image, select the engine and checkpoint at icount 0.
    ///
    /// # Errors
    /// Propagates [`fisec_os::LoadError`] if the image cannot be loaded.
    pub fn new(
        image: &'a Image,
        client: &ClientSpec,
        golden: &'a GoldenRun,
        engine: EngineOpts,
    ) -> Result<GroupRunner<'a>, fisec_os::LoadError> {
        GroupRunner::boot(image, client, golden, engine, true)
    }

    /// A runner serving exactly one group from a fresh process (no
    /// icount-0 checkpoint is taken).
    pub(crate) fn one_shot(
        image: &'a Image,
        client: &ClientSpec,
        golden: &'a GoldenRun,
        engine: EngineOpts,
    ) -> Result<GroupRunner<'a>, fisec_os::LoadError> {
        GroupRunner::boot(image, client, golden, engine, false)
    }

    fn boot(
        image: &'a Image,
        client: &ClientSpec,
        golden: &'a GoldenRun,
        engine: EngineOpts,
        checkpoint: bool,
    ) -> Result<GroupRunner<'a>, fisec_os::LoadError> {
        let start = Instant::now();
        let mut process = Process::load(image, client.make())?;
        engine.configure(&mut process);
        process.set_budget((golden.icount * BUDGET_MULTIPLIER).max(BUDGET_FLOOR));
        let boot = checkpoint.then(|| process.snapshot());
        Ok(GroupRunner {
            image,
            golden,
            engine,
            process,
            boot,
            load_micros: Some(micros_since(start)),
        })
    }

    /// Execute every experiment of one checkpoint group, replaying the
    /// boot-to-breakpoint prefix only once. The profiler and footprint,
    /// when requested, cover exactly this group: its prefix and every
    /// replay. Outcomes are bit-identical to one from-scratch boot per
    /// target.
    ///
    /// # Panics
    /// If the targets do not all share one instruction address, or if a
    /// one-shot runner is asked for a second group.
    pub fn run(&mut self, targets: &[InjectionTarget], scheme: EncodingScheme) -> GroupOutcome {
        let Some(addr) = targets.first().map(|t| t.addr) else {
            return (Vec::new(), GroupMeta::default(), None, None);
        };
        assert!(
            targets.iter().all(|t| t.addr == addr),
            "a checkpoint group requires targets sharing one address"
        );
        let (image, golden, engine) = (self.image, self.golden, self.engine);
        let boot_start = Instant::now();
        let load_micros = self.load_micros.take();
        if load_micros.is_none() {
            let boot = self
                .boot
                .as_ref()
                .expect("a one-shot group runner serves one group");
            self.process.restore(boot);
        }
        let fresh_boot = load_micros.is_some();
        let p = &mut self.process;
        let restores_before = p.restore_count();
        engine.observe(p);
        p.machine.add_breakpoint(addr);

        let first = p.run();
        let boot_micros = load_micros.unwrap_or(0) + micros_since(boot_start);
        let Stop::Breakpoint(_) = first else {
            // Instruction never executed: the whole group is not activated,
            // and (determinism) every from-scratch run would stop the same
            // way with the same client verdict. Each synthesized run is
            // billed the shared prefix's icount — the work a from-scratch
            // run would have retired.
            let na = InjectionRun {
                outcome: OutcomeClass::NotActivated,
                activated: false,
                stop: first,
                client: p.client_status(),
                crash_latency: None,
                transient_deviation: false,
                divergence: None,
            };
            let meta = RunMeta {
                icount: p.icount(),
                run_micros: 0,
                classify_micros: 0,
            };
            let group = GroupMeta {
                boot_micros,
                fresh_boot,
                ..GroupMeta::default()
            };
            let profile = p.machine.take_exec_profile();
            let footprint = p.machine.take_footprint();
            return (
                vec![(na, meta, None, None); targets.len()],
                group,
                profile,
                footprint,
            );
        };

        let snapshot_start = Instant::now();
        let checkpoint = p.snapshot();
        let snapshot_micros = micros_since(snapshot_start);
        let activation_icount = p.icount();
        // One golden continuation serves the whole group; the restore at
        // the top of every replay rewinds the detour.
        let golden_ref = engine.flight_recorder.then(|| golden_continuation(p, addr));
        let mut runs = Vec::with_capacity(targets.len());
        for target in targets {
            let replay_start = Instant::now();
            p.restore(&checkpoint);
            let byte_addr = target.addr.wrapping_add(target.byte_index as u32);
            let orig = p
                .machine
                .mem
                .peek8(byte_addr)
                .expect("target byte is mapped: it was decoded from the image");
            let corrupted = remap_flip(orig, target.bit, byte_ctx(target), scheme);
            p.machine
                .mem
                .poke8(byte_addr, corrupted)
                .expect("target byte is mapped");
            p.machine.remove_breakpoint(target.addr);
            if engine.flight_recorder {
                p.machine.enable_flight_recorder(RECORDER_EDGES);
            }
            if engine.propagation {
                p.machine
                    .enable_taint(Some(target.addr), DEFAULT_TAINT_HORIZON);
            }

            let stop = p.run();
            let run_micros = micros_since(replay_start);
            let report = golden_ref.as_ref().map(|gc| {
                let faulty = p
                    .machine
                    .take_flight_trace()
                    .expect("recorder was armed before the replay");
                divergence::diff_run(gc, faulty, &p.machine.mem)
            });
            let prop = p.machine.take_propagation_log().map(|log| {
                let mut rep = PropagationReport::new(log, activation_icount);
                if decision_site(image, target.addr) {
                    rep.mark_corrupted_decision(target.addr);
                }
                rep
            });
            let final_trace = p.trace();
            let crash_latency = match stop {
                Stop::Crashed(_) => Some(p.icount() - activation_icount),
                _ => None,
            };
            let classify_start = Instant::now();
            let run = classify_run(golden, stop, p.client_status(), final_trace, crash_latency);
            let meta = RunMeta {
                icount: p.icount().saturating_sub(activation_icount),
                run_micros,
                classify_micros: micros_since(classify_start),
            };
            runs.push((run, meta, report, prop));
        }
        let group = GroupMeta {
            boot_micros,
            snapshot_micros,
            restores: p.restore_count() - restores_before,
            activated: true,
            fresh_boot,
        };
        let profile = p.machine.take_exec_profile();
        let footprint = p.machine.take_footprint();
        (runs, group, profile, footprint)
    }
}
