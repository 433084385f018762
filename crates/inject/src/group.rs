//! Checkpoint-group execution: the selective-exhaustive campaign's unit
//! of work.
//!
//! A checkpoint group is every target sharing one instruction address.
//! The process boots with a breakpoint at that address exactly as
//! [`run_injection_recorded`](crate::run_injection_recorded) does. If
//! the breakpoint is never hit, every target is NA with the record a
//! from-scratch run would produce (pre-activation execution is
//! deterministic). Otherwise the process is checkpointed at the
//! breakpoint and each target restores the checkpoint and replays only
//! its post-flip suffix through the same flip-and-run step the single
//! run uses: flip, disarm, run, classify.
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

use crate::classify::{GoldenRun, InjectionRun};
use crate::divergence::DivergenceReport;
use crate::propagation::PropagationReport;
use crate::target::InjectionTarget;
use crate::{
    flip_and_run, golden_continuation, micros_since, not_activated, run_budget, EngineOpts,
    GroupMeta, RunMeta,
};
use fisec_apps::ClientSpec;
use fisec_asm::Image;
use fisec_encoding::EncodingScheme;
use fisec_os::{Process, ProcessSnapshot, Stop};
use fisec_x86::{ExecProfile, Footprint};
use std::time::Instant;

/// One run of an injection entry point: the classified run, its
/// metadata, and its divergence and propagation reports when the
/// engine options asked for them.
pub type GroupRun = (
    InjectionRun,
    RunMeta,
    Option<DivergenceReport>,
    Option<PropagationReport>,
);

/// Everything one checkpoint group (or one single run) yields: its runs
/// in target order, the boot/restore metadata, and the execution profile
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
        process.set_budget(run_budget(golden));
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
    /// boot-to-breakpoint prefix only once. Each run carries a
    /// [`DivergenceReport`] when `engine.flight_recorder` is on (the
    /// checkpoint is resumed once without the flip as the group's golden
    /// continuation) and a [`PropagationReport`] when `engine.propagation`
    /// is on, both only when the group activated. The profiler and
    /// footprint, when requested, cover exactly this group: its prefix
    /// and every replay. Outcomes are bit-identical to one from-scratch
    /// boot per target.
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
        let p = &mut self.process;
        let restores_before = p.restore_count();
        engine.observe(p);
        p.machine.add_breakpoint(addr);

        let first = p.run();
        let mut group = GroupMeta {
            boot_micros: load_micros.unwrap_or(0) + micros_since(boot_start),
            fresh_boot: load_micros.is_some(),
            ..GroupMeta::default()
        };
        let runs = if let Stop::Breakpoint(_) = first {
            let snapshot_start = Instant::now();
            let checkpoint = p.snapshot();
            group.snapshot_micros = micros_since(snapshot_start);
            // One golden continuation serves the whole group; the restore
            // at the top of every replay rewinds the detour.
            let golden_ref = engine.flight_recorder.then(|| golden_continuation(p, addr));
            let runs = targets
                .iter()
                .map(|target| {
                    let restore_start = Instant::now();
                    p.restore(&checkpoint);
                    let restore_micros = micros_since(restore_start);
                    let (run, mut meta, report, prop) = flip_and_run(
                        p,
                        image,
                        golden,
                        target,
                        scheme,
                        engine,
                        golden_ref.as_ref(),
                    );
                    // A replay's timer includes its restore.
                    meta.run_micros += restore_micros;
                    (run, meta, report, prop)
                })
                .collect();
            group.restores = p.restore_count() - restores_before;
            group.activated = true;
            runs
        } else {
            // Instruction never executed: the whole group is not
            // activated, and (determinism) every from-scratch run would
            // stop the same way with the same client verdict.
            vec![not_activated(p, first); targets.len()]
        };
        let profile = p.machine.take_exec_profile();
        let footprint = p.machine.take_footprint();
        (runs, group, profile, footprint)
    }
}
