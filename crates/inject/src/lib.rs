//! # fisec-inject — the NFTAPE-style breakpoint fault injector
//!
//! Reproduces the paper's §4 experimental procedure:
//!
//! 1. load the server executable;
//! 2. set a breakpoint at the instruction picked for injection;
//! 3. start the server with a scripted client logging in;
//! 4. if the breakpoint is hit, the error is **activated**: flip the
//!    chosen bit in the chosen byte (optionally through the §6.2
//!    old→new→flip→new→old mapping) and continue;
//! 5. monitor the run to completion and classify the outcome against the
//!    golden (error-free) run: **NA**, **NM**, **SD**, **FSV** or
//!    **BRK**, plus the crash latency used by Figure 4 and the error
//!    location taxonomy of Tables 2/3.
//!
//! Breakpoints belong to the oracle, [`run_injection_recorded`]. The
//! snapshot engine ([`latent`]) plants each flip at the icount where the
//! breakpoint would first fire; the two share only flip-and-run.

pub mod classify;
pub mod divergence;
pub mod forensics;
pub mod latent;
pub mod location;
pub mod persist;
pub mod propagation;
pub mod target;

pub use classify::{classify_run, GoldenRun, InjectionRun, OutcomeClass};
pub use divergence::{DivergenceReport, GoldenContinuation, RECORDER_EDGES};
pub use forensics::{crash_forensics, CrashReport, PathSegment};
pub use latent::{BatchMeta, FirstFetchPass, LatentError, LatentRunner};
pub use location::ErrorLocation;
pub use propagation::{kind_label, PropagationReport};
pub use target::{enumerate_targets, InjectionTarget, TargetSet};

use fisec_apps::ClientSpec;
use fisec_asm::Image;
use fisec_encoding::EncodingScheme;
use fisec_net::{ClientStatus, Trace};
use fisec_os::{Process, ProcessDelta, ProcessSnapshot, Stop};
use fisec_x86::{ExecProfile, Footprint, DEFAULT_TAINT_HORIZON};
use std::collections::HashSet;
use std::time::Instant;

/// Default multiplier on the golden run's instruction count used as the
/// per-run budget (runaway/hang detection).
pub const BUDGET_MULTIPLIER: u64 = 8;
/// Floor for the per-run budget.
pub const BUDGET_FLOOR: u64 = 400_000;

/// Execution-engine options threaded from the campaign configuration
/// into every process an injection entry point boots. Orthogonal to
/// [`EncodingScheme`]: the scheme changes *what* is injected, the engine
/// options only change *how* execution is simulated — outcomes are
/// bit-identical either way (pinned by differential tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineOpts {
    /// Execute through the basic-block cache (the default). `false` is
    /// the `--no-block-cache` escape hatch: the reference per-step
    /// interpreter.
    pub block_cache: bool,
    /// Arm the flight recorder on every activated run and diff it
    /// against a golden continuation of the same checkpoint (see
    /// [`divergence`]). Off by default; outcomes are bit-identical
    /// either way (pinned by differential tests) — the flag only adds
    /// the recorded traces and [`DivergenceReport`]s.
    pub flight_recorder: bool,
    /// Collect the hot-spot execution profile (per-block dispatch and
    /// retire counters, slow-path sites, block-cache traffic) for every
    /// process the entry points boot. Off by default; outcomes are
    /// bit-identical either way (pinned by differential tests) — each
    /// [`GroupOutcome`] gains an [`ExecProfile`](fisec_x86::ExecProfile),
    /// nothing else changes.
    pub profiler: bool,
    /// Record the executed-code [`Footprint`](fisec_x86::Footprint) of
    /// every process the entry points boot (dispatch-granularity byte
    /// ranges fetched for execution, accumulated across checkpoint
    /// restores). Off by default; outcomes are bit-identical either way
    /// — the flag only adds the footprint to each [`GroupOutcome`]. The
    /// campaign cache uses it to key a group's memoized results on the
    /// image bytes the group actually executed.
    pub footprint: bool,
    /// Arm the propagation tracer (see [`fisec_x86::taint`]) on every
    /// activated run, seeded at the injected instruction. Off by
    /// default; outcomes are bit-identical either way (pinned by
    /// differential tests) — the flag only adds a [`PropagationReport`]
    /// to each activated run.
    pub propagation: bool,
}

impl Default for EngineOpts {
    fn default() -> EngineOpts {
        EngineOpts {
            block_cache: true,
            flight_recorder: false,
            profiler: false,
            footprint: false,
            propagation: false,
        }
    }
}

impl EngineOpts {
    /// This configuration with footprint recording switched on.
    #[must_use]
    pub fn with_footprint(mut self) -> EngineOpts {
        self.footprint = true;
        self
    }

    /// Select the execution engine and start the requested observers.
    fn apply(self, p: &mut Process) {
        self.configure(p);
        if self.profiler {
            p.machine.enable_profiler();
        }
        if self.footprint {
            p.machine.enable_footprint();
        }
    }

    /// Select the execution engine.
    fn configure(self, p: &mut Process) {
        p.machine.set_block_engine(self.block_cache);
    }
}

/// Record the golden (error-free) run for a client pattern.
///
/// # Errors
/// Propagates [`fisec_os::LoadError`] if the image cannot be loaded.
pub fn golden_run(image: &Image, client: &ClientSpec) -> Result<GoldenRun, fisec_os::LoadError> {
    golden_run_opts(image, client, EngineOpts::default())
}

/// [`golden_run`] with explicit engine options.
///
/// # Errors
/// Propagates [`fisec_os::LoadError`] if the image cannot be loaded.
pub fn golden_run_opts(
    image: &Image,
    client: &ClientSpec,
    engine: EngineOpts,
) -> Result<GoldenRun, fisec_os::LoadError> {
    session(image, client, engine, GOLDEN_BUDGET, false).map(|(golden, ..)| golden)
}

/// [`golden_run_opts`] that also records the set of instruction
/// addresses the golden run executes: execution before activation is
/// identical to golden, so a breakpoint at an uncovered address can
/// never be hit (the campaign learns this from its [`FirstFetchPass`]).
///
/// # Errors
/// Propagates [`fisec_os::LoadError`] if the image cannot be loaded.
pub fn golden_run_with_coverage_opts(
    image: &Image,
    client: &ClientSpec,
    engine: EngineOpts,
) -> Result<(GoldenRun, HashSet<u32>), fisec_os::LoadError> {
    let (golden, p, _) = session(image, client, engine, GOLDEN_BUDGET, true)?;
    let coverage = p.machine.coverage().expect("coverage was enabled");
    Ok((golden, coverage))
}

/// The instruction budget of a golden session: one that runs this long
/// is a hang.
const GOLDEN_BUDGET: u64 = 50_000_000;

/// One error-free session under `budget`: load, start the engine's
/// observers (and coverage when asked), run to a stop. Returns what the
/// session observed, the stopped process, and whether the run left the
/// code alone: it wrote no executable byte and read none as data. The
/// one body behind every golden run and [`FirstFetchPass`].
fn session(
    image: &Image,
    client: &ClientSpec,
    engine: EngineOpts,
    budget: u64,
    coverage: bool,
) -> Result<(GoldenRun, Process, bool), fisec_os::LoadError> {
    let mut p = Process::load(image, client.make())?;
    engine.apply(&mut p);
    p.set_budget(budget);
    if coverage {
        p.machine.enable_coverage();
    }
    let exec_gen = p.machine.mem.exec_gen();
    let exec_reads = p.machine.mem.exec_data_reads();
    let stop = p.run();
    let observed = GoldenRun {
        stop,
        client: p.client_status(),
        trace: p.trace(),
        icount: p.icount(),
    };
    let code_untouched =
        p.machine.mem.exec_gen() == exec_gen && p.machine.mem.exec_data_reads() == exec_reads;
    Ok((observed, p, code_untouched))
}

/// The instruction budget of every injected run against `golden`
/// (runaway/hang detection).
fn run_budget(golden: &GoldenRun) -> u64 {
    (golden.icount * BUDGET_MULTIPLIER).max(BUDGET_FLOOR)
}

/// Per-run execution metadata, for the telemetry layer: what the run
/// cost, not what it concluded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunMeta {
    /// Guest instructions retired for this run: since boot for
    /// [`run_injection_recorded`], since activation (the checkpoint the
    /// replay restores) for a checkpoint group's replay. A masked
    /// replay (see [`LatentRunner::run_group`]) reports what it would
    /// have retired, golden's icount minus the activation icount, though
    /// it executed one instruction. A run that never activated reports
    /// the icount golden stopped at (the work a from-scratch run would
    /// have retired). A latent-error run reports the whole session's
    /// icount however much of it was replayed.
    pub icount: u64,
    /// Host microseconds replaying the run (0 for runs that never
    /// activated): planting the flip and running the post-activation
    /// suffix, plus, for a checkpoint group's replay, the checkpoint
    /// restore before them. A masked replay times its restore, its
    /// plant and its one step. A latent-error run times what it executed
    /// after the restore and the poke: the whole session from
    /// [`LatentRunner::run`], only the suffix from its rung inside
    /// [`LatentRunner::run_batch`], and 0 for a draw on a byte the
    /// golden session never fetches (served without executing).
    pub run_micros: u64,
    /// Host microseconds classifying the outcome against golden.
    pub classify_micros: u64,
    /// Guest instructions the run retired without executing them: whole
    /// periods of a proven hang loop (see [`fisec_x86::cycle`]), counted
    /// in `icount` as well. 0 for a run that executed every instruction.
    pub skipped_insts: u64,
}

/// Per-boot metadata shared by the runs of one [`GroupOutcome`]: a
/// checkpoint group's, or the single run of [`run_injection_recorded`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupMeta {
    /// Host microseconds booting from `_start` to the breakpoint (or to
    /// the natural stop when it was never reached). For a
    /// [`LatentRunner`] group this is the walk step to the activation
    /// icount, plus the process load on the runner's first group.
    pub boot_micros: u64,
    /// Host microseconds capturing the checkpoint at activation (0 when
    /// none was taken: the error never activated, a single run went
    /// without the flight recorder, or the walk already stood there),
    /// plus, for a [`LatentRunner`] group, golden's one step from it
    /// that masked replays are compared with, restore included.
    pub snapshot_micros: u64,
    /// Checkpoint restores performed for this group's replays: one per
    /// activated target of a checkpoint group, 0 for a single run
    /// (which replays nothing). The walk's restores belong to the boot,
    /// the golden step's to the snapshot.
    pub restores: u64,
    /// Whether the breakpoint would fire (the error could activate).
    pub activated: bool,
    /// Whether this call loaded a fresh process (`Process::load`): every
    /// single run and one-shot group call, only the first executed group
    /// of a [`LatentRunner`].
    pub fresh_boot: bool,
    /// Replays of this group that re-joined golden one instruction after
    /// the flip and were classified without running their suffix (see
    /// [`LatentRunner::run_group`]); 0 for a single run.
    pub masked: u64,
}

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

fn micros_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Execute one injection experiment.
///
/// # Errors
/// Propagates [`fisec_os::LoadError`] if the image cannot be loaded.
pub fn run_injection(
    image: &Image,
    client: &ClientSpec,
    golden: &GoldenRun,
    target: &InjectionTarget,
    scheme: EncodingScheme,
) -> Result<InjectionRun, fisec_os::LoadError> {
    let (runs, ..) =
        run_injection_recorded(image, client, golden, target, scheme, EngineOpts::default())?;
    let (run, ..) = runs
        .into_iter()
        .next()
        .expect("a single run yields one run");
    Ok(run)
}

/// Execute one injection experiment exactly as the paper's §4 procedure
/// does: boot a fresh process, stop at the breakpoint, flip, continue.
/// This is the reference oracle the checkpoint engine is diffed against,
/// so nothing is restored before the flip. The outcome holds the one
/// run, plus its [`DivergenceReport`] when `engine.flight_recorder` is
/// on and its [`PropagationReport`] when `engine.propagation` is on (both
/// only when the error activated), the run's execution profile when
/// `engine.profiler` is on, and its executed-code footprint when
/// `engine.footprint` is on. With the recorder on, the process is
/// checkpointed at the breakpoint and resumed once *without* the flip
/// (recorder armed) to capture the golden continuation, then rewound;
/// the injected run's outcome is bit-identical to the recorder-off path.
///
/// # Errors
/// Propagates [`fisec_os::LoadError`] if the image cannot be loaded.
pub fn run_injection_recorded(
    image: &Image,
    client: &ClientSpec,
    golden: &GoldenRun,
    target: &InjectionTarget,
    scheme: EncodingScheme,
    engine: EngineOpts,
) -> Result<GroupOutcome, fisec_os::LoadError> {
    let boot_start = Instant::now();
    let mut p = Process::load(image, client.make())?;
    engine.apply(&mut p);
    p.set_budget(run_budget(golden));
    p.machine.add_breakpoint(target.addr);

    let first = p.run();
    let mut group = GroupMeta {
        boot_micros: micros_since(boot_start),
        fresh_boot: true,
        ..GroupMeta::default()
    };
    let run = if let Stop::Breakpoint(_) = first {
        // Disarm: execution continues through the corrupted instruction.
        p.machine.remove_breakpoint(target.addr);
        // With the recorder on, capture the golden continuation first:
        // the checkpoint makes the detour invisible to the injected run
        // (the restore rewinds registers, memory, icount and the client
        // channel).
        let golden_ref = engine.flight_recorder.then(|| {
            let snapshot_start = Instant::now();
            let checkpoint = p.snapshot();
            group.snapshot_micros = micros_since(snapshot_start);
            let gc = golden_continuation(&mut p);
            p.restore(&checkpoint);
            gc
        });
        group.activated = true;
        let ((run, mut meta, report, prop), _) = flip_and_run(
            &mut p,
            image,
            golden,
            target,
            scheme,
            engine,
            golden_ref.as_ref(),
            None,
        );
        // A single run counts its instructions from boot.
        meta.icount = p.icount();
        (run, meta, report, prop)
    } else {
        not_activated(first, p.client_status(), p.icount())
    };
    let profile = p.machine.take_exec_profile();
    let footprint = p.machine.take_footprint();
    Ok((vec![run], group, profile, footprint))
}

/// The run of a target whose breakpoint is never reached: not
/// activated, stopped as the error-free run stopped, billed its icount.
fn not_activated(stop: Stop, client: ClientStatus, icount: u64) -> GroupRun {
    let run = InjectionRun::not_activated(stop, client);
    let meta = RunMeta {
        icount,
        ..RunMeta::default()
    };
    (run, meta, None, None)
}

/// Flip `target`'s bit in the memory of `p`, stopped where the target's
/// instruction is about to execute for the first time: peek the live
/// byte, flip it, poke it back.
fn plant(p: &mut Process, target: &InjectionTarget, scheme: EncodingScheme) {
    let byte_addr = target.addr.wrapping_add(u32::from(target.byte_index));
    let orig = p
        .machine
        .mem
        .peek8(byte_addr)
        .expect("target byte is mapped: it was decoded from the image");
    p.machine
        .mem
        .poke8(byte_addr, target.flip(orig, scheme))
        .expect("target byte is mapped");
}

/// Golden's state one instruction past a checkpoint group's activation:
/// the checkpoint, and what golden's own step from it changed. A replay
/// that matches it has re-joined golden (see [`flip_and_run`]).
struct GoldenStep<'a> {
    checkpoint: &'a ProcessSnapshot,
    delta: ProcessDelta,
}

impl<'a> GoldenStep<'a> {
    /// Restore `checkpoint` in `p` and step golden once from it. `None`
    /// when the step does not stop on the budget (it crashed or exited)
    /// or makes a syscall: then no replay is compared with it.
    fn take(p: &mut Process, checkpoint: &'a ProcessSnapshot) -> Option<GoldenStep<'a>> {
        p.restore(checkpoint);
        if step(p) != Stop::Budget {
            return None;
        }
        let delta = p.delta_since(checkpoint)?;
        Some(GoldenStep { checkpoint, delta })
    }
}

/// Run `p` for at most one instruction, keeping its budget.
fn step(p: &mut Process) -> Stop {
    let budget = p.budget();
    p.set_budget((p.icount() + 1).min(budget));
    let stop = p.run();
    p.set_budget(budget);
    stop
}

/// The experiment after activation, shared by the single run and every
/// checkpoint-group replay. `p` is stopped at `target`'s activation, no
/// breakpoint armed: plant the flip, arm the per-run flight recorder (when
/// a golden continuation is given) and taint tracer (`engine.propagation`),
/// run to the stop, take both reports and classify against golden. The
/// run's icount counts from activation; its timer covers the flip and
/// the run.
///
/// Given golden's step from the same checkpoint (a group replay whose
/// flipped byte golden never fetches again), the run first retires only
/// the flipped instruction. If it then stands where golden's step stood
/// — stopped on the budget, the same registers, EIP, EFLAGS and written
/// pages, no syscall, no live taint, no recorder — it has re-joined
/// golden: the flipped byte is never fetched or read again (the pass's
/// guard), so the rest of the session is golden's, and the run is
/// classified as golden without executing it. The second value says
/// whether that happened (the run is *masked*). Otherwise the same
/// process runs on to its stop: a budget stop followed by a resume is
/// the uninterrupted run.
#[allow(clippy::too_many_arguments)]
fn flip_and_run(
    p: &mut Process,
    image: &Image,
    golden: &GoldenRun,
    target: &InjectionTarget,
    scheme: EncodingScheme,
    engine: EngineOpts,
    golden_ref: Option<&GoldenContinuation>,
    golden_step: Option<&GoldenStep>,
) -> (GroupRun, bool) {
    let run_start = Instant::now();
    let activation_icount = p.icount();
    let skipped_before = p.machine.fast_forwarded_insts();
    plant(p, target, scheme);
    if golden_ref.is_some() {
        p.machine.enable_flight_recorder(RECORDER_EDGES);
    }
    if engine.propagation {
        p.machine
            .enable_taint(Some(target.addr), DEFAULT_TAINT_HORIZON);
    }

    // The recorder's divergence report describes the suffix, so a
    // recorded run always executes it.
    let golden_step = golden_step.filter(|_| golden_ref.is_none());
    let mut stop = match golden_step {
        Some(_) => step(p),
        None => p.run(),
    };
    // After a syscall `delta_since` is `None`, so a step that made one is
    // never masked. No test reaches this guard: the one syscall is
    // `int 0x80` (CD 80), and no golden instruction one bit away from it
    // both retires normally and is 2 bytes long, so a flipped step that
    // makes a syscall already ends at another EIP.
    let masked = golden_step.is_some_and(|g| {
        stop == Stop::Budget
            && p.machine.taint_width().unwrap_or(0) == 0
            && p.delta_since(g.checkpoint).as_ref() == Some(&g.delta)
    });
    if golden_step.is_some() && !masked && stop == Stop::Budget {
        stop = p.run();
    }
    let (stop, client, final_trace, end) = if masked {
        let g = golden;
        (g.stop.clone(), g.client, g.trace.clone(), g.icount)
    } else {
        (stop, p.client_status(), p.trace(), p.icount())
    };
    let run_micros = micros_since(run_start);
    let report = golden_ref.map(|gc| {
        let faulty = p
            .machine
            .take_flight_trace()
            .expect("recorder was armed before the run");
        divergence::diff_run(gc, faulty, &p.machine.mem)
    });
    let prop = p.machine.take_propagation_log().map(|log| {
        let mut rep = PropagationReport::new(log, activation_icount);
        if decision_site(image, target.addr) {
            rep.mark_corrupted_decision(target.addr);
        }
        rep
    });
    let crash_latency = stop.is_crash().then(|| end - activation_icount);
    let classify_start = Instant::now();
    let run = classify_run(golden, stop, client, final_trace, crash_latency);
    let meta = RunMeta {
        icount: end.saturating_sub(activation_icount),
        run_micros,
        classify_micros: micros_since(classify_start),
        skipped_insts: p.machine.fast_forwarded_insts() - skipped_before,
    };
    ((run, meta, report, prop), masked)
}

/// Resume a process checkpointed at activation with the recorder on and
/// no fault planted, capturing the reference the faulty runs are diffed
/// against. The caller restores the checkpoint after.
fn golden_continuation(p: &mut Process) -> GoldenContinuation {
    p.machine.enable_flight_recorder(RECORDER_EDGES);
    let stop = p.run();
    let trace = p
        .machine
        .take_flight_trace()
        .expect("recorder was armed before the run");
    GoldenContinuation {
        trace: std::sync::Arc::new(trace),
        stop,
        mem: p.machine.mem.clone(),
    }
}

/// Execute every experiment in a group of targets sharing one
/// instruction address on the snapshot engine, one-shot: run the
/// first-fetch pass, load, walk golden to the group's activation icount
/// and replay every target from there (see [`LatentRunner::run_group`]
/// for what the outcome holds). The pass is this call's fresh boot,
/// billed to `boot_micros`. An empty group runs nothing.
///
/// # Errors
/// Propagates [`fisec_os::LoadError`] if the image cannot be loaded.
///
/// # Panics
/// If the targets do not all share one instruction address.
pub fn run_injection_group_recorded(
    image: &Image,
    client: &ClientSpec,
    golden: &GoldenRun,
    targets: &[InjectionTarget],
    scheme: EncodingScheme,
    engine: EngineOpts,
) -> Result<GroupOutcome, fisec_os::LoadError> {
    if targets.is_empty() {
        return Ok((Vec::new(), GroupMeta::default(), None, None));
    }
    let start = Instant::now();
    let pass = FirstFetchPass::run(image, client, golden, engine)?;
    let pass_micros = micros_since(start);
    let mut outcome =
        LatentRunner::with_pass(image, client, &pass).run_group(golden, targets, scheme)?;
    outcome.1.boot_micros += pass_micros;
    outcome.1.fresh_boot = true;
    Ok(outcome)
}

/// Whether the *original* instruction at `addr` is a control transfer.
/// A flip there corrupts a control-flow decision directly, which the
/// taint tracer (seeing only the corrupted text) cannot know.
fn decision_site(image: &Image, addr: u32) -> bool {
    let Some(off) = addr
        .checked_sub(image.text_base)
        .map(|o| o as usize)
        .filter(|&o| o < image.text.len())
    else {
        return false;
    };
    let end = (off + 16).min(image.text.len());
    fisec_x86::decode(&image.text[off..end]).is_control_transfer()
}

/// Convenience: is `trace` a plausible truncated prefix of `golden`?
/// (Used for the transient-deviation analysis around crashes.)
pub fn is_trace_prefix(trace: &Trace, golden: &Trace) -> bool {
    classify::trace_is_prefix(trace, golden)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fisec_apps::AppSpec;
    use fisec_encoding::ByteCtx;

    #[test]
    fn byte_ctx_selection() {
        let mk = |first_byte, byte_index| InjectionTarget {
            addr: 0x1000,
            inst_len: 6,
            byte_index,
            bit: 0,
            first_byte,
            location: ErrorLocation::SixByteCond2,
            is_cond_branch: true,
        };
        assert_eq!(mk(0x74, 0).byte_ctx(), ByteCtx::OneByteOpcode);
        assert_eq!(mk(0x0F, 1).byte_ctx(), ByteCtx::SecondOpcodeByte);
        assert_eq!(mk(0x74, 1).byte_ctx(), ByteCtx::Other);
        assert_eq!(mk(0x0F, 3).byte_ctx(), ByteCtx::Other);
    }

    #[test]
    fn not_activated_when_breakpoint_unreached() {
        let app = AppSpec::ftpd();
        let client = &app.clients[0];
        let golden = golden_run(&app.image, client).unwrap();
        // Target an address in `pass` that Client3-style flows wouldn't
        // reach — simplest: an address in the *anonymous* arm while
        // logging in as a named user. Instead, inject into a function
        // the flow never calls: use `retr`'s body with Client1 (denied,
        // never retrieves). Find a branch inside `retr`.
        let f = app.image.func("retr").unwrap().clone();
        let insts = app.image.decode_func(&f);
        let (addr, inst) = insts
            .iter()
            .find(|(_, i)| i.is_cond_branch())
            .expect("retr has branches");
        let t = InjectionTarget {
            addr: *addr,
            inst_len: inst.len,
            byte_index: 0,
            bit: 0,
            first_byte: 0x74,
            location: ErrorLocation::TwoByteCondOpcode,
            is_cond_branch: true,
        };
        let r = run_injection(&app.image, client, &golden, &t, EncodingScheme::Baseline).unwrap();
        assert_eq!(r.outcome, OutcomeClass::NotActivated);
        assert!(!r.activated);
    }
}
