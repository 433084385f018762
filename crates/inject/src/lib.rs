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

pub mod classify;
pub mod divergence;
pub mod forensics;
pub mod group;
pub mod latent;
pub mod location;
pub mod persist;
pub mod propagation;
pub mod target;

pub use classify::{classify_run, GoldenRun, InjectionRun, OutcomeClass};
pub use divergence::{DivergenceReport, GoldenContinuation, RECORDER_EDGES};
pub use forensics::{crash_forensics, CrashReport, PathSegment};
pub use group::{GroupOutcome, GroupRun, GroupRunner};
pub use latent::{BatchMeta, LatentError, LatentRunner};
pub use location::ErrorLocation;
pub use propagation::{kind_label, PropagationReport};
pub use target::{enumerate_targets, InjectionTarget, TargetSet};

use fisec_apps::ClientSpec;
use fisec_asm::Image;
use fisec_encoding::{remap_flip, ByteCtx, EncodingScheme};
use fisec_net::Trace;
use fisec_os::{Process, Stop};
use fisec_x86::{ExecProfile, Footprint, DEFAULT_TAINT_HORIZON};
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
    /// Promote hot blocks into tier-2 superblock traces (the default;
    /// only meaningful with `block_cache`). `false` is the
    /// `--no-trace-cache` escape hatch: tier-1 block dispatch only.
    /// Outcomes are bit-identical either way (pinned by differential
    /// tests).
    pub trace_cache: bool,
    /// Arm the flight recorder on every activated run and diff it
    /// against a golden continuation of the same checkpoint (see
    /// [`divergence`]). Off by default; outcomes are bit-identical
    /// either way (pinned by differential tests) — the flag only adds
    /// the recorded traces and [`DivergenceReport`]s.
    pub flight_recorder: bool,
    /// Collect the hot-spot execution profile (per-block dispatch and
    /// retire counters, slow-path sites, block-cache traffic) for every
    /// process the entry points boot. Off by default; outcomes are
    /// bit-identical either way (pinned by differential tests) — the
    /// recorded-entry-point returns gain an [`ExecProfile`], nothing
    /// else changes.
    pub profiler: bool,
    /// Record the executed-code [`Footprint`] of every process the
    /// entry points boot (dispatch-granularity byte ranges fetched for
    /// execution, accumulated across checkpoint restores). Off by
    /// default; outcomes are bit-identical either way — the flag only
    /// adds the [`Footprint`] to the recorded-entry-point returns. The
    /// campaign cache uses it to key a group's memoized results on the
    /// image bytes the group actually executed.
    pub footprint: bool,
    /// Arm the propagation tracer (see [`fisec_x86::taint`]) on every
    /// activated run, seeded at the injected instruction. Off by
    /// default; outcomes are bit-identical either way (pinned by
    /// differential tests) — the flag only adds a [`PropagationReport`]
    /// per activated run to the recorded-entry-point returns.
    pub propagation: bool,
}

impl Default for EngineOpts {
    fn default() -> EngineOpts {
        EngineOpts {
            block_cache: true,
            trace_cache: true,
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

    fn apply(self, p: &mut Process) {
        self.configure(p);
        self.observe(p);
    }

    /// Select the execution engine.
    fn configure(self, p: &mut Process) {
        p.machine.set_block_engine(self.block_cache);
        p.machine.set_trace_cache(self.trace_cache);
    }

    /// Start the requested per-process observers afresh: a new profile
    /// and a new footprint.
    fn observe(self, p: &mut Process) {
        if self.profiler {
            p.machine.enable_profiler();
        }
        if self.footprint {
            p.machine.enable_footprint();
        }
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
    let mut p = Process::load(image, client.make())?;
    engine.apply(&mut p);
    p.set_budget(50_000_000);
    let stop = p.run();
    Ok(GoldenRun {
        stop,
        client: p.client_status(),
        trace: p.trace(),
        icount: p.icount(),
    })
}

/// Record the golden run *and* the set of instruction addresses it
/// executes. The campaign engine uses the coverage set to classify
/// targets at never-executed addresses as NA without spawning a run:
/// execution before activation is identical to golden, so a breakpoint
/// at an uncovered address can never be hit.
///
/// # Errors
/// Propagates [`fisec_os::LoadError`] if the image cannot be loaded.
pub fn golden_run_with_coverage(
    image: &Image,
    client: &ClientSpec,
) -> Result<(GoldenRun, std::collections::HashSet<u32>), fisec_os::LoadError> {
    golden_run_with_coverage_opts(image, client, EngineOpts::default())
}

/// [`golden_run_with_coverage`] with explicit engine options.
///
/// # Errors
/// Propagates [`fisec_os::LoadError`] if the image cannot be loaded.
pub fn golden_run_with_coverage_opts(
    image: &Image,
    client: &ClientSpec,
    engine: EngineOpts,
) -> Result<(GoldenRun, std::collections::HashSet<u32>), fisec_os::LoadError> {
    let mut p = Process::load(image, client.make())?;
    engine.apply(&mut p);
    p.set_budget(50_000_000);
    p.machine.enable_coverage();
    let stop = p.run();
    let golden = GoldenRun {
        stop,
        client: p.client_status(),
        trace: p.trace(),
        icount: p.icount(),
    };
    let coverage = p
        .machine
        .coverage()
        .expect("coverage was enabled before the run");
    Ok((golden, coverage))
}

/// Per-run execution metadata reported by the metered entry points, for
/// the telemetry layer: what the run cost, not what it concluded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunMeta {
    /// Guest instructions retired for this run: since the restore point
    /// for a snapshot replay, since boot for a fresh run. For a group
    /// whose breakpoint was never reached, every synthesized NA run
    /// reports the shared prefix's icount (the work a from-scratch run
    /// would have retired). A latent-error run reports the whole
    /// session's icount however much of it was replayed.
    pub icount: u64,
    /// Host microseconds replaying the run (0 for runs that never
    /// activated). On the single-run path this is the post-activation
    /// suffix; a checkpoint-group replay also includes the checkpoint
    /// restore and the fault planting before the suffix (its timer
    /// starts before the restore). A latent-error run times what it
    /// executed after the restore and the poke: the whole session from
    /// [`LatentRunner::run`], only the suffix from its rung inside
    /// [`LatentRunner::run_batch`], and 0 for a draw on a byte the
    /// golden session never fetches (served without executing).
    pub run_micros: u64,
    /// Host microseconds classifying the outcome against golden.
    pub classify_micros: u64,
}

/// Per-boot metadata shared by every run of a metered call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupMeta {
    /// Host microseconds booting from `_start` to the breakpoint (or to
    /// the natural stop when the breakpoint was never reached). For a
    /// [`GroupRunner`] group this is the restore of its icount-0
    /// checkpoint plus the prefix, plus the process load on the
    /// runner's first group.
    pub boot_micros: u64,
    /// Host microseconds capturing the checkpoint (0 when no checkpoint
    /// was taken).
    pub snapshot_micros: u64,
    /// Checkpoint restores performed for this group's replays (one per
    /// activated target; a runner's restore to its icount-0 checkpoint
    /// belongs to the boot, not counted here).
    pub restores: u64,
    /// Whether the breakpoint was reached (the error could activate).
    pub activated: bool,
    /// Whether this call loaded a fresh process (`Process::load`): every
    /// single-run and one-shot group call, only the first group of a
    /// [`GroupRunner`].
    pub fresh_boot: bool,
}

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
    run_injection_metered(image, client, golden, target, scheme).map(|(run, _, _)| run)
}

/// [`run_injection`] plus the run's execution metadata (icount, host
/// time split by phase). The extra cost over the unmetered path is a
/// handful of monotonic-clock reads.
///
/// # Errors
/// Propagates [`fisec_os::LoadError`] if the image cannot be loaded.
pub fn run_injection_metered(
    image: &Image,
    client: &ClientSpec,
    golden: &GoldenRun,
    target: &InjectionTarget,
    scheme: EncodingScheme,
) -> Result<(InjectionRun, RunMeta, GroupMeta), fisec_os::LoadError> {
    run_injection_metered_opts(image, client, golden, target, scheme, EngineOpts::default())
}

/// [`run_injection_metered`] with explicit engine options.
///
/// # Errors
/// Propagates [`fisec_os::LoadError`] if the image cannot be loaded.
pub fn run_injection_metered_opts(
    image: &Image,
    client: &ClientSpec,
    golden: &GoldenRun,
    target: &InjectionTarget,
    scheme: EncodingScheme,
    engine: EngineOpts,
) -> Result<(InjectionRun, RunMeta, GroupMeta), fisec_os::LoadError> {
    run_injection_recorded(image, client, golden, target, scheme, engine)
        .map(|(run, meta, group, _, _, _, _)| (run, meta, group))
}

/// [`run_injection_metered_opts`] plus the [`DivergenceReport`] of the
/// run when `engine.flight_recorder` is on and the error activated,
/// plus the run's [`ExecProfile`] when `engine.profiler` is on, plus
/// the run's executed-code [`Footprint`] when `engine.footprint` is on,
/// plus the run's [`PropagationReport`] when `engine.propagation` is on
/// and the error activated. With the recorder on, the process is
/// checkpointed at the breakpoint and resumed once *without* the flip
/// (recorder armed) to capture the golden continuation, then restored
/// and injected as usual — the injected run's outcome is bit-identical
/// to the recorder-off path.
///
/// # Errors
/// Propagates [`fisec_os::LoadError`] if the image cannot be loaded.
#[allow(clippy::type_complexity)]
pub fn run_injection_recorded(
    image: &Image,
    client: &ClientSpec,
    golden: &GoldenRun,
    target: &InjectionTarget,
    scheme: EncodingScheme,
    engine: EngineOpts,
) -> Result<
    (
        InjectionRun,
        RunMeta,
        GroupMeta,
        Option<DivergenceReport>,
        Option<ExecProfile>,
        Option<Footprint>,
        Option<PropagationReport>,
    ),
    fisec_os::LoadError,
> {
    let boot_start = Instant::now();
    let mut p = Process::load(image, client.make())?;
    engine.apply(&mut p);
    let budget = (golden.icount * BUDGET_MULTIPLIER).max(BUDGET_FLOOR);
    p.set_budget(budget);
    p.machine.add_breakpoint(target.addr);

    let first = p.run();
    let boot_micros = micros_since(boot_start);
    let Stop::Breakpoint(_) = first else {
        // Instruction never executed: error not activated.
        let run = InjectionRun {
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
            fresh_boot: true,
            ..GroupMeta::default()
        };
        let profile = p.machine.take_exec_profile();
        let footprint = p.machine.take_footprint();
        return Ok((run, meta, group, None, profile, footprint, None));
    };

    // With the recorder on, capture the golden continuation first: the
    // checkpoint makes the detour invisible to the injected run (the
    // restore rewinds registers, memory, icount, breakpoints and the
    // client channel — the same machinery the group engine relies on).
    let mut snapshot_micros = 0;
    let golden_ref = if engine.flight_recorder {
        let snapshot_start = Instant::now();
        let checkpoint = p.snapshot();
        snapshot_micros = micros_since(snapshot_start);
        let gc = golden_continuation(&mut p, target.addr);
        p.restore(&checkpoint);
        Some(gc)
    } else {
        None
    };

    // Activated: corrupt the byte and continue.
    let byte_addr = target.addr.wrapping_add(target.byte_index as u32);
    let orig = p
        .machine
        .mem
        .peek8(byte_addr)
        .expect("target byte is mapped: it was decoded from the image");
    let ctx = byte_ctx(target);
    let corrupted = remap_flip(orig, target.bit, ctx, scheme);
    p.machine
        .mem
        .poke8(byte_addr, corrupted)
        .expect("target byte is mapped");
    p.machine.remove_breakpoint(target.addr);
    let activation_icount = p.icount();
    if engine.flight_recorder {
        p.machine.enable_flight_recorder(RECORDER_EDGES);
    }
    if engine.propagation {
        p.machine
            .enable_taint(Some(target.addr), DEFAULT_TAINT_HORIZON);
    }

    let run_start = Instant::now();
    let stop = p.run();
    let run_micros = micros_since(run_start);
    let report = golden_ref.map(|gc| {
        let faulty = p
            .machine
            .take_flight_trace()
            .expect("recorder was armed before the run");
        divergence::diff_run(&gc, faulty, &p.machine.mem)
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
        icount: p.icount(),
        run_micros,
        classify_micros: micros_since(classify_start),
    };
    let group = GroupMeta {
        boot_micros,
        snapshot_micros,
        restores: 0,
        activated: true,
        fresh_boot: true,
    };
    let profile = p.machine.take_exec_profile();
    let footprint = p.machine.take_footprint();
    Ok((run, meta, group, report, profile, footprint, prop))
}

/// Resume a process checkpointed at its (disarmed) breakpoint with the
/// recorder on and no fault planted, capturing the reference the faulty
/// runs are diffed against. The caller restores the checkpoint after.
fn golden_continuation(p: &mut Process, addr: u32) -> GoldenContinuation {
    p.machine.remove_breakpoint(addr);
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
/// instruction address from one fresh process, replaying the
/// boot-to-breakpoint prefix only once (see [`group`] for the
/// procedure and [`GroupRunner`] to serve many groups from one boot).
///
/// # Errors
/// Propagates [`fisec_os::LoadError`] if the image cannot be loaded.
///
/// # Panics
/// If the targets do not all share one instruction address.
pub fn run_injection_group(
    image: &Image,
    client: &ClientSpec,
    golden: &GoldenRun,
    targets: &[InjectionTarget],
    scheme: EncodingScheme,
) -> Result<Vec<InjectionRun>, fisec_os::LoadError> {
    run_injection_group_metered(image, client, golden, targets, scheme)
        .map(|(runs, _)| runs.into_iter().map(|(run, _)| run).collect())
}

/// [`run_injection_group`] plus per-run and per-boot execution metadata
/// for the telemetry layer. Results are bit-identical to the unmetered
/// path; the only extra work is monotonic-clock reads around each phase.
///
/// # Errors
/// Propagates [`fisec_os::LoadError`] if the image cannot be loaded.
///
/// # Panics
/// If the targets do not all share one instruction address.
pub fn run_injection_group_metered(
    image: &Image,
    client: &ClientSpec,
    golden: &GoldenRun,
    targets: &[InjectionTarget],
    scheme: EncodingScheme,
) -> Result<(Vec<(InjectionRun, RunMeta)>, GroupMeta), fisec_os::LoadError> {
    run_injection_group_metered_opts(
        image,
        client,
        golden,
        targets,
        scheme,
        EngineOpts::default(),
    )
}

/// [`run_injection_group_metered`] with explicit engine options.
///
/// # Errors
/// Propagates [`fisec_os::LoadError`] if the image cannot be loaded.
///
/// # Panics
/// If the targets do not all share one instruction address.
pub fn run_injection_group_metered_opts(
    image: &Image,
    client: &ClientSpec,
    golden: &GoldenRun,
    targets: &[InjectionTarget],
    scheme: EncodingScheme,
    engine: EngineOpts,
) -> Result<(Vec<(InjectionRun, RunMeta)>, GroupMeta), fisec_os::LoadError> {
    run_injection_group_recorded(image, client, golden, targets, scheme, engine).map(
        |(runs, group, _, _)| {
            (
                runs.into_iter()
                    .map(|(run, meta, _, _)| (run, meta))
                    .collect(),
                group,
            )
        },
    )
}

/// [`run_injection_group_metered_opts`] plus a [`DivergenceReport`] per
/// activated run when `engine.flight_recorder` is on: the checkpoint is
/// resumed once without the flip (recorder armed) as the group's golden
/// continuation, then every target's replay records its own trace and
/// is diffed against it. Outcomes are bit-identical to the recorder-off
/// path. When `engine.profiler` is on, one [`ExecProfile`] covering the
/// boot and every replay of the group is returned as well (the profile
/// deliberately survives checkpoint restores, so it accounts for all
/// instructions the group retired). When `engine.footprint` is on, one
/// [`Footprint`] unioning the boot and every replay is returned — the
/// byte ranges whose contents the campaign cache must key the group's
/// memoized results on. When `engine.propagation` is on, each replay
/// arms the taint tracer seeded at the group's address and its sealed
/// [`PropagationReport`] rides along per run — the tracer is per-run
/// state, so the restore at the top of the next replay would drop it
/// anyway; the explicit take seals it first.
///
/// This is a one-shot [`GroupRunner`]: it loads a fresh process for the
/// group, and an empty group loads nothing.
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
    let mut runner = GroupRunner::one_shot(image, client, golden, engine)?;
    Ok(runner.run(targets, scheme))
}

/// Determine the §6.2 mapping context for the corrupted byte.
fn byte_ctx(target: &InjectionTarget) -> ByteCtx {
    if target.byte_index == 0 {
        ByteCtx::OneByteOpcode
    } else if target.byte_index == 1 && target.first_byte == 0x0F {
        ByteCtx::SecondOpcodeByte
    } else {
        ByteCtx::Other
    }
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
        assert_eq!(byte_ctx(&mk(0x74, 0)), ByteCtx::OneByteOpcode);
        assert_eq!(byte_ctx(&mk(0x0F, 1)), ByteCtx::SecondOpcodeByte);
        assert_eq!(byte_ctx(&mk(0x74, 1)), ByteCtx::Other);
        assert_eq!(byte_ctx(&mk(0x0F, 3)), ByteCtx::Other);
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
