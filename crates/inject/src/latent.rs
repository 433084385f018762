//! The snapshot engine, and its from-scratch oracle.
//!
//! Two kinds of work run on it:
//!
//! * the §4 campaign ([`LatentRunner::run_group`]): every target at one
//!   instruction address flips its bit when a breakpoint there would
//!   first fire, at the instruction's *activation icount* (its first
//!   retirement − 1);
//! * the §7 test ([`LatentRunner::run`], [`LatentRunner::run_batch`]): a
//!   text byte corrupted from load (§5.4's memory-error model) for the
//!   whole session, with no breakpoint; a run indistinguishable from
//!   golden is "no effect".
//!
//! Neither error can matter before golden reaches its instruction or
//! fetches its byte, so a replay from golden's state there is exact
//! (FastFlip, arXiv 2403.13989: reuse the work an error provably cannot
//! reach). A [`FirstFetchPass`] runs golden once with coverage on and
//! derives three replay rules, each under its own guard:
//!
//! * activation icounts hold when the pass matches golden and ends by
//!   exit or deadlock, so an instruction that never retires is never
//!   reached (NA); otherwise groups go through the oracle,
//!   [`run_injection_recorded`];
//! * rungs (a byte's first fetch) hold when, besides, the pass writes no
//!   executable byte and reads none as data
//!   ([`fisec_x86::Memory::exec_data_reads`]), since a latent byte is
//!   there from load; otherwise every rung is icount 0;
//! * under that same guard, a byte's last fetch says when golden is done
//!   with it. A campaign replay whose flipped byte golden never fetches
//!   after the activation icount, and whose flipped instruction leaves
//!   the process as golden's own step from the checkpoint does, has
//!   re-joined golden: it is *masked*, classified as golden without
//!   running its suffix ([`LatentRunner::run_group`]).
//!
//! Campaign flips never replay from a byte's rung: a golden read of text
//! as data, or an earlier instruction overlapping the target's bytes,
//! puts it below the activation icount.
//!
//! A snapshot runner's *walk* moves one checkpoint forward along golden,
//! re-captured in place ([`fisec_os::Process::snapshot_into`]), and
//! restarts from icount 0 for a point behind it. The oracle,
//! [`LatentRunner::from_scratch`], boots a patched [`Image`] clone per run.

use crate::classify::{classify_run, GoldenRun, InjectionRun, OutcomeClass};
use crate::target::InjectionTarget;
use crate::{
    flip_and_run, golden_continuation, micros_since, not_activated, run_budget,
    run_injection_recorded, EngineOpts, GoldenStep, GroupMeta, GroupOutcome, RunMeta,
};
use fisec_apps::ClientSpec;
use fisec_asm::Image;
use fisec_encoding::EncodingScheme;
use fisec_net::{ClientStatus, Trace};
use fisec_os::{Process, ProcessSnapshot, Stop};
use fisec_x86::{ExecProfile, Footprint, Machine};
use std::borrow::Cow;
use std::time::Instant;

/// One latent text-segment error: the byte at `offset` (relative to the
/// text base) reads `corrupted` for the whole session. The caller picks
/// `corrupted` — a plain flip, or the §6.2 remap→flip→remap transform —
/// so the runner stays agnostic of encoding schemes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatentError {
    /// Byte offset into the text segment.
    pub offset: usize,
    /// The value the corrupted byte holds.
    pub corrupted: u8,
}

/// What one [`LatentRunner::run_batch`] call cost beyond its runs, for
/// the engine's telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchMeta {
    /// Draws on bytes the golden session never fetches, served without
    /// executing.
    pub unfetched: u64,
    /// Rung checkpoints captured along the golden walk.
    pub rungs: u64,
    /// Host microseconds walking golden forward and capturing rungs.
    pub rung_micros: u64,
    /// Checkpoint restores: one per replayed draw, one per walk step.
    pub restores: u64,
}

/// Icount marker of an instruction or byte golden never reaches.
const NEVER: u64 = u64::MAX;

/// One golden session with coverage on, and the replay points it
/// proves. Run once per (image, client, engine) and shared by every
/// runner of that triple.
#[derive(Debug, Clone)]
pub struct FirstFetchPass {
    engine: EngineOpts,
    budget: u64,
    text_base: u32,
    /// Per text offset, the activation icount of an instruction starting
    /// there ([`NEVER`] if none executes); `None` when the pass does not
    /// qualify.
    activation: Option<Vec<u64>>,
    /// Per text byte, its rung ([`NEVER`] if never fetched); all zeros
    /// when the §7 guard fails.
    rungs: Vec<u64>,
    /// Per text byte, golden's last fetch of it ([`NEVER`] if never
    /// fetched); `None` when the §7 guard fails.
    last_fetch: Option<Vec<u64>>,
    /// The pass's profile and footprint, when the engine asks for them:
    /// the work a group served without executing stands for.
    profile: Option<Box<ExecProfile>>,
    footprint: Option<Footprint>,
}

impl FirstFetchPass {
    /// Run golden once with coverage on, in a process of its own, under
    /// the injected runs' budget, and derive every activation icount and
    /// rung.
    ///
    /// # Errors
    /// Propagates [`fisec_os::LoadError`] if the image cannot be loaded.
    pub fn run(
        image: &Image,
        client: &ClientSpec,
        golden: &GoldenRun,
        engine: EngineOpts,
    ) -> Result<FirstFetchPass, fisec_os::LoadError> {
        let budget = run_budget(golden);
        // Allocated before the pass's process, below everything it frees.
        let mut activation = vec![NEVER; image.text.len()];
        let mut rungs = vec![NEVER; image.text.len()];
        let mut last_fetch = vec![NEVER; image.text.len()];
        let mut p = Process::load(image, client.make())?;
        engine.apply(&mut p);
        p.set_budget(budget);
        p.machine.enable_coverage();
        let exec_gen = p.machine.mem.exec_gen();
        let exec_reads = p.machine.mem.exec_data_reads();
        let stop = p.run();
        let session = GoldenRun {
            stop,
            client: p.client_status(),
            trace: p.trace(),
            icount: p.icount(),
        };
        derive(
            &mut activation,
            &mut rungs,
            &mut last_fetch,
            image,
            &p.machine,
        );
        let qualifies =
            session == *golden && matches!(session.stop, Stop::Exited(_) | Stop::Deadlock);
        let text_only_executed = qualifies
            && p.machine.mem.exec_gen() == exec_gen
            && p.machine.mem.exec_data_reads() == exec_reads;
        if !text_only_executed {
            rungs.fill(0);
        }
        Ok(FirstFetchPass {
            engine,
            budget,
            text_base: image.text_base,
            activation: qualifies.then_some(activation),
            rungs,
            last_fetch: text_only_executed.then_some(last_fetch),
            profile: p.machine.take_exec_profile().map(Box::new),
            footprint: p.machine.take_footprint(),
        })
    }

    /// Whether the activation icounts are exact: the pass matched golden
    /// and ended by exit or deadlock.
    pub fn qualifies(&self) -> bool {
        self.activation.is_some()
    }

    /// The icount at which a breakpoint at `addr` first fires. `None`
    /// when golden never executes an instruction there, or when the
    /// pass does not [qualify](FirstFetchPass::qualifies).
    pub fn activation(&self, addr: u32) -> Option<u64> {
        let off = addr.checked_sub(self.text_base)? as usize;
        let t = *self.activation.as_ref()?.get(off)?;
        (t != NEVER).then_some(t)
    }

    /// The rung of text byte `offset`: golden's first fetch of it, where
    /// a §7 batch replays a draw on it from. `None` for a byte golden
    /// never fetches; `Some(0)` for every byte when the §7 guard fails.
    pub fn rung(&self, offset: usize) -> Option<u64> {
        self.rungs.get(offset).copied().filter(|&t| t != NEVER)
    }

    /// Golden's last fetch of text byte `offset`: the icount just before
    /// the last retirement of an instruction covering it. `None` for a
    /// byte golden never fetches, and for every byte when the §7 guard
    /// fails.
    pub fn last_fetch(&self, offset: usize) -> Option<u64> {
        let t = *self.last_fetch.as_ref()?.get(offset)?;
        (t != NEVER).then_some(t)
    }

    /// Whether golden, from icount `t` on, never fetches the text byte
    /// at `addr` again, nor reads or writes any text: a flip planted
    /// there at `t` that leaves the rest of the state as golden's is
    /// invisible for the rest of the session.
    fn unfetched_after(&self, addr: u32, t: u64) -> bool {
        addr.checked_sub(self.text_base)
            .and_then(|off| self.last_fetch(off as usize))
            .is_some_and(|last| last <= t)
    }
}

/// Give each instruction start golden executes its activation icount,
/// and each byte golden fetches the icounts of its first and last fetch,
/// from the first- and last-retire icounts `machine` recorded (entries
/// start at [`NEVER`]).
///
/// An instruction fetches exactly the bytes its decode consumes (the
/// decoder reads nothing past them), so a byte's first fetch is the
/// icount just before the first retirement of an instruction covering
/// it: the minimum of first retirement − 1 over those instructions; its
/// last fetch is the maximum of last retirement − 1.
fn derive(
    activation: &mut [u64],
    rungs: &mut [u64],
    last_fetch: &mut [u64],
    image: &Image,
    machine: &Machine,
) {
    let text = &image.text;
    for off in 0..text.len() {
        let addr = image.text_base.wrapping_add(off as u32);
        let Some(first) = machine.first_retire(addr) else {
            continue;
        };
        let last = machine.last_retire(addr).expect("retired at least once");
        activation[off] = first - 1;
        let len = usize::from(fisec_x86::decode(&text[off..(off + 15).min(text.len())]).len);
        let end = (off + len).min(text.len());
        for (r, l) in rungs[off..end].iter_mut().zip(&mut last_fetch[off..end]) {
            *r = (*r).min(first - 1);
            *l = match *l {
                NEVER => last - 1,
                t => t.max(last - 1),
            };
        }
    }
}

/// A snapshot runner's process, its icount-0 checkpoint `boot`, and the
/// one checkpoint `rung` its walk has moved to icount `at`.
struct Walk {
    process: Process,
    boot: ProcessSnapshot,
    rung: Option<ProcessSnapshot>,
    at: u64,
    /// What the walk fetched from icount 0 to `at` (footprint engines
    /// only): the same set whether it got there in one step or many.
    walked: Option<Footprint>,
}

impl Walk {
    /// The process, and the checkpoint the walk stands on.
    fn split(&mut self) -> (&mut Process, &ProcessSnapshot) {
        let from = match &self.rung {
            Some(r) if self.at > 0 => r,
            _ => &self.boot,
        };
        (&mut self.process, from)
    }

    /// Restore the checkpoint the walk stands on.
    fn restore(&mut self) {
        let (process, from) = self.split();
        process.restore(from);
    }

    /// Move the walk's checkpoint to golden icount `t` (from icount 0
    /// when `t` lies behind it) and re-capture it there with the session
    /// `budget`. Returns the microseconds walking and capturing; nothing
    /// runs when the walk already stands at `t`.
    fn step_to(&mut self, t: u64, budget: u64, engine: EngineOpts) -> Result<(u64, u64), String> {
        if t < self.at {
            (self.at, self.walked) = (0, None);
        }
        if t == self.at {
            return Ok((0, 0));
        }
        let start = Instant::now();
        self.restore();
        self.process.set_budget(t);
        if engine.footprint {
            self.process.machine.enable_footprint();
        }
        let stop = self.process.run();
        let fetched = self.process.machine.take_footprint();
        union(&mut self.walked, fetched.as_ref());
        if stop != Stop::Budget || self.process.icount() != t {
            return Err(format!(
                "golden walk to icount {t} stopped at icount {}: {stop}",
                self.process.icount()
            ));
        }
        self.process.set_budget(budget);
        let walked = micros_since(start);
        let start = Instant::now();
        match &mut self.rung {
            Some(r) => self.process.snapshot_into(r),
            None => self.rung = Some(self.process.snapshot()),
        }
        self.at = t;
        Ok((walked, micros_since(start)))
    }
}

/// Add every range of `from` to `into`.
fn union(into: &mut Option<Footprint>, from: Option<&Footprint>) {
    let Some(f) = from else { return };
    match into {
        Some(acc) => f
            .ranges()
            .into_iter()
            .for_each(|(a, n)| acc.mark_range(a, n)),
        None => *into = Some(f.clone()),
    }
}

/// A snapshot runner's walk, its pass, and the load's microseconds when
/// this call loaded the process.
type WalkParts<'w> = (&'w mut Walk, &'w FirstFetchPass, Option<u64>);

enum Inner<'a> {
    /// A pass, and the walk loaded on the first draw or group that
    /// executes.
    Snapshot {
        pass: Cow<'a, FirstFetchPass>,
        walk: Option<Box<Walk>>,
    },
    /// Private image clone whose text is patched and repaired per run.
    FromScratch { scratch: Image },
}

/// Reusable executor for one (image, client) pair. Create one per worker
/// thread; every run, batch and group is independent of the ones before.
pub struct LatentRunner<'a> {
    image: &'a Image,
    client: &'a ClientSpec,
    engine: EngineOpts,
    budget: u64,
    loads: u64,
    inner: Inner<'a>,
}

impl<'a> LatentRunner<'a> {
    /// Snapshot-mode runner that runs and owns its [`FirstFetchPass`].
    ///
    /// # Errors
    /// Propagates [`fisec_os::LoadError`] if the image cannot be loaded.
    pub fn snapshot(
        image: &'a Image,
        client: &'a ClientSpec,
        golden: &GoldenRun,
        engine: EngineOpts,
    ) -> Result<LatentRunner<'a>, fisec_os::LoadError> {
        let pass = FirstFetchPass::run(image, client, golden, engine)?;
        Ok(LatentRunner::over(image, client, Cow::Owned(pass)))
    }

    /// Snapshot-mode runner borrowing `pass`, which must have been run
    /// for this image and client.
    pub fn with_pass(
        image: &'a Image,
        client: &'a ClientSpec,
        pass: &'a FirstFetchPass,
    ) -> LatentRunner<'a> {
        LatentRunner::over(image, client, Cow::Borrowed(pass))
    }

    fn over(image: &'a Image, client: &'a ClientSpec, pass: Cow<'a, FirstFetchPass>) -> Self {
        LatentRunner {
            image,
            client,
            engine: pass.engine,
            budget: pass.budget,
            loads: 0,
            inner: Inner::Snapshot { pass, walk: None },
        }
    }

    /// From-scratch-mode runner: clone the image once, boot a fresh
    /// process per run against the patched clone.
    pub fn from_scratch(
        image: &'a Image,
        client: &'a ClientSpec,
        golden: &GoldenRun,
        engine: EngineOpts,
    ) -> LatentRunner<'a> {
        LatentRunner {
            image,
            client,
            engine,
            budget: run_budget(golden),
            loads: 0,
            inner: Inner::FromScratch {
                scratch: image.clone(),
            },
        }
    }

    /// Processes this runner has loaded, for the engine's boot
    /// accounting: in snapshot mode its own once work needed it (not the
    /// pass); from scratch, one per run and per group target.
    pub fn loads(&self) -> u64 {
        self.loads
    }

    /// A snapshot runner's walk and pass, loading the process and
    /// checkpointing it at icount 0 the first time; then also the load's
    /// microseconds.
    fn walk(&mut self) -> Result<WalkParts<'_>, fisec_os::LoadError> {
        let Inner::Snapshot { pass, walk } = &mut self.inner else {
            unreachable!("only snapshot runners walk");
        };
        let mut load_micros = None;
        if walk.is_none() {
            let start = Instant::now();
            let mut process = Process::load(self.image, self.client.make())?;
            self.engine.configure(&mut process);
            process.set_budget(self.budget);
            *walk = Some(Box::new(Walk {
                boot: process.snapshot(),
                process,
                rung: None,
                at: 0,
                walked: None,
            }));
            self.loads += 1;
            load_micros = Some(micros_since(start));
        }
        Ok((
            walk.as_deref_mut().expect("loaded above"),
            pass,
            load_micros,
        ))
    }

    /// Execute one session with `err` planted and classify it against
    /// `golden`. A run indistinguishable from golden comes back as
    /// [`OutcomeClass::NotManifested`] with `activated == false` ("no
    /// effect" — latent errors have no activation observation).
    ///
    /// In snapshot mode a draw on a byte golden never fetches returns
    /// the golden session's classification and icount without
    /// executing; any other draw replays from the icount-0 checkpoint.
    ///
    /// # Errors
    /// A message when `err.offset` is outside the text segment — a
    /// campaign bug, reported hard rather than sampled around.
    pub fn run(
        &mut self,
        golden: &GoldenRun,
        err: LatentError,
    ) -> Result<(InjectionRun, RunMeta), String> {
        self.check(err)?;
        let text_base = self.image.text_base;
        match &mut self.inner {
            Inner::Snapshot { pass, .. } => {
                if pass.rungs[err.offset] == NEVER {
                    return Ok(unfetched(golden));
                }
                let (w, ..) = self
                    .walk()
                    .map_err(|e| format!("image failed to load: {e:?}"))?;
                w.process.restore(&w.boot);
                Ok(replay(&mut w.process, text_base, golden, err))
            }
            Inner::FromScratch { scratch } => {
                let orig = scratch.text[err.offset];
                scratch.text[err.offset] = err.corrupted;
                let start = Instant::now();
                let mut p = Process::load(scratch, self.client.make())
                    .map_err(|e| format!("corrupted image failed to load: {e:?}"))?;
                self.loads += 1;
                self.engine.apply(&mut p);
                p.set_budget(self.budget);
                let stop = p.run();
                let run_micros = micros_since(start);
                scratch.text[err.offset] = orig;
                let (run, mut meta) = classify_latent(
                    golden,
                    stop,
                    p.client_status(),
                    p.trace(),
                    p.icount(),
                    run_micros,
                );
                meta.skipped_insts = p.machine.fast_forwarded_insts();
                Ok((run, meta))
            }
        }
    }

    /// Execute a batch of sessions, handing each draw's result to `each`
    /// together with the draw's index in `errs` as soon as it is
    /// classified (never-fetched draws first, the rest in rung order).
    /// Each result is field for field what [`run`](LatentRunner::run)
    /// returns for the draw, except that a replayed draw's
    /// [`RunMeta::run_micros`] covers only its suffix.
    ///
    /// In snapshot mode, draws on never-fetched bytes are served without
    /// executing; the rest are ordered by their byte's rung `t` and
    /// served from one walk of the golden session from icount 0: step to
    /// `t`, then restore + poke + run + classify each draw due at `t`.
    /// From-scratch mode runs the draws one by one, in order.
    ///
    /// # Errors
    /// A message when any draw's offset is outside the text segment
    /// (checked before anything runs), or when the golden walk fails to
    /// reach a rung (a runner bug).
    pub fn run_batch(
        &mut self,
        golden: &GoldenRun,
        errs: &[LatentError],
        mut each: impl FnMut(usize, InjectionRun, RunMeta),
    ) -> Result<BatchMeta, String> {
        for &err in errs {
            self.check(err)?;
        }
        let Inner::Snapshot { pass, .. } = &self.inner else {
            for (i, &err) in errs.iter().enumerate() {
                let (run, meta) = self.run(golden, err)?;
                each(i, run, meta);
            }
            return Ok(BatchMeta::default());
        };
        let mut meta = BatchMeta::default();
        let mut due: Vec<(u64, usize)> = Vec::with_capacity(errs.len());
        for (i, err) in errs.iter().enumerate() {
            match pass.rungs[err.offset] {
                NEVER => {
                    let (run, run_meta) = unfetched(golden);
                    each(i, run, run_meta);
                    meta.unfetched += 1;
                }
                t => due.push((t, i)),
            }
        }
        if due.is_empty() {
            return Ok(meta);
        }
        due.sort_unstable();
        let (text_base, budget, engine) = (self.image.text_base, self.budget, self.engine);
        let (w, ..) = self
            .walk()
            .map_err(|e| format!("image failed to load: {e:?}"))?;
        let restores_before = w.process.restore_count();
        // Every batch walks from icount 0.
        (w.at, w.walked) = (0, None);
        for (t, i) in due {
            if t > w.at {
                let (walked, captured) = w.step_to(t, budget, engine)?;
                meta.rungs += 1;
                meta.rung_micros += walked + captured;
            }
            w.restore();
            let (run, run_meta) = replay(&mut w.process, text_base, golden, errs[i]);
            each(i, run, run_meta);
        }
        meta.restores = w.process.restore_count() - restores_before;
        Ok(meta)
    }

    /// Execute every experiment of one checkpoint group — every target
    /// at one instruction address — with the outcome one fresh boot and
    /// breakpoint per target gives.
    ///
    /// With a qualifying pass, a group golden never reaches is NA: its
    /// runs stop as the pass did, and it carries the pass's profile and
    /// footprint. Otherwise the walk steps to the activation icount, and
    /// each target restores that checkpoint and goes through the
    /// oracle's flip-and-run step (plant the flip on the live byte, run,
    /// classify); with the recorder on, the checkpoint first runs once
    /// unflipped as the golden continuation.
    ///
    /// A replay whose flipped byte golden never fetches again (the pass
    /// also passes §7's guard) is compared with golden's own step from
    /// the checkpoint, taken once per group: when the flipped instruction
    /// leaves the process exactly where golden's left it, the run is
    /// *masked* — classified as golden without running its suffix (see
    /// [`GroupMeta::masked`]). The profile covers the walk step, golden's
    /// step and what the replays executed; the footprint adds to the
    /// replays' what the walk fetched from icount 0, and the pass's when a
    /// run was masked (its skipped suffix is golden's). From scratch, or
    /// when the pass does not qualify, every target goes through
    /// [`run_injection_recorded`] (folded, without a profile).
    ///
    /// # Errors
    /// Propagates [`fisec_os::LoadError`] if the image cannot be loaded.
    ///
    /// # Panics
    /// If the targets do not all share one instruction address, or if
    /// the walk stops short of an activation icount the pass reached (a
    /// runner bug).
    pub fn run_group(
        &mut self,
        golden: &GoldenRun,
        targets: &[InjectionTarget],
        scheme: EncodingScheme,
    ) -> Result<GroupOutcome, fisec_os::LoadError> {
        let Some(addr) = targets.first().map(|t| t.addr) else {
            return Ok((Vec::new(), GroupMeta::default(), None, None));
        };
        assert!(
            targets.iter().all(|t| t.addr == addr),
            "a checkpoint group requires targets sharing one address"
        );
        let (image, engine, budget) = (self.image, self.engine, self.budget);
        let pass = match &self.inner {
            Inner::Snapshot { pass, .. } if pass.qualifies() => pass,
            _ => {
                self.loads += targets.len() as u64;
                return oracle_group(image, self.client, golden, targets, scheme, engine);
            }
        };
        let Some(activation) = pass.activation(addr) else {
            let na = not_activated(golden.stop.clone(), golden.client, golden.icount);
            let runs = vec![na; targets.len()];
            let (profile, footprint) = (pass.profile.as_deref().cloned(), pass.footprint.clone());
            return Ok((runs, GroupMeta::default(), profile, footprint));
        };
        let (w, pass, load_micros) = self.walk()?;
        if engine.profiler {
            w.process.machine.enable_profiler();
        }
        let (walked, snapshot_micros) = w
            .step_to(activation, budget, engine)
            .unwrap_or_else(|e| panic!("{e}"));
        let mut group = GroupMeta {
            boot_micros: load_micros.unwrap_or(0) + walked,
            snapshot_micros,
            activated: true,
            fresh_boot: load_micros.is_some(),
            ..GroupMeta::default()
        };
        // A target whose flipped byte golden never fetches again.
        let maskable = |t: &InjectionTarget| {
            let byte = t.addr.wrapping_add(u32::from(t.byte_index));
            pass.unfetched_after(byte, activation)
        };
        let (process, checkpoint) = w.split();
        // Golden's step runs before the footprint records: it stands for
        // no replay's work. A recorded run always executes its suffix.
        let step_start = Instant::now();
        let golden_step = (!engine.flight_recorder && targets.iter().any(maskable))
            .then(|| GoldenStep::take(process, checkpoint))
            .flatten();
        group.snapshot_micros += micros_since(step_start);
        if engine.footprint {
            process.machine.enable_footprint();
        }
        // One golden continuation serves the whole group; the restore at
        // the top of every replay rewinds the detour.
        let golden_ref = engine.flight_recorder.then(|| {
            process.restore(checkpoint);
            golden_continuation(process)
        });
        let restores_before = process.restore_count();
        let runs = targets
            .iter()
            .map(|target| {
                let restore_start = Instant::now();
                process.restore(checkpoint);
                let restore_micros = micros_since(restore_start);
                let gc = golden_ref.as_ref();
                let gs = golden_step.as_ref().filter(|_| maskable(target));
                let (mut run, masked) =
                    flip_and_run(process, image, golden, target, scheme, engine, gc, gs);
                group.masked += u64::from(masked);
                // A replay's timer includes its restore.
                run.1.run_micros += restore_micros;
                run
            })
            .collect();
        group.restores = process.restore_count() - restores_before;
        let profile = process.machine.take_exec_profile();
        let mut footprint = process.machine.take_footprint();
        union(&mut footprint, w.walked.as_ref());
        if group.masked > 0 {
            union(&mut footprint, pass.footprint.as_ref());
        }
        Ok((runs, group, profile, footprint))
    }

    /// Reject an offset outside the text segment.
    fn check(&self, err: LatentError) -> Result<(), String> {
        let len = self.image.text.len();
        if err.offset >= len {
            return Err(format!(
                "latent-error offset {} out of range for text segment of {len} bytes",
                err.offset
            ));
        }
        Ok(())
    }
}

/// Every target of a group through the from-scratch oracle, folded into
/// one outcome: the runs in target order and their footprints' union.
fn oracle_group(
    image: &Image,
    client: &ClientSpec,
    golden: &GoldenRun,
    targets: &[InjectionTarget],
    scheme: EncodingScheme,
    engine: EngineOpts,
) -> Result<GroupOutcome, fisec_os::LoadError> {
    let meta = GroupMeta {
        fresh_boot: true,
        ..GroupMeta::default()
    };
    let mut out: GroupOutcome = (Vec::with_capacity(targets.len()), meta, None, None);
    for target in targets {
        let (runs, meta, _, fp) =
            run_injection_recorded(image, client, golden, target, scheme, engine)?;
        out.0.extend(runs);
        out.1.boot_micros += meta.boot_micros;
        out.1.snapshot_micros += meta.snapshot_micros;
        out.1.activated |= meta.activated;
        union(&mut out.3, fp.as_ref());
    }
    Ok(out)
}

/// Plant `err` in `process`, restored to its replay point, run to a
/// stop and classify against `golden`: the one replay primitive behind
/// both §7 paths. `run_micros` times the run after the poke.
fn replay(
    process: &mut Process,
    text_base: u32,
    golden: &GoldenRun,
    err: LatentError,
) -> (InjectionRun, RunMeta) {
    let addr = text_base.wrapping_add(err.offset as u32);
    process
        .machine
        .mem
        .poke8(addr, err.corrupted)
        .expect("text byte is mapped: offset was bounds-checked");
    let start = Instant::now();
    let skipped_before = process.machine.fast_forwarded_insts();
    let stop = process.run();
    let run_micros = micros_since(start);
    let (run, mut meta) = classify_latent(
        golden,
        stop,
        process.client_status(),
        process.trace(),
        process.icount(),
        run_micros,
    );
    meta.skipped_insts = process.machine.fast_forwarded_insts() - skipped_before;
    (run, meta)
}

/// A draw on a never-fetched byte: golden, classified, with no run time.
fn unfetched(g: &GoldenRun) -> (InjectionRun, RunMeta) {
    classify_latent(g, g.stop.clone(), g.client, g.trace.clone(), g.icount, 0)
}

/// Classify a finished latent session against `golden`.
fn classify_latent(
    golden: &GoldenRun,
    stop: Stop,
    client: ClientStatus,
    trace: Trace,
    icount: u64,
    run_micros: u64,
) -> (InjectionRun, RunMeta) {
    let classify_start = Instant::now();
    let mut run = classify_run(golden, stop, client, trace, None);
    // With a latent error there is no breakpoint to observe activation;
    // a run indistinguishable from golden counts as "no effect".
    if run.outcome == OutcomeClass::NotManifested {
        run.activated = false;
    }
    let meta = RunMeta {
        icount,
        run_micros,
        classify_micros: micros_since(classify_start),
        ..RunMeta::default()
    };
    (run, meta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::golden_run;
    use fisec_apps::AppSpec;

    #[test]
    fn snapshot_and_from_scratch_agree_bit_for_bit() {
        let app = AppSpec::ftpd();
        let spec = &app.clients[0];
        let golden = golden_run(&app.image, spec).unwrap();
        let mut snap =
            LatentRunner::snapshot(&app.image, spec, &golden, EngineOpts::default()).unwrap();
        let mut fresh =
            LatentRunner::from_scratch(&app.image, spec, &golden, EngineOpts::default());
        // A spread of offsets/bits, including the golden path's first
        // instruction (offset 0) and bytes deep in the image.
        for (offset, bit) in [(0usize, 6u8), (1, 0), (17, 3), (40, 7), (99, 1)] {
            let offset = offset % app.image.text.len();
            let err = LatentError {
                offset,
                corrupted: app.image.text[offset] ^ (1 << bit),
            };
            let (a, am) = snap.run(&golden, err).unwrap();
            let (b, bm) = fresh.run(&golden, err).unwrap();
            assert_eq!(a.outcome, b.outcome, "offset {offset} bit {bit}");
            assert_eq!(a.activated, b.activated, "offset {offset} bit {bit}");
            assert_eq!(a.stop, b.stop, "offset {offset} bit {bit}");
            assert_eq!(am.icount, bm.icount, "offset {offset} bit {bit}");
        }
        // One load for the snapshot runner's own process (the pass is
        // counted where it runs), one per run from scratch.
        assert_eq!(snap.loads(), 1);
        assert_eq!(fresh.loads(), 5);
    }

    #[test]
    fn runs_are_independent_of_history() {
        let app = AppSpec::ftpd();
        let spec = &app.clients[0];
        let golden = golden_run(&app.image, spec).unwrap();
        let mut runner =
            LatentRunner::snapshot(&app.image, spec, &golden, EngineOpts::default()).unwrap();
        let err = LatentError {
            offset: 0,
            corrupted: app.image.text[0] ^ 0x40,
        };
        let (first, fm) = runner.run(&golden, err).unwrap();
        // Interleave a different error, then repeat: identical result.
        let other = LatentError {
            offset: 3 % app.image.text.len(),
            corrupted: app.image.text[3 % app.image.text.len()] ^ 0x01,
        };
        runner.run(&golden, other).unwrap();
        let (again, am) = runner.run(&golden, err).unwrap();
        assert_eq!(first.outcome, again.outcome);
        assert_eq!(first.stop, again.stop);
        assert_eq!(fm.icount, am.icount);
    }

    /// Every byte of an executed instruction has the icount just before
    /// that instruction first retires as its rung; bytes golden never
    /// executes have none.
    #[test]
    fn rungs_are_first_fetches() {
        // _start: nop; nop; jmp +1; [dead byte]; mov ebx, 0; mov eax, 1;
        // int 0x80 (exit 0).
        let code = [
            0x90, 0x90, 0xEB, 0x01, 0xCC, 0xBB, 0, 0, 0, 0, 0xB8, 1, 0, 0, 0, 0xCD, 0x80,
        ];
        let mut a = fisec_asm::Assembler::new();
        a.begin_func("_start");
        a.end_func();
        a.raw_bytes(code.to_vec());
        let image = a.assemble(0x0804_8000, 0x0810_0000).unwrap();
        let app = AppSpec::ftpd();
        let spec = &app.clients[0];
        let golden = golden_run(&image, spec).unwrap();
        assert_eq!((golden.stop.clone(), golden.icount), (Stop::Exited(0), 6));
        let pass = FirstFetchPass::run(&image, spec, &golden, EngineOpts::default()).unwrap();
        let rungs: Vec<_> = (0..code.len()).map(|o| pass.rung(o)).collect();
        // nop, nop and the 2-byte jmp are fetched at icounts 0, 1, 2;
        // the dead byte never is; mov ebx (5 bytes), mov eax (5) and
        // int (2) at 3, 4, 5.
        let mut want = vec![Some(0), Some(1), Some(2), Some(2), None];
        want.extend([Some(3); 5]);
        want.extend([Some(4); 5]);
        want.extend([Some(5); 2]);
        assert_eq!(rungs, want);
    }

    #[test]
    fn out_of_range_offset_is_a_hard_error() {
        let app = AppSpec::ftpd();
        let spec = &app.clients[0];
        let golden = golden_run(&app.image, spec).unwrap();
        let mut runner =
            LatentRunner::from_scratch(&app.image, spec, &golden, EngineOpts::default());
        let err = LatentError {
            offset: usize::MAX,
            corrupted: 0,
        };
        let msg = runner.run(&golden, err).unwrap_err();
        assert!(msg.contains("out of range"), "{msg}");
    }
}
