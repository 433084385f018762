//! Latent-error execution: the §7 random-injection primitive.
//!
//! The breakpoint injector in the crate root models *transient* errors
//! that appear mid-run. The concluding-remarks experiment instead
//! plants a **latent** error — a corrupted text byte present from the
//! moment the page is loaded (§5.4's memory-error model) — and runs the
//! whole session against it. There is no activation breakpoint and no
//! crash-latency anchor; a run indistinguishable from golden is simply
//! "no effect".
//!
//! Still, a latent flip cannot matter before the golden run first
//! fetches the flipped byte: until then the corrupted session executes
//! exactly golden's instructions, so its state there is golden's, and a
//! replay from golden's state at any icount up to that fetch is exact.
//! The snapshot runner reuses that prefix (FastFlip's idea, arXiv
//! 2403.13989: reuse the work an error provably cannot reach). At
//! construction a *first-fetch pass* runs the golden session once with
//! coverage on ([`fisec_x86::Machine::first_retire`]) and gives every
//! text byte a *rung*: the icount at which golden first fetches it. A
//! draw on a byte golden never fetches reproduces golden without
//! executing; any other draw can replay from its byte's rung. The pass
//! counts only if it matches golden, ends by exit or deadlock, writes no
//! executable byte and reads none as data
//! ([`fisec_x86::Memory::exec_data_reads`]); otherwise every byte's rung
//! is icount 0, i.e. full sessions.
//!
//! [`LatentRunner`] is the per-worker executor the random tier drives
//! millions of times. It comes in the campaign engine's two execution
//! modes, pinned bit-identical by differential tests:
//!
//! * [`LatentRunner::snapshot`] boots the pristine image once,
//!   checkpoints at icount 0 and runs the first-fetch pass.
//!   [`run`](LatentRunner::run) serves a draw as restore the icount-0
//!   checkpoint → poke the corrupted byte → run.
//!   [`run_batch`](LatentRunner::run_batch) orders a batch's draws by
//!   rung and serves them from one forward walk of the golden session:
//!   run to the next rung under the budget, checkpoint there, replay
//!   every draw due at that rung from the checkpoint, then walk on.
//!   Restoring rewinds registers, memory, icount and the client
//!   channel, so the poke lands on exactly the state a fresh boot of the
//!   corrupted image reaches at that icount.
//! * [`LatentRunner::from_scratch`] keeps a private scratch [`Image`],
//!   writes the corrupted byte into its text, boots a fresh process,
//!   and repairs the byte after — the oracle the snapshot path is
//!   checked against. It takes no shortcut.

use crate::classify::{classify_run, GoldenRun, InjectionRun, OutcomeClass};
use crate::{micros_since, run_budget, EngineOpts, RunMeta};
use fisec_apps::ClientSpec;
use fisec_asm::Image;
use fisec_net::{ClientStatus, Trace};
use fisec_os::{Process, ProcessSnapshot, Stop};
use fisec_x86::Machine;
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

/// Rung of a byte the golden session never fetches.
const NEVER: u64 = u64::MAX;

enum Inner {
    /// Pristine process checkpointed at icount 0, plus what the
    /// first-fetch pass learned.
    Snapshot {
        process: Box<Process>,
        checkpoint: Box<ProcessSnapshot>,
        /// Per text byte, its rung ([`NEVER`] if golden never fetches
        /// it). All zeros when the pass failed its guard.
        rungs: Vec<u64>,
        /// The pristine session the pass ran, which every draw on a
        /// never-fetched byte reproduces.
        pass: GoldenRun,
        /// The checkpoint of the walk's current rung, kept across
        /// batches so each capture reuses its buffers (`None` until the
        /// first walk).
        rung: Option<Box<ProcessSnapshot>>,
    },
    /// Private image clone whose text is patched and repaired per run.
    FromScratch { scratch: Image },
}

/// Reusable latent-error executor for one (image, client) pair. Create
/// one per worker thread; every [`run`](LatentRunner::run) is
/// independent of the previous one.
pub struct LatentRunner<'a> {
    client: &'a ClientSpec,
    engine: EngineOpts,
    budget: u64,
    text_base: u32,
    text_len: usize,
    inner: Inner,
}

impl<'a> LatentRunner<'a> {
    /// Snapshot-mode runner: run the first-fetch pass (one golden
    /// session with coverage on, in a process of its own), then boot
    /// once and checkpoint at icount 0.
    ///
    /// # Errors
    /// Propagates [`fisec_os::LoadError`] if the image cannot be loaded.
    pub fn snapshot(
        image: &'a Image,
        client: &'a ClientSpec,
        golden: &GoldenRun,
        engine: EngineOpts,
    ) -> Result<LatentRunner<'a>, fisec_os::LoadError> {
        let budget = run_budget(golden);
        let (rungs, pass) = first_fetch_pass(image, client, golden, engine, budget)?;
        let mut p = Process::load(image, client.make())?;
        engine.apply(&mut p);
        p.set_budget(budget);
        let checkpoint = Box::new(p.snapshot());
        Ok(LatentRunner {
            client,
            engine,
            budget,
            text_base: image.text_base,
            text_len: image.text.len(),
            inner: Inner::Snapshot {
                process: Box::new(p),
                checkpoint,
                rungs,
                pass,
                rung: None,
            },
        })
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
            client,
            engine,
            budget: run_budget(golden),
            text_base: image.text_base,
            text_len: image.text.len(),
            inner: Inner::FromScratch {
                scratch: image.clone(),
            },
        }
    }

    /// Processes this runner loaded when it was built (2 in snapshot
    /// mode: the first-fetch pass and the runner's own; 0 from scratch)
    /// — for the engine's boot accounting.
    pub fn construction_boots(&self) -> u64 {
        match self.inner {
            Inner::Snapshot { .. } => 2,
            Inner::FromScratch { .. } => 0,
        }
    }

    /// Fresh boots this runner performs per run (1 from scratch, 0 from
    /// a snapshot restore) — for the engine's boot/restore accounting.
    pub fn boots_per_run(&self) -> u64 {
        match self.inner {
            Inner::Snapshot { .. } => 0,
            Inner::FromScratch { .. } => 1,
        }
    }

    /// The rung of text byte `offset`: the golden icount a batch replays
    /// a draw on it from, golden's first fetch of the byte. `None` for a
    /// byte golden never fetches; `Some(0)` for every byte when the
    /// first-fetch pass failed its guard, and in from-scratch mode,
    /// which takes no shortcut.
    pub fn rung(&self, offset: usize) -> Option<u64> {
        match &self.inner {
            Inner::Snapshot { rungs, .. } => rungs.get(offset).copied().filter(|&t| t != NEVER),
            Inner::FromScratch { .. } => Some(0),
        }
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
        match &mut self.inner {
            Inner::Snapshot {
                process,
                checkpoint,
                rungs,
                pass,
                ..
            } => Ok(if rungs[err.offset] == NEVER {
                unfetched(golden, pass)
            } else {
                replay(process, checkpoint, self.text_base, golden, err)
            }),
            Inner::FromScratch { scratch } => {
                let orig = scratch.text[err.offset];
                scratch.text[err.offset] = err.corrupted;
                let start = Instant::now();
                let mut p = Process::load(scratch, self.client.make())
                    .map_err(|e| format!("corrupted image failed to load: {e:?}"))?;
                self.engine.apply(&mut p);
                p.set_budget(self.budget);
                let stop = p.run();
                let run_micros = micros_since(start);
                scratch.text[err.offset] = orig;
                Ok(classify_latent(
                    golden,
                    stop,
                    p.client_status(),
                    p.trace(),
                    p.icount(),
                    run_micros,
                ))
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
    /// served from one forward walk of the golden session: run to `t`
    /// under the budget, checkpoint, then restore + poke + run +
    /// classify each draw due at `t`, restore, and walk on. From-scratch
    /// mode runs the draws one by one, in order.
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
        let Inner::Snapshot {
            process,
            checkpoint,
            rungs,
            pass,
            rung,
        } = &mut self.inner
        else {
            for (i, &err) in errs.iter().enumerate() {
                let (run, meta) = self.run(golden, err)?;
                each(i, run, meta);
            }
            return Ok(BatchMeta::default());
        };
        let mut meta = BatchMeta::default();
        let mut due: Vec<usize> = Vec::with_capacity(errs.len());
        for (i, err) in errs.iter().enumerate() {
            if rungs[err.offset] == NEVER {
                let (run, run_meta) = unfetched(golden, pass);
                each(i, run, run_meta);
                meta.unfetched += 1;
            } else {
                due.push(i);
            }
        }
        let rung_of = |i: usize| rungs[errs[i].offset];
        due.sort_unstable_by_key(|&i| (rung_of(i), i));
        let restores_before = process.restore_count();
        // Replays restore the icount-0 checkpoint until the walk has
        // captured a rung further along in this batch.
        let mut at = 0;
        for i in due {
            let t = rung_of(i);
            if t > at {
                let start = Instant::now();
                process.restore(standing_on(at, checkpoint, rung));
                process.set_budget(t);
                let stop = process.run();
                if stop != Stop::Budget || process.icount() != t {
                    return Err(format!(
                        "golden walk to icount {t} stopped at icount {}: {stop}",
                        process.icount()
                    ));
                }
                // Rungs carry the session budget, so replays restore it.
                process.set_budget(self.budget);
                match rung {
                    Some(r) => process.snapshot_into(r),
                    None => *rung = Some(Box::new(process.snapshot())),
                }
                at = t;
                meta.rungs += 1;
                meta.rung_micros += micros_since(start);
            }
            let from = standing_on(at, checkpoint, rung);
            let (run, run_meta) = replay(process, from, self.text_base, golden, errs[i]);
            each(i, run, run_meta);
        }
        meta.restores = process.restore_count() - restores_before;
        Ok(meta)
    }

    /// Reject an offset outside the text segment.
    fn check(&self, err: LatentError) -> Result<(), String> {
        if err.offset >= self.text_len {
            return Err(format!(
                "latent-error offset {} out of range for text segment of {} bytes",
                err.offset, self.text_len
            ));
        }
        Ok(())
    }
}

/// The checkpoint a batch's walk stands on at icount `at`: the icount-0
/// checkpoint, or the rung the walk captured there.
fn standing_on<'s>(
    at: u64,
    checkpoint: &'s ProcessSnapshot,
    rung: &'s Option<Box<ProcessSnapshot>>,
) -> &'s ProcessSnapshot {
    match rung {
        Some(r) if at > 0 => r,
        _ => checkpoint,
    }
}

/// Run the golden session once with coverage on, in a process of its
/// own (freed before the runner boots its own), and derive every text
/// byte's rung. Returns the rungs and the session the pass ran. When
/// the pass fails the guard — it differs from `golden`, ends other than
/// by exit or deadlock, writes an executable byte or reads one as data
/// — every rung is icount 0.
fn first_fetch_pass(
    image: &Image,
    client: &ClientSpec,
    golden: &GoldenRun,
    engine: EngineOpts,
    budget: u64,
) -> Result<(Vec<u64>, GoldenRun), fisec_os::LoadError> {
    // Allocated before the pass's process, below everything it frees.
    let mut rungs = vec![NEVER; image.text.len()];
    let mut p = Process::load(image, client.make())?;
    engine.configure(&mut p);
    p.set_budget(budget);
    p.machine.enable_coverage();
    let exec_gen = p.machine.mem.exec_gen();
    let exec_reads = p.machine.mem.exec_data_reads();
    let stop = p.run();
    let pass = GoldenRun {
        stop,
        client: p.client_status(),
        trace: p.trace(),
        icount: p.icount(),
    };
    let sound = pass == *golden
        && matches!(pass.stop, Stop::Exited(_) | Stop::Deadlock)
        && p.machine.mem.exec_gen() == exec_gen
        && p.machine.mem.exec_data_reads() == exec_reads;
    if sound {
        derive_rungs(&mut rungs, image, &p.machine);
    } else {
        rungs.fill(0);
    }
    Ok((rungs, pass))
}

/// Give each text byte golden fetches (entries of `rungs` start at
/// [`NEVER`]) the icount of its first fetch, from the first-retire
/// icounts `machine` recorded.
///
/// An instruction fetches exactly the bytes its decode consumes (the
/// decoder reads nothing past them), so a byte's first fetch is the
/// icount just before the first retirement of an instruction covering
/// it: the minimum of first retirement − 1 over those instructions.
fn derive_rungs(rungs: &mut [u64], image: &Image, machine: &Machine) {
    let text = &image.text;
    for off in 0..text.len() {
        let Some(retired) = machine.first_retire(image.text_base.wrapping_add(off as u32)) else {
            continue;
        };
        let len = usize::from(fisec_x86::decode(&text[off..(off + 15).min(text.len())]).len);
        for t in &mut rungs[off..(off + len).min(text.len())] {
            *t = (*t).min(retired - 1);
        }
    }
}

/// Restore `from`, plant `err`, run to a stop and classify against
/// `golden`: the one replay primitive behind both snapshot-mode paths.
/// `run_micros` times the run after the restore and the poke.
fn replay(
    process: &mut Process,
    from: &ProcessSnapshot,
    text_base: u32,
    golden: &GoldenRun,
    err: LatentError,
) -> (InjectionRun, RunMeta) {
    process.restore(from);
    let addr = text_base.wrapping_add(err.offset as u32);
    process
        .machine
        .mem
        .poke8(addr, err.corrupted)
        .expect("text byte is mapped: offset was bounds-checked");
    let start = Instant::now();
    let stop = process.run();
    let run_micros = micros_since(start);
    classify_latent(
        golden,
        stop,
        process.client_status(),
        process.trace(),
        process.icount(),
        run_micros,
    )
}

/// A draw on a never-fetched byte: the pristine session, classified,
/// with no run time.
fn unfetched(golden: &GoldenRun, pass: &GoldenRun) -> (InjectionRun, RunMeta) {
    classify_latent(
        golden,
        pass.stop.clone(),
        pass.client,
        pass.trace.clone(),
        pass.icount,
        0,
    )
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
        assert_eq!(snap.boots_per_run(), 0);
        assert_eq!(fresh.boots_per_run(), 1);
        assert_eq!(snap.construction_boots(), 2);
        assert_eq!(fresh.construction_boots(), 0);
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
        let runner = LatentRunner::snapshot(&image, spec, &golden, EngineOpts::default()).unwrap();
        let rungs: Vec<_> = (0..code.len()).map(|o| runner.rung(o)).collect();
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
