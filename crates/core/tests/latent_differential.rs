//! The snapshot latent-error runner against its from-scratch oracle,
//! draw for draw.
//!
//! The snapshot runner serves a draw on a byte the golden session never
//! fetches without executing, and replays every other draw only from
//! its byte's rung, at or before golden's first fetch of the byte. Both
//! shortcuts must be invisible: for a byte
//! stride over the whole text of ftpd and sshd (Client1), every bit,
//! both encoding schemes, [`LatentRunner::run`] and
//! [`LatentRunner::run_batch`] (batches of 1, 7 and everything) return
//! exactly what [`LatentRunner::from_scratch`] returns — the classified
//! run field for field and the session's icount.
//!
//! The guard tests build images on which the rung derivation does not
//! hold or is not trusted — a golden session that loads a byte of its
//! own text, one that ends on its budget, and one that crashes — and
//! check that the runner falls back to full sessions there and still
//! matches the oracle.
//!
//! The group tests build images on which a §4 flip replayed from its
//! byte's rung would differ from the breakpoint procedure — golden reads
//! a byte of a later instruction as data, or first executes an
//! instruction overlapping a later target's bytes — or on which a
//! fetched byte starts an instruction golden never executes, which must
//! come back NA. Together with a golden session that ends on its budget
//! and one that crashes, each checks [`LatentRunner::run_group`], one
//! runner serving every group, and the one-shot
//! [`run_injection_group_recorded`] against the breakpoint oracle
//! [`run_injection_recorded`] for every byte×bit of an instruction
//! decoded at every text offset.
//!
//! The masking tests build images on which a replay that re-joins golden
//! one instruction after the flip still differs later, unless one guard
//! of the masked-replay rule catches it: a branch golden runs again on a
//! later loop iteration (golden's last fetch of the byte), golden reading
//! the flipped branch as data (§7's guard), and flips into same-length
//! instructions that write a stack slot or a register golden's step
//! leaves alone (the page and register comparison).

use fisec_apps::{AppSpec, ClientSpec};
use fisec_asm::{Assembler, Image};
use fisec_core::random::{corrupt_byte, opcode_contexts};
use fisec_encoding::EncodingScheme;
use fisec_inject::{
    golden_run, run_injection_group_recorded, run_injection_recorded, EngineOpts, ErrorLocation,
    FirstFetchPass, GoldenRun, InjectionRun, InjectionTarget, LatentError, LatentRunner,
};
use fisec_os::{Process, Stop};

/// Byte stride over the text. Odd and coprime with every instruction
/// length, so the sampled bytes land at every position within
/// instructions.
const STRIDE: usize = 17;

/// What the oracle pins per draw: the classified run and the icount.
type Outcome = (InjectionRun, u64);

/// Every bit of every `STRIDE`-th text byte under `scheme`, shuffled so
/// batches mix early, late and never-fetched bytes.
fn draws(image: &Image, scheme: EncodingScheme, stride: usize) -> Vec<LatentError> {
    let contexts = opcode_contexts(image);
    let mut errs: Vec<LatentError> = (0..image.text.len())
        .step_by(stride)
        .flat_map(|offset| {
            let contexts = &contexts;
            (0..8u8).map(move |bit| LatentError {
                offset,
                corrupted: corrupt_byte(image, contexts, offset, bit, scheme),
            })
        })
        .collect();
    errs.sort_by_key(|e| (e.offset as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    errs
}

fn assert_same(what: &str, errs: &[LatentError], want: &[Outcome], got: &[Outcome]) {
    assert_eq!(want.len(), got.len(), "{what}: result count");
    for ((err, w), g) in errs.iter().zip(want).zip(got) {
        assert_eq!(w, g, "{what}: {err:?}");
    }
}

/// `run` and `run_batch` in every batch size against the oracle;
/// returns the runner's rung per text byte.
fn assert_matches_oracle(
    what: &str,
    image: &Image,
    spec: &ClientSpec,
    golden: &GoldenRun,
    errs: &[LatentError],
) -> Vec<Option<u64>> {
    let engine = EngineOpts::default();
    let mut oracle = LatentRunner::from_scratch(image, spec, golden, engine);
    let want: Vec<Outcome> = errs
        .iter()
        .map(|&e| {
            let (run, meta) = oracle.run(golden, e).unwrap();
            (run, meta.icount)
        })
        .collect();
    let pass = FirstFetchPass::run(image, spec, golden, engine).unwrap();
    let rungs: Vec<Option<u64>> = (0..image.text.len()).map(|o| pass.rung(o)).collect();
    let mut runner = LatentRunner::with_pass(image, spec, &pass);
    let single: Vec<Outcome> = errs
        .iter()
        .map(|&e| {
            let (run, meta) = runner.run(golden, e).unwrap();
            if rungs[e.offset].is_none() {
                assert_eq!(meta.run_micros, 0, "{what}: {e:?} never fetched, never run");
            }
            (run, meta.icount)
        })
        .collect();
    assert_same(&format!("{what} run"), errs, &want, &single);
    for size in [1, 7, errs.len()] {
        let mut got = Vec::with_capacity(errs.len());
        for chunk in errs.chunks(size) {
            let mut runs: Vec<Option<Outcome>> = vec![None; chunk.len()];
            let meta = runner
                .run_batch(golden, chunk, |i, run, meta| {
                    assert!(
                        runs[i].is_none(),
                        "{what} batch {size}: draw {i} served twice"
                    );
                    runs[i] = Some((run, meta.icount));
                })
                .unwrap();
            let unfetched = chunk.iter().filter(|e| rungs[e.offset].is_none()).count() as u64;
            assert_eq!(meta.unfetched, unfetched, "{what} batch {size}");
            // One restore per replayed draw and one per walk step.
            assert_eq!(
                meta.restores,
                chunk.len() as u64 - unfetched + meta.rungs,
                "{what} batch {size}"
            );
            got.extend(runs.into_iter().map(|r| r.expect("every draw is served")));
        }
        assert_same(&format!("{what} batch {size}"), errs, &want, &got);
    }
    rungs
}

fn assert_server_matches_oracle(app: &AppSpec) {
    let spec = &app.clients[0];
    let golden = golden_run(&app.image, spec).unwrap();
    for scheme in [EncodingScheme::Baseline, EncodingScheme::NewEncoding] {
        let errs = draws(&app.image, scheme, STRIDE);
        let what = format!("{} {} {scheme:?}", app.name, spec.name);
        let rungs = assert_matches_oracle(&what, &app.image, spec, &golden, &errs);
        // The shortcut is live on the bundled servers: some bytes are
        // never fetched, others first fetched well into the session.
        assert!(rungs.iter().any(Option::is_none), "{what}");
        assert!(rungs.iter().any(|&t| t > Some(golden.icount / 2)), "{what}");
        assert!(rungs.iter().all(|&t| t < Some(golden.icount)), "{what}");
    }
}

#[test]
fn ftpd_latent_runner_matches_from_scratch() {
    assert_server_matches_oracle(&AppSpec::ftpd());
}

#[test]
fn sshd_latent_runner_matches_from_scratch() {
    assert_server_matches_oracle(&AppSpec::sshd());
}

const TEXT_BASE: u32 = 0x0804_8000;

/// An image whose `_start` is the raw machine code `code`.
fn raw_image(code: &[u8]) -> Image {
    let mut a = Assembler::new();
    // An empty function marks the entry; the code follows it directly.
    a.begin_func("_start");
    a.end_func();
    a.raw_bytes(code.to_vec());
    a.assemble(TEXT_BASE, 0x0810_0000).expect("assembles")
}

/// Every bit of every text byte.
fn every_flip(image: &Image) -> Vec<LatentError> {
    draws(image, EncodingScheme::Baseline, 1)
}

#[test]
fn golden_reading_its_own_text_takes_full_sessions() {
    // movzx eax, byte [TEXT_BASE + 16]; mov ebx, eax; mov eax, 1;
    // int 0x80 (exit); then the byte at offset 16, read as data and
    // never executed.
    let mut code = vec![0x0F, 0xB6, 0x05];
    code.extend((TEXT_BASE + 16).to_le_bytes());
    code.extend([0x89, 0xC3, 0xB8, 0x01, 0x00, 0x00, 0x00, 0xCD, 0x80, 42]);
    assert_eq!(code.len(), 17);
    let image = raw_image(&code);
    let app = AppSpec::ftpd();
    let spec = &app.clients[0];
    let golden = golden_run(&image, spec).unwrap();
    assert_eq!(golden.stop, Stop::Exited(42));
    let errs = every_flip(&image);
    let rungs = assert_matches_oracle("self-reading image", &image, spec, &golden, &errs);
    assert!(rungs.iter().all(|&t| t == Some(0)));
    // The guard is what keeps this exact: golden never fetches the data
    // byte, yet flipping it changes the exit code.
    let mut oracle = LatentRunner::from_scratch(&image, spec, &golden, EngineOpts::default());
    let flip = LatentError {
        offset: 16,
        corrupted: 42 ^ 1,
    };
    assert_eq!(oracle.run(&golden, flip).unwrap().0.stop, Stop::Exited(43));
}

#[test]
fn golden_ending_on_its_budget_takes_full_sessions() {
    // loop: inc eax; jmp loop
    let image = raw_image(&[0x40, 0xEB, 0xFD]);
    let app = AppSpec::ftpd();
    let spec = &app.clients[0];
    let mut p = Process::load(&image, spec.make()).unwrap();
    p.set_budget(50_000);
    let golden = GoldenRun {
        stop: p.run(),
        client: p.client_status(),
        trace: p.trace(),
        icount: p.icount(),
    };
    assert_eq!(golden.stop, Stop::Budget);
    let errs = every_flip(&image);
    let rungs = assert_matches_oracle("budget-bound image", &image, spec, &golden, &errs);
    assert!(rungs.iter().all(|&t| t == Some(0)));
}

#[test]
fn crashing_golden_takes_full_sessions() {
    // mov eax, [0] (SIGSEGV); then an exit the session never reaches.
    let image = raw_image(&[0xA1, 0, 0, 0, 0, 0xB8, 1, 0, 0, 0, 0xCD, 0x80]);
    let app = AppSpec::ftpd();
    let spec = &app.clients[0];
    let golden = golden_run(&image, spec).unwrap();
    assert!(golden.stop.is_crash(), "{:?}", golden.stop);
    let errs = every_flip(&image);
    let rungs = assert_matches_oracle("crashing image", &image, spec, &golden, &errs);
    assert!(rungs.iter().all(|&t| t == Some(0)));
}

/// One group per text offset: every byte×bit of the instruction decoded
/// there, whether or not golden ever executes it.
fn every_group(image: &Image) -> Vec<Vec<InjectionTarget>> {
    let text = &image.text;
    (0..text.len())
        .map(|off| {
            let inst = fisec_x86::decode(&text[off..(off + 15).min(text.len())]);
            let len = inst.len.clamp(1, (text.len() - off) as u8);
            (0..len)
                .flat_map(|byte_index| {
                    let inst = &inst;
                    (0..8u8).map(move |bit| InjectionTarget {
                        addr: TEXT_BASE + off as u32,
                        inst_len: len,
                        byte_index,
                        bit,
                        first_byte: text[off],
                        location: ErrorLocation::classify(inst, byte_index),
                        is_cond_branch: inst.is_cond_branch(),
                    })
                })
                .collect()
        })
        .collect()
}

/// Every group of `image`, under both schemes, through the one-shot call
/// and through one reused runner (in address order, then backwards,
/// which restarts its walk at every group) against one oracle run per
/// target. Returns the first-fetch pass.
fn assert_groups_match_oracle(what: &str, image: &Image, golden: &GoldenRun) -> FirstFetchPass {
    let app = AppSpec::ftpd();
    let spec = &app.clients[0];
    let engine = EngineOpts::default();
    let groups = every_group(image);
    let pass = FirstFetchPass::run(image, spec, golden, engine).unwrap();
    for scheme in [EncodingScheme::Baseline, EncodingScheme::NewEncoding] {
        let oracle: Vec<Vec<InjectionRun>> = groups
            .iter()
            .map(|group| {
                group
                    .iter()
                    .map(|t| {
                        let (runs, ..) =
                            run_injection_recorded(image, spec, golden, t, scheme, engine).unwrap();
                        runs[0].0.clone()
                    })
                    .collect()
            })
            .collect();
        let runs = |outcome: fisec_inject::GroupOutcome| -> Vec<InjectionRun> {
            outcome.0.into_iter().map(|(run, ..)| run).collect()
        };
        let mut runner = LatentRunner::with_pass(image, spec, &pass);
        let order = (0..groups.len()).chain((0..groups.len()).rev());
        for (i, gi) in order.enumerate() {
            let group = &groups[gi];
            let at = format!("{what} {scheme:?} group at offset {gi}");
            if i < groups.len() {
                let one_shot =
                    run_injection_group_recorded(image, spec, golden, group, scheme, engine)
                        .unwrap();
                assert_eq!(runs(one_shot), oracle[gi], "{at}: one-shot");
            }
            let reused = runner.run_group(golden, group, scheme).unwrap();
            assert_eq!(runs(reused), oracle[gi], "{at}: reused runner");
        }
    }
    pass
}

#[test]
fn groups_match_the_oracle_when_golden_reads_a_later_instruction() {
    // movzx eax, byte [TEXT_BASE + 10]; mov ecx, eax; mov ebx, 5 (its
    // immediate is the byte just read); add ebx, ecx; mov eax, 1;
    // int 0x80 (exit 10).
    let mut code = vec![0x0F, 0xB6, 0x05];
    code.extend((TEXT_BASE + 10).to_le_bytes());
    code.extend([0x89, 0xC1, 0xBB, 5, 0, 0, 0, 0x01, 0xCB]);
    code.extend([0xB8, 1, 0, 0, 0, 0xCD, 0x80]);
    let image = raw_image(&code);
    let spec = &AppSpec::ftpd().clients[0];
    let golden = golden_run(&image, spec).unwrap();
    assert_eq!(golden.stop, Stop::Exited(10));
    let pass = assert_groups_match_oracle("data-reading image", &image, &golden);
    // The read collapses the §7 rungs to icount 0, below the mov's
    // activation: a flip planted there would reach the read too.
    assert!(pass.qualifies());
    assert_eq!(pass.rung(10), Some(0));
    assert_eq!(pass.activation(TEXT_BASE + 9), Some(2));
}

#[test]
fn groups_match_the_oracle_when_golden_first_runs_an_overlapping_instruction() {
    // xor ebx, ebx; xor ecx, ecx; jmp into the immediate of the mov at
    // offset 6, which decodes as inc ebx; nop; nop; nop; then inc ecx;
    // cmp ecx, 2; jne back to the mov itself (taken once); mov eax, 1;
    // int 0x80 (exit 1).
    let code = [
        0x31, 0xDB, 0x31, 0xC9, 0xEB, 0x01, 0xB8, 0x43, 0x90, 0x90, 0x90, 0x41, 0x83, 0xF9, 0x02,
        0x75, 0xF5, 0xB8, 1, 0, 0, 0, 0xCD, 0x80,
    ];
    let image = raw_image(&code);
    let spec = &AppSpec::ftpd().clients[0];
    let golden = golden_run(&image, spec).unwrap();
    assert_eq!(golden.stop, Stop::Exited(1));
    let pass = assert_groups_match_oracle("overlapping image", &image, &golden);
    // The mov's immediate is first fetched as the inc ebx, well before
    // the mov first executes.
    let activation = pass.activation(TEXT_BASE + 6).unwrap();
    assert_eq!(pass.rung(7), pass.activation(TEXT_BASE + 7));
    assert!(pass.rung(7).unwrap() < activation, "{activation}");
}

#[test]
fn group_at_an_unexecuted_start_inside_an_executed_instruction_is_na() {
    // nop; mov eax, 1; mov ebx, 0; int 0x80 (exit 0). The bytes inside
    // the movs are fetched, yet no instruction starts there for golden.
    let code = [0x90, 0xB8, 1, 0, 0, 0, 0xBB, 0, 0, 0, 0, 0xCD, 0x80];
    let image = raw_image(&code);
    let spec = &AppSpec::ftpd().clients[0];
    let golden = golden_run(&image, spec).unwrap();
    assert_eq!(golden.stop, Stop::Exited(0));
    let pass = assert_groups_match_oracle("unexecuted-start image", &image, &golden);
    for off in [2usize, 3, 4, 5, 7, 8, 9, 10, 12] {
        assert!(pass.rung(off).is_some(), "offset {off} is fetched");
        assert_eq!(
            pass.activation(TEXT_BASE + off as u32),
            None,
            "offset {off}"
        );
    }
    let mut runner = LatentRunner::with_pass(&image, spec, &pass);
    for off in [2usize, 7] {
        let group = &every_group(&image)[off];
        let (runs, meta, ..) = runner
            .run_group(&golden, group, EncodingScheme::Baseline)
            .unwrap();
        assert!(!meta.activated, "offset {off}");
        assert!(runs.iter().all(|(run, ..)| !run.activated), "offset {off}");
    }
}

#[test]
fn groups_match_the_oracle_when_golden_ends_on_its_budget() {
    // loop: inc eax; jmp loop
    let image = raw_image(&[0x40, 0xEB, 0xFD]);
    let spec = &AppSpec::ftpd().clients[0];
    let mut p = Process::load(&image, spec.make()).unwrap();
    p.set_budget(50_000);
    let golden = GoldenRun {
        stop: p.run(),
        client: p.client_status(),
        trace: p.trace(),
        icount: p.icount(),
    };
    assert_eq!(golden.stop, Stop::Budget);
    let pass = assert_groups_match_oracle("budget-bound image", &image, &golden);
    assert!(!pass.qualifies());
}

#[test]
fn groups_match_the_oracle_when_golden_crashes() {
    // mov eax, [0] (SIGSEGV); then an exit the session never reaches.
    let image = raw_image(&[0xA1, 0, 0, 0, 0, 0xB8, 1, 0, 0, 0, 0xCD, 0x80]);
    let spec = &AppSpec::ftpd().clients[0];
    let golden = golden_run(&image, spec).unwrap();
    assert!(golden.stop.is_crash(), "{:?}", golden.stop);
    let pass = assert_groups_match_oracle("crashing image", &image, &golden);
    assert!(!pass.qualifies());
}

/// Replays masked by one runner serving every group of `image` under the
/// baseline scheme.
fn masked_replays(image: &Image, golden: &GoldenRun, pass: &FirstFetchPass) -> u64 {
    let spec = &AppSpec::ftpd().clients[0];
    let mut runner = LatentRunner::with_pass(image, spec, pass);
    every_group(image)
        .iter()
        .map(|group| {
            let (_, meta, ..) = runner
                .run_group(golden, group, EncodingScheme::Baseline)
                .unwrap();
            meta.masked
        })
        .sum()
}

#[test]
fn groups_match_the_oracle_when_a_masked_looking_branch_runs_again() {
    // xor ebx, ebx; xor ecx, ecx; loop: inc ecx; cmp ecx, 2; je +2
    // (falls through on the first iteration, taken on the second); jmp
    // loop; inc ebx; inc ebx; inc ebx; mov eax, 1; int 0x80 (exit 3).
    // An offset flip leaves the first iteration as golden's, and moves
    // the second one's landing in the inc sled.
    let code = [
        0x31, 0xDB, 0x31, 0xC9, 0x41, 0x83, 0xF9, 0x02, 0x74, 0x02, 0xEB, 0xF8, 0x43, 0x43, 0x43,
        0xB8, 1, 0, 0, 0, 0xCD, 0x80,
    ];
    let image = raw_image(&code);
    let spec = &AppSpec::ftpd().clients[0];
    let golden = golden_run(&image, spec).unwrap();
    assert_eq!(golden.stop, Stop::Exited(3));
    let pass = assert_groups_match_oracle("loop image", &image, &golden);
    let activation = pass.activation(TEXT_BASE + 8).unwrap();
    assert!(pass.last_fetch(9).unwrap() > activation, "{activation}");
    assert!(masked_replays(&image, &golden, &pass) > 0);
}

#[test]
fn groups_match_the_oracle_when_golden_reads_a_branch_after_it_ran() {
    // xor eax, eax; jne +0 (never taken, whatever its offset); movzx
    // ebx, byte [TEXT_BASE + 3] (the jne's offset, read as data); mov
    // eax, 1; int 0x80 (exit 0). An offset flip leaves the step as
    // golden's and changes the exit code.
    let mut code = vec![0x31, 0xC0, 0x75, 0x00, 0x0F, 0xB6, 0x1D];
    code.extend((TEXT_BASE + 3).to_le_bytes());
    code.extend([0xB8, 1, 0, 0, 0, 0xCD, 0x80]);
    let image = raw_image(&code);
    let spec = &AppSpec::ftpd().clients[0];
    let golden = golden_run(&image, spec).unwrap();
    assert_eq!(golden.stop, Stop::Exited(0));
    let pass = assert_groups_match_oracle("branch-reading image", &image, &golden);
    assert!(pass.qualifies());
    assert_eq!(pass.last_fetch(3), None, "§7's guard fails");
    assert_eq!(masked_replays(&image, &golden, &pass), 0);
}

#[test]
fn groups_match_the_oracle_when_a_flip_writes_what_golden_leaves_alone() {
    // mov eax, 7; mov ebx, 9; push 5; cmp [esp], eax; cmp ebx, eax;
    // pop edx; add ebx, edx; mov eax, 1; int 0x80 (exit 14). Bit 4 of
    // either cmp's opcode makes it a sub with the same flags and length:
    // one writes the stack slot, the other ebx.
    let code = [
        0xB8, 7, 0, 0, 0, 0xBB, 9, 0, 0, 0, 0x6A, 5, 0x39, 0x04, 0x24, 0x39, 0xC3, 0x5A, 0x01,
        0xD3, 0xB8, 1, 0, 0, 0, 0xCD, 0x80,
    ];
    let image = raw_image(&code);
    let spec = &AppSpec::ftpd().clients[0];
    let golden = golden_run(&image, spec).unwrap();
    assert_eq!(golden.stop, Stop::Exited(14));
    let pass = assert_groups_match_oracle("same-length image", &image, &golden);
    let oracle = |off: usize| {
        let group = &every_group(&image)[off];
        let flip = group
            .iter()
            .find(|t| t.byte_index == 0 && t.bit == 4)
            .unwrap();
        let (runs, ..) = run_injection_recorded(
            &image,
            spec,
            &golden,
            flip,
            EncodingScheme::Baseline,
            EngineOpts::default(),
        )
        .unwrap();
        runs[0].0.stop.clone()
    };
    // sub [esp], eax leaves edx at 5 - 7; sub ebx, eax leaves ebx at 2.
    assert_eq!(oracle(12), Stop::Exited(7));
    assert_eq!(oracle(15), Stop::Exited(7));
    assert!(masked_replays(&image, &golden, &pass) > 0);
}
