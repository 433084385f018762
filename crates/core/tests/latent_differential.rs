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

use fisec_apps::{AppSpec, ClientSpec};
use fisec_asm::{Assembler, Image};
use fisec_core::random::{corrupt_byte, opcode_contexts};
use fisec_encoding::EncodingScheme;
use fisec_inject::{golden_run, EngineOpts, GoldenRun, InjectionRun, LatentError, LatentRunner};
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
    let mut runner = LatentRunner::snapshot(image, spec, golden, engine).unwrap();
    let rungs: Vec<Option<u64>> = (0..image.text.len()).map(|o| runner.rung(o)).collect();
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
