//! Property tests for checkpoint/restore: after `snapshot()`, any
//! sequence of further steps and memory pokes followed by `restore()`
//! leaves the machine (and the whole process) observably identical to
//! one that never deviated — same registers, flags, memory, icount and
//! subsequent execution.

use fisec_net::{ClientDriver, ClientStatus};
use fisec_os::{Process, Stop};
use proptest::prelude::*;

/// Scripted client: feeds each input line on demand, records replies.
#[derive(Clone)]
struct ScriptClient {
    inputs: Vec<Vec<u8>>,
    next: usize,
}

impl ClientDriver for ScriptClient {
    fn on_server_data(&mut self, _data: &[u8], _out: &mut dyn FnMut(Vec<u8>)) {}

    fn on_server_read_idle(&mut self, out: &mut dyn FnMut(Vec<u8>)) {
        if self.next < self.inputs.len() {
            out(self.inputs[self.next].clone());
            self.next += 1;
        }
    }

    fn status(&self) -> ClientStatus {
        ClientStatus::InProgress
    }
}

/// An echo server with enough control flow that arbitrary step counts
/// land in interesting places (loop, syscalls, arithmetic).
fn image() -> &'static fisec_asm::Image {
    static IMG: std::sync::OnceLock<fisec_asm::Image> = std::sync::OnceLock::new();
    IMG.get_or_init(|| {
        fisec_cc::build_image(&[r#"
            int main() {
                char buf[64];
                int n;
                int total;
                total = 0;
                write_str(1, "220 ready\r\n");
                n = read(0, buf, 63);
                while (n > 0) {
                    buf[n] = 0;
                    write(1, buf, n);
                    total = total + n;
                    n = read(0, buf, 63);
                }
                return total;
            }
        "#])
        .expect("test program builds")
    })
}

fn load(inputs: &[Vec<u8>], budget: u64) -> Process {
    let mut p = Process::load(
        image(),
        Box::new(ScriptClient {
            inputs: inputs.to_vec(),
            next: 0,
        }),
    )
    .expect("image loads");
    p.set_budget(budget);
    p
}

/// Observable machine state compared between the restored machine and
/// its never-deviated twin.
fn machine_state(
    m: &fisec_x86::Machine,
    probe_addrs: &[u32],
) -> (fisec_x86::Cpu, u64, Vec<Option<u8>>) {
    let bytes = probe_addrs.iter().map(|a| m.mem.peek8(*a).ok()).collect();
    (m.cpu.clone(), m.icount, bytes)
}

fn lines_strategy() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(
        proptest::collection::vec(97u8..=122, 1..8).prop_map(|mut l| {
            l.push(b'\n');
            l
        }),
        0..4,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Machine level: snapshot → arbitrary steps and pokes → restore
    /// leaves every observable identical to a twin that never deviated,
    /// including the next stretch of execution.
    #[test]
    fn restore_rewinds_machine_exactly(
        lines in lines_strategy(),
        pre_steps in 0u64..600,
        deviation in proptest::collection::vec((0u8..3, 0u32..256, proptest::prelude::any::<u8>()), 0..12),
        post_steps in 1u64..200,
    ) {
        let mut p = load(&lines, 100_000);
        for _ in 0..pre_steps {
            let _ = p.machine.step();
        }
        let snap = p.machine.snapshot();
        let twin = p.machine.clone();

        // Deviate: extra steps and pokes into text and stack bytes.
        let img = image();
        for (kind, off, val) in &deviation {
            match kind {
                0 => {
                    for _ in 0..(*off % 64) {
                        let _ = p.machine.step();
                    }
                }
                1 => {
                    let addr = img.text_base + (*off % img.text.len() as u32);
                    let _ = p.machine.mem.poke8(addr, *val);
                }
                _ => {
                    let addr = fisec_os::STACK_TOP - 1 - (*off % 4096);
                    let _ = p.machine.mem.poke8(addr, *val);
                }
            }
        }
        p.machine.restore(&snap);

        // Probe text, stack and an unmapped hole.
        let probes: Vec<u32> = (0..32)
            .map(|i| img.text_base + i * 7)
            .chain((0..16).map(|i| fisec_os::STACK_TOP - 1 - i * 13))
            .chain([0x10u32])
            .collect();
        prop_assert_eq!(machine_state(&p.machine, &probes), machine_state(&twin, &probes));

        // Subsequent execution must be step-for-step identical.
        let mut twin = twin;
        for _ in 0..post_steps {
            let ea = p.machine.step();
            let eb = twin.step();
            prop_assert_eq!(ea, eb);
            prop_assert_eq!(&p.machine.cpu, &twin.cpu);
            prop_assert_eq!(p.machine.icount, twin.icount);
        }
    }

    /// Process level: a run after restore reproduces the original run
    /// exactly — stop reason, icount, client verdict and traffic.
    #[test]
    fn restored_process_reruns_identically(
        lines in lines_strategy(),
        budget in 1_000u64..40_000,
        pre_steps in 0u64..400,
    ) {
        let mut p = load(&lines, budget);
        for _ in 0..pre_steps {
            let _ = p.machine.step();
        }
        let snap = p.snapshot();

        let stop1 = p.run();
        let icount1 = p.icount();
        let client1 = p.client_status();
        let trace1 = p.trace();

        p.restore(&snap);
        let stop2 = p.run();
        prop_assert_eq!(stop1, stop2);
        prop_assert_eq!(icount1, p.icount());
        prop_assert_eq!(client1, p.client_status());
        prop_assert_eq!(trace1, p.trace());
    }
}

/// Injection-shaped group replay: restore to a boot snapshot, flip one
/// text byte, run — repeated across a whole group of errors. The
/// journal-based invalidation must retain the overwhelming majority of
/// the block cache across the group (the injector only ever touches one
/// byte per run), and every stop must match a step-engine reference.
#[test]
fn group_replay_retains_block_cache() {
    let img = image();
    let lines: Vec<Vec<u8>> = vec![b"hello\n".to_vec(), b"world\n".to_vec()];
    let text_len = img.text.len() as u32;
    let addr_of = |i: u32| img.text_base + (i * 37) % text_len;
    const RUNS: u32 = 40;

    let mut p = load(&lines, 100_000);
    let snap = p.snapshot();
    let _ = p.run(); // golden run primes the cache
    let primed = p.machine.block_stats();
    assert!(
        primed.cached > 10,
        "golden run populates the cache: {primed:?}"
    );

    let mut stops = Vec::new();
    let inv0 = p.machine.block_stats().invalidated;
    for i in 0..RUNS {
        p.restore(&snap);
        let orig = p.machine.mem.peek8(addr_of(i)).unwrap();
        p.machine.mem.poke8(addr_of(i), orig ^ 0x04).unwrap();
        stops.push(p.run());
    }
    let s = p.machine.block_stats();
    // Wholesale invalidation would drop the full cache every replay
    // (RUNS * cached blocks). Targeted invalidation drops only the
    // blocks covering the flipped byte, at the poke and at the
    // restore that reverts it — >95% of the cache survives each run.
    let dropped = s.invalidated - inv0;
    let wholesale = u64::from(RUNS) * primed.cached as u64;
    assert!(
        dropped * 20 <= wholesale,
        ">95% of the block cache must survive each replay: dropped {dropped} \
         of a wholesale {wholesale}: {s:?}"
    );
    assert!(s.hits > s.built, "replays are served from cache: {s:?}");

    // Step-engine reference: identical stops, run for run.
    let mut r = load(&lines, 100_000);
    r.machine.set_block_engine(false);
    let rsnap = r.snapshot();
    let _ = r.run();
    for i in 0..RUNS {
        r.restore(&rsnap);
        let orig = r.machine.mem.peek8(addr_of(i)).unwrap();
        r.machine.mem.poke8(addr_of(i), orig ^ 0x04).unwrap();
        assert_eq!(
            r.run(),
            stops[i as usize],
            "run {i} diverged from step engine"
        );
    }
}

/// Deterministic (non-property) check that restore clears decode state:
/// corrupt an executed instruction's bytes after the snapshot, run a
/// little (so the corrupted decode lands in the icache), restore, and
/// verify execution proceeds with the pristine decode.
#[test]
fn restore_discards_stale_decodes() {
    let img = image();
    let mut p = load(&[], 100_000);
    let snap = p.snapshot();
    let entry = img.func("_start").expect("entry").start;
    // Corrupt the first instruction into something else and execute it.
    let orig = p.machine.mem.peek8(entry).unwrap();
    p.machine.mem.poke8(entry, orig ^ 0x01).unwrap();
    let _ = p.machine.step();
    p.restore(&snap);
    assert_eq!(p.machine.mem.peek8(entry).unwrap(), orig);
    let stop = p.run();
    // The pristine program deadlocks waiting for a client (no inputs)
    // after its banner write — it must not fault.
    assert_eq!(stop, Stop::Deadlock);
}
