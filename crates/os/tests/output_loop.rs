//! Fast-forwarding output loops: a guest that writes the same line
//! forever skips whole periods of the loop — syscalls and transfers
//! included — only when its client says it stands where it stood one
//! period earlier, and it ends exactly where the per-step reference ends.
//! The profiler and the taint tracer report a skipped loop as they
//! report the full one.

use fisec_net::{ClientDriver, ClientStatus};
use fisec_os::{Process, Stop, OUTPUT_LOOP_WATCH_FROM};
use fisec_x86::Memory;

/// A server stuck writing one line; each period is one `write`.
fn image() -> &'static fisec_asm::Image {
    static IMG: std::sync::OnceLock<fisec_asm::Image> = std::sync::OnceLock::new();
    IMG.get_or_init(|| {
        fisec_cc::build_image(&[r#"
            int main() {
                while (1) { write_str(1, "500 try again\r\n"); }
                return 0;
            }
        "#])
        .expect("build")
    })
}

/// Reaches a fixed point on the first line it receives.
#[derive(Clone, PartialEq)]
struct Settles {
    heard: bool,
}

impl ClientDriver for Settles {
    fn on_server_data(&mut self, _data: &[u8], _out: &mut dyn FnMut(Vec<u8>)) {
        self.heard = true;
    }

    fn status(&self) -> ClientStatus {
        ClientStatus::InProgress
    }

    fn same_state(&self, earlier: &dyn ClientDriver) -> bool {
        earlier.as_any().downcast_ref::<Settles>() == Some(self)
    }
}

/// Counts the lines it receives: its state never repeats.
#[derive(Clone, PartialEq)]
struct Counts {
    lines: u64,
}

impl ClientDriver for Counts {
    fn on_server_data(&mut self, data: &[u8], _out: &mut dyn FnMut(Vec<u8>)) {
        self.lines += data.iter().filter(|&&b| b == b'\n').count() as u64;
    }

    fn status(&self) -> ClientStatus {
        ClientStatus::InProgress
    }

    fn same_state(&self, earlier: &dyn ClientDriver) -> bool {
        earlier.as_any().downcast_ref::<Counts>() == Some(self)
    }
}

/// Keeps the trait's default: not comparable.
#[derive(Clone)]
struct Opaque;

impl ClientDriver for Opaque {
    fn on_server_data(&mut self, _data: &[u8], _out: &mut dyn FnMut(Vec<u8>)) {}

    fn status(&self) -> ClientStatus {
        ClientStatus::InProgress
    }
}

const BUDGET: u64 = 400_000;

fn bytes(mem: &Memory) -> Vec<Vec<u8>> {
    mem.regions().map(|r| r.bytes().to_vec()).collect()
}

/// Run the looping server against `client` on the block engine and on
/// the per-step reference, assert they end alike — stop, icount,
/// syscalls, trace, client verdict, registers and memory — and return
/// the instructions the block engine skipped.
fn skipped_against(client: impl ClientDriver + Clone + 'static) -> u64 {
    let run = |block_engine: bool| {
        let mut p = Process::load(image(), Box::new(client.clone())).unwrap();
        p.machine.set_block_engine(block_engine);
        p.set_budget(BUDGET);
        let stop = p.run();
        (stop, p)
    };
    let (stop, blk) = run(true);
    let (ref_stop, stp) = run(false);
    assert_eq!(stop, Stop::Budget);
    assert_eq!(stop, ref_stop);
    assert_eq!(blk.icount(), BUDGET);
    assert_eq!(blk.icount(), stp.icount());
    assert_eq!(blk.syscalls(), stp.syscalls());
    assert_eq!(blk.trace(), stp.trace());
    assert_eq!(blk.client_status(), stp.client_status());
    assert_eq!(blk.machine.cpu, stp.machine.cpu);
    assert_eq!(bytes(&blk.machine.mem), bytes(&stp.machine.mem));
    assert_eq!(stp.machine.fast_forwarded_insts(), 0);
    blk.machine.fast_forwarded_insts()
}

#[test]
fn a_client_at_a_fixed_point_is_fast_forwarded_to_the_budget() {
    let skipped = skipped_against(Settles { heard: false });
    assert!(
        skipped > BUDGET - OUTPUT_LOOP_WATCH_FROM - 10_000,
        "skipped only {skipped}"
    );
}

#[test]
fn a_client_that_counts_lines_is_never_fast_forwarded() {
    assert_eq!(skipped_against(Counts { lines: 0 }), 0);
}

#[test]
fn a_client_with_the_default_comparison_is_never_fast_forwarded() {
    assert_eq!(skipped_against(Opaque), 0);
}

#[test]
fn a_breakpoint_suppresses_the_output_loop_rule() {
    let mut p = Process::load(image(), Box::new(Settles { heard: false })).unwrap();
    p.set_budget(BUDGET);
    // Armed where execution never goes: one past the text.
    let img = image();
    p.machine
        .add_breakpoint(img.text_base + img.text.len() as u32);
    assert_eq!(p.run(), Stop::Budget);
    assert_eq!(p.icount(), BUDGET);
    assert_eq!(p.machine.fast_forwarded_insts(), 0);
}

#[test]
fn the_profiler_and_the_taint_tracer_report_a_skipped_loop_in_full() {
    // Seeded at the loop's `call write_str`: the pushed return address
    // is tainted every period, and the `ret` through it logs a branch.
    let img = image();
    let main = img.func("main").expect("main");
    let seed = img
        .decode_func(main)
        .into_iter()
        .find(|(_, i)| i.op == fisec_x86::Op::Call)
        .expect("a call in the loop")
        .0;
    let run = |block_engine: bool, coverage: bool| {
        let mut p = Process::load(img, Box::new(Settles { heard: false })).unwrap();
        p.machine.set_block_engine(block_engine);
        p.set_budget(BUDGET);
        p.machine.enable_profiler();
        p.machine.enable_taint(Some(seed), 1 << 20);
        if coverage {
            // Keeps every period running.
            p.machine.enable_coverage();
        }
        assert_eq!(p.run(), Stop::Budget);
        p
    };
    let mut skipped = run(true, false);
    let mut full = run(true, true);
    let mut stepwise = run(false, false);
    assert!(skipped.machine.fast_forwarded_insts() > BUDGET / 2);
    assert_eq!(full.machine.fast_forwarded_insts(), 0);
    assert_eq!(skipped.trace(), stepwise.trace());
    let log = skipped.machine.take_propagation_log().unwrap();
    assert!(log.first_branch.is_some() && log.dropped > 0);
    assert_eq!(log, stepwise.machine.take_propagation_log().unwrap());
    let a = skipped.machine.take_exec_profile().unwrap();
    let b = full.machine.take_exec_profile().unwrap();
    assert_eq!(a.blocks, b.blocks);
    assert_eq!(a.cache, b.cache);
    assert_eq!(a.stepwise_retired, b.stepwise_retired);
}
