//! Fast-forwarding exact cycles in the block engine: a proven cycle
//! skips its whole periods and still stops on the exact budget, in the
//! exact state the per-step reference reaches; loops that are not exact
//! cycles, and runs that coverage, the EIP ring, the recorder or a
//! breakpoint observes, are never skipped; the profiler and the taint
//! tracer report a skipped run as they report the full one.

use fisec_x86::{ExecProfile, Machine, Memory, Perms, Reg32, Region, RunOutcome, CYCLE_WATCH_FROM};
use proptest::prelude::*;

const TEXT: u32 = 0x1000;
const STACK: u32 = 0x8000;
const ESP: u32 = 0x8800;

fn machine(text: &[u8]) -> Machine {
    let mut mem = Memory::new();
    mem.map(Region::with_data("text", TEXT, text.to_vec(), Perms::RX))
        .unwrap();
    mem.map(Region::zeroed("stack", STACK, 0x1000, Perms::RW))
        .unwrap();
    let mut m = Machine::new(mem);
    m.cpu.eip = TEXT;
    m.cpu.regs[Reg32::Esp as usize] = ESP;
    m
}

/// The writable bytes of `m`, region by region.
fn writable(m: &Machine) -> Vec<Vec<u8>> {
    m.mem
        .regions()
        .filter(|r| r.perms().write)
        .map(|r| r.bytes().to_vec())
        .collect()
}

/// Run `text` for `budget` instructions on the block engine (set up by
/// `observe`) and on the per-step reference, assert the two end in the
/// same outcome, icount, registers and writable memory, and return the
/// block machine.
fn run_both(text: &[u8], budget: u64, observe: impl Fn(&mut Machine)) -> Machine {
    let mut blk = machine(text);
    observe(&mut blk);
    let mut stp = machine(text);
    stp.set_block_engine(false);
    let a = blk.run_until_event(budget);
    let b = stp.run_until_event(budget);
    assert_eq!(a, b, "outcomes diverged");
    assert_eq!(blk.icount, stp.icount, "icount diverged");
    assert_eq!(blk.cpu, stp.cpu, "registers diverged");
    assert_eq!(writable(&blk), writable(&stp), "memory diverged");
    assert_eq!(stp.fast_forwarded_insts(), 0, "the reference never skips");
    blk
}

/// One body operation over EAX, EBX, EDX and the stack slots at ESP+0,
/// +4, +8 and +12.
fn emit_op(text: &mut Vec<u8>, op: u8, imm: u8) {
    let slot = (imm & 3) * 4;
    match op {
        0 => text.push(0x40),                       // inc eax
        1 => text.push(0x4A),                       // dec edx
        2 => text.extend([0x83, 0xC0, imm]),        // add eax, imm8
        3 => text.extend([0x83, 0xF3, imm]),        // xor ebx, imm8
        4 => text.extend([0x0F, 0xAF, 0xC3]),       // imul eax, ebx
        5 => text.extend([0x89, 0x44, 0x24, slot]), // mov [esp+s], eax
        6 => text.extend([0x8B, 0x5C, 0x24, slot]), // mov ebx, [esp+s]
        7 => text.extend([0x01, 0x44, 0x24, slot]), // add [esp+s], eax
        8 => text.push(0x99),                       // cdq
        _ => text.extend([0x50, 0x5A]),             // push eax; pop edx
    }
}

/// The ways a generated loop can make its state drift.
#[derive(Debug, Clone, Copy)]
enum Drift {
    /// None: every register and slot the body reads is set at its top,
    /// so the state repeats exactly every iteration.
    Exact,
    /// ECX counts iterations.
    RegisterCounter,
    /// The slot at ESP+16 counts iterations; the registers repeat.
    MemoryCounter,
    /// An `rdtsc` at the top reads the live icount; its registers are
    /// overwritten right after, so the state repeats, but the block
    /// engine single-steps it.
    Rdtsc,
}

/// `L: [rdtsc] init body_a [jmp +1; nop] body_b [counter] jmp L`: the
/// body sets EAX, EBX, EDX and the four slots to constants, then runs
/// generated operations over them; `split` makes the loop two blocks.
fn generated_loop(
    drift: Drift,
    init: [u32; 3],
    body_a: &[(u8, u8)],
    body_b: &[(u8, u8)],
    split: bool,
) -> Vec<u8> {
    let mut text = Vec::new();
    if matches!(drift, Drift::Rdtsc) {
        text.extend([0x0F, 0x31]);
    }
    for (opcode, v) in [0xB8u8, 0xBB, 0xBA].into_iter().zip(init) {
        text.push(opcode); // mov r32, imm32
        text.extend(v.to_le_bytes());
    }
    for slot in [0u8, 4, 8, 12] {
        text.extend([0xC7, 0x44, 0x24, slot]); // mov dword [esp+s], imm32
        text.extend(u32::from(slot).wrapping_mul(0x0101_0101).to_le_bytes());
    }
    for &(op, imm) in body_a {
        emit_op(&mut text, op, imm);
    }
    if split {
        text.extend([0xEB, 0x01, 0x90]);
    }
    for &(op, imm) in body_b {
        emit_op(&mut text, op, imm);
    }
    match drift {
        Drift::RegisterCounter => text.push(0x41), // inc ecx
        Drift::MemoryCounter => text.extend([0xFF, 0x44, 0x24, 0x10]), // inc dword [esp+16]
        Drift::Exact | Drift::Rdtsc => {}
    }
    let back = -((text.len() + 2) as i32);
    text.extend([0xEB, back as i8 as u8]); // jmp L
    text
}

fn arb_drift() -> impl Strategy<Value = Drift> {
    prop_oneof![
        2 => Just(Drift::Exact),
        1 => Just(Drift::RegisterCounter),
        1 => Just(Drift::MemoryCounter),
        1 => Just(Drift::Rdtsc),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On generated loops run past the arm point, the block engine ends
    /// where the per-step reference ends — outcome, icount, registers
    /// and writable memory — and it skips exactly the exact cycles.
    #[test]
    fn exact_cycles_and_only_they_are_skipped(
        drift in arb_drift(),
        init in any::<[u32; 3]>(),
        body_a in proptest::collection::vec((0u8..10, any::<u8>()), 0..8),
        body_b in proptest::collection::vec((0u8..10, any::<u8>()), 0..8),
        split in any::<bool>(),
        extra in 1_000u64..40_000,
    ) {
        let text = generated_loop(drift, init, &body_a, &body_b, split);
        let budget = CYCLE_WATCH_FROM + extra;
        let blk = run_both(&text, budget, |_| {});
        prop_assert_eq!(blk.icount, budget);
        let skipped = blk.fast_forwarded_insts();
        match drift {
            Drift::Exact => prop_assert!(skipped > 0, "an exact cycle ran in full"),
            _ => prop_assert_eq!(skipped, 0, "a drifting loop was skipped"),
        }
    }
}

/// `L: mov eax, 7; mov [esp], eax; nop; nop; jmp L`: a period of 5.
fn five_cycle() -> Vec<u8> {
    vec![
        0xB8, 7, 0, 0, 0, // mov eax, 7
        0x89, 0x04, 0x24, // mov [esp], eax
        0x90, 0x90, // nop; nop
        0xEB, 0xF4, // jmp L
    ]
}

#[test]
fn a_budget_the_period_divides_stops_exactly_on_it() {
    // Over two periods of budgets, one leaves a remainder of every
    // residue, 0 among them: the skip must never run past the budget.
    for budget in 100_000..100_010 {
        let blk = run_both(&five_cycle(), budget, |_| {});
        assert_eq!(blk.icount, budget);
        assert!(blk.fast_forwarded_insts() > 0);
        assert_eq!(blk.fast_forwarded_insts() % 5, 0, "whole periods only");
    }
    // A one-instruction cycle (`jmp $`) divides every remainder.
    let blk = run_both(&[0xEB, 0xFE], 100_000, |_| {});
    assert_eq!(blk.icount, 100_000);
    assert!(blk.fast_forwarded_insts() > 0);
}

#[test]
fn successive_calls_each_land_on_their_budget() {
    // The watch is per call: a second call re-arms and skips again.
    let mut blk = machine(&five_cycle());
    let mut stp = machine(&five_cycle());
    stp.set_block_engine(false);
    for budget in [50_000, 70_001] {
        assert_eq!(blk.run_until_event(budget), RunOutcome::Budget);
        assert_eq!(stp.run_until_event(budget), RunOutcome::Budget);
        assert_eq!(blk.icount, stp.icount);
        assert_eq!(blk.cpu, stp.cpu);
    }
    assert_eq!(blk.icount, 120_001);
    assert!(blk.fast_forwarded_insts() > 50_000);
}

#[test]
fn a_loop_that_exits_on_the_icount_is_not_skipped_past_its_exit() {
    // L: rdtsc; cmp eax, 0x8000; mov eax, 0; mov edx, 0; jb L; M: jmp M.
    // The state at L repeats exactly until the icount reaches 0x8000;
    // only `rdtsc` tells the iterations apart, and then the loop exits
    // into a one-instruction cycle the watch does skip.
    let text = [
        0x0F, 0x31, // rdtsc
        0x3D, 0x00, 0x80, 0x00, 0x00, // cmp eax, 0x8000
        0xB8, 0, 0, 0, 0, // mov eax, 0
        0xBA, 0, 0, 0, 0, // mov edx, 0
        0x72, 0xED, // jb L
        0xEB, 0xFE, // M: jmp M
    ];
    let blk = run_both(&text, 200_000, |_| {});
    assert_eq!(blk.cpu.eip, TEXT + 19, "the run ends in the exit loop");
    assert!(blk.fast_forwarded_insts() > 0, "the exit loop is skipped");
    assert!(
        blk.fast_forwarded_insts() < 200_000 - 0x8000,
        "nothing before the exit is skipped"
    );
}

#[test]
fn the_tracing_observers_and_an_armed_breakpoint_suppress_the_skip() {
    let text = five_cycle();
    let budget = 100_000;
    let plain = run_both(&text, budget, |_| {});
    assert!(plain.fast_forwarded_insts() > 0);
    type Arm = fn(&mut Machine);
    let observers: [(&str, Arm); 4] = [
        ("coverage", |m| m.enable_coverage()),
        ("EIP ring", |m| m.enable_eip_trace(16)),
        ("flight recorder", |m| m.enable_flight_recorder(64)),
        // Never reached: it lies past the loop's back-edge.
        ("breakpoint", |m| m.add_breakpoint(TEXT + 12)),
    ];
    for (name, observe) in observers {
        let blk = run_both(&text, budget, observe);
        assert_eq!(blk.fast_forwarded_insts(), 0, "{name} let the skip through");
        assert_eq!(blk.icount, plain.icount, "{name} moved the stop");
        assert_eq!(blk.cpu, plain.cpu, "{name} moved the state");
    }
}

/// The profile of `text` run to `budget` on the block engine, and
/// whether the run skipped. With `full`, coverage rides along, which
/// keeps every period running.
fn profile_of(text: &[u8], budget: u64, full: bool) -> (ExecProfile, bool) {
    let mut m = run_both(text, budget, |m| {
        m.enable_profiler();
        if full {
            m.enable_coverage();
        }
    });
    (m.take_exec_profile().unwrap(), m.fast_forwarded_insts() > 0)
}

/// Assert a skipping profiled run reports what the full one does.
fn assert_profiles_agree(text: &[u8], budget: u64) -> bool {
    let (skipped, skips) = profile_of(text, budget, false);
    let (full, full_skips) = profile_of(text, budget, true);
    assert!(!full_skips);
    assert_eq!(skipped.blocks, full.blocks, "block tallies");
    let slow = |p: &ExecProfile| {
        let mut v: Vec<_> = p.slow.iter().map(|(&a, s)| (a, s.count)).collect();
        v.sort_unstable();
        v
    };
    assert_eq!(slow(&skipped), slow(&full), "slow-path tallies");
    assert_eq!(skipped.stepwise_retired, full.stepwise_retired);
    assert_eq!(skipped.cache, full.cache, "block-cache traffic");
    skips
}

#[test]
fn a_profiled_cycle_is_skipped_and_tallied_as_if_it_ran() {
    for budget in [100_000, 100_003] {
        assert!(assert_profiles_agree(&five_cycle(), budget));
    }
    // Two blocks and a slow-path shape.
    let text = [
        0xB8, 1, 0, 0, 0, // L: mov eax, 1
        0xC1, 0xE0, 0x03, // shl eax, 3 (no µop: the slow path)
        0xEB, 0x01, 0x90, // jmp +1; nop
        0x0F, 0xAF, 0xC3, // imul eax, ebx
        0xEB, 0xF0, // jmp L
    ];
    assert!(assert_profiles_agree(&text, 60_000));
    let (profile, _) = profile_of(&text, 60_000, false);
    assert!(profile.slow[&(TEXT + 5)].count > 10_000);
}

#[test]
fn a_profiled_loop_that_rebuilds_its_blocks_runs_in_full() {
    // Three one-jump blocks that share a two-way cache set (0x1000,
    // 0x2003, 0x3002): every dispatch evicts and rebuilds, so no period
    // leaves the cache as it found it.
    let mut text = vec![0x90; 0x2008];
    for (at, to) in [(0x1000u32, 0x2003u32), (0x2003, 0x3002), (0x3002, 0x1000)] {
        let off = (at - TEXT) as usize;
        text[off] = 0xE9; // jmp rel32
        let rel = to.wrapping_sub(at + 5);
        text[off + 1..off + 5].copy_from_slice(&rel.to_le_bytes());
    }
    assert!(run_both(&text, 60_000, |_| {}).fast_forwarded_insts() > 0);
    assert!(!assert_profiles_agree(&text, 60_000));
}

#[test]
fn a_profiled_cycle_marked_before_its_blocks_exist_skips_only_once_they_do() {
    // A counting loop leads into the cycle L2 exactly at a mark (icount
    // 18,432 = 2^14 + 2^11 on the watch's schedule), so the first period
    // builds L2's two blocks: the next one would hit them instead. The
    // profiled run waits for the next mark to skip.
    let text = [
        0xB8, 7, 0, 0, 0, // mov eax, 7
        0xB9, 0xFF, 0x23, 0, 0,    // mov ecx, 9215
        0x49, // L1: dec ecx
        0x75, 0xFD, // jnz L1
        0xB8, 7, 0, 0, 0, // L2: mov eax, 7
        0xEB, 0x00, // jmp M
        0xEB, 0xF7, // M: jmp L2
    ];
    let plain = run_both(&text, 60_000, |_| {});
    assert!(plain.fast_forwarded_insts() > 0);
    assert!(assert_profiles_agree(&text, 60_000));
    let (_, skipped) = profile_of(&text, 60_000, false);
    assert!(skipped);
    let mut profiled = run_both(&text, 60_000, |m| m.enable_profiler());
    assert!(
        profiled.fast_forwarded_insts() < plain.fast_forwarded_insts(),
        "the period that built the blocks was repeated"
    );
    assert!(profiled.take_exec_profile().is_some());
}

/// Run `text` to `budget` with the taint tracer seeded at `seed` under
/// `horizon` on the block engine and on the per-step reference; assert
/// their propagation logs agree and return whether the block run
/// skipped.
fn taint_agrees(text: &[u8], budget: u64, seed: u32, horizon: u64) -> bool {
    let mut blk = run_both(text, budget, |m| m.enable_taint(Some(seed), horizon));
    let mut stp = machine(text);
    stp.set_block_engine(false);
    stp.enable_taint(Some(seed), horizon);
    stp.run_until_event(budget);
    let log = blk.take_propagation_log().unwrap();
    assert_eq!(log, stp.take_propagation_log().unwrap());
    blk.fast_forwarded_insts() > 0
}

#[test]
fn a_taint_traced_cycle_is_skipped_and_logged_as_if_it_ran() {
    let text = five_cycle();
    // Seeded by `mov eax, 7` every period and written to the stack: a
    // write event per period, past the event cap.
    assert!(taint_agrees(&text, 100_000, TEXT, 1 << 20));
    // A seed and a write event every 203 instructions: the arm point
    // finds the log under its cap, and the skipped periods fill it.
    let mut sparse = text[..8].to_vec();
    sparse.extend([0x90; 200]);
    let back = -(sparse.len() as i32 + 5);
    sparse.push(0xE9); // jmp L
    sparse.extend(back.to_le_bytes());
    assert!(taint_agrees(&sparse, 100_000, TEXT, 1 << 20));
    // Taint trades places between EBX and EAX each pass while their
    // values stay 7: the shadow repeats every two passes, the machine
    // every pass, and the store logs a write every other pass.
    let swap = [
        0xB8, 7, 0, 0, 0, // mov eax, 7 (the seed)
        0xBB, 7, 0, 0, 0, // mov ebx, 7
        0x89, 0x1C, 0x24, // L: mov [esp], ebx
        0x89, 0xC1, // mov ecx, eax
        0x89, 0xD8, // mov eax, ebx
        0x89, 0xCB, // mov ebx, ecx
        0xEB, 0xF5, // jmp L
    ];
    assert!(taint_agrees(&swap, 100_000, TEXT, 1 << 20));
    assert!(taint_agrees(&swap, 100_001, TEXT, 1 << 20));
    // The horizon falls inside the budget: the periods up to it are
    // skipped, the one that crosses it runs and freezes the tracer, and
    // the frozen rest is skipped again.
    assert!(taint_agrees(&text, 100_000, TEXT, 50_000));
    // Seeded where the loop never goes: nothing to observe.
    assert!(taint_agrees(&text, 100_000, TEXT + 0x100, 1 << 20));
}

#[test]
fn the_footprint_does_not_suppress_the_skip() {
    // A loop's blocks are all marked on its first period, so the
    // footprint a skipped run records is the full run's.
    let text = five_cycle();
    let mut blk = run_both(&text, 100_000, |m| m.enable_footprint());
    assert!(blk.fast_forwarded_insts() > 0);
    let mut stp = machine(&text);
    stp.set_block_engine(false);
    stp.enable_footprint();
    stp.run_until_event(100_000);
    assert_eq!(
        blk.take_footprint().unwrap().ranges(),
        stp.take_footprint().unwrap().ranges()
    );
}

#[test]
fn short_calls_never_arm_the_watch() {
    let blk = run_both(&five_cycle(), CYCLE_WATCH_FROM, |_| {});
    assert_eq!(blk.fast_forwarded_insts(), 0);
}
