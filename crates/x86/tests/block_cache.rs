//! Basic-block engine tests: bit-identical behaviour against the
//! per-step reference interpreter, and the cache-invalidation edges the
//! injection campaign exercises — poking inside a cached block, poking
//! at a block boundary, restores that rewind the executable generation,
//! and self-modifying text.

use fisec_x86::{EdgeKind, FlightTrace, Machine, Memory, Perms, Reg32, Region, RunOutcome};

const TEXT: u32 = 0x1000;

fn machine(text: Vec<u8>) -> Machine {
    let mut mem = Memory::new();
    mem.map(Region::with_data("text", TEXT, text, Perms::RX))
        .unwrap();
    mem.map(Region::zeroed("data", 0x2000, 0x1000, Perms::RW))
        .unwrap();
    mem.map(Region::zeroed("stack", 0x8000, 0x1000, Perms::RW))
        .unwrap();
    let mut m = Machine::new(mem);
    m.cpu.eip = TEXT;
    m.cpu.regs[Reg32::Esp as usize] = 0x9000;
    m
}

/// Run `text` to completion under both engines and assert identical
/// outcome, icount, registers, flags and EIP.
fn assert_engines_agree(text: Vec<u8>, budget: u64) -> RunOutcome {
    let mut blk = machine(text.clone());
    let mut stp = machine(text);
    stp.set_block_engine(false);
    let a = blk.run_until_event(budget);
    let b = stp.run_until_event(budget);
    assert_eq!(a, b, "outcomes diverged");
    assert_eq!(blk.icount, stp.icount, "icount diverged");
    assert_eq!(blk.cpu, stp.cpu, "architectural state diverged");
    a
}

// A loop the cache loves: mov ecx, 5; inc eax; dec ecx; jnz -4; jmp $.
fn counted_loop() -> Vec<u8> {
    vec![0xB9, 5, 0, 0, 0, 0x40, 0x49, 0x75, 0xFC, 0xEB, 0xFE]
}

#[test]
fn engines_agree_on_straight_line_and_loops() {
    assert_engines_agree(vec![0x40; 10], 1000); // falls off text: fault
    assert_engines_agree(counted_loop(), 1000); // budget in jmp $
                                                // div-by-zero fault mid-block: xor edx,edx; xor ecx,ecx; div ecx.
    assert_engines_agree(vec![0x31, 0xD2, 0x31, 0xC9, 0xF7, 0xF1], 1000);
}

#[test]
fn budget_expiry_mid_block_is_exact() {
    // 10 incs; budget 3 expires inside the block.
    for budget in [0, 1, 3, 9, 10] {
        let mut m = machine(vec![0x40; 10]);
        assert_eq!(m.run_until_event(budget), RunOutcome::Budget);
        assert_eq!(m.icount, budget, "block engine must not overrun");
        assert_eq!(m.cpu.regs[Reg32::Eax as usize], budget as u32);
    }
}

#[test]
fn breakpoint_mid_block_pauses_precisely() {
    let mut m = machine(vec![0x40; 10]);
    // Prime the cache with the whole 10-inc block, then arm a breakpoint
    // in the middle: the cached block must not be retired past it.
    assert!(matches!(m.run_until_event(1000), RunOutcome::Fault(_)));
    m.cpu.eip = TEXT;
    m.add_breakpoint(TEXT + 4);
    assert_eq!(m.run_until_event(1000), RunOutcome::Breakpoint(TEXT + 4));
    assert_eq!(m.cpu.eip, TEXT + 4);
    assert_eq!(m.cpu.regs[Reg32::Eax as usize], 10 + 4);
}

#[test]
fn poke_inside_cached_block_invalidates_it() {
    let mut m = machine(counted_loop());
    assert_eq!(m.run_until_event(100), RunOutcome::Budget);
    let before = m.block_stats();
    assert!(before.hits > 0, "loop body must be served from cache");
    // Poke the `inc eax` (0x40 at TEXT+5) into `inc ecx` (0x41): the
    // covering block must be rebuilt from the new byte.
    m.mem.poke8(TEXT + 5, 0x41).unwrap();
    m.cpu.eip = TEXT;
    m.cpu.regs = [0; 8];
    assert_eq!(m.run_until_event(100), RunOutcome::Budget);
    let after = m.block_stats();
    assert!(
        after.invalidated > before.invalidated,
        "poked block must be dropped: {before:?} -> {after:?}"
    );
    // ecx ends at 0 either way (loop counter), but eax stayed 0 and the
    // increments landed in ecx's history — observable via eax.
    assert_eq!(m.cpu.regs[Reg32::Eax as usize], 0);
}

#[test]
fn poke_at_block_boundary_spares_neighbours() {
    // Two blocks: [mov ecx,5 / inc / dec / jnz] and [jmp $] at TEXT+9.
    let mut m = machine(counted_loop());
    assert_eq!(m.run_until_event(100), RunOutcome::Budget);
    let before = m.block_stats();
    // Poke the first byte of the `jmp $` block — the boundary byte. The
    // loop block ends at TEXT+9 (half-open), so it must survive.
    m.mem.poke8(TEXT + 9, 0xEB).unwrap(); // same byte value: still a write
    m.cpu.eip = TEXT;
    assert_eq!(m.run_until_event(100), RunOutcome::Budget);
    let after = m.block_stats();
    assert_eq!(
        after.invalidated,
        before.invalidated + 1,
        "exactly the boundary block is dropped: {before:?} -> {after:?}"
    );
}

#[test]
fn unchanged_restore_keeps_the_caches() {
    let mut m = machine(counted_loop());
    let snap = m.snapshot();
    assert_eq!(m.run_until_event(100), RunOutcome::Budget);
    let before = m.block_stats();
    assert!(before.cached > 0);
    m.restore(&snap);
    assert_eq!(
        m.block_stats().invalidated,
        before.invalidated,
        "a restore with unchanged text must not invalidate anything"
    );
    assert_eq!(m.run_until_event(100), RunOutcome::Budget);
    assert!(m.block_stats().hits > before.hits, "cache survived rewind");
}

#[test]
fn restore_rewinding_generation_invalidates_only_poked_blocks() {
    let mut m = machine(counted_loop());
    let snap = m.snapshot();
    assert_eq!(m.run_until_event(100), RunOutcome::Budget);
    let cached = m.block_stats().cached;
    assert!(cached >= 2, "loop and jmp blocks cached");

    // Injection-shaped cycle: restore, poke one byte, run, repeat.
    // Only blocks covering the poked byte may be dropped per cycle.
    let inv0 = m.block_stats().invalidated;
    for bit in 0..4u8 {
        m.restore(&snap);
        m.mem.poke8(TEXT + 5, 0x40 ^ (1 << bit)).unwrap();
        assert_eq!(m.run_until_event(100), RunOutcome::Budget);
    }
    m.restore(&snap); // final rewind reverts the last poke
    let s = m.block_stats();
    // Two blocks cover the poked byte (entries TEXT and TEXT+5), and
    // each poke/revert pair can drop them at most once each — while the
    // jmp-$ block must keep its slot across every cycle.
    assert!(
        s.invalidated - inv0 <= 12,
        "restore must invalidate per-byte, not wholesale: {s:?}"
    );
    assert!(s.hits > 0);

    // And the rewound machine still runs the pristine program.
    assert_eq!(m.run_until_event(100), RunOutcome::Budget);
    assert_eq!(m.cpu.regs[Reg32::Ecx as usize], 0);
}

#[test]
fn self_modifying_rwx_text_agrees_with_stepwise() {
    // mov byte [0x1008], 0x41 patches the later `inc eax` into `inc
    // ecx` while the block containing both is executing.
    // 0x1000: C6 05 08 10 00 00 41   mov byte [0x1008], 0x41
    // 0x1007: 90                     nop
    // 0x1008: 40                     inc eax  <- patched before it retires
    // 0x1009: EB FE                  jmp $
    let text = vec![
        0xC6, 0x05, 0x08, 0x10, 0x00, 0x00, 0x41, 0x90, 0x40, 0xEB, 0xFE,
    ];
    let mut mem = Memory::new();
    mem.map(Region::with_data("text", TEXT, text.clone(), Perms::RWX))
        .unwrap();
    let mut blk = Machine::new(mem.clone());
    blk.cpu.eip = TEXT;
    let mut stp = Machine::new(mem);
    stp.cpu.eip = TEXT;
    stp.set_block_engine(false);
    assert_eq!(blk.run_until_event(50), stp.run_until_event(50));
    assert_eq!(blk.icount, stp.icount);
    assert_eq!(blk.cpu, stp.cpu);
    assert_eq!(blk.cpu.regs[Reg32::Ecx as usize], 1, "patched inc ran");
    assert_eq!(blk.cpu.regs[Reg32::Eax as usize], 0);
}

#[test]
fn coverage_and_trace_identical_across_engines() {
    let mut blk = machine(counted_loop());
    let mut stp = machine(counted_loop());
    stp.set_block_engine(false);
    for m in [&mut blk, &mut stp] {
        m.enable_coverage();
        m.enable_eip_trace(4);
    }
    assert_eq!(blk.run_until_event(200), stp.run_until_event(200));
    assert_eq!(blk.coverage(), stp.coverage());
    assert_eq!(blk.eip_trace(), stp.eip_trace());
    // Each address keeps the 1-based icount of its first retirement:
    // mov ecx,5 (1); inc/dec/jnz (2..4) loop five times; jmp $ (17).
    let first: Vec<_> = (TEXT..TEXT + 11)
        .map(|a| (blk.first_retire(a), stp.first_retire(a)))
        .collect();
    let want = [1, 0, 0, 0, 0, 2, 3, 4, 0, 17, 0].map(|c| (c > 0).then_some(c));
    assert_eq!(first, want.map(|c| (c, c)));
    // Out-of-bitmap EIPs (no exec region below TEXT) spill correctly:
    // the coverage set is exactly the executed addresses.
    let cov = blk.coverage().unwrap();
    assert!(cov.contains(&TEXT) && cov.contains(&(TEXT + 9)));
    assert!(!cov.contains(&(TEXT + 1)));
}

#[test]
fn toggling_engine_mid_execution_is_safe() {
    let mut m = machine(counted_loop());
    assert_eq!(m.run_until_event(7), RunOutcome::Budget);
    m.set_block_engine(false);
    assert_eq!(m.run_until_event(7), RunOutcome::Budget);
    m.set_block_engine(true);
    assert_eq!(m.run_until_event(100), RunOutcome::Budget);
    let mut reference = machine(counted_loop());
    reference.set_block_engine(false);
    assert_eq!(reference.run_until_event(114), RunOutcome::Budget);
    assert_eq!(m.icount, reference.icount);
    assert_eq!(m.cpu, reference.cpu);
}

/// Run `text` under both engines with the flight recorder on and
/// assert the recorded traces are bit-identical; returns one of them.
fn assert_flight_traces_agree(text: Vec<u8>, budget: u64) -> FlightTrace {
    let mut blk = machine(text.clone());
    let mut stp = machine(text);
    stp.set_block_engine(false);
    blk.enable_flight_recorder(1 << 16);
    stp.enable_flight_recorder(1 << 16);
    assert_eq!(blk.run_until_event(budget), stp.run_until_event(budget));
    let a = blk.take_flight_trace().unwrap();
    let b = stp.take_flight_trace().unwrap();
    assert_eq!(a, b, "flight traces diverged between engines");
    a
}

#[test]
fn flight_trace_identical_across_engines() {
    // Branches taken and not taken, through a resident loop.
    let t = assert_flight_traces_agree(counted_loop(), 50);
    assert!(t
        .edges
        .iter()
        .any(|e| e.kind == EdgeKind::BranchTaken && e.to == TEXT + 5));
    assert!(t.edges.iter().any(|e| e.kind == EdgeKind::BranchNotTaken));
    // Exec fault mid-block: xor edx,edx; xor ecx,ecx; div ecx.
    let t = assert_flight_traces_agree(vec![0x31, 0xD2, 0x31, 0xC9, 0xF7, 0xF1], 50);
    assert_eq!(t.edges.last().unwrap().kind, EdgeKind::Fault);
    assert_eq!(t.edges.last().unwrap().from, TEXT + 4);
    assert_eq!(t.edges.last().unwrap().icount, 3, "div retires then faults");
    // Fetch fault: straight-line code falls off the text region.
    let t = assert_flight_traces_agree(vec![0x40; 4], 50);
    assert_eq!(
        t.edges.last().unwrap(),
        &fisec_x86::Edge {
            from: TEXT + 4,
            to: 0,
            icount: 4,
            kind: EdgeKind::Fault
        }
    );
}

#[test]
fn flight_trace_records_calls_rets_and_syscalls() {
    // mov ecx,3; call f; jmp $; nop; f: inc eax; dec ecx; jnz f; ret
    let text = vec![
        0xB9, 0x03, 0x00, 0x00, 0x00, // 0x1000 mov ecx,3
        0xE8, 0x03, 0x00, 0x00, 0x00, // 0x1005 call 0x100D
        0xEB, 0xFE, // 0x100A jmp $
        0x90, // 0x100C nop
        0x40, // 0x100D inc eax
        0x49, // 0x100E dec ecx
        0x75, 0xFC, // 0x100F jnz 0x100D
        0xC3, // 0x1011 ret
    ];
    let t = assert_flight_traces_agree(text, 20);
    let kinds: Vec<EdgeKind> = t.edges.iter().map(|e| e.kind).collect();
    assert_eq!(kinds[0], EdgeKind::Call);
    assert_eq!(t.edges[0].to, TEXT + 0xD);
    assert!(kinds.contains(&EdgeKind::Ret));
    let ret = t.edges.iter().find(|e| e.kind == EdgeKind::Ret).unwrap();
    assert_eq!(ret.to, TEXT + 0xA, "ret returns past the call");
    // A syscall edge carries EAX (the syscall number) as its target.
    let t = assert_flight_traces_agree(vec![0xB8, 0x04, 0x00, 0x00, 0x00, 0xCD, 0x80], 20);
    let sys = t.edges.last().unwrap();
    assert_eq!(sys.kind, EdgeKind::Syscall);
    assert_eq!((sys.from, sys.to, sys.icount), (TEXT + 5, 4, 2));
}

#[test]
fn flight_recorder_bound_and_restore_semantics() {
    let mut m = machine(counted_loop());
    m.enable_flight_recorder(2);
    assert_eq!(m.run_until_event(100), RunOutcome::Budget);
    let t = m.take_flight_trace().unwrap();
    assert_eq!(t.edges.len(), 2, "prefix window holds the bound");
    assert!(t.truncated());
    assert!(t.total_edges > 2);
    assert_eq!(t.retired(), 100);
    assert!(m.take_flight_trace().is_none(), "taking the trace disarms");

    // A restore drops any active recording: the recorder is per-run
    // instrumentation, re-armed by the injector after each rewind.
    let mut m = machine(counted_loop());
    let snap = m.snapshot();
    m.enable_flight_recorder(16);
    assert_eq!(m.run_until_event(10), RunOutcome::Budget);
    m.restore(&snap);
    assert!(!m.flight_recorder_enabled());
    assert!(m.take_flight_trace().is_none());
}

#[test]
fn rdtsc_reads_exact_live_icount_in_block_mode() {
    // inc eax; rdtsc; jmp $ — rdtsc must observe icount == 2 (itself
    // included), not a block-deferred value.
    let mut m = machine(vec![0x40, 0x0F, 0x31, 0xEB, 0xFE]);
    assert_eq!(m.run_until_event(10), RunOutcome::Budget);
    let mut s = machine(vec![0x40, 0x0F, 0x31, 0xEB, 0xFE]);
    s.set_block_engine(false);
    assert_eq!(s.run_until_event(10), RunOutcome::Budget);
    assert_eq!(
        m.cpu.regs[Reg32::Eax as usize],
        s.cpu.regs[Reg32::Eax as usize]
    );
    assert_eq!(m.cpu.regs[Reg32::Eax as usize], 2);
}
