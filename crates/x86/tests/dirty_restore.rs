//! Checkpoint-restore invariants: the page-granular memory restore
//! against a full-copy oracle, and journal-targeted invalidation of the
//! decoded-instruction cache.

use fisec_x86::{Inst, Machine, Memory, Op, Operand, Perms, Reg32, Region, StepEvent};
use proptest::prelude::*;

const TEXT: u32 = 0x1000;
const RWX: u32 = 0x3000;
const DATA: u32 = 0x1_0000;
const STACK: u32 = 0x2_0000;

/// Regions of uneven sizes, so partial last pages are exercised.
fn machine() -> Machine {
    let mut mem = Memory::new();
    mem.map(Region::with_data(
        "text",
        TEXT,
        vec![0x90; 0x800],
        Perms::RX,
    ))
    .unwrap();
    mem.map(Region::zeroed("rwx", RWX, 0x900, Perms::RWX))
        .unwrap();
    mem.map(Region::zeroed("data", DATA, 0x2401, Perms::RW))
        .unwrap();
    mem.map(Region::zeroed("stack", STACK, 0x1000, Perms::RW))
        .unwrap();
    let mut m = Machine::new(mem);
    m.cpu.eip = TEXT;
    m
}

/// Every region's bytes, the executable generation and the whole
/// journal must equal the oracle's.
fn assert_same_memory(mem: &Memory, oracle: &Memory) -> Result<(), TestCaseError> {
    let a: Vec<_> = mem.regions().map(|r| (r.start(), r.bytes())).collect();
    let b: Vec<_> = oracle.regions().map(|r| (r.start(), r.bytes())).collect();
    prop_assert!(a == b, "region bytes differ from the full-copy oracle");
    prop_assert_eq!(mem.exec_gen(), oracle.exec_gen());
    prop_assert_eq!(mem.exec_writes_since(0), oracle.exec_writes_since(0));
    Ok(())
}

proptest! {
    /// Random interleavings of guest writes (data, stack, rwx — some
    /// straddling page and region boundaries), injector pokes, nested
    /// snapshots (some taken from a cloned machine), re-captures into any
    /// earlier snapshot, and restores to any snapshot taken so far,
    /// superseded ones included. After every restore the memory must
    /// equal a plain clone taken at the (re-)capture: today's full-copy
    /// restore is the oracle.
    #[test]
    fn page_restore_matches_full_copy(
        ops in proptest::collection::vec((0u8..8, any::<u32>(), any::<u8>()), 1..160),
    ) {
        let mut m = machine();
        let mut snaps: Vec<(fisec_x86::MachineSnapshot, Memory)> = Vec::new();
        for (op, x, v) in ops {
            match op {
                0 => {
                    let addr = DATA + x % 0x2401;
                    let _ = m.mem.write32(addr, x ^ u32::from(v));
                }
                1 => {
                    let addr = STACK + x % 0x1000;
                    let _ = m.mem.write16(addr, u16::from(v) << 3);
                }
                2 => {
                    let addr = RWX + x % 0x900;
                    let _ = m.mem.write8(addr, v);
                }
                3 => {
                    let addr = TEXT + x % 0x800;
                    m.mem.poke8(addr, v).unwrap();
                }
                4 => snaps.push((m.snapshot(), m.mem.clone())),
                5 => {
                    // A snapshot of a cloned machine: same contents,
                    // another memory.
                    let twin = m.clone();
                    snaps.push((twin.snapshot(), twin.mem.clone()));
                }
                6 => {
                    // Move an earlier snapshot (live, superseded or a
                    // twin's) forward to now, reusing its buffers.
                    let k = x as usize % snaps.len().max(1);
                    if let Some((snap, oracle)) = snaps.get_mut(k) {
                        m.snapshot_into(snap);
                        *oracle = m.mem.clone();
                    }
                }
                _ => {
                    if let Some((snap, oracle)) = snaps.get(x as usize % snaps.len().max(1)) {
                        m.restore(snap);
                        assert_same_memory(&m.mem, oracle)?;
                    }
                }
            }
        }
        // Unwinding the whole stack in reverse also lands exactly.
        for (snap, oracle) in snaps.iter().rev() {
            m.restore(snap);
            assert_same_memory(&m.mem, oracle)?;
        }
    }
}

/// A decoder whose result depends on every byte of the 15-byte fetch
/// window: `mov eax, hash(window)`.
fn window_hash_decoder(bytes: &[u8]) -> Inst {
    let h = bytes.iter().enumerate().fold(0x811C_9DC5u32, |h, (i, &b)| {
        (h ^ (u32::from(b) | (i as u32) << 8)).wrapping_mul(0x0100_0193)
    });
    Inst::new(Op::Mov)
        .dst(Operand::Reg(Reg32::Eax))
        .src(Operand::Imm(i64::from(h)))
        .len(1)
}

fn step_eax(m: &mut Machine) -> u32 {
    assert_eq!(m.step(), StepEvent::Executed);
    m.cpu.regs[Reg32::Eax as usize]
}

#[test]
fn poke_and_revert_anywhere_in_a_cached_fetch_window_reach_the_decoder() {
    let mut m = machine();
    m.set_block_engine(false);
    m.set_decoder(window_hash_decoder);
    let snap = m.snapshot();
    // Decode (and cache) the instruction at TEXT.
    let pristine = step_eax(&mut m);
    for k in 0..15u32 {
        m.restore(&snap);
        m.mem.poke8(TEXT + k, 0xA5).unwrap();
        let poked = step_eax(&mut m);
        assert_ne!(
            poked, pristine,
            "poke at window offset {k} hit a stale entry"
        );
        m.restore(&snap);
        assert_eq!(
            step_eax(&mut m),
            pristine,
            "revert at window offset {k} hit a stale entry"
        );
    }
    // A byte just past the window cannot change the decode.
    m.restore(&snap);
    m.mem.poke8(TEXT + 15, 0xA5).unwrap();
    assert_eq!(step_eax(&mut m), pristine);
}
