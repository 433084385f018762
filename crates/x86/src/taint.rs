//! Taint-style propagation tracer: the shadow engine behind
//! `fisec propagate`.
//!
//! The study's central question is not *whether* a flipped bit crashes
//! the server but *how* the corruption travels from the injected
//! instruction to a failed security check. This module models that
//! travel with a byte-granular shadow state:
//!
//! * one 4-bit byte mask per 32-bit register,
//! * one bit for the arithmetic flags (EFLAGS is tracked as a unit —
//!   the study's injected errors corrupt whole compare results, not
//!   individual status bits),
//! * a bounded sparse set of tainted memory byte addresses.
//!
//! The tracer is pure observation: it never reads or writes
//! architectural state beyond the pre-execution register file the
//! dispatch loop hands it, so outcomes, icounts, coverage and traces
//! are bit-identical with it on or off (the differential tests pin
//! this). It follows the flight recorder's lifecycle — per-run, enabled
//! by the injector after the flip is planted, dropped by
//! [`crate::Machine::restore`].
//!
//! Taint is *born* only at the seed address (the injected instruction:
//! executing it writes corrupted data into its destination) and *dies*
//! when every tainted location has been overwritten with clean values.
//! Both transitions, plus the firsts the paper cares about (first
//! tainted write, flag, compare, branch, syscall argument), are emitted
//! into a bounded [`PropagationLog`].

use crate::inst::{Inst, MemOperand, Op, OpSize, Operand, Reg8, StrOp};
use crate::Cpu;
use std::collections::HashSet;

/// Hard cap on tainted memory bytes tracked exactly. Beyond it the set
/// saturates: existing taint is kept, new taint is dropped and the log
/// is flagged, so a runaway `rep movs` cannot balloon the shadow.
const MEM_TAINT_CAP: usize = 1 << 16;

/// Per-observation cap on string-op iterations shadowed byte-exactly.
const STR_ITER_CAP: u32 = 4096;

/// Default cap on hooked (live-taint) instructions before the tracer
/// freezes. Freezing only stops *observation*; execution continues
/// bit-identically.
pub const DEFAULT_TAINT_HORIZON: u64 = 200_000;

/// Cap on retained [`PropEvent`]s; later events are counted, not kept.
const EVENT_CAP: usize = 256;

/// What happened at a propagation event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PropKind {
    /// The injected instruction executed; its destination is now tainted.
    Seed,
    /// Tainted data (or a tainted address) reached a memory write.
    Write {
        /// First written byte address.
        addr: u32,
        /// Bytes written.
        len: u32,
    },
    /// Tainted data reached the arithmetic flags.
    Flag,
    /// A compare (`cmp`/`test`/`scas`/`cmps`/`bound`/`cmpxchg`) consumed
    /// tainted data — the security-critical moment of arXiv 1803.08359.
    Compare,
    /// A control transfer depended on tainted data: a conditional branch
    /// or `setcc` over tainted flags, a `loop`/`jecxz` over a tainted
    /// ECX, or an indirect jump/call/return through a tainted target.
    Branch,
    /// `int 0x80` executed with a tainted argument register.
    SyscallArg {
        /// Syscall number (pre-execution EAX).
        nr: u32,
    },
    /// Every tainted location was overwritten clean; the shadow is empty.
    Death,
    /// The observation horizon was reached; tracing stopped here.
    Frozen,
}

/// One corruption event: where, when, and how wide the taint was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PropEvent {
    /// Retired-instruction count at the event.
    pub icount: u64,
    /// Address of the observed instruction.
    pub addr: u32,
    /// Event kind.
    pub kind: PropKind,
    /// Shadow width (tainted bytes + flags bit) right after the event.
    pub width: u32,
}

/// The bounded corruption timeline a traced run produces.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PropagationLog {
    /// Up to [`EVENT_CAP`] events in retirement order.
    pub events: Vec<PropEvent>,
    /// Events beyond the cap (counted, not kept).
    pub dropped: u64,
    /// Icount at which the seed instruction first executed.
    pub seed_icount: Option<u64>,
    /// Icount of the first tainted memory write.
    pub first_write: Option<u64>,
    /// Icount of the first tainted flags result.
    pub first_flag: Option<u64>,
    /// Icount of the first tainted compare.
    pub first_compare: Option<u64>,
    /// Icount of the first taint-dependent control transfer.
    pub first_branch: Option<u64>,
    /// Icount of the first syscall with a tainted argument register.
    pub first_syscall_arg: Option<u64>,
    /// Icount at which the shadow became empty again, if it did.
    pub death: Option<u64>,
    /// Widest the shadow ever got.
    pub peak_width: u32,
    /// Shadow width when the log was taken.
    pub final_width: u32,
    /// Live-taint instructions observed.
    pub hooked: u64,
    /// True when the observation horizon cut the trace short.
    pub frozen: bool,
    /// True when the tainted-memory set hit [`MEM_TAINT_CAP`].
    pub saturated: bool,
}

impl PropagationLog {
    /// Earliest icount at which tainted data reached a compare or a
    /// control decision — the "reached a security check" moment the
    /// campaign aggregation reports.
    pub fn first_decision(&self) -> Option<u64> {
        match (self.first_compare, self.first_branch) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// The icounts the log sets once.
    fn firsts(&self) -> [Option<u64>; 7] {
        [
            self.seed_icount,
            self.first_write,
            self.first_flag,
            self.first_compare,
            self.first_branch,
            self.first_syscall_arg,
            self.death,
        ]
    }

    /// True when nothing was ever tainted (clean golden run, or a seed
    /// that never executed).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.peak_width == 0 && self.seed_icount.is_none()
    }
}

/// What a [`TaintTracer`] held at a cycle watch's mark (see
/// [`crate::cycle`]), so the observations of one period can be repeated
/// over the periods a skip retires.
#[derive(Debug, Clone, Default)]
pub(crate) struct TaintMark {
    state: TaintState,
    frozen: bool,
    hooked: u64,
    firsts: [Option<u64>; 7],
    events: usize,
    dropped: u64,
}

/// The shadow state proper: which bytes of the architectural state hold
/// corrupted data right now.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TaintState {
    /// Bit `b` set = byte `b` of register `r` is tainted (`b < 4`).
    reg_masks: [u8; 8],
    /// The arithmetic flags hold a corrupted result.
    flags: bool,
    /// Tainted memory byte addresses, capped at [`MEM_TAINT_CAP`].
    mem: HashSet<u32>,
    /// The memory set overflowed and is now a known under-approximation.
    saturated: bool,
}

impl TaintState {
    /// Tainted bytes + flags bit.
    pub fn width(&self) -> u32 {
        let regs: u32 = self.reg_masks.iter().map(|m| m.count_ones()).sum();
        regs + u32::from(self.flags) + self.mem.len() as u32
    }

    /// True when nothing is tainted.
    pub fn is_empty(&self) -> bool {
        !self.flags && self.mem.is_empty() && self.reg_masks.iter().all(|&m| m == 0)
    }

    fn reg_range_tainted(&self, r: usize, lo: u8, hi: u8) -> bool {
        let mask = ((1u16 << hi) - (1 << lo)) as u8;
        self.reg_masks[r] & mask != 0
    }

    fn set_reg_range(&mut self, r: usize, lo: u8, hi: u8, tainted: bool) {
        let mask = ((1u16 << hi) - (1 << lo)) as u8;
        if tainted {
            self.reg_masks[r] |= mask;
        } else {
            self.reg_masks[r] &= !mask;
        }
    }

    fn mem_range_tainted(&self, addr: u32, len: u32) -> bool {
        (0..len).any(|i| self.mem.contains(&addr.wrapping_add(i)))
    }

    fn set_mem_range(&mut self, addr: u32, len: u32, tainted: bool) {
        for i in 0..len {
            let a = addr.wrapping_add(i);
            if tainted {
                if self.mem.len() < MEM_TAINT_CAP {
                    self.mem.insert(a);
                } else if !self.mem.contains(&a) {
                    self.saturated = true;
                }
            } else {
                self.mem.remove(&a);
            }
        }
    }
}

/// The tracer: shadow state plus the log under construction. One per
/// run, owned by [`crate::Machine`].
#[derive(Debug, Clone)]
pub struct TaintTracer {
    state: TaintState,
    /// Address of the injected instruction; `None` selects observe-all
    /// mode (every instruction runs the transfer function, nothing is
    /// ever seeded — the clean-run property test uses it).
    seed: Option<u32>,
    horizon: u64,
    hooked: u64,
    frozen: bool,
    /// Cached `!state.is_empty()` so the per-instruction bail is a load.
    live: bool,
    log: PropagationLog,
}

impl TaintTracer {
    /// New tracer. `seed` is the injected instruction's address;
    /// `None` selects observe-all mode. `horizon` caps the live-taint
    /// instructions observed before the tracer freezes.
    pub fn new(seed: Option<u32>, horizon: u64) -> TaintTracer {
        TaintTracer {
            state: TaintState::default(),
            seed,
            horizon: horizon.max(1),
            hooked: 0,
            frozen: false,
            live: false,
            log: PropagationLog::default(),
        }
    }

    /// Whether this tracer observes every instruction (seedless mode).
    pub fn observe_all(&self) -> bool {
        self.seed.is_none()
    }

    /// Does the tracer need the instrumented path for a code range?
    /// Taint can only be born at the seed address and only propagate
    /// while the shadow is non-empty, so everything else may take the
    /// fast path untouched.
    #[inline]
    pub fn wants_range(&self, lo: u32, hi: u64) -> bool {
        if self.frozen {
            return false;
        }
        if self.live {
            return true;
        }
        match self.seed {
            Some(s) => (s as u64) >= (lo as u64) && (s as u64) < hi,
            None => true,
        }
    }

    /// Current shadow width.
    pub fn width(&self) -> u32 {
        self.state.width()
    }

    /// Read-only view of the shadow state.
    pub fn state(&self) -> &TaintState {
        &self.state
    }

    /// Overwrite `mark` with what decides the tracer's future and where
    /// its log stands.
    pub(crate) fn mark(&self, mark: &mut TaintMark) {
        mark.state.clone_from(&self.state);
        mark.frozen = self.frozen;
        mark.hooked = self.hooked;
        mark.firsts = self.log.firsts();
        mark.events = self.log.events.len();
        mark.dropped = self.log.dropped;
    }

    /// Whether every later period observes what the one since `mark`
    /// did: the shadow and the log's set-once icounts stand where they
    /// stood (a period that sets one logs differently from the next),
    /// and the tracer did not freeze inside it.
    pub(crate) fn repeatable_since(&self, mark: &TaintMark) -> bool {
        self.frozen == mark.frozen && self.log.firsts() == mark.firsts && self.state == mark.state
    }

    /// How many of `periods` more periods like the one since `mark` end
    /// before the horizon: the one that crosses it freezes the tracer
    /// part-way, so it must run.
    pub(crate) fn periods_within_horizon(&self, mark: &TaintMark, periods: u64) -> u64 {
        match self.hooked - mark.hooked {
            0 => periods,
            hooked => periods.min((self.horizon - self.hooked) / hooked),
        }
    }

    /// Observe `times` more periods of `period` instructions like the one
    /// since `mark`: count their hooked instructions and log their events,
    /// each `period` later than the last, up to the event cap.
    pub(crate) fn repeat_since(&mut self, mark: &TaintMark, period: u64, times: u64) {
        self.hooked += times * (self.hooked - mark.hooked);
        let events = self.log.events[mark.events..].to_vec();
        let mut unlogged = times * (events.len() as u64 + self.log.dropped - mark.dropped);
        if !events.is_empty() {
            'fill: for k in 1..=times {
                for e in &events {
                    if self.log.events.len() >= EVENT_CAP {
                        break 'fill;
                    }
                    self.log.events.push(PropEvent {
                        icount: e.icount + k * period,
                        ..*e
                    });
                    unlogged -= 1;
                }
            }
        }
        self.log.dropped += unlogged;
    }

    /// Seal and take the log.
    pub fn into_log(mut self) -> PropagationLog {
        self.log.final_width = self.state.width();
        self.log.saturated = self.state.saturated;
        self.log.hooked = self.hooked;
        self.log.frozen = self.frozen;
        self.log
    }

    fn push_event(&mut self, icount: u64, addr: u32, kind: PropKind) {
        let width = self.state.width();
        if self.log.events.len() < EVENT_CAP {
            self.log.events.push(PropEvent {
                icount,
                addr,
                kind,
                width,
            });
        } else {
            self.log.dropped += 1;
        }
        self.log.peak_width = self.log.peak_width.max(width);
    }

    /// Observe one instruction *before* it executes: `cpu` is the
    /// pre-execution register file, so effective addresses and string
    /// counts are exactly the ones the instruction is about to use.
    #[inline]
    pub fn observe(&mut self, cpu: &Cpu, inst: &Inst, addr: u32, icount: u64) {
        if self.frozen {
            return;
        }
        let seeding = self.seed == Some(addr);
        if !self.live && !seeding && self.seed.is_some() {
            return;
        }
        self.hooked += 1;
        if self.hooked > self.horizon {
            self.frozen = true;
            self.push_event(icount, addr, PropKind::Frozen);
            return;
        }
        let was_live = self.live;
        self.transfer(cpu, inst, addr, icount, seeding);
        self.live = !self.state.is_empty();
        self.log.peak_width = self.log.peak_width.max(self.state.width());
        if seeding && self.log.seed_icount.is_none() {
            self.log.seed_icount = Some(icount);
        }
        if was_live && !self.live && !seeding {
            if self.log.death.is_none() {
                self.log.death = Some(icount);
            }
            self.push_event(icount, addr, PropKind::Death);
        }
    }

    fn note_write(&mut self, icount: u64, addr: u32, wa: u32, len: u32) {
        if self.log.first_write.is_none() {
            self.log.first_write = Some(icount);
        }
        self.push_event(icount, addr, PropKind::Write { addr: wa, len });
    }

    fn note_flag(&mut self, icount: u64, addr: u32) {
        if self.log.first_flag.is_none() {
            self.log.first_flag = Some(icount);
            self.push_event(icount, addr, PropKind::Flag);
        }
    }

    fn note_compare(&mut self, icount: u64, addr: u32) {
        if self.log.first_compare.is_none() {
            self.log.first_compare = Some(icount);
        }
        self.push_event(icount, addr, PropKind::Compare);
    }

    fn note_branch(&mut self, icount: u64, addr: u32) {
        if self.log.first_branch.is_none() {
            self.log.first_branch = Some(icount);
        }
        self.push_event(icount, addr, PropKind::Branch);
    }

    fn note_syscall(&mut self, icount: u64, addr: u32, nr: u32) {
        if self.log.first_syscall_arg.is_none() {
            self.log.first_syscall_arg = Some(icount);
        }
        self.push_event(icount, addr, PropKind::SyscallArg { nr });
    }

    /// Taint of an operand read at `size`, including address-register
    /// taint for memory operands (a corrupted pointer yields corrupted
    /// data, wherever it points).
    fn src_taint(&self, cpu: &Cpu, op: &Operand, size: OpSize) -> bool {
        match op {
            Operand::Reg(r) => self.state.reg_range_tainted(*r as usize, 0, 4),
            Operand::Reg16(r) => self.state.reg_range_tainted(*r as usize, 0, 2),
            Operand::Reg8(r) => {
                let n = *r as usize;
                let (reg, byte) = if n < 4 { (n, 0) } else { (n - 4, 1) };
                self.state.reg_range_tainted(reg, byte, byte + 1)
            }
            Operand::Imm(_) | Operand::Rel(_) => false,
            Operand::Mem(m) => {
                self.mem_operand_addr_taint(m)
                    || self.state.mem_range_tainted(ea(cpu, m), size.bytes())
            }
        }
    }

    /// Taint of the registers forming a memory operand's address.
    fn mem_operand_addr_taint(&self, m: &MemOperand) -> bool {
        let base = m
            .base
            .is_some_and(|b| self.state.reg_range_tainted(b as usize, 0, 4));
        let index = m
            .index
            .is_some_and(|(i, _)| self.state.reg_range_tainted(i as usize, 0, 4));
        base || index
    }

    /// Write taint into a destination operand, emitting a write event
    /// for tainted memory stores.
    fn write_dst(
        &mut self,
        cpu: &Cpu,
        op: &Operand,
        size: OpSize,
        tainted: bool,
        addr: u32,
        icount: u64,
    ) {
        match op {
            Operand::Reg(r) => self.state.set_reg_range(*r as usize, 0, 4, tainted),
            Operand::Reg16(r) => self.state.set_reg_range(*r as usize, 0, 2, tainted),
            Operand::Reg8(r) => {
                let n = *r as usize;
                let (reg, byte) = if n < 4 { (n, 0) } else { (n - 4, 1) };
                self.state.set_reg_range(reg, byte, byte + 1, tainted);
            }
            Operand::Mem(m) => {
                let wa = ea(cpu, m);
                let t = tainted || self.mem_operand_addr_taint(m);
                self.state.set_mem_range(wa, size.bytes(), t);
                if t {
                    self.note_write(icount, addr, wa, size.bytes());
                }
            }
            _ => {}
        }
    }

    /// Mark the flags result of an instruction, emitting the first-flag
    /// event on the clean→tainted transition.
    fn write_flags(&mut self, tainted: bool, addr: u32, icount: u64) {
        self.state.flags = tainted;
        if tainted {
            self.note_flag(icount, addr);
        }
    }

    fn reg_tainted(&self, r: usize) -> bool {
        self.state.reg_range_tainted(r, 0, 4)
    }

    fn set_reg(&mut self, r: usize, tainted: bool) {
        self.state.set_reg_range(r, 0, 4, tainted);
    }

    /// Shadow the push of one dword: the four bytes below pre-exec ESP.
    fn push_taint(&mut self, esp: u32, slot: u32, tainted: bool, addr: u32, icount: u64) {
        let wa = esp.wrapping_sub(4 * (slot + 1));
        let t = tainted || self.reg_tainted(4);
        self.state.set_mem_range(wa, 4, t);
        if t {
            self.note_write(icount, addr, wa, 4);
        }
    }

    /// Taint of the dword `slot` dwords above pre-exec ESP.
    fn pop_taint(&self, esp: u32, slot: u32) -> bool {
        self.reg_tainted(4) || self.state.mem_range_tainted(esp.wrapping_add(4 * slot), 4)
    }

    /// The transfer function: map the instruction's data flow onto the
    /// shadow. `force` (seed mode) taints every destination regardless
    /// of source taint — the injected instruction's output *is* the
    /// corruption, whatever its inputs. All-clean sources clear their
    /// destination (taint death by overwrite).
    #[allow(clippy::too_many_lines)]
    fn transfer(&mut self, cpu: &Cpu, inst: &Inst, addr: u32, icount: u64, force: bool) {
        let size = inst.size;
        let esp = cpu.regs[4];
        if force {
            self.push_event(icount, addr, PropKind::Seed);
        }
        // Taint of a source operand at the instruction's width.
        macro_rules! st {
            ($op:expr) => {
                self.src_taint(cpu, &$op, size)
            };
        }
        match inst.op {
            Op::Nop | Op::Fpu | Op::Fwait | Op::Invalid(_) | Op::Int3 => {}
            Op::Mov => {
                let t = force || st!(inst.src.unwrap());
                self.write_dst(cpu, &inst.dst.unwrap(), size, t, addr, icount);
            }
            Op::Movzx | Op::Movsx => {
                let t = force || self.src_taint(cpu, &inst.src.unwrap(), inst.size2);
                self.write_dst(cpu, &inst.dst.unwrap(), size, t, addr, icount);
            }
            Op::Lea => {
                let t = force
                    || matches!(inst.src, Some(Operand::Mem(m)) if self.mem_operand_addr_taint(&m));
                self.write_dst(cpu, &inst.dst.unwrap(), OpSize::Dword, t, addr, icount);
            }
            Op::Xchg => {
                let td = force || st!(inst.dst.unwrap());
                let ts = force || st!(inst.src.unwrap());
                self.write_dst(cpu, &inst.dst.unwrap(), size, ts, addr, icount);
                self.write_dst(cpu, &inst.src.unwrap(), size, td, addr, icount);
            }
            Op::Add | Op::Or | Op::Adc | Op::Sbb | Op::And | Op::Sub | Op::Xor => {
                let carry = matches!(inst.op, Op::Adc | Op::Sbb) && self.state.flags;
                let mut t = force || st!(inst.dst.unwrap()) || st!(inst.src.unwrap()) || carry;
                // `xor r, r` / `sub r, r` are architectural zeroing
                // idioms: the result is constant whatever the input.
                if matches!(inst.op, Op::Xor | Op::Sub) && inst.dst == inst.src && !force {
                    t = false;
                }
                self.write_dst(cpu, &inst.dst.unwrap(), size, t, addr, icount);
                self.write_flags(t, addr, icount);
            }
            Op::Cmp | Op::Test => {
                let t = force || st!(inst.dst.unwrap()) || st!(inst.src.unwrap());
                self.write_flags(t, addr, icount);
                if t {
                    self.note_compare(icount, addr);
                }
            }
            Op::Inc | Op::Dec | Op::Neg | Op::Not => {
                let t = force || st!(inst.dst.unwrap());
                self.write_dst(cpu, &inst.dst.unwrap(), size, t, addr, icount);
                if inst.op != Op::Not {
                    self.write_flags(t, addr, icount);
                }
            }
            Op::Mul | Op::Imul1 => {
                let t = force || st!(inst.dst.unwrap()) || self.reg_tainted(0);
                self.set_reg(0, t);
                self.set_reg(2, t);
                self.write_flags(t, addr, icount);
            }
            Op::Imul2 => {
                let t = force || st!(inst.dst.unwrap()) || st!(inst.src.unwrap());
                self.write_dst(cpu, &inst.dst.unwrap(), size, t, addr, icount);
                self.write_flags(t, addr, icount);
            }
            Op::Imul3 => {
                let t = force || st!(inst.src.unwrap());
                self.write_dst(cpu, &inst.dst.unwrap(), size, t, addr, icount);
                self.write_flags(t, addr, icount);
            }
            Op::Div | Op::Idiv => {
                let t =
                    force || st!(inst.dst.unwrap()) || self.reg_tainted(0) || self.reg_tainted(2);
                self.set_reg(0, t);
                self.set_reg(2, t);
                self.write_flags(t, addr, icount);
            }
            Op::Shl | Op::Shr | Op::Sar | Op::Rol | Op::Ror | Op::Rcl | Op::Rcr => {
                let carry = matches!(inst.op, Op::Rcl | Op::Rcr) && self.state.flags;
                let t = force
                    || st!(inst.dst.unwrap())
                    || self.src_taint(cpu, &inst.src.unwrap(), OpSize::Byte)
                    || carry;
                self.write_dst(cpu, &inst.dst.unwrap(), size, t, addr, icount);
                self.write_flags(t, addr, icount);
            }
            Op::Shld | Op::Shrd => {
                let t = force
                    || st!(inst.dst.unwrap())
                    || st!(inst.src.unwrap())
                    || self.src_taint(cpu, &inst.src2.unwrap(), OpSize::Byte);
                self.write_dst(cpu, &inst.dst.unwrap(), size, t, addr, icount);
                self.write_flags(t, addr, icount);
            }
            Op::Bt | Op::Bts | Op::Btr | Op::Btc => {
                let t = force || st!(inst.dst.unwrap()) || st!(inst.src.unwrap());
                if inst.op != Op::Bt {
                    self.write_dst(cpu, &inst.dst.unwrap(), size, t, addr, icount);
                }
                self.write_flags(t, addr, icount);
            }
            Op::Xadd => {
                let td = force || st!(inst.dst.unwrap());
                let ts = force || st!(inst.src.unwrap());
                self.write_dst(cpu, &inst.src.unwrap(), size, td, addr, icount);
                self.write_dst(cpu, &inst.dst.unwrap(), size, td || ts, addr, icount);
                self.write_flags(td || ts, addr, icount);
            }
            Op::Cmpxchg => {
                let td = force || st!(inst.dst.unwrap());
                let ts = force || st!(inst.src.unwrap());
                let ta = self.reg_tainted(0) || force;
                // Either arm may have executed: union both outcomes.
                self.write_dst(cpu, &inst.dst.unwrap(), size, td || ts, addr, icount);
                self.set_reg(0, ta || td);
                self.write_flags(ta || td, addr, icount);
                if ta || td {
                    self.note_compare(icount, addr);
                }
            }
            Op::Bswap => {
                if let Some(Operand::Reg(r)) = inst.dst {
                    let n = r as usize;
                    let m = self.state.reg_masks[n] & 0xF;
                    let rev = ((m & 1) << 3) | ((m & 2) << 1) | ((m & 4) >> 1) | ((m & 8) >> 3);
                    self.state.reg_masks[n] = if force { 0xF } else { rev };
                }
            }
            Op::Arpl => self.write_flags(force, addr, icount),
            Op::Push => {
                let t = force || st!(inst.dst.unwrap());
                self.push_taint(esp, 0, t, addr, icount);
            }
            Op::Pop => {
                let t = force || self.pop_taint(esp, 0);
                self.write_dst(cpu, &inst.dst.unwrap(), size, t, addr, icount);
            }
            Op::Pusha => {
                for n in 0..8u32 {
                    let t = force || self.reg_tainted(n as usize);
                    self.push_taint(esp, n, t, addr, icount);
                }
            }
            Op::Popa => {
                for n in 0..8u32 {
                    // Pop order is EDI first; register 4 is discarded.
                    let reg = 7 - n as usize;
                    if reg != 4 {
                        let t = force || self.pop_taint(esp, n);
                        self.set_reg(reg, t);
                    }
                }
            }
            Op::Pushf => {
                self.push_taint(esp, 0, force || self.state.flags, addr, icount);
            }
            Op::Popf => {
                let t = force || self.pop_taint(esp, 0);
                self.write_flags(t, addr, icount);
            }
            Op::Sahf => {
                let ah = self.state.reg_range_tainted(0, 1, 2);
                // OF survives SAHF, so existing flags taint cannot clear.
                self.write_flags(force || ah || self.state.flags, addr, icount);
            }
            Op::Lahf => {
                let t = force || self.state.flags;
                self.state.set_reg_range(0, 1, 2, t);
            }
            Op::Salc => {
                let t = force || self.state.flags;
                self.state.set_reg_range(0, 0, 1, t);
            }
            Op::Cwde => {
                let t = force || self.state.reg_range_tainted(0, 0, 2);
                self.set_reg(0, t);
            }
            Op::Cdq => {
                let t = force || self.reg_tainted(0);
                self.set_reg(2, t);
            }
            Op::Clc | Op::Stc | Op::Cmc | Op::Cld | Op::Std => {
                // Single-bit flag writes; the rest of EFLAGS keeps its
                // taint, so the one-bit shadow can only stay or be set.
                if force {
                    self.write_flags(true, addr, icount);
                }
            }
            Op::Xlat => {
                let a = cpu.regs[3].wrapping_add(u32::from(cpu.get8(Reg8::Al)));
                let t = force
                    || self.reg_tainted(3)
                    || self.state.reg_range_tainted(0, 0, 1)
                    || self.state.mem_range_tainted(a, 1);
                self.state.set_reg_range(0, 0, 1, t);
            }
            Op::Aaa | Op::Aas | Op::Daa | Op::Das => {
                let t = force || self.state.reg_range_tainted(0, 0, 2) || self.state.flags;
                self.state.set_reg_range(0, 0, 2, t);
                self.write_flags(t, addr, icount);
            }
            Op::Aam(_) | Op::Aad(_) => {
                let t = force || self.state.reg_range_tainted(0, 0, 2);
                self.state.set_reg_range(0, 0, 2, t);
                self.write_flags(t, addr, icount);
            }
            Op::Cpuid => {
                // Constant outputs: a clean overwrite of EAX..EDX.
                for r in 0..4 {
                    self.set_reg(r, force);
                }
            }
            Op::Rdtsc => {
                self.set_reg(0, force);
                self.set_reg(2, force);
            }
            Op::Bound => {
                let t = force || st!(inst.dst.unwrap()) || st!(inst.src.unwrap());
                if t {
                    self.note_compare(icount, addr);
                }
            }
            Op::Str(s) => self.transfer_string(cpu, inst, s, addr, icount, force),
            Op::Setcc(_) => {
                let t = force || self.state.flags;
                self.write_dst(cpu, &inst.dst.unwrap(), OpSize::Byte, t, addr, icount);
                if t {
                    self.note_branch(icount, addr);
                }
            }
            Op::Jcc(_) => {
                if force || self.state.flags {
                    self.note_branch(icount, addr);
                }
            }
            Op::Loop | Op::Loope | Op::Loopne => {
                let zf = matches!(inst.op, Op::Loope | Op::Loopne) && self.state.flags;
                if force || self.reg_tainted(1) || zf {
                    self.note_branch(icount, addr);
                }
            }
            Op::Jecxz => {
                if force || self.reg_tainted(1) {
                    self.note_branch(icount, addr);
                }
            }
            Op::Jmp | Op::Call => {
                if force {
                    self.note_branch(icount, addr);
                }
                if inst.op == Op::Call {
                    // The pushed return address is a clean constant.
                    self.push_taint(esp, 0, force, addr, icount);
                }
            }
            Op::JmpInd | Op::CallInd => {
                let t = force || self.src_taint(cpu, &inst.dst.unwrap(), OpSize::Dword);
                if t {
                    self.note_branch(icount, addr);
                }
                if inst.op == Op::CallInd {
                    self.push_taint(esp, 0, force, addr, icount);
                }
            }
            Op::Ret(_) => {
                if force || self.pop_taint(esp, 0) {
                    self.note_branch(icount, addr);
                }
            }
            Op::Leave => {
                // esp <- ebp; pop ebp.
                let ebp = cpu.regs[5];
                let t_esp = force || self.reg_tainted(5);
                let t_ebp = force || self.reg_tainted(5) || self.state.mem_range_tainted(ebp, 4);
                self.set_reg(4, t_esp);
                self.set_reg(5, t_ebp);
            }
            Op::Enter(_, _) => {
                let t = force || self.reg_tainted(5);
                self.push_taint(esp, 0, t, addr, icount);
                // Nesting levels re-push frame pointers; conservatively
                // the new EBP/ESP carry the old EBP/ESP taint.
                self.set_reg(5, force || self.reg_tainted(4));
            }
            Op::Int(n) => {
                if n == 0x80 {
                    let arg = (0..8).filter(|&r| r != 4).any(|r| self.reg_tainted(r));
                    if force || arg {
                        self.note_syscall(icount, addr, cpu.regs[0]);
                    }
                }
            }
            Op::Into => {
                if force || self.state.flags {
                    self.note_branch(icount, addr);
                }
            }
        }
    }

    /// Shadow a string operation. The interpreter retires the whole
    /// `rep` loop as one instruction, so the transfer walks the same
    /// iteration space from the pre-execution registers, byte-exactly
    /// up to [`STR_ITER_CAP`] iterations (then saturates).
    fn transfer_string(
        &mut self,
        cpu: &Cpu,
        inst: &Inst,
        s: StrOp,
        addr: u32,
        icount: u64,
        force: bool,
    ) {
        let size = inst.size;
        let step = size.bytes();
        let iters = if inst.rep.is_some() { cpu.regs[1] } else { 1 };
        if inst.rep.is_some() && iters == 0 {
            return;
        }
        let capped = iters.min(STR_ITER_CAP);
        if capped < iters {
            self.state.saturated = true;
        }
        let down = cpu.eflags & crate::eflags::DF != 0;
        let delta = if down { 0u32.wrapping_sub(step) } else { step };
        let (esi0, edi0) = (cpu.regs[6], cpu.regs[7]);
        let idx_taint = self.reg_tainted(6) || self.reg_tainted(7);
        let mut any_write = false;
        let mut first_wa = edi0;
        let mut cmp_taint = false;
        for i in 0..capped {
            let esi = esi0.wrapping_add(delta.wrapping_mul(i));
            let edi = edi0.wrapping_add(delta.wrapping_mul(i));
            match s {
                StrOp::Movs => {
                    let t = force
                        || idx_taint
                        || self.reg_tainted(6)
                        || self.state.mem_range_tainted(esi, step);
                    self.state.set_mem_range(edi, step, t);
                    if t && !any_write {
                        any_write = true;
                        first_wa = edi;
                    }
                }
                StrOp::Stos => {
                    let t = force || self.reg_tainted(7) || self.reg_tainted(0);
                    self.state.set_mem_range(edi, step, t);
                    if t && !any_write {
                        any_write = true;
                        first_wa = edi;
                    }
                }
                StrOp::Lods => {
                    let t = force || self.reg_tainted(6) || self.state.mem_range_tainted(esi, step);
                    self.state.set_reg_range(0, 0, step.min(4) as u8, t);
                }
                StrOp::Scas => {
                    cmp_taint |= force
                        || self.reg_tainted(0)
                        || self.reg_tainted(7)
                        || self.state.mem_range_tainted(edi, step);
                }
                StrOp::Cmps => {
                    cmp_taint |= force
                        || idx_taint
                        || self.state.mem_range_tainted(esi, step)
                        || self.state.mem_range_tainted(edi, step);
                }
            }
        }
        if any_write {
            self.note_write(icount, addr, first_wa, step.wrapping_mul(capped));
        }
        if matches!(s, StrOp::Scas | StrOp::Cmps) {
            self.write_flags(cmp_taint, addr, icount);
            if cmp_taint {
                self.note_compare(icount, addr);
            }
        }
    }
}

/// Effective address of a memory operand over a given register file —
/// the same computation as [`crate::Machine::ea`], duplicated here so
/// the tracer can resolve addresses from the *pre-execution* CPU it was
/// handed without borrowing the machine.
fn ea(cpu: &Cpu, m: &MemOperand) -> u32 {
    let mut a = m.disp as u32;
    if let Some(b) = m.base {
        a = a.wrapping_add(cpu.regs[b as usize]);
    }
    if let Some((i, s)) = m.index {
        a = a.wrapping_add(cpu.regs[i as usize].wrapping_mul(u32::from(s)));
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Reg32;

    fn mov_ri(r: Reg32, v: i64) -> Inst {
        Inst::new(Op::Mov)
            .dst(Operand::Reg(r))
            .src(Operand::Imm(v))
            .len(5)
    }

    #[test]
    fn a_period_that_moves_the_shadow_sets_a_first_or_freezes_is_not_repeatable() {
        let cpu = Cpu::new();
        let mut t = TaintTracer::new(Some(0x1000), 6);
        t.observe(&cpu, &mov_ri(Reg32::Eax, 5), 0x1000, 1);
        let mut mark = TaintMark::default();
        t.mark(&mut mark);
        assert!(t.repeatable_since(&mark));
        // add eax, 1 taints the flags for the first time; cmp ebx, 0
        // cleans them: the shadow is back, but the next period would not
        // log a first flag.
        let add = Inst::new(Op::Add)
            .dst(Operand::Reg(Reg32::Eax))
            .src(Operand::Imm(1));
        let clean_cmp = Inst::new(Op::Cmp)
            .dst(Operand::Reg(Reg32::Ebx))
            .src(Operand::Imm(0));
        t.observe(&cpu, &add, 0x1005, 2);
        t.observe(&cpu, &clean_cmp, 0x1008, 3);
        assert_eq!(t.state, mark.state);
        assert!(!t.repeatable_since(&mark), "a first was set");
        t.mark(&mut mark);
        t.observe(&cpu, &add, 0x1005, 4);
        t.observe(&cpu, &clean_cmp, 0x1008, 5);
        assert!(t.repeatable_since(&mark));
        // mov ebx, eax: the shadow grows.
        let spread = Inst::new(Op::Mov)
            .dst(Operand::Reg(Reg32::Ebx))
            .src(Operand::Reg(Reg32::Eax));
        t.observe(&cpu, &spread, 0x100B, 6);
        assert!(!t.repeatable_since(&mark), "the shadow moved");
        // Past the horizon of 6 hooked instructions: frozen.
        t.mark(&mut mark);
        t.observe(&cpu, &clean_cmp, 0x1008, 7);
        assert!(t.frozen);
        assert!(!t.repeatable_since(&mark), "the tracer froze");
    }

    #[test]
    fn seed_then_clean_overwrite_dies() {
        let cpu = Cpu::new();
        let mut t = TaintTracer::new(Some(0x1000), 1000);
        // mov eax, 5 at the seed: EAX tainted.
        t.observe(&cpu, &mov_ri(Reg32::Eax, 5), 0x1000, 1);
        assert_eq!(t.width(), 4);
        // mov ebx, eax: spreads.
        let spread = Inst::new(Op::Mov)
            .dst(Operand::Reg(Reg32::Ebx))
            .src(Operand::Reg(Reg32::Eax));
        t.observe(&cpu, &spread, 0x1005, 2);
        assert_eq!(t.width(), 8);
        // Clean immediates overwrite both: death.
        t.observe(&cpu, &mov_ri(Reg32::Eax, 0), 0x1007, 3);
        t.observe(&cpu, &mov_ri(Reg32::Ebx, 0), 0x100C, 4);
        let log = t.into_log();
        assert_eq!(log.seed_icount, Some(1));
        assert_eq!(log.death, Some(4));
        assert_eq!(log.peak_width, 8);
        assert_eq!(log.final_width, 0);
    }

    #[test]
    fn tainted_compare_and_branch_are_logged() {
        let cpu = Cpu::new();
        let mut t = TaintTracer::new(Some(0x2000), 1000);
        t.observe(&cpu, &mov_ri(Reg32::Eax, 5), 0x2000, 10);
        let cmp = Inst::new(Op::Cmp)
            .dst(Operand::Reg(Reg32::Eax))
            .src(Operand::Imm(0));
        t.observe(&cpu, &cmp, 0x2005, 11);
        let jcc = Inst::new(Op::Jcc(crate::inst::Cond::E)).dst(Operand::Rel(4));
        t.observe(&cpu, &jcc, 0x2008, 12);
        let log = t.into_log();
        assert_eq!(log.first_compare, Some(11));
        assert_eq!(log.first_flag, Some(11));
        assert_eq!(log.first_branch, Some(12));
        assert_eq!(log.first_decision(), Some(11));
    }

    #[test]
    fn zeroing_idiom_clears_taint() {
        let cpu = Cpu::new();
        let mut t = TaintTracer::new(Some(0x3000), 1000);
        t.observe(&cpu, &mov_ri(Reg32::Eax, 5), 0x3000, 1);
        let xor = Inst::new(Op::Xor)
            .dst(Operand::Reg(Reg32::Eax))
            .src(Operand::Reg(Reg32::Eax));
        t.observe(&cpu, &xor, 0x3005, 2);
        let log = t.into_log();
        assert_eq!(log.death, Some(2));
        assert_eq!(log.final_width, 0);
    }

    #[test]
    fn observe_all_never_taints_clean_flow() {
        let mut cpu = Cpu::new();
        cpu.regs[4] = 0x9000;
        let mut t = TaintTracer::new(None, 10_000);
        assert!(t.observe_all());
        let insts = [
            mov_ri(Reg32::Eax, 7),
            Inst::new(Op::Add)
                .dst(Operand::Reg(Reg32::Eax))
                .src(Operand::Imm(1)),
            Inst::new(Op::Push).dst(Operand::Reg(Reg32::Eax)),
            Inst::new(Op::Cmp)
                .dst(Operand::Reg(Reg32::Eax))
                .src(Operand::Imm(8)),
        ];
        for (i, inst) in insts.iter().enumerate() {
            t.observe(&cpu, inst, 0x1000 + i as u32, i as u64 + 1);
        }
        assert_eq!(t.width(), 0);
        let log = t.into_log();
        assert!(log.is_empty(), "{log:?}");
    }

    #[test]
    fn horizon_freezes_the_tracer() {
        let cpu = Cpu::new();
        let mut t = TaintTracer::new(Some(0x1000), 3);
        t.observe(&cpu, &mov_ri(Reg32::Eax, 5), 0x1000, 1);
        let inc = Inst::new(Op::Inc).dst(Operand::Reg(Reg32::Eax));
        t.observe(&cpu, &inc, 0x1005, 2);
        t.observe(&cpu, &inc, 0x1006, 3);
        t.observe(&cpu, &inc, 0x1007, 4); // over horizon: freezes
        assert!(!t.wants_range(0, u64::MAX));
        let log = t.into_log();
        assert!(log.frozen);
        assert!(matches!(log.events.last().unwrap().kind, PropKind::Frozen));
    }

    #[test]
    fn wants_range_is_seed_and_liveness_gated() {
        let t = TaintTracer::new(Some(0x1234), 100);
        assert!(t.wants_range(0x1230, 0x1240));
        assert!(t.wants_range(0x1234, 0x1235));
        assert!(!t.wants_range(0x1235, 0x2000));
        assert!(!t.wants_range(0x1000, 0x1234));
        let all = TaintTracer::new(None, 100);
        assert!(all.wants_range(0, 1));
    }

    #[test]
    fn string_copy_moves_taint_between_buffers() {
        let mut cpu = Cpu::new();
        cpu.regs[6] = 0x2000; // esi
        cpu.regs[7] = 0x3000; // edi
        cpu.regs[1] = 4; // ecx
        let mut t = TaintTracer::new(Some(0x100), 1000);
        // Seed: mov [0x2001], al — one tainted byte in the source buffer.
        let seed = Inst::new(Op::Mov)
            .dst(Operand::Mem(MemOperand::abs(0x2001)))
            .src(Operand::Reg8(Reg8::Al))
            .size(OpSize::Byte);
        t.observe(&cpu, &seed, 0x100, 1);
        assert_eq!(t.width(), 1);
        // rep movsb copies 4 bytes: the tainted byte lands at 0x3001.
        let movs = {
            let mut i = Inst::new(Op::Str(StrOp::Movs)).size(OpSize::Byte);
            i.rep = Some(crate::inst::RepKind::RepE);
            i
        };
        t.observe(&cpu, &movs, 0x105, 2);
        assert!(t.state().mem_range_tainted(0x3001, 1));
        assert!(!t.state().mem_range_tainted(0x3000, 1));
        assert!(!t.state().mem_range_tainted(0x3002, 2));
        let log = t.into_log();
        assert!(log.first_write.is_some());
    }

    #[test]
    fn tainted_syscall_argument_is_flagged() {
        let mut cpu = Cpu::new();
        cpu.regs[0] = 4; // write(2)
        let mut t = TaintTracer::new(Some(0x500), 1000);
        t.observe(&cpu, &mov_ri(Reg32::Ebx, 1), 0x500, 1);
        let int80 = Inst::new(Op::Int(0x80));
        t.observe(&cpu, &int80, 0x505, 2);
        let log = t.into_log();
        assert_eq!(log.first_syscall_arg, Some(2));
        assert!(log
            .events
            .iter()
            .any(|e| e.kind == PropKind::SyscallArg { nr: 4 }));
    }
}
