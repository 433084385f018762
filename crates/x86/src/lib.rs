//! # fisec-x86 — a deterministic user-mode IA-32 interpreter
//!
//! This crate is the hardware substrate for the fault-injection security
//! study. It models the 32-bit Intel architecture at the level the study
//! needs:
//!
//! * a **total decoder** over the full one-byte opcode map and the relevant
//!   `0x0F` two-byte opcodes (conditional branches, `setcc`, `movzx`/`movsx`,
//!   `imul`). "Total" means any byte sequence decodes to *something* — either
//!   a real instruction or an explicit [`Op::Invalid`] — because injected
//!   single-bit errors produce arbitrary bytes;
//! * an **encoder** for the subset emitted by the assembler/compiler, with
//!   the property `decode(encode(i)) == i`;
//! * a flat 32-bit **paged memory** model with per-region permissions, so
//!   wild stores and wild branches fault exactly as they would under Linux
//!   (`SIGSEGV`-like faults);
//! * an interpreter [`Machine`] with precise instruction counting (needed for
//!   the paper's Figure 4 crash-latency histogram) and breakpoint support
//!   (needed by the NFTAPE-style injector).
//!
//! The machine is fully deterministic: no host time, no host randomness.
//!
//! ## Example
//!
//! ```
//! use fisec_x86::{Machine, Memory, Region, Perms, StepEvent};
//!
//! // mov eax, 7; inc eax
//! let text = vec![0xB8, 7, 0, 0, 0, 0x40];
//! let mut mem = Memory::new();
//! mem.map(Region::with_data("text", 0x1000, text, Perms::RX)).unwrap();
//! let mut m = Machine::new(mem);
//! m.cpu.eip = 0x1000;
//! assert_eq!(m.step(), StepEvent::Executed);
//! assert_eq!(m.step(), StepEvent::Executed);
//! assert_eq!(m.cpu.regs[fisec_x86::Reg32::Eax as usize], 8);
//! ```

pub mod block;
pub mod cpu;
pub mod cycle;
pub mod decode;
pub mod disasm;
pub mod encode;
pub mod flags;
pub mod inst;
pub mod mem;
pub mod profiler;
pub mod recorder;
pub mod taint;

pub use block::{Block, BlockStats};
pub use cpu::{Cpu, Footprint, Machine, MachineSnapshot, RunOutcome, StepEvent};
pub use cycle::{CycleWatch, Watch, CYCLE_WATCH_FROM};
pub use decode::decode;
pub use disasm::{disassemble, fmt_att, DisasmLine};
pub use encode::encode;
pub use inst::{
    Cond, Fault, Inst, InvalidKind, MemOperand, Op, OpSize, Operand, Reg16, Reg32, Reg8, RepKind,
    StrOp,
};
pub use mem::{Memory, Perms, Region};
pub use profiler::{op_shape, BlockTally, ExecProfile, SlowSite};
pub use recorder::{Edge, EdgeKind, FlightTrace};
pub use taint::{PropEvent, PropKind, PropagationLog, TaintTracer, DEFAULT_TAINT_HORIZON};

/// EFLAGS bit positions used by the interpreter.
pub mod eflags {
    /// Carry flag.
    pub const CF: u32 = 1 << 0;
    /// Parity flag.
    pub const PF: u32 = 1 << 2;
    /// Auxiliary carry flag.
    pub const AF: u32 = 1 << 4;
    /// Zero flag.
    pub const ZF: u32 = 1 << 6;
    /// Sign flag.
    pub const SF: u32 = 1 << 7;
    /// Direction flag.
    pub const DF: u32 = 1 << 10;
    /// Overflow flag.
    pub const OF: u32 = 1 << 11;
    /// The always-set reserved bit 1.
    pub const RESERVED1: u32 = 1 << 1;
    /// Mask of the arithmetic status flags.
    pub const STATUS_MASK: u32 = CF | PF | AF | ZF | SF | OF;
}
