//! Interpreter hot-spot profiler.
//!
//! The phase profiler (fisec-telemetry) says *replay* dominates campaign
//! wall-clock; this module says *where inside replay* the time goes. An
//! [`ExecProfile`] rides on a [`Machine`](crate::Machine) and tallies,
//! per basic block, how often the block engine dispatched it and how
//! many instructions it retired; per address, which decoded shapes still
//! fall through [`UOp::Slow`](crate::block) to the generic `exec` path;
//! and the block-cache hit/build/invalidation traffic since profiling
//! began. In that ranked view the top blocks are where dispatch cost
//! concentrates, and the slow-shape tally is the µop-lowering backlog.
//!
//! The profiler is pure observation: it never touches architectural
//! state, so campaign outcomes are bit-identical with it on or off
//! (pinned by differential tests), and every instrumentation site is a
//! single `Option` check when disabled. Like the flight recorder it is
//! *not* snapshot state — but unlike the recorder it deliberately
//! survives [`Machine::restore`](crate::Machine::restore), so one
//! profile accumulates across every replay of a checkpoint group.

use crate::block::BlockStats;
use crate::inst::{Inst, OpSize, Operand};
use std::collections::HashMap;

/// Dispatch/retire tallies for one basic block (keyed by entry EIP).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockTally {
    /// Times the block engine executed this block (resident-loop
    /// re-executions count: same decoded bytes, re-retired).
    pub dispatches: u64,
    /// Instructions retired under this block's entry, summed over all
    /// dispatches (partial executions count what actually retired).
    pub retired: u64,
}

/// One address whose instruction executes through the generic slow path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowSite {
    /// Operand-shape label, e.g. `shl32 r32, imm` (computed once, on
    /// the first hit).
    pub shape: String,
    /// Times the slow path ran here.
    pub count: u64,
}

/// Trace-cache counters of an engine that has no trace cache: both are
/// always zero. They remain only because the benchmark's layer ledger
/// still reads them; ROADMAP item 6 drops the ledger rows and this
/// struct together.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Always zero.
    pub hits: u64,
    /// Always zero.
    pub side_exits: u64,
}

/// The collected profile: per-block tallies, slow-path sites, the
/// stepwise-retirement residue and the block-cache counter delta.
#[derive(Debug, Clone, Default)]
pub struct ExecProfile {
    /// Per-block dispatch/retire tallies keyed by entry EIP.
    pub blocks: HashMap<u32, BlockTally>,
    /// Slow-path sites keyed by instruction address.
    pub slow: HashMap<u32, SlowSite>,
    /// Instructions retired through the precise single-step path (the
    /// stepwise engine, or the block engine's breakpoint/budget/rdtsc
    /// fallbacks) — work no block tally accounts for.
    pub stepwise_retired: u64,
    /// Block-cache counters observed while profiling (delta between
    /// enable and [`crate::Machine::take_exec_profile`]).
    pub cache: BlockStats,
    /// Always zero (see [`TraceStats`]).
    pub trace_cache: TraceStats,
    baseline: BlockStats,
    /// Cache hits of the dispatches in cycle periods the machine skipped
    /// (see [`crate::cycle`]): added to [`ExecProfile::cache`] on seal,
    /// so a skipped run reports the traffic of the full one.
    skipped_hits: u64,
}

/// What an [`ExecProfile`] had tallied at a cycle watch's mark, so the
/// tallies of one period can be repeated over the skipped ones.
#[derive(Debug, Clone, Default)]
pub(crate) struct ProfileMark {
    blocks: HashMap<u32, BlockTally>,
    slow: HashMap<u32, u64>,
    stepwise_retired: u64,
    cache: BlockStats,
}

impl ExecProfile {
    /// Start a profile whose cache counters are measured relative to
    /// `baseline` (the machine's [`BlockStats`] at enable time).
    pub fn begin(baseline: BlockStats) -> ExecProfile {
        ExecProfile {
            baseline,
            ..ExecProfile::default()
        }
    }

    /// Record one block dispatch that retired `retired` instructions.
    #[inline]
    pub fn note_block(&mut self, entry: u32, retired: u64) {
        let t = self.blocks.entry(entry).or_default();
        t.dispatches += 1;
        t.retired += retired;
    }

    /// Record one slow-path execution at `addr`. The shape string is
    /// computed only on the site's first hit.
    pub fn note_slow(&mut self, addr: u32, inst: &Inst) {
        self.slow
            .entry(addr)
            .or_insert_with(|| SlowSite {
                shape: op_shape(inst),
                count: 0,
            })
            .count += 1;
    }

    /// Total instructions the profile accounts for.
    pub fn total_retired(&self) -> u64 {
        self.blocks.values().map(|t| t.retired).sum::<u64>() + self.stepwise_retired
    }

    /// Overwrite `mark` with the tallies so far and the machine's cache
    /// counters `cache`.
    pub(crate) fn mark(&self, cache: BlockStats, mark: &mut ProfileMark) {
        mark.blocks.clone_from(&self.blocks);
        mark.slow.clear();
        mark.slow
            .extend(self.slow.iter().map(|(&addr, s)| (addr, s.count)));
        mark.stepwise_retired = self.stepwise_retired;
        mark.cache = cache;
    }

    /// Whether the period since `mark` tallies the same in every later
    /// one: it retired nothing single-stepped, and every dispatch hit the
    /// block cache, so the cache holds what it held at the mark.
    pub(crate) fn repeatable_since(&self, cache: BlockStats, mark: &ProfileMark) -> bool {
        self.stepwise_retired == mark.stepwise_retired
            && cache.built == mark.cache.built
            && cache.invalidated == mark.cache.invalidated
            && cache.conflict_evictions == mark.cache.conflict_evictions
    }

    /// Tally `times` more periods like the one since `mark`, which
    /// [`ExecProfile::repeatable_since`] accepted at cache counters
    /// `cache`.
    pub(crate) fn repeat_since(&mut self, cache: BlockStats, mark: &ProfileMark, times: u64) {
        for (entry, t) in &mut self.blocks {
            let before = mark.blocks.get(entry).copied().unwrap_or_default();
            t.dispatches += times * (t.dispatches - before.dispatches);
            t.retired += times * (t.retired - before.retired);
        }
        for (addr, s) in &mut self.slow {
            let before = mark.slow.get(addr).copied().unwrap_or(0);
            s.count += times * (s.count - before);
        }
        self.skipped_hits += times * (cache.hits - mark.cache.hits);
    }

    /// Finalize against the machine's current cache counters, filling
    /// [`ExecProfile::cache`] with the delta since [`ExecProfile::begin`].
    pub(crate) fn seal(&mut self, now: BlockStats) {
        self.cache = BlockStats {
            built: now.built.saturating_sub(self.baseline.built),
            hits: (now.hits + self.skipped_hits).saturating_sub(self.baseline.hits),
            invalidated: now.invalidated.saturating_sub(self.baseline.invalidated),
            conflict_evictions: now
                .conflict_evictions
                .saturating_sub(self.baseline.conflict_evictions),
            cached: now.cached,
        };
    }
}

/// A compact operand-shape label for a decoded instruction: op name,
/// operand size, and the *kind* of each operand (not its value), so all
/// sites executing the same shape aggregate under one backlog line.
pub fn op_shape(i: &Inst) -> String {
    let size = match i.size {
        OpSize::Byte => "8",
        OpSize::Word => "16",
        OpSize::Dword => "32",
    };
    let mut s = format!("{:?}", i.op).to_lowercase();
    s.push_str(size);
    if let Some(d) = &i.dst {
        s.push(' ');
        s.push_str(operand_shape(d));
    }
    if let Some(src) = &i.src {
        s.push_str(", ");
        s.push_str(operand_shape(src));
    }
    if let Some(src2) = &i.src2 {
        s.push_str(", ");
        s.push_str(operand_shape(src2));
    }
    s
}

fn operand_shape(op: &Operand) -> &'static str {
    match op {
        Operand::Reg(_) => "r32",
        Operand::Reg16(_) => "r16",
        Operand::Reg8(_) => "r8",
        Operand::Imm(_) => "imm",
        Operand::Rel(_) => "rel",
        Operand::Mem(m) => {
            if m.index.is_some() {
                "[b+i*s+d]"
            } else if m.base.is_some() {
                "[b+d]"
            } else {
                "[abs]"
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{MemOperand, Op, Reg32};

    #[test]
    fn tallies_accumulate_per_block() {
        let mut p = ExecProfile::begin(BlockStats::default());
        p.note_block(0x1000, 5);
        p.note_block(0x1000, 5);
        p.note_block(0x2000, 1);
        assert_eq!(p.blocks[&0x1000].dispatches, 2);
        assert_eq!(p.blocks[&0x1000].retired, 10);
        assert_eq!(p.blocks[&0x2000].retired, 1);
        p.stepwise_retired = 3;
        assert_eq!(p.total_retired(), 14);
    }

    #[test]
    fn slow_sites_compute_shape_once() {
        let mut p = ExecProfile::begin(BlockStats::default());
        let mut i = Inst::new(Op::Shl);
        i.dst = Some(Operand::Reg(Reg32::Eax));
        i.src = Some(Operand::Imm(3));
        p.note_slow(0x1234, &i);
        p.note_slow(0x1234, &i);
        let site = &p.slow[&0x1234];
        assert_eq!(site.count, 2);
        assert_eq!(site.shape, "shl32 r32, imm");
    }

    #[test]
    fn shapes_distinguish_addressing_kinds() {
        let mut i = Inst::new(Op::Mov);
        i.dst = Some(Operand::Reg(Reg32::Ecx));
        i.src = Some(Operand::Mem(MemOperand {
            base: Some(Reg32::Ebx),
            index: Some((Reg32::Esi, 4)),
            disp: 8,
        }));
        assert_eq!(op_shape(&i), "mov32 r32, [b+i*s+d]");
        i.src = Some(Operand::Mem(MemOperand {
            base: None,
            index: None,
            disp: 0x8049000,
        }));
        assert_eq!(op_shape(&i), "mov32 r32, [abs]");
    }

    #[test]
    fn seal_takes_the_cache_delta() {
        let mut p = ExecProfile::begin(BlockStats {
            built: 10,
            hits: 100,
            invalidated: 5,
            conflict_evictions: 1,
            cached: 7,
        });
        p.seal(BlockStats {
            built: 12,
            hits: 150,
            invalidated: 6,
            conflict_evictions: 4,
            cached: 9,
        });
        assert_eq!(p.cache.built, 2);
        assert_eq!(p.cache.hits, 50);
        assert_eq!(p.cache.invalidated, 1);
        assert_eq!(p.cache.conflict_evictions, 3);
        assert_eq!(p.cache.cached, 9);
    }
}
