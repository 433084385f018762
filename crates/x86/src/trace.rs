//! Tier-2 superblock trace cache.
//!
//! The block engine (tier 1, see [`crate::block`]) still pays a full
//! dispatch — breakpoint check, budget check, cache probe — per basic
//! block, and hot server loops are chains of *short* blocks: strlen's
//! two four-instruction blocks retire 30% of all guest instructions
//! (EXPERIMENTS.md). A [`SuperTrace`] links the blocks observed to
//! execute back-to-back across taken branches into one dispatch unit,
//! keyed by entry EIP plus a short branch-history signature so the same
//! entry can hold different traces on different paths.
//!
//! Execution stays bit-identical to the per-step engine by
//! construction: a trace executes its constituent blocks through the
//! *same* block executor tier 1 uses, and between blocks a guard
//! compares the live EIP against the recorded successor's entry — on a
//! mispredicted edge the trace side-exits and the dispatch loop falls
//! back to tier 1 with every instruction so far retired exactly as
//! tier 1 would have retired it. Soundness against self-modifying code
//! and snapshot restores rides on the same executable-write journal
//! that protects the block cache: a trace is dropped whenever any of
//! its blocks covers a journaled byte, and a generation change observed
//! mid-trace side-exits immediately.
//!
//! Promotion is heat-based: a block-cache dispatch that misses the
//! trace cache bumps a direct-mapped heat counter for its
//! `(entry, history)` pair; past the threshold the machine enters
//! record mode and appends each cleanly completed block until the
//! length bound, a fallback, or a fault ends the recording.

use crate::block::Block;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// Most blocks a single trace may link. Bounds the work one tier-2
/// dispatch commits to before budget and breakpoints are re-checked
/// (`MAX_TRACE_BLOCKS * MAX_BLOCK_INSTS` instructions at worst).
pub(crate) const MAX_TRACE_BLOCKS: usize = 8;

/// Trace-cache slots and heat-counter entries (power of two).
const TRACE_SLOTS: usize = 2048;

/// Dispatches of a block-cache entry (per `(entry, history)` pair)
/// before it is promoted to trace recording.
const DEFAULT_THRESHOLD: u16 = 16;

/// A superblock: basic blocks observed to execute back-to-back,
/// replayed as one dispatch unit with inter-block guards.
#[derive(Debug)]
pub struct SuperTrace {
    /// Entry EIP of the first block — the cache key, with `hist`.
    pub entry: u32,
    /// Branch-history signature at the time the trace was recorded.
    pub hist: u8,
    /// The linked blocks, in execution order.
    pub blocks: Vec<Arc<Block>>,
    /// Sum of `insts.len()` over all blocks: the instruction budget a
    /// full trace execution commits to.
    pub total_insts: u64,
    /// Lowest entry address over all blocks (breakpoint pre-check).
    pub lo: u32,
    /// Highest `end` over all blocks (breakpoint pre-check).
    pub hi: u64,
    /// The footprint recording epoch under which every block of this
    /// trace has been marked (0: none yet).
    pub(crate) marked: AtomicU64,
}

impl SuperTrace {
    /// Does any linked block's byte range cover `addr`?
    #[inline]
    pub fn covers(&self, addr: u32) -> bool {
        self.blocks.iter().any(|b| b.covers(addr))
    }
}

/// In-progress trace recording (lives on the machine while record mode
/// is active; survives syscall exits so traces can span them).
#[derive(Debug, Clone)]
pub(crate) struct TraceRec {
    pub entry: u32,
    pub hist: u8,
    pub blocks: Vec<Arc<Block>>,
    pub total: u64,
}

/// Cumulative trace-cache counters, exposed for tests, the profiler
/// and the bench crate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Traces recorded and inserted.
    pub built: u64,
    /// Dispatches served from the trace cache.
    pub hits: u64,
    /// Guard mispredictions and mid-trace self-modification exits.
    pub side_exits: u64,
    /// Traces dropped by invalidation (targeted or full clears).
    pub invalidated: u64,
    /// Traces currently resident.
    pub cached: usize,
}

/// An occupied trace slot with its trace's `[lo, hi)` byte bounds,
/// kept inline so invalidation screens a trace without touching it.
#[derive(Debug, Clone, Copy)]
struct Resident {
    slot: u32,
    lo: u32,
    hi: u64,
}

/// Direct-mapped `(entry, history) → Arc<SuperTrace>` cache plus the
/// promotion heat counters.
#[derive(Debug, Clone)]
pub(crate) struct TraceCache {
    slots: Vec<Option<Arc<SuperTrace>>>,
    heat: Vec<u16>,
    /// The occupied slots, unordered. Journal-driven invalidation scans
    /// only these bounds and walks the blocks of just the traces whose
    /// `[lo, hi)` overlaps a written byte.
    occupied: Vec<Resident>,
    threshold: u16,
    built: u64,
    hits: u64,
    side_exits: u64,
    invalidated: u64,
}

impl Default for TraceCache {
    fn default() -> TraceCache {
        TraceCache {
            slots: Vec::new(),
            heat: Vec::new(),
            occupied: Vec::new(),
            threshold: DEFAULT_THRESHOLD,
            built: 0,
            hits: 0,
            side_exits: 0,
            invalidated: 0,
        }
    }
}

impl TraceCache {
    #[inline]
    fn slot_of(entry: u32, hist: u8) -> usize {
        (entry as usize ^ (entry as usize >> 12) ^ ((hist as usize) << 3)) & (TRACE_SLOTS - 1)
    }

    /// The resident trace recorded at `(entry, hist)`, if any.
    #[inline]
    pub fn get(&mut self, entry: u32, hist: u8) -> Option<Arc<SuperTrace>> {
        let t = self.slots.get(Self::slot_of(entry, hist))?.as_ref()?;
        if t.entry == entry && t.hist == hist {
            self.hits += 1;
            Some(Arc::clone(t))
        } else {
            None
        }
    }

    /// Bump the heat counter for `(entry, hist)`; `true` when the
    /// promotion threshold was just crossed (the counter resets, so the
    /// pair must re-heat before being promoted again).
    #[inline]
    pub fn heat_up(&mut self, entry: u32, hist: u8) -> bool {
        if self.heat.is_empty() {
            self.heat.resize(TRACE_SLOTS, 0);
        }
        let h = &mut self.heat[Self::slot_of(entry, hist)];
        *h = h.saturating_add(1);
        if *h >= self.threshold {
            *h = 0;
            true
        } else {
            false
        }
    }

    /// Insert a finished recording (evicting any slot collision).
    pub fn insert(&mut self, rec: TraceRec) {
        if self.slots.is_empty() {
            self.slots.resize(TRACE_SLOTS, None);
        }
        let lo = rec.blocks.iter().map(|b| b.entry).min().unwrap_or(0);
        let hi = rec.blocks.iter().map(|b| b.end).max().unwrap_or(0);
        let trace = Arc::new(SuperTrace {
            entry: rec.entry,
            hist: rec.hist,
            blocks: rec.blocks,
            total_insts: rec.total,
            lo,
            hi,
            marked: AtomicU64::new(0),
        });
        self.built += 1;
        let slot = Self::slot_of(trace.entry, trace.hist);
        let resident = Resident {
            slot: slot as u32,
            lo,
            hi,
        };
        if self.slots[slot].is_some() {
            self.invalidated += 1;
            let r = self
                .occupied
                .iter_mut()
                .find(|r| r.slot == slot as u32)
                .expect("occupied slots are listed");
            *r = resident;
        } else {
            self.occupied.push(resident);
        }
        self.slots[slot] = Some(trace);
    }

    /// Count a guard misprediction or mid-trace self-modification exit.
    #[inline]
    pub fn note_side_exit(&mut self) {
        self.side_exits += 1;
    }

    /// Drop every trace with a block covering any of `addrs` (the
    /// executable bytes just written, straight from the memory journal).
    pub fn invalidate_writes(&mut self, addrs: &[u32]) {
        let (Some(&min), Some(&max)) = (addrs.iter().min(), addrs.iter().max()) else {
            return;
        };
        let slots = &mut self.slots;
        let invalidated = &mut self.invalidated;
        self.occupied.retain(|r| {
            if r.hi <= u64::from(min) || r.lo > max {
                return true;
            }
            let slot = &mut slots[r.slot as usize];
            match slot {
                Some(t) if addrs.iter().any(|&a| t.covers(a)) => {
                    *invalidated += 1;
                    *slot = None;
                    false
                }
                other => other.is_some(),
            }
        });
    }

    /// Drop everything (lineage breaks, decoder swaps, engine toggles).
    /// Heat survives a targeted invalidation but not a clear.
    pub fn clear(&mut self) {
        self.invalidated += self.occupied.len() as u64;
        self.slots.clear();
        self.heat.clear();
        self.occupied.clear();
    }

    /// Lower (or raise) the promotion threshold — tests use `1` to
    /// force trace formation on the second dispatch.
    pub fn set_threshold(&mut self, threshold: u16) {
        self.threshold = threshold.max(1);
    }

    pub fn stats(&self) -> TraceStats {
        TraceStats {
            built: self.built,
            hits: self.hits,
            side_exits: self.side_exits,
            invalidated: self.invalidated,
            cached: self.occupied.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::LInst;
    use crate::inst::{Inst, Op};
    use std::sync::atomic::AtomicU64;

    fn block(entry: u32, nbytes: u32) -> Arc<Block> {
        let inst = Inst::new(Op::Nop);
        Arc::new(Block {
            entry,
            end: entry as u64 + nbytes as u64,
            insts: vec![LInst::new(entry, entry.wrapping_add(1), inst)],
            reads_icount: false,
            writes: false,
            marked: AtomicU64::new(0),
        })
    }

    fn rec(entry: u32, hist: u8, blocks: Vec<Arc<Block>>) -> TraceRec {
        let total = blocks.iter().map(|b| b.insts.len() as u64).sum();
        TraceRec {
            entry,
            hist,
            blocks,
            total,
        }
    }

    #[test]
    fn keyed_by_entry_and_history() {
        let mut c = TraceCache::default();
        c.insert(rec(0x1000, 3, vec![block(0x1000, 4), block(0x2000, 4)]));
        assert!(c.get(0x1000, 3).is_some());
        assert!(c.get(0x1000, 4).is_none(), "other history, other trace");
        assert!(c.get(0x2000, 3).is_none());
        let s = c.stats();
        assert_eq!((s.built, s.hits, s.cached), (1, 1, 1));
    }

    #[test]
    fn heat_crosses_threshold_once_then_resets() {
        let mut c = TraceCache::default();
        c.set_threshold(3);
        assert!(!c.heat_up(0x1000, 0));
        assert!(!c.heat_up(0x1000, 0));
        assert!(c.heat_up(0x1000, 0));
        assert!(!c.heat_up(0x1000, 0), "counter must reset on promotion");
    }

    #[test]
    fn invalidation_hits_tail_blocks_too() {
        let mut c = TraceCache::default();
        c.insert(rec(0x1000, 0, vec![block(0x1000, 4), block(0x3000, 4)]));
        // A write inside the *tail* block must drop the whole trace.
        c.invalidate_writes(&[0x3002]);
        assert!(c.get(0x1000, 0).is_none());
        assert_eq!(c.stats().invalidated, 1);
        // Writes outside every linked block are free.
        c.insert(rec(0x1000, 0, vec![block(0x1000, 4)]));
        c.invalidate_writes(&[0x9000]);
        assert!(c.get(0x1000, 0).is_some());
    }

    #[test]
    fn invalidation_checks_blocks_inside_the_bounds_and_tracks_replacements() {
        let mut c = TraceCache::default();
        // A write inside [lo, hi) but in the gap between the linked
        // blocks keeps the trace.
        c.insert(rec(0x1000, 0, vec![block(0x1000, 4), block(0x3000, 4)]));
        c.invalidate_writes(&[0x2000]);
        assert!(c.get(0x1000, 0).is_some());
        // Replacing the slot's trace replaces its bounds too: the old
        // tail no longer drops it, the new one does.
        c.insert(rec(0x1000, 0, vec![block(0x1000, 4), block(0x5000, 4)]));
        c.invalidate_writes(&[0x3001]);
        assert!(c.get(0x1000, 0).is_some());
        c.invalidate_writes(&[0x9000, 0x5003]);
        assert!(c.get(0x1000, 0).is_none());
        assert_eq!(c.stats().cached, 0);
    }
}
