//! Fast-forwarding provable hangs.
//!
//! A flip that traps the server in a loop is classified only once the
//! run has burned its whole instruction budget. Many such loops are
//! exact cycles: the state that decides the future — registers, EIP,
//! EFLAGS and memory, plus, for a process, its client's state and the
//! bytes queued for the server — recurs after a period of `P`
//! instructions. From there execution repeats period for period until
//! the budget stops it, so whole periods can be skipped by arithmetic:
//! with `R` instructions of budget left, retire `⌊R/P⌋·P` at once and run
//! the last `R mod P` normally. The stop lands on the exact budget in
//! the exact state the per-step engine reaches.
//!
//! A [`CycleWatch`] finds the recurrence with Brent's cycle detection: a
//! tortoise (a mark of the state) moves to the current point after gaps
//! of 1, 2, 4, … instructions, and every step in between compares the
//! current state with it. Once the tortoise stands inside the cycle and
//! the gap has grown to the period, a step lands on it. A mark copies
//! only the memory pages written since the previous mark — the pages the
//! loop writes, once its window spans a period — and memory compares
//! through the page stamps snapshot restores already keep
//! (`Memory::same_since`).
//!
//! Two rules step a watch:
//!
//! * [`Machine::run_until_event`](crate::Machine::run_until_event)
//!   steps one at every block dispatch and resident-loop iteration once
//!   the call has run [`CYCLE_WATCH_FROM`] instructions without a
//!   syscall: loops in registers and memory alone;
//! * `fisec_os::Process::run` steps one at every syscall boundary and
//!   compares its channel too: output loops, a server writing the same
//!   reply to a client that no longer changes.
//!
//! Neither runs while a breakpoint, coverage, the EIP ring or the flight
//! recorder is armed
//! ([`Machine::may_fast_forward`](crate::Machine::may_fast_forward)), and
//! the per-step engine has no watch, so it stays the full-execution
//! oracle. The profiler and the taint tracer do not stop a skip. A mark
//! records their tallies too, and a repeat also needs a period that
//! built no block and left the tracer's shadow and first-event icounts
//! where they stood. A skip then repeats the period's block tallies,
//! cache hits and propagation events over the periods it retires,
//! stopping short of the tracer's horizon, so both report what the full
//! run reports.

use crate::block::BlockCache;
use crate::cpu::Cpu;
use crate::mem::{Memory, PageCapture};
use crate::profiler::{ExecProfile, ProfileMark};
use crate::taint::{TaintMark, TaintTracer};

/// Instructions a
/// [`Machine::run_until_event`](crate::Machine::run_until_event) call
/// runs without a syscall before it starts watching for a cycle. No
/// bundled server's golden session goes this long between syscalls (the
/// longest stretch is under 9,000), so the watch costs nothing until a
/// run is already a suspect hang.
pub const CYCLE_WATCH_FROM: u64 = 1 << 14;

/// The machine state a cycle must repeat, captured at one instant:
/// registers, EIP and EFLAGS, the pages written since the watch's
/// previous mark, the counters that must not move inside a period, and
/// the tallies of the observers a skip accounts for.
#[derive(Debug, Clone, Default)]
struct MachineMark {
    cpu: Cpu,
    icount: u64,
    exec_gen: u64,
    fallbacks: u64,
    pages: PageCapture,
    profile: Option<ProfileMark>,
    taint: Option<TaintMark>,
}

/// The parts of a machine a watch step reads besides its registers and
/// memory: the observers a skip accounts for, and the block cache whose
/// counters the profiler reports.
pub(crate) struct Observed<'a> {
    pub(crate) profile: Option<&'a ExecProfile>,
    pub(crate) taint: Option<&'a TaintTracer>,
    pub(crate) blocks: &'a BlockCache,
}

/// What one [`CycleWatch`] step found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Watch {
    /// The state equals the tortoise's, this many instructions later:
    /// [`Machine::fast_forward`](crate::Machine::fast_forward) retires
    /// the periods to skip and resets the watch.
    Repeat(u64),
    /// The tortoise moved to the current point: an embedder capturing
    /// state of its own alongside captures it now.
    Moved,
    /// Neither.
    Waiting,
}

/// Brent's cycle detection over a machine's states (see the module
/// docs), with its schedule counted in instructions: the tortoise moves
/// to the first step at least 1, 2, 4, … instructions past its last
/// mark. Once the gap reaches the period, the step one period past a
/// mark inside the cycle lands on it. Reset it before the first step of
/// each run.
#[derive(Debug, Clone, Default)]
pub struct CycleWatch {
    mark: MachineMark,
    /// Whether `mark` holds a mark of this run.
    marked: bool,
    /// The gap to the next move, in instructions.
    gap: u64,
    /// The icount at or past which the tortoise moves.
    next_move: u64,
}

impl CycleWatch {
    /// Forget the tortoise: the next step marks afresh.
    pub fn reset(&mut self) {
        self.marked = false;
        self.next_move = 0;
    }

    /// One step at the state given by its parts; `same_rest` compares
    /// the embedder's state and is asked only when the machine's
    /// matches. A step compares EIP, and the registers when EIP is the
    /// mark's; only a state whose registers are the mark's, or a
    /// tortoise due to move, costs a call.
    #[inline]
    pub(crate) fn step(
        &mut self,
        cpu: &Cpu,
        mem: &Memory,
        icount: u64,
        fallbacks: u64,
        observed: &Observed<'_>,
        same_rest: impl FnOnce() -> bool,
    ) -> Watch {
        if self.marked
            && cpu.eip == self.mark.cpu.eip
            && cpu.regs == self.mark.cpu.regs
            && self.mark.matches(cpu, mem, icount, fallbacks, observed)
            && same_rest()
        {
            return Watch::Repeat(icount - self.mark.icount);
        }
        if icount < self.next_move {
            return Watch::Waiting;
        }
        self.move_to(cpu, mem, icount, fallbacks, observed);
        Watch::Moved
    }

    /// Move the tortoise here and double the gap to its next move.
    #[cold]
    fn move_to(
        &mut self,
        cpu: &Cpu,
        mem: &Memory,
        icount: u64,
        fallbacks: u64,
        observed: &Observed<'_>,
    ) {
        // The first mark copies nothing: it matches only a loop that
        // writes no memory, and the next mark copies what was written.
        mem.recapture(&mut self.mark.pages, self.marked);
        self.mark.cpu.clone_from(cpu);
        self.mark.icount = icount;
        self.mark.exec_gen = mem.exec_gen();
        self.mark.fallbacks = fallbacks;
        match observed.profile {
            Some(p) => p.mark(
                observed.blocks.stats(),
                self.mark.profile.get_or_insert_with(ProfileMark::default),
            ),
            None => self.mark.profile = None,
        }
        match observed.taint {
            Some(t) => t.mark(self.mark.taint.get_or_insert_with(TaintMark::default)),
            None => self.mark.taint = None,
        }
        self.gap = if self.marked { self.gap * 2 } else { 1 };
        self.next_move = icount + self.gap;
        self.marked = true;
    }

    /// The instructions from the mark to `icount`: after a
    /// [`Watch::Repeat`], the period.
    pub(crate) fn period(&self, icount: u64) -> u64 {
        icount - self.mark.icount
    }

    /// After a [`Watch::Repeat`] at `icount`, account for up to `periods`
    /// more periods in the observers, as many as the taint tracer's
    /// horizon leaves room for, and reset. Returns the periods accounted.
    pub(crate) fn repeat_observers(
        &mut self,
        icount: u64,
        profile: Option<&mut ExecProfile>,
        blocks: &BlockCache,
        taint: Option<&mut TaintTracer>,
        periods: u64,
    ) -> u64 {
        let period = self.period(icount);
        let mut periods = periods;
        if let (Some(t), Some(mark)) = (taint, &self.mark.taint) {
            periods = t.periods_within_horizon(mark, periods);
            t.repeat_since(mark, period, periods);
        }
        if let (Some(p), Some(mark)) = (profile, &self.mark.profile) {
            p.repeat_since(blocks.stats(), mark, periods);
        }
        self.reset();
        periods
    }
}

impl MachineMark {
    /// Whether the state given by its parts, whose EIP and registers are
    /// this mark's, is this mark's, later.
    #[cold]
    fn matches(
        &self,
        cpu: &Cpu,
        mem: &Memory,
        icount: u64,
        fallbacks: u64,
        observed: &Observed<'_>,
    ) -> bool {
        cpu.eflags == self.cpu.eflags
            && icount > self.icount
            && mem.exec_gen() == self.exec_gen
            && fallbacks == self.fallbacks
            && mem.same_since(&self.pages)
            && match (observed.profile, &self.profile) {
                (Some(p), Some(mark)) => p.repeatable_since(observed.blocks.stats(), mark),
                (p, mark) => p.is_none() && mark.is_none(),
            }
            && match (observed.taint, &self.taint) {
                (Some(t), Some(mark)) => t.repeatable_since(mark),
                (t, mark) => t.is_none() && mark.is_none(),
            }
    }
}
