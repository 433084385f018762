//! Flat 32-bit memory with per-region permissions.
//!
//! The process image is a small set of non-overlapping regions (text, data,
//! stack, ...). Any access outside a region, or violating a region's
//! permissions, raises a [`Fault`] — the analogue of `SIGSEGV` that produces
//! the paper's *system detection* (crash) outcomes.

use crate::inst::Fault;
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Restore granularity: `Memory::restore` copies back whole pages of
/// `1 << PAGE_SHIFT` bytes.
const PAGE_SHIFT: u32 = 10;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// Most pages a [`PageCapture`] copies. A capture taken after more
/// writes copies none: it then matches only a loop that writes no
/// memory, and the copy of a loop that walks a buffer, which can never
/// match, stays small. No matched cycle or output loop measured on the
/// §7 test needed more than 5 (EXPERIMENTS.md, "Warm campaigns").
const CAPTURE_PAGES: usize = 16;

/// The byte range of page `page` within a region of `len` bytes (its
/// last page may be short).
fn page_range(page: usize, len: usize) -> Range<usize> {
    let lo = page << PAGE_SHIFT;
    lo..(lo + PAGE_SIZE).min(len)
}

/// Source of [`Memory`] identities (a snapshot restores page-wise only
/// into the memory it was captured from).
static NEXT_MEMORY_ID: AtomicU64 = AtomicU64::new(1);

/// Region permissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Perms {
    /// Readable.
    pub read: bool,
    /// Writable.
    pub write: bool,
    /// Executable.
    pub exec: bool,
}

impl Perms {
    /// Read-only.
    pub const R: Perms = Perms {
        read: true,
        write: false,
        exec: false,
    };
    /// Read-write.
    pub const RW: Perms = Perms {
        read: true,
        write: true,
        exec: false,
    };
    /// Read-execute (text segments).
    pub const RX: Perms = Perms {
        read: true,
        write: false,
        exec: true,
    };
    /// Read-write-execute (used by tests only).
    pub const RWX: Perms = Perms {
        read: true,
        write: true,
        exec: true,
    };
}

impl fmt::Display for Perms {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{}",
            if self.read { 'r' } else { '-' },
            if self.write { 'w' } else { '-' },
            if self.exec { 'x' } else { '-' }
        )
    }
}

/// A contiguous mapped region.
#[derive(Debug, Clone)]
pub struct Region {
    name: String,
    start: u32,
    data: Vec<u8>,
    perms: Perms,
    /// Per page, the owning memory's write clock at the last write or
    /// restore that touched it (see `Memory::restore`). Bookkeeping,
    /// not contents: a restore never copies stamps from a snapshot.
    stamps: Vec<u64>,
}

impl Region {
    /// A zero-filled region of `len` bytes.
    ///
    /// # Panics
    /// Panics if the region would wrap past the end of the address space or
    /// is empty.
    pub fn zeroed(name: &str, start: u32, len: u32, perms: Perms) -> Region {
        Self::with_data(name, start, vec![0; len as usize], perms)
    }

    /// A region initialized with `data`.
    ///
    /// # Panics
    /// Panics if the region would wrap past the end of the address space or
    /// is empty.
    pub fn with_data(name: &str, start: u32, data: Vec<u8>, perms: Perms) -> Region {
        assert!(!data.is_empty(), "region {name} must not be empty");
        assert!(
            (start as u64) + (data.len() as u64) <= (u32::MAX as u64) + 1,
            "region {name} wraps the address space"
        );
        Region {
            name: name.to_string(),
            start,
            stamps: vec![0; data.len().div_ceil(PAGE_SIZE)],
            data,
            perms,
        }
    }

    /// Region name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// First mapped address.
    pub fn start(&self) -> u32 {
        self.start
    }

    /// One past the last mapped address (may be 2^32, reported as u64).
    pub fn end(&self) -> u64 {
        self.start as u64 + self.data.len() as u64
    }

    /// Length in bytes.
    pub fn len(&self) -> u32 {
        self.data.len() as u32
    }

    /// Always false (regions are non-empty by construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Permissions.
    pub fn perms(&self) -> Perms {
        self.perms
    }

    /// The backing bytes, `start()`-based. Read-only view — all writes
    /// go through [`Memory`] so the executable-write journal stays
    /// sound. The flight recorder's corrupted-state diff compares two
    /// address spaces through this without a per-byte permission check.
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    fn contains(&self, addr: u32) -> bool {
        (addr as u64) >= (self.start as u64) && (addr as u64) < self.end()
    }
}

/// The process address space: a sorted set of disjoint regions.
///
/// Every write and poke stamps its page with the memory's write clock,
/// and every snapshot advances the clock. A restore into the memory a
/// snapshot was captured from therefore knows which pages can differ —
/// those stamped after the capture — and copies back only those (see
/// [`Machine::restore`](crate::Machine::restore)).
#[derive(Debug)]
pub struct Memory {
    regions: Vec<Region>,
    /// Index of the most recently resolved region — a pure performance
    /// hint exploiting the strong locality of guest accesses (runs of
    /// stack or data traffic hit the same region back to back). Any
    /// stale value is safe: a miss falls through to the binary search.
    /// Relaxed atomic so `&self` lookups can refresh it.
    hint: AtomicU32,
    /// Bumped whenever executable bytes may have changed (injector pokes,
    /// writes into rwx regions); lets the CPU invalidate its decoded-
    /// instruction cache.
    exec_gen: u64,
    /// Journal of the addresses behind each generation bump: entry `k` is
    /// the write that moved `exec_gen` from `k` to `k + 1` (invariant:
    /// `exec_log.len() == exec_gen`). Lets the CPU invalidate exactly the
    /// decoded blocks covering changed bytes instead of dropping its whole
    /// cache, and lets snapshot restore prove lineage (see
    /// [`Memory::exec_log_extends`]).
    exec_log: Vec<u32>,
    /// Identity checked by `Memory::restore`: clones get a fresh one.
    id: u64,
    /// Write clock: the stamp every write puts on its page. Each
    /// snapshot takes the current value as its capture stamp and
    /// advances it, so later writes stamp strictly above the capture.
    /// Atomic only so `&self` can capture.
    clock: AtomicU64,
    /// Data reads that resolved to an executable region: every
    /// successful [`Memory::read8`] and every single-region fast-path
    /// read behind the wider reads, whether the CPU or the OS made it.
    /// Instruction fetches ([`Memory::fetch_window`]) and debugger peeks
    /// ([`Memory::peek8`]) do not count. Monotonic — not snapshot state,
    /// [`Memory::restore`] leaves it alone. A run that leaves it unmoved
    /// depended on its code bytes only by executing them, which is what
    /// lets the latent-error runner replay a flip from the golden run's
    /// first fetch of the flipped byte. Relaxed atomic so `&self` reads
    /// can count.
    exec_reads: AtomicU64,
    /// Half-open ranges of capture stamps whose snapshots are no longer
    /// ancestors of the current contents: restoring snapshot `s` kills
    /// every capture taken after `s`, and a full-copy restore or a new
    /// mapping kills every capture so far. Sorted, disjoint, and as
    /// short as the chain of nested restore targets.
    dead: Vec<(u64, u64)>,
}

/// A capture of a [`Memory`] for a later [`Memory::restore`]: the full
/// contents plus the capture stamp and the identity of the memory it
/// came from.
#[derive(Debug, Clone)]
pub(crate) struct MemorySnapshot {
    mem: Memory,
    origin: u64,
    stamp: u64,
}

impl MemorySnapshot {
    /// The captured address space.
    pub(crate) fn memory(&self) -> &Memory {
        &self.mem
    }
}

/// Some pages of a [`Memory`] as they stood at one instant, and the
/// capture stamp every later write stamps above: what
/// [`Memory::same_since`] compares the live contents against. Only the
/// pages written between the previous capture and this one are copied,
/// at most [`CAPTURE_PAGES`] of them (see [`Memory::recapture`]), so a
/// loop's capture holds the pages the loop writes, not the address
/// space.
#[derive(Debug, Clone, Default)]
pub(crate) struct PageCapture {
    stamp: u64,
    /// (region index, page index) of each copied page, in address order.
    pages: Vec<(usize, usize)>,
    /// Their contents back to back (a region's last page may be short).
    bytes: Vec<u8>,
}

/// Error mapping a region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapError {
    /// Name of the region that failed to map.
    pub name: String,
    /// Name of the overlapping existing region.
    pub overlaps: String,
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "region {} overlaps existing region {}",
            self.name, self.overlaps
        )
    }
}

impl std::error::Error for MapError {}

impl Clone for Memory {
    /// Same contents, new identity: snapshots of the original restore
    /// into the clone by full copy.
    fn clone(&self) -> Memory {
        Memory {
            regions: self.regions.clone(),
            hint: AtomicU32::new(self.hint.load(Ordering::Relaxed)),
            exec_gen: self.exec_gen,
            exec_log: self.exec_log.clone(),
            id: NEXT_MEMORY_ID.fetch_add(1, Ordering::Relaxed),
            clock: AtomicU64::new(self.clock.load(Ordering::Relaxed)),
            exec_reads: AtomicU64::new(self.exec_reads.load(Ordering::Relaxed)),
            dead: Vec::new(),
        }
    }
}

impl Default for Memory {
    fn default() -> Memory {
        Memory {
            regions: Vec::new(),
            hint: AtomicU32::new(0),
            exec_gen: 0,
            exec_log: Vec::new(),
            id: NEXT_MEMORY_ID.fetch_add(1, Ordering::Relaxed),
            clock: AtomicU64::new(0),
            exec_reads: AtomicU64::new(0),
            dead: Vec::new(),
        }
    }
}

impl Memory {
    /// An empty address space.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Capture the whole address space for a later [`Memory::restore`].
    pub(crate) fn snapshot(&self) -> MemorySnapshot {
        MemorySnapshot {
            mem: self.clone(),
            origin: self.id,
            stamp: self.clock.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Overwrite `snap` with a capture of this memory — what
    /// [`Memory::snapshot`] returns. When `snap` is a live capture of
    /// this memory (its contents are an ancestor of the current ones),
    /// only the pages stamped after it are copied, into its buffers;
    /// otherwise the whole memory is cloned.
    pub(crate) fn snapshot_into(&self, snap: &mut MemorySnapshot) {
        if self.descends_from(snap) {
            for (i, range) in self.stamped_after(snap.stamp) {
                snap.mem.regions[i].data[range.clone()]
                    .copy_from_slice(&self.regions[i].data[range]);
            }
        } else {
            snap.mem = self.clone();
        }
        snap.mem.exec_gen = self.exec_gen;
        snap.mem.exec_log.clone_from(&self.exec_log);
        snap.origin = self.id;
        snap.stamp = self.clock.fetch_add(1, Ordering::Relaxed);
    }

    /// Rewind the contents, the executable generation and its journal
    /// to `snap`.
    ///
    /// When `snap` was captured from this memory and no later restore
    /// or mapping has superseded it, only the pages stamped after the
    /// capture can differ, and only those are copied back. Any other
    /// snapshot — one captured from a clone, say — falls back to copying
    /// every region.
    pub(crate) fn restore(&mut self, snap: &MemorySnapshot) {
        let clock = *self.clock.get_mut();
        if self.descends_from(snap) {
            for (r, s) in self.regions.iter_mut().zip(&snap.mem.regions) {
                for (page, stamp) in r.stamps.iter_mut().enumerate() {
                    if *stamp > snap.stamp {
                        let range = page_range(page, r.data.len());
                        r.data[range.clone()].copy_from_slice(&s.data[range]);
                        // The page now holds the capture's bytes: clean
                        // for `snap`, conservatively dirty for every
                        // earlier capture.
                        *stamp = snap.stamp;
                    }
                }
            }
            debug_assert!(self.exec_log_extends(&snap.mem));
            self.exec_log.truncate(snap.mem.exec_log.len());
            // Captures taken after `snap` describe a future that no
            // longer happened.
            self.dead.retain(|&(lo, _)| lo <= snap.stamp);
            self.kill_captures(snap.stamp + 1, clock);
        } else {
            self.regions.clone_from(&snap.mem.regions);
            for r in &mut self.regions {
                r.stamps.fill(0);
            }
            self.exec_log.clone_from(&snap.mem.exec_log);
            self.dead.clear();
            self.kill_captures(0, clock);
        }
        self.exec_gen = snap.mem.exec_gen;
    }

    /// The writable pages written since `snap` was captured, as (page
    /// address, contents) in address order: the writable pages `restore`
    /// would copy back, read from the same stamps. `None` when `snap` is not
    /// a live capture of this memory, so its stamps say nothing.
    pub(crate) fn written_since(&self, snap: &MemorySnapshot) -> Option<Vec<(u32, Vec<u8>)>> {
        if !self.descends_from(snap) {
            return None;
        }
        let pages = self
            .stamped_after(snap.stamp)
            .map(|(i, range)| (&self.regions[i], range))
            .filter(|(r, _)| r.perms.write)
            .map(|(r, range)| (r.start + range.start as u32, r.data[range].to_vec()))
            .collect();
        Some(pages)
    }

    /// Move `cap` to now: copy the pages stamped after its previous
    /// capture (none when `copy` is false, or when there are more than
    /// [`CAPTURE_PAGES`]), then take a fresh capture stamp. Advancing the
    /// clock is all a capture costs the snapshot machinery: stamps only
    /// ever compare against capture stamps.
    pub(crate) fn recapture(&self, cap: &mut PageCapture, copy: bool) {
        cap.pages.clear();
        cap.bytes.clear();
        if copy {
            for (i, range) in self.stamped_after(cap.stamp) {
                if cap.pages.len() == CAPTURE_PAGES {
                    cap.pages.clear();
                    cap.bytes.clear();
                    break;
                }
                cap.pages.push((i, range.start >> PAGE_SHIFT));
                cap.bytes.extend_from_slice(&self.regions[i].data[range]);
            }
        }
        cap.stamp = self.clock.fetch_add(1, Ordering::Relaxed);
    }

    /// Whether the contents equal those `cap` was captured from, when
    /// nothing restored or mapped this memory since: every page stamped
    /// after the capture is one `cap` copied, and still holds the copied
    /// bytes. Pages stamped no later are unchanged, since every write
    /// stamps above every earlier capture; a written page that `cap` did
    /// not copy counts as a difference, since nothing says what it held.
    /// The copied pages are compared first, so a loop that counts in
    /// memory fails on its first changed byte.
    pub(crate) fn same_since(&self, cap: &PageCapture) -> bool {
        let mut off = 0;
        let mut written = 0;
        for &(i, page) in &cap.pages {
            let r = &self.regions[i];
            let range = page_range(page, r.data.len());
            let len = range.len();
            if r.stamps[page] > cap.stamp {
                if r.data[range] != cap.bytes[off..off + len] {
                    return false;
                }
                written += 1;
            }
            off += len;
        }
        self.stamped_after(cap.stamp).count() == written
    }

    /// The pages stamped after `stamp` — written since the capture that
    /// took it — as (region index, byte range in the region), in address
    /// order.
    fn stamped_after(&self, stamp: u64) -> impl Iterator<Item = (usize, Range<usize>)> + '_ {
        self.regions.iter().enumerate().flat_map(move |(i, r)| {
            r.stamps
                .iter()
                .enumerate()
                .filter(move |&(_, &s)| s > stamp)
                .map(move |(page, _)| (i, page_range(page, r.data.len())))
        })
    }

    /// Is `snap` a capture of this memory that still describes an
    /// ancestor of its current contents?
    fn descends_from(&self, snap: &MemorySnapshot) -> bool {
        snap.origin == self.id
            && !self
                .dead
                .iter()
                .any(|&(lo, hi)| lo <= snap.stamp && snap.stamp < hi)
    }

    /// Record the capture stamps `[lo, hi)` as superseded.
    fn kill_captures(&mut self, lo: u64, hi: u64) {
        if lo < hi {
            self.dead.push((lo, hi));
        }
    }

    /// Stamp the pages holding `[off, off + len)` of region `i` as
    /// written now.
    #[inline]
    fn stamp(&mut self, i: usize, off: usize, len: usize) {
        let now = *self.clock.get_mut();
        let stamps = &mut self.regions[i].stamps;
        stamps[off >> PAGE_SHIFT] = now;
        stamps[(off + len - 1) >> PAGE_SHIFT] = now;
    }

    /// Map a region.
    ///
    /// # Errors
    /// Returns [`MapError`] if it overlaps an existing region.
    pub fn map(&mut self, region: Region) -> Result<(), MapError> {
        for r in &self.regions {
            let disjoint = region.end() <= r.start as u64 || (region.start as u64) >= r.end();
            if !disjoint {
                return Err(MapError {
                    name: region.name.clone(),
                    overlaps: r.name.clone(),
                });
            }
        }
        self.regions.push(region);
        self.regions.sort_by_key(|r| r.start);
        // Earlier snapshots lack the new region: restore them by full copy.
        let clock = *self.clock.get_mut();
        self.dead.clear();
        self.kill_captures(0, clock);
        Ok(())
    }

    /// Iterate over mapped regions in address order.
    pub fn regions(&self) -> impl Iterator<Item = &Region> {
        self.regions.iter()
    }

    /// Index of the region containing `addr`, if any. Checks the
    /// last-hit hint before falling back to binary search; guest
    /// accesses are heavily clustered (stack, then a data run, ...), so
    /// the hint hits far more often than not.
    #[inline]
    fn region_index(&self, addr: u32) -> Option<usize> {
        let h = self.hint.load(Ordering::Relaxed) as usize;
        if let Some(r) = self.regions.get(h) {
            if r.contains(addr) {
                return Some(h);
            }
        }
        let idx = match self.regions.binary_search_by_key(&addr, |r| r.start) {
            Ok(i) => i,
            Err(0) => return None,
            Err(i) => i - 1,
        };
        if self.regions[idx].contains(addr) {
            self.hint.store(idx as u32, Ordering::Relaxed);
            Some(idx)
        } else {
            None
        }
    }

    /// The region containing `addr`, if any.
    #[inline]
    pub fn region_at(&self, addr: u32) -> Option<&Region> {
        self.region_index(addr).map(|i| &self.regions[i])
    }

    /// Read one byte for data access.
    ///
    /// # Errors
    /// [`Fault::MemAccess`] if unmapped or not readable.
    pub fn read8(&self, addr: u32) -> Result<u8, Fault> {
        let r = self
            .region_at(addr)
            .filter(|r| r.perms.read)
            .ok_or(Fault::MemAccess { addr, write: false })?;
        if r.perms.exec {
            self.note_exec_read();
        }
        Ok(r.data[(addr - r.start) as usize])
    }

    /// Read a little-endian 16-bit value.
    ///
    /// # Errors
    /// [`Fault::MemAccess`] if any byte is unmapped or not readable.
    pub fn read16(&self, addr: u32) -> Result<u16, Fault> {
        // Fast path: both bytes in one readable region (one region lookup
        // instead of two).
        if let Some(b) = self.read_slice(addr, 2) {
            return Ok(u16::from_le_bytes([b[0], b[1]]));
        }
        let lo = self.read8(addr)? as u16;
        let hi = self.read8(addr.wrapping_add(1))? as u16;
        Ok(lo | (hi << 8))
    }

    /// Read a little-endian 32-bit value.
    ///
    /// # Errors
    /// [`Fault::MemAccess`] if any byte is unmapped or not readable.
    pub fn read32(&self, addr: u32) -> Result<u32, Fault> {
        // Fast path: all four bytes in one readable region (one region
        // lookup instead of four).
        if let Some(b) = self.read_slice(addr, 4) {
            return Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]));
        }
        let mut v = 0u32;
        for i in 0..4 {
            v |= (self.read8(addr.wrapping_add(i))? as u32) << (8 * i);
        }
        Ok(v)
    }

    /// `len` readable bytes starting at `addr` when they all fall inside a
    /// single readable region; `None` sends the caller to the byte-wise
    /// path (which also produces the precise fault).
    #[inline]
    fn read_slice(&self, addr: u32, len: usize) -> Option<&[u8]> {
        let r = self.region_at(addr).filter(|r| r.perms.read)?;
        let off = (addr - r.start) as usize;
        let bytes = r.data.get(off..off + len)?;
        if r.perms.exec {
            self.note_exec_read();
        }
        Some(bytes)
    }

    /// Count one data read of executable bytes (see
    /// [`Memory::exec_data_reads`]). Cold: guest code rarely reads its
    /// own text.
    #[cold]
    fn note_exec_read(&self) {
        let n = self.exec_reads.load(Ordering::Relaxed);
        self.exec_reads.store(n + 1, Ordering::Relaxed);
    }

    /// Data reads of executable bytes since this memory was created
    /// (see the `exec_reads` field): a run that leaves the count
    /// unmoved never read its code as data.
    pub fn exec_data_reads(&self) -> u64 {
        self.exec_reads.load(Ordering::Relaxed)
    }

    /// Current generation of executable bytes (see [`Memory::poke8`]).
    /// Inlined: the block executor re-checks it on every dispatch and
    /// after every potentially writing µop.
    #[inline]
    pub fn exec_gen(&self) -> u64 {
        self.exec_gen
    }

    /// Addresses written by every generation bump after `gen` (oldest
    /// first). `exec_writes_since(exec_gen())` is empty; passing a `gen`
    /// from the future is clamped to empty.
    #[inline]
    pub fn exec_writes_since(&self, gen: u64) -> &[u32] {
        let from = (gen.min(self.exec_log.len() as u64)) as usize;
        &self.exec_log[from..]
    }

    /// True when `earlier`'s write journal is a prefix of this memory's —
    /// i.e. `earlier` is an ancestor state of the same execution, and the
    /// bytes that differ between the two are exactly
    /// `self.exec_writes_since(earlier.exec_gen())`.
    pub fn exec_log_extends(&self, earlier: &Memory) -> bool {
        self.exec_log.len() >= earlier.exec_log.len()
            && self.exec_log[..earlier.exec_log.len()] == earlier.exec_log[..]
    }

    /// Record one generation bump caused by a write to `addr`.
    #[inline]
    fn note_exec_write(&mut self, addr: u32) {
        self.exec_gen += 1;
        self.exec_log.push(addr);
    }

    /// Write one byte.
    ///
    /// # Errors
    /// [`Fault::MemAccess`] if unmapped or not writable.
    pub fn write8(&mut self, addr: u32, val: u8) -> Result<(), Fault> {
        let i = self
            .region_index(addr)
            .filter(|&i| self.regions[i].perms.write)
            .ok_or(Fault::MemAccess { addr, write: true })?;
        let r = &mut self.regions[i];
        let exec = r.perms.exec;
        let off = (addr - r.start) as usize;
        r.data[off] = val;
        self.stamp(i, off, 1);
        if exec {
            self.note_exec_write(addr);
        }
        Ok(())
    }

    /// Write a little-endian 16-bit value.
    ///
    /// # Errors
    /// [`Fault::MemAccess`] if any byte is unmapped or not writable.
    pub fn write16(&mut self, addr: u32, val: u16) -> Result<(), Fault> {
        if self.write_slice(addr, &val.to_le_bytes()) {
            return Ok(());
        }
        self.write8(addr, val as u8)?;
        self.write8(addr.wrapping_add(1), (val >> 8) as u8)
    }

    /// Write a little-endian 32-bit value.
    ///
    /// # Errors
    /// [`Fault::MemAccess`] if any byte is unmapped or not writable.
    pub fn write32(&mut self, addr: u32, val: u32) -> Result<(), Fault> {
        if self.write_slice(addr, &val.to_le_bytes()) {
            return Ok(());
        }
        for i in 0..4 {
            self.write8(addr.wrapping_add(i), (val >> (8 * i)) as u8)?;
        }
        Ok(())
    }

    /// Store `bytes` when they all fall inside a single writable region
    /// (one region lookup instead of one per byte). Returns false — having
    /// written nothing — when they don't, sending the caller to the
    /// byte-wise path for the partial-write-then-fault semantics.
    #[inline]
    fn write_slice(&mut self, addr: u32, bytes: &[u8]) -> bool {
        let Some(i) = self.region_index(addr) else {
            return false;
        };
        let r = &mut self.regions[i];
        if !r.perms.write {
            return false;
        }
        let off = (addr - r.start) as usize;
        let Some(dst) = r.data.get_mut(off..off + bytes.len()) else {
            return false;
        };
        dst.copy_from_slice(bytes);
        let exec = r.perms.exec;
        self.stamp(i, off, bytes.len());
        if exec {
            // Same per-byte generation accounting as the byte-wise path.
            for k in 0..bytes.len() as u32 {
                self.note_exec_write(addr.wrapping_add(k));
            }
        }
        true
    }

    /// Fetch up to 15 instruction bytes starting at `addr` from executable
    /// memory. Returns the bytes actually available (stops at a region
    /// boundary unless the next region is also executable and contiguous).
    ///
    /// # Errors
    /// [`Fault::FetchFault`] if `addr` itself is unmapped or not executable.
    pub fn fetch_window(&self, addr: u32) -> Result<([u8; 15], usize), Fault> {
        let mut buf = [0u8; 15];
        let first = self
            .region_at(addr)
            .filter(|r| r.perms.exec)
            .ok_or(Fault::FetchFault(addr))?;
        let mut n = 0usize;
        let mut r = first;
        let mut a = addr;
        while n < 15 {
            if !r.contains(a) {
                match self.region_at(a).filter(|r| r.perms.exec) {
                    Some(next) => r = next,
                    None => break,
                }
            }
            buf[n] = r.data[(a - r.start) as usize];
            n += 1;
            a = a.wrapping_add(1);
            if a == 0 {
                break; // wrapped the address space
            }
        }
        Ok((buf, n))
    }

    /// Bulk-read `len` bytes (for the OS and the injector; same permission
    /// rules as [`Memory::read8`]).
    ///
    /// # Errors
    /// [`Fault::MemAccess`] on the first inaccessible byte.
    pub fn read_bytes(&self, addr: u32, len: u32) -> Result<Vec<u8>, Fault> {
        if let Some(b) = self.read_slice(addr, len as usize) {
            return Ok(b.to_vec());
        }
        let mut v = Vec::with_capacity(len as usize);
        for i in 0..len {
            v.push(self.read8(addr.wrapping_add(i))?);
        }
        Ok(v)
    }

    /// Read a NUL-terminated string of at most `max` bytes.
    ///
    /// # Errors
    /// [`Fault::MemAccess`] if the string runs into inaccessible memory
    /// before a NUL or `max` is reached.
    pub fn read_cstr(&self, addr: u32, max: u32) -> Result<Vec<u8>, Fault> {
        let mut v = Vec::new();
        for i in 0..max {
            let b = self.read8(addr.wrapping_add(i))?;
            if b == 0 {
                break;
            }
            v.push(b);
        }
        Ok(v)
    }

    /// Bulk-write bytes (same permission rules as [`Memory::write8`]).
    ///
    /// # Errors
    /// [`Fault::MemAccess`] on the first inaccessible byte; earlier bytes
    /// will already have been written.
    pub fn write_bytes(&mut self, addr: u32, bytes: &[u8]) -> Result<(), Fault> {
        for (i, b) in bytes.iter().enumerate() {
            self.write8(addr.wrapping_add(i as u32), *b)?;
        }
        Ok(())
    }

    /// Write one byte *ignoring write permissions* (still requires the byte
    /// to be mapped). This is the injector's interface for corrupting the
    /// text segment — the analogue of a debugger poking a read-only page.
    ///
    /// # Errors
    /// [`Fault::MemAccess`] if unmapped.
    pub fn poke8(&mut self, addr: u32, val: u8) -> Result<(), Fault> {
        let i = self
            .region_index(addr)
            .ok_or(Fault::MemAccess { addr, write: true })?;
        let r = &mut self.regions[i];
        let off = (addr - r.start) as usize;
        r.data[off] = val;
        self.stamp(i, off, 1);
        self.note_exec_write(addr);
        Ok(())
    }

    /// Read one byte ignoring read permissions (injector/debugger view).
    ///
    /// # Errors
    /// [`Fault::MemAccess`] if unmapped.
    pub fn peek8(&self, addr: u32) -> Result<u8, Fault> {
        let r = self
            .region_at(addr)
            .ok_or(Fault::MemAccess { addr, write: false })?;
        Ok(r.data[(addr - r.start) as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_region_mem() -> Memory {
        let mut m = Memory::new();
        m.map(Region::with_data("text", 0x1000, vec![0x90; 16], Perms::RX))
            .unwrap();
        m.map(Region::zeroed("data", 0x2000, 32, Perms::RW))
            .unwrap();
        m
    }

    /// A capture copies at most `CAPTURE_PAGES` pages and stays exact
    /// past them: a written page it did not copy is a difference.
    #[test]
    fn a_capture_past_its_page_cap_copies_nothing_and_stays_exact() {
        let mut m = Memory::new();
        m.map(Region::zeroed(
            "heap",
            0x10_0000,
            64 << PAGE_SHIFT,
            Perms::RW,
        ))
        .unwrap();
        let write_pages = |m: &mut Memory, n: usize, v: u32| {
            for p in 0..n {
                m.write32(0x10_0000 + (p * PAGE_SIZE) as u32, v).unwrap();
            }
        };
        for n in [CAPTURE_PAGES, CAPTURE_PAGES + 1, 59] {
            let mut cap = PageCapture::default();
            m.recapture(&mut cap, false);
            write_pages(&mut m, n, n as u32);
            m.recapture(&mut cap, true);
            let copied = if n <= CAPTURE_PAGES { n } else { 0 };
            assert_eq!(cap.pages.len(), copied, "{n} pages written");
            assert_eq!(cap.bytes.len(), copied * PAGE_SIZE, "{n} pages written");
            assert!(m.same_since(&cap), "{n}: nothing written since");
            // Rewriting the same values: equal where copied, a
            // difference where not.
            write_pages(&mut m, 1, n as u32);
            assert_eq!(m.same_since(&cap), n <= CAPTURE_PAGES, "{n} pages written");
            write_pages(&mut m, 1, 0xdead);
            assert!(!m.same_since(&cap), "{n} pages written");
        }
    }

    #[test]
    fn map_rejects_overlap() {
        let mut m = two_region_mem();
        let err = m
            .map(Region::zeroed("bad", 0x1008, 16, Perms::RW))
            .unwrap_err();
        assert_eq!(err.overlaps, "text");
        // Adjacent is fine.
        m.map(Region::zeroed("ok", 0x1010, 16, Perms::RW)).unwrap();
    }

    #[test]
    fn read_write_round_trip() {
        let mut m = two_region_mem();
        m.write32(0x2000, 0xDEAD_BEEF).unwrap();
        assert_eq!(m.read32(0x2000).unwrap(), 0xDEAD_BEEF);
        assert_eq!(m.read8(0x2000).unwrap(), 0xEF);
        assert_eq!(m.read16(0x2002).unwrap(), 0xDEAD);
    }

    #[test]
    fn data_reads_of_executable_bytes_are_counted() {
        let mut m = two_region_mem();
        m.write32(0x2000, 7).unwrap();
        m.read32(0x2000).unwrap();
        m.read_bytes(0x2000, 8).unwrap();
        m.fetch_window(0x1000).unwrap();
        m.peek8(0x1000).unwrap();
        assert_eq!(m.exec_data_reads(), 0, "data, fetch and peek do not count");
        m.read8(0x1000).unwrap();
        m.read32(0x1004).unwrap();
        m.read_bytes(0x1008, 4).unwrap();
        assert_eq!(m.exec_data_reads(), 3);
        // A read straddling the end of text counts its in-text byte.
        assert!(m.read16(0x100F).is_err());
        assert_eq!(m.exec_data_reads(), 4);
        // Monotonic: a restore does not rewind it.
        let snap = m.snapshot();
        m.read8(0x1000).unwrap();
        m.restore(&snap);
        assert_eq!(m.exec_data_reads(), 5);
    }

    #[test]
    fn write_to_text_faults() {
        let mut m = two_region_mem();
        assert_eq!(
            m.write8(0x1000, 0).unwrap_err(),
            Fault::MemAccess {
                addr: 0x1000,
                write: true
            }
        );
        // But the injector's poke works.
        m.poke8(0x1000, 0xCC).unwrap();
        assert_eq!(m.peek8(0x1000).unwrap(), 0xCC);
    }

    #[test]
    fn unmapped_access_faults() {
        let m = two_region_mem();
        assert!(m.read8(0x0).is_err());
        assert!(m.read8(0x1FFF).is_err());
        assert!(m.read32(0x200E).is_ok());
        assert!(m.read32(0x201D).is_err()); // crosses the end
    }

    #[test]
    fn fetch_requires_exec() {
        let m = two_region_mem();
        let (_, n) = m.fetch_window(0x1000).unwrap();
        assert_eq!(n, 15);
        let (_, n) = m.fetch_window(0x100E).unwrap();
        assert_eq!(n, 2); // only 2 bytes left in text
        assert_eq!(
            m.fetch_window(0x2000).unwrap_err(),
            Fault::FetchFault(0x2000)
        );
        assert_eq!(
            m.fetch_window(0x5000).unwrap_err(),
            Fault::FetchFault(0x5000)
        );
    }

    #[test]
    fn fetch_crosses_contiguous_exec_regions() {
        let mut m = Memory::new();
        m.map(Region::with_data("a", 0x1000, vec![1; 16], Perms::RX))
            .unwrap();
        m.map(Region::with_data("b", 0x1010, vec![2; 16], Perms::RX))
            .unwrap();
        let (buf, n) = m.fetch_window(0x100C).unwrap();
        assert_eq!(n, 15);
        assert_eq!(&buf[..4], &[1, 1, 1, 1]);
        assert_eq!(buf[4], 2);
    }

    #[test]
    fn cstr_reading() {
        let mut m = two_region_mem();
        m.write_bytes(0x2000, b"hello\0world").unwrap();
        assert_eq!(m.read_cstr(0x2000, 64).unwrap(), b"hello");
        assert_eq!(m.read_cstr(0x2006, 3).unwrap(), b"wor"); // max reached
    }

    #[test]
    fn region_accessors() {
        let m = two_region_mem();
        let r = m.region_at(0x1005).unwrap();
        assert_eq!(r.name(), "text");
        assert_eq!(r.start(), 0x1000);
        assert_eq!(r.len(), 16);
        assert_eq!(r.end(), 0x1010);
        assert!(!r.is_empty());
        assert_eq!(format!("{}", r.perms()), "r-x");
        assert!(m.region_at(0x0FFF).is_none());
    }

    #[test]
    fn high_memory_region_end_does_not_overflow() {
        let mut m = Memory::new();
        m.map(Region::zeroed("top", 0xFFFF_FFF0, 16, Perms::RW))
            .unwrap();
        assert_eq!(m.region_at(0xFFFF_FFFF).unwrap().name(), "top");
        assert!(m.read8(0xFFFF_FFFF).is_ok());
    }

    #[test]
    #[should_panic(expected = "wraps the address space")]
    fn wrapping_region_panics() {
        Region::zeroed("bad", 0xFFFF_FFF0, 17, Perms::RW);
    }

    #[test]
    fn exec_journal_tracks_every_generation_bump() {
        let mut m = two_region_mem();
        assert_eq!(m.exec_gen(), 0);
        assert!(m.exec_writes_since(0).is_empty());
        m.poke8(0x1003, 0xCC).unwrap(); // text poke: logged
        m.write8(0x2000, 1).unwrap(); // plain data write: no bump
        m.poke8(0x2001, 2).unwrap(); // poke always bumps, even non-exec
        assert_eq!(m.exec_gen(), 2);
        assert_eq!(m.exec_writes_since(0), &[0x1003, 0x2001]);
        assert_eq!(m.exec_writes_since(1), &[0x2001]);
        assert!(m.exec_writes_since(2).is_empty());
        assert!(m.exec_writes_since(99).is_empty());
    }

    #[test]
    fn exec_journal_logs_rwx_multibyte_writes_per_byte() {
        let mut m = Memory::new();
        m.map(Region::zeroed("rwx", 0x1000, 16, Perms::RWX))
            .unwrap();
        m.write32(0x1004, 0xAABB_CCDD).unwrap();
        assert_eq!(m.exec_gen(), 4);
        assert_eq!(m.exec_writes_since(0), &[0x1004, 0x1005, 0x1006, 0x1007]);
        m.write16(0x100E, 0x1234).unwrap();
        assert_eq!(m.exec_gen(), 6);
        assert_eq!(m.exec_writes_since(4), &[0x100E, 0x100F]);
    }

    #[test]
    fn exec_log_extends_detects_lineage() {
        let mut m = two_region_mem();
        m.poke8(0x1000, 1).unwrap();
        let snap = m.clone();
        assert!(m.exec_log_extends(&snap));
        assert!(snap.exec_log_extends(&m)); // equal states extend each other
        m.poke8(0x1001, 2).unwrap();
        assert!(m.exec_log_extends(&snap));
        assert!(!snap.exec_log_extends(&m));
        // A divergent history (same gen, different address) is not a prefix.
        let mut other = snap.clone();
        other.poke8(0x1002, 3).unwrap();
        assert!(!other.exec_log_extends(&m));
        assert!(!m.exec_log_extends(&other));
    }

    #[test]
    fn multibyte_fastpaths_match_bytewise_semantics() {
        let mut m = two_region_mem();
        // Straddling the end of a region still faults without a partial
        // read, and partial writes still land before the fault.
        assert!(m.read16(0x201F).is_err());
        assert!(m.write32(0x201E, 0xFFFF_FFFF).is_err());
        assert_eq!(m.read8(0x201F).unwrap(), 0xFF); // partial write landed
                                                    // Reads spanning adjacent regions take the byte-wise path.
        m.map(Region::zeroed("more", 0x2020, 4, Perms::RW)).unwrap();
        m.write8(0x2021, 0xAB).unwrap();
        assert_eq!(m.read32(0x201E).unwrap(), 0xAB00_FFFF);
    }
}
