//! The incremental campaign cache: memoized injection runs with a
//! persistent on-disk store, keyed on exactly the code each run executed
//! and the byte its flip planted.
//!
//! FastFlip-style structure (arXiv 2403.13989): error-injection results
//! compose per section and can be keyed by what actually changed, so
//! only perturbed sections need re-analysis. Our sections are the
//! checkpoint groups the campaign engine already schedules — every
//! target sharing one instruction address. A run depends only on the
//! client, the instruction address, the byte index and the byte planted
//! there, so a group's entry holds one **row** per `(byte_index, planted
//! byte)`. An encoding scheme changes only which byte a flip plants
//! (§6.2, [`row_key`]), and most new-encoding flips plant the byte a
//! baseline flip planted, so both schemes read and write one store per
//! client and such a run is stored once. A row answers a target when
//!
//! 1. the **context** is unchanged — everything shared by every group of
//!    an (app, client, recorder) store: the fault model, the budget
//!    constants, the image layout and full data segment, the client
//!    script fingerprint, and the golden run's observable behavior
//!    (icount, stop, client verdict, network trace, which classification
//!    compares every run against), hashed once per store into the
//!    context key;
//! 2. the **executed text** is unchanged — each store file keeps the
//!    image text its entries were checked against, and it must equal the
//!    current text, byte for byte, over the injected instruction and
//!    over every byte range the group's runs fetched for execution (the
//!    footprint, recorded by [`fisec_x86::Footprint`]: a union over
//!    golden's execution up to activation and every replay). Everything
//!    else a target carries (first byte, length, error location, branch
//!    kind, the §6.2 byte context) is decoded from those instruction
//!    bytes alone. Anything a run fetched can affect its outcome;
//!    anything outside provably cannot. Code bytes read as *data* are the
//!    one documented exception — `fisec cache verify` exists to audit it;
//!    and
//! 3. the entry holds a row under the target's key.
//!
//! A server's text is a few KB, so comparing it costs less than hashing
//! it would, and the check has no collisions. A store writes the text it
//! was opened under, and keeps only the entries that still hold against
//! it ([`ClientStore::save`]), so every row in a file holds against that
//! file's text.
//!
//! The store is one binary file (`*.store`) per (app, client, recorder)
//! under the cache root (`~/.fisec-cache` or `--cache DIR`), written with
//! the same tmp+atomic-rename discipline as the random-tier ledger.
//! [`encode_store`]/[`decode_store`] are its whole codec: a checked
//! header, then little-endian, length-framed fields, with outcomes, stops
//! and client verdicts as tagged integers (the byte writer, reader and
//! run codec live in the crate's private `persist` module). Decoding is
//! total — corrupt, truncated or stale-schema files are misses, never a
//! panic. Files older
//! builds left (`*.json` stores, per-scheme `*-base.store` files) and
//! unfinished `*.tmp` writes are listed and evicted but never read.

use crate::persist::{client_tag, Reader, Writer};
use fisec_apps::{AppSpec, ClientSpec};
use fisec_asm::Image;
use fisec_encoding::EncodingScheme;
use fisec_inject::{GoldenRun, InjectionRun, InjectionTarget};
use fisec_net::Dir;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Version tag of the store-file layout. Bump on any change to
/// [`StoreFile`]/[`GroupEntry`]/[`Row`] fields, their encoding or the key
/// derivations; files with a different schema are ignored wholesale.
/// Schema 1 was a JSON file; schema 2 the binary layout with per-group
/// SHA-256 keys; schema 3 kept the checked text instead, one file per
/// scheme; schema 4 is the layout of [`encode_store`], one file per
/// client with rows keyed by planted byte.
pub const CACHE_SCHEMA: u32 = 4;

/// Identity of the injected fault model. The study injects exhaustive
/// single-bit flips into instruction bytes; any change to that model
/// (multi-bit faults, data-segment faults, …) must change this string,
/// which invalidates every cached context.
pub const FAULT_MODEL: &str = "single-bit-flip-exhaustive-v1";

/// Digested divergence observables as the cache stores them:
/// `(divergence_depth, trace_latency)`, present iff the flight recorder
/// produced a report for the run.
pub type DivTuple = (Option<u64>, Option<u64>);

/// One memoized run: the classified outcome plus the recorder digest.
pub type CachedDigestedRun = (InjectionRun, Option<DivTuple>);

// ---------------------------------------------------------------------
// SHA-256 (FIPS 180-4). Self-contained: the workspace deliberately
// vendors no hash crate, and the cache only needs one digest.
// ---------------------------------------------------------------------

mod sha {
    const K: [u32; 64] = [
        0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
        0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
        0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
        0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
        0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
        0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
        0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
        0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
        0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
        0xc67178f2,
    ];

    /// Incremental SHA-256 state.
    pub struct Sha256 {
        state: [u32; 8],
        buf: [u8; 64],
        buflen: usize,
        total: u64,
    }

    impl Sha256 {
        pub fn new() -> Sha256 {
            Sha256 {
                state: [
                    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c,
                    0x1f83d9ab, 0x5be0cd19,
                ],
                buf: [0; 64],
                buflen: 0,
                total: 0,
            }
        }

        pub fn update(&mut self, mut data: &[u8]) {
            self.total = self.total.wrapping_add(data.len() as u64);
            if self.buflen > 0 {
                let take = (64 - self.buflen).min(data.len());
                self.buf[self.buflen..self.buflen + take].copy_from_slice(&data[..take]);
                self.buflen += take;
                data = &data[take..];
                if self.buflen == 64 {
                    let block = self.buf;
                    self.compress(&block);
                    self.buflen = 0;
                }
                // Everything fit in the buffer: the tail below must not
                // clobber the byte count we just accumulated.
                if data.is_empty() {
                    return;
                }
            }
            while data.len() >= 64 {
                let (block, rest) = data.split_at(64);
                let mut b = [0u8; 64];
                b.copy_from_slice(block);
                self.compress(&b);
                data = rest;
            }
            self.buf[..data.len()].copy_from_slice(data);
            self.buflen = data.len();
        }

        pub fn finalize(mut self) -> [u8; 32] {
            let bits = self.total.wrapping_mul(8);
            self.update(&[0x80]);
            while self.buflen != 56 {
                self.update(&[0]);
            }
            self.update(&bits.to_be_bytes());
            let mut out = [0u8; 32];
            for (i, w) in self.state.iter().enumerate() {
                out[4 * i..4 * i + 4].copy_from_slice(&w.to_be_bytes());
            }
            out
        }

        fn compress(&mut self, block: &[u8; 64]) {
            let mut w = [0u32; 64];
            for (i, c) in block.chunks_exact(4).enumerate() {
                w[i] = u32::from_be_bytes([c[0], c[1], c[2], c[3]]);
            }
            for i in 16..64 {
                let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
                let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
                w[i] = w[i - 16]
                    .wrapping_add(s0)
                    .wrapping_add(w[i - 7])
                    .wrapping_add(s1);
            }
            let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
            for i in 0..64 {
                let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
                let ch = (e & f) ^ (!e & g);
                let t1 = h
                    .wrapping_add(s1)
                    .wrapping_add(ch)
                    .wrapping_add(K[i])
                    .wrapping_add(w[i]);
                let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
                let maj = (a & b) ^ (a & c) ^ (b & c);
                let t2 = s0.wrapping_add(maj);
                h = g;
                g = f;
                f = e;
                e = d.wrapping_add(t1);
                d = c;
                c = b;
                b = a;
                a = t1.wrapping_add(t2);
            }
            for (s, v) in self.state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
                *s = s.wrapping_add(v);
            }
        }
    }
}

/// Domain-separated, length-framed hasher: every field is preceded by
/// its length or has a fixed width, so distinct input sequences cannot
/// collide by concatenation.
struct KeyHasher {
    inner: sha::Sha256,
}

impl KeyHasher {
    fn new(domain: &str) -> KeyHasher {
        let mut h = KeyHasher {
            inner: sha::Sha256::new(),
        };
        h.str(domain);
        h
    }

    fn u32(&mut self, v: u32) {
        self.inner.update(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.inner.update(&v.to_le_bytes());
    }

    fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.inner.update(b);
    }

    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    fn hex(self) -> String {
        self.inner
            .finalize()
            .iter()
            .fold(String::with_capacity(64), |mut s, b| {
                use std::fmt::Write as _;
                let _ = write!(s, "{b:02x}");
                s
            })
    }
}

// ---------------------------------------------------------------------
// On-disk layout
// ---------------------------------------------------------------------

/// One byte range of a stored execution footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FootRange {
    /// First byte address.
    pub start: u32,
    /// Length in bytes.
    pub len: u32,
}

/// One memoized run, keyed by where its flip planted what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// Byte within the instruction.
    pub byte_index: u8,
    /// The byte the flip planted there.
    pub planted: u8,
    /// The classified run and its recorder digest.
    pub run: CachedDigestedRun,
}

impl Row {
    /// The row's key, `(byte_index, planted)`: what [`row_key`] computes
    /// for the targets it answers.
    pub fn key(&self) -> (u8, u8) {
        (self.byte_index, self.planted)
    }
}

/// One memoized checkpoint group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupEntry {
    /// Shared instruction address (the store's lookup key).
    pub addr: u32,
    /// Longest encoded length of the targets' instruction: the injected
    /// bytes the text check covers.
    pub inst_len: u8,
    /// Executed-code footprint: golden up to activation, and every replay.
    pub foot: Vec<FootRange>,
    /// Rows, strictly ascending by [`Row::key`].
    pub rows: Vec<Row>,
}

impl GroupEntry {
    /// Whether `checked`, the text this entry was checked against, equals
    /// `text` (based at `text_base`) over the injected instruction,
    /// `[addr, addr + inst_len)`, and over every footprint range, each
    /// clipped to the text. Texts of different lengths hold nothing.
    fn holds(&self, checked: &[u8], text_base: u32, text: &[u8]) -> bool {
        checked.len() == text.len()
            && std::iter::once((self.addr, u32::from(self.inst_len)))
                .chain(self.foot.iter().map(|r| (r.start, r.len)))
                .all(|(start, len)| {
                    let r = text_range(text_base, text.len(), start, len);
                    checked[r.clone()] == text[r]
                })
    }

    /// The row under `key`.
    fn row(&self, key: (u8, u8)) -> Option<&Row> {
        let i = self.rows.binary_search_by_key(&key, Row::key).ok()?;
        Some(&self.rows[i])
    }

    /// Merge `fresh`, recorded against the same text, into this entry,
    /// which still holds: the union of the rows (`fresh` wins a shared
    /// key) and of the footprints.
    fn absorb(&mut self, fresh: GroupEntry) {
        self.inst_len = self.inst_len.max(fresh.inst_len);
        self.foot = foot_ranges(
            self.foot
                .iter()
                .chain(&fresh.foot)
                .map(|r| (r.start, r.len))
                .collect(),
        );
        let loaded = std::mem::take(&mut self.rows);
        self.rows = canonical_rows(fresh.rows.into_iter().chain(loaded).collect());
    }
}

/// Rows sorted by key, keeping the first of any repeated key.
fn canonical_rows(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by_key(Row::key);
    rows.dedup_by_key(|r| r.key());
    rows
}

/// `(start, len)` ranges as a stored footprint: sorted and coalesced.
fn foot_ranges(ranges: Vec<(u32, u32)>) -> Vec<FootRange> {
    merge_ranges(ranges)
        .into_iter()
        .map(|(start, len)| FootRange { start, len })
        .collect()
}

/// One per-(app, client, recorder) store file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreFile {
    /// Store layout version ([`CACHE_SCHEMA`]).
    pub schema: u32,
    /// Application name.
    pub app: String,
    /// Client name.
    pub client: String,
    /// Whether the campaign ran with the flight recorder.
    pub recorder: bool,
    /// Context key every group below is valid under.
    pub context: String,
    /// The image text every group below was checked against.
    pub text: Vec<u8>,
    /// Memoized groups, address-sorted.
    pub groups: Vec<GroupEntry>,
}

// ---------------------------------------------------------------------
// Key derivations
// ---------------------------------------------------------------------

/// The per-(app, client, recorder) context key: a change to anything
/// here invalidates every group of the client's store. The encoding
/// scheme is not keyed — it only picks the row a target names
/// ([`row_key`]). Engine options (mode, threads, block cache) are
/// deliberately *not* keyed either — results are bit-identical across
/// them (pinned by the differential tests), so entries interoperate
/// across execution modes.
pub fn context_key(app: &AppSpec, spec: &ClientSpec, recorder: bool, golden: &GoldenRun) -> String {
    let mut h = KeyHasher::new("fisec-cache-context");
    h.u32(CACHE_SCHEMA);
    h.str(FAULT_MODEL);
    h.u64(fisec_inject::BUDGET_MULTIPLIER);
    h.u64(fisec_inject::BUDGET_FLOOR);
    h.str(app.name);
    h.u32(app.image.text_base);
    h.u32(app.image.data_base);
    h.u64(app.image.text.len() as u64);
    // The full data segment: any run may read any of it, and it is tiny
    // compared to hashing time elsewhere.
    h.bytes(&app.image.data);
    h.str(&spec.name);
    h.str(&spec.fingerprint);
    h.u32(u32::from(recorder));
    // Golden observables: classification compares every run against the
    // golden stop/verdict/trace, so any behavior change on the client's
    // golden path is a (correct) full miss for that client.
    h.u64(golden.icount);
    let mut w = Writer(Vec::new());
    w.stop(&golden.stop);
    w.u8(client_tag(golden.client));
    h.bytes(&w.0);
    for m in golden.trace.messages() {
        h.u32(match m.dir {
            Dir::ToClient => 0,
            Dir::ToServer => 1,
        });
        h.bytes(&m.bytes);
    }
    h.hex()
}

/// The key of the row that answers `t` under `scheme`: its byte index
/// and the byte its flip plants, `t.flip(image byte, scheme)`. The text
/// is mapped r-x, so the image byte is the byte a flip reads. `None`
/// when the byte lies outside the image text.
pub fn row_key(image: &Image, t: &InjectionTarget, scheme: EncodingScheme) -> Option<(u8, u8)> {
    let at = t
        .addr
        .wrapping_add(u32::from(t.byte_index))
        .checked_sub(image.text_base)?;
    let &byte = image.text.get(at as usize)?;
    Some((t.byte_index, t.flip(byte, scheme)))
}

/// The offsets of `[start, start+len)` within a text segment of
/// `text_len` bytes based at `text_base`, clipped to it. Bytes outside
/// text (data, stack, wild execution targets) count for nothing: the
/// data segment is already in the context key and non-image regions
/// have no static content to check.
fn text_range(text_base: u32, text_len: usize, start: u32, len: u32) -> std::ops::Range<usize> {
    let end = u64::from(start) + u64::from(len);
    let t0 = u64::from(text_base);
    let t1 = t0 + text_len as u64;
    let lo = u64::from(start).clamp(t0, t1);
    let hi = end.clamp(t0, t1);
    (lo - t0) as usize..(hi - t0) as usize
}

/// Coalesce `(start, len)` ranges: sort, merge overlaps and adjacency.
/// Used to union the per-run footprints of a from-scratch group into
/// one stored footprint.
pub fn merge_ranges(mut ranges: Vec<(u32, u32)>) -> Vec<(u32, u32)> {
    ranges.sort_unstable();
    let mut out: Vec<(u32, u32)> = Vec::new();
    for (start, len) in ranges {
        if len == 0 {
            continue;
        }
        if let Some(last) = out.last_mut() {
            let end = u64::from(last.0) + u64::from(last.1);
            if u64::from(start) <= end {
                let new_end = end.max(u64::from(start) + u64::from(len));
                last.1 = (new_end - u64::from(last.0)) as u32;
                continue;
            }
        }
        out.push((start, len));
    }
    out
}

// ---------------------------------------------------------------------
// The cache handle and per-client store
// ---------------------------------------------------------------------

/// Handle on a cache root directory.
#[derive(Debug, Clone)]
pub struct CampaignCache {
    root: PathBuf,
}

/// Result of consulting the store for one checkpoint group.
pub enum CacheLookup {
    /// Every target's row, decoded; fold without executing.
    Hit(Vec<CachedDigestedRun>),
    /// An entry exists but the text differs over its instruction or
    /// footprint — the group was invalidated by a change.
    Stale,
    /// No entry for this address, or one lacking some target's row.
    Miss,
}

impl CampaignCache {
    /// Cache at an explicit root (`--cache DIR`).
    pub fn at(root: PathBuf) -> CampaignCache {
        CampaignCache { root }
    }

    /// The default root, `$HOME/.fisec-cache`; `None` when `HOME` is
    /// unset (caching silently disabled).
    pub fn default_root() -> Option<PathBuf> {
        std::env::var_os("HOME").map(|h| PathBuf::from(h).join(".fisec-cache"))
    }

    /// The root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Open (load or initialize) the client's store for one campaign
    /// column; `scheme` says which byte each of its targets plants.
    /// Never fails: unreadable, torn, stale-schema or context-mismatched
    /// files degrade to an empty (all-miss) store.
    pub fn open_client(
        &self,
        app: &AppSpec,
        spec: &ClientSpec,
        scheme: EncodingScheme,
        recorder: bool,
        golden: &GoldenRun,
    ) -> ClientStore {
        let context = context_key(app, spec, recorder, golden);
        let path = self.root.join(store_file_name(
            app.name,
            &spec.name,
            scheme.cache_tag(),
            recorder,
        ));
        let (mut checked, mut groups) = (Vec::new(), HashMap::new());
        let mut context_invalidated = false;
        let mut dropped_groups = 0;
        if let Some(file) = read_store(&path) {
            if file.context == context {
                checked = file.text;
                groups = file.groups.into_iter().map(|g| (g.addr, g)).collect();
            } else {
                // Keyed under a different context (golden behavior,
                // client script, fault model): every entry is unusable.
                // Dropping them keeps the store free of orphans;
                // re-execution repopulates it.
                context_invalidated = true;
                dropped_groups = file.groups.len();
            }
        }
        ClientStore {
            path,
            app: app.name.to_string(),
            client: spec.name.clone(),
            scheme,
            recorder,
            context,
            text_base: app.image.text_base,
            text: app.image.text.clone(),
            checked,
            groups,
            fresh: Mutex::new(Vec::new()),
            context_invalidated,
            dropped_groups,
        }
    }
}

/// File extension of the stores this build reads and writes.
const STORE_EXT: &str = "store";

/// File extension of the schema-1 JSON stores older builds wrote.
/// Distinct from [`STORE_EXT`], so builds sharing a cache root never
/// overwrite each other's stores; this one lists and evicts them.
const LEGACY_EXT: &str = "json";

/// Deterministic store file name for one (app, client, recorder):
/// `{app}-{client}[-rec].store`. Every encoding scheme shares the
/// client's store (rows are keyed by planted byte), so `_scheme_tag`
/// names nothing. It remains only because the benchmark harness still
/// passes it; ROADMAP item 6 drops it with the harness's hand loop.
pub fn store_file_name(app: &str, client: &str, _scheme_tag: &str, recorder: bool) -> String {
    format!(
        "{app}-{client}{}.{STORE_EXT}",
        if recorder { "-rec" } else { "" }
    )
}

/// The loaded store for one (app, client, recorder), opened for one
/// campaign column: row lookups against the entries on disk, fresh
/// results accumulated from worker threads, one atomic write-back at the
/// end of the column.
pub struct ClientStore {
    path: PathBuf,
    app: String,
    client: String,
    /// The column's scheme: which row each target names.
    scheme: EncodingScheme,
    recorder: bool,
    context: String,
    /// The image text the store was opened under, based at `text_base`:
    /// what [`ClientStore::save`] writes, and what every recorded entry
    /// was checked against.
    text_base: u32,
    text: Vec<u8>,
    /// The text the loaded entries were checked against.
    checked: Vec<u8>,
    /// The loaded entries, by address.
    groups: HashMap<u32, GroupEntry>,
    fresh: Mutex<Vec<GroupEntry>>,
    /// Whether a stored file existed but was keyed under a different
    /// context (full miss).
    pub context_invalidated: bool,
    /// Groups dropped by the context invalidation.
    pub dropped_groups: usize,
}

impl ClientStore {
    /// Which of a group's rows the store holds: per target, in group
    /// order, the run of the row under its [`row_key`] for the column's
    /// scheme, or `None`. Every target is `None` when no entry is at the
    /// group's address. `None` overall when the entry there no longer
    /// holds (stale; see [`CacheLookup::Stale`]).
    pub fn rows(
        &self,
        image: &Image,
        targets: &[InjectionTarget],
    ) -> Option<Vec<Option<CachedDigestedRun>>> {
        let Some(entry) = targets.first().and_then(|t| self.groups.get(&t.addr)) else {
            return Some(vec![None; targets.len()]);
        };
        if !entry.holds(&self.checked, image.text_base, &image.text) {
            return None;
        }
        Some(
            targets
                .iter()
                .map(|t| Some(entry.row(row_key(image, t, self.scheme)?)?.run.clone()))
                .collect(),
        )
    }

    /// Consult the store for one checkpoint group: a hit when it holds
    /// every target's row.
    pub fn lookup(&self, image: &Image, targets: &[InjectionTarget]) -> CacheLookup {
        match self.rows(image, targets) {
            None => CacheLookup::Stale,
            Some(rows) => rows
                .into_iter()
                .collect::<Option<Vec<_>>>()
                .filter(|runs| !runs.is_empty())
                .map_or(CacheLookup::Miss, CacheLookup::Hit),
        }
    }

    /// Record freshly executed targets of one group, each run under its
    /// [`row_key`]. Thread-safe; the rows land on disk at the next
    /// [`ClientStore::save`]. A group run under an image whose text is
    /// not the one the store was opened under is not recorded: the file
    /// could not show what it was checked against.
    pub fn record(
        &self,
        image: &Image,
        targets: &[InjectionTarget],
        runs: &[CachedDigestedRun],
        foot: Vec<(u32, u32)>,
    ) {
        let Some(addr) = targets.first().map(|t| t.addr) else {
            return;
        };
        if image.text_base != self.text_base || image.text != self.text {
            return;
        }
        debug_assert_eq!(runs.len(), targets.len());
        let rows = targets
            .iter()
            .zip(runs)
            .filter_map(|(t, run)| {
                let (byte_index, planted) = row_key(image, t, self.scheme)?;
                Some(Row {
                    byte_index,
                    planted,
                    run: run.clone(),
                })
            })
            .collect();
        let entry = GroupEntry {
            addr,
            inst_len: targets.iter().map(|t| t.inst_len).max().unwrap_or(0),
            foot: foot_ranges(foot),
            rows: canonical_rows(rows),
        };
        self.fresh.lock().expect("no worker panicked").push(entry);
    }

    /// Fresh entries recorded so far (store writes performed at
    /// [`ClientStore::save`] time).
    pub fn fresh_count(&self) -> usize {
        self.fresh.lock().expect("no worker panicked").len()
    }

    /// Merge and write the store back atomically (tmp + rename), with
    /// the text the store was opened under. Keeps the loaded entries
    /// that still hold against that text, including those this campaign
    /// did not revisit (e.g. MISC groups when this run was
    /// `--cond-branches-only`). A fresh entry joins the loaded one at its
    /// address when that still holds ([`GroupEntry::absorb`]) and
    /// replaces it otherwise. So every row of a written file holds
    /// against the file's text, and the file does not depend on the
    /// order workers recorded in.
    ///
    /// # Errors
    /// I/O errors creating the cache directory or writing the file. The
    /// campaign treats a failed save as a warning, not a failure.
    pub fn save(&self) -> std::io::Result<()> {
        let mut merged: HashMap<u32, GroupEntry> = self
            .groups
            .values()
            .filter(|g| g.holds(&self.checked, self.text_base, &self.text))
            .map(|g| (g.addr, g.clone()))
            .collect();
        for fresh in self.fresh.lock().expect("no worker panicked").drain(..) {
            match merged.entry(fresh.addr) {
                Entry::Occupied(mut e) => e.get_mut().absorb(fresh),
                Entry::Vacant(e) => {
                    e.insert(fresh);
                }
            }
        }
        let mut groups: Vec<GroupEntry> = merged.into_values().collect();
        groups.sort_by_key(|g| g.addr);
        let file = StoreFile {
            schema: CACHE_SCHEMA,
            app: self.app.clone(),
            client: self.client.clone(),
            recorder: self.recorder,
            context: self.context.clone(),
            text: self.text.clone(),
            groups,
        };
        write_store(&self.path, &file)
    }
}

// ---------------------------------------------------------------------
// Store codec
// ---------------------------------------------------------------------

/// First bytes of every store file.
const MAGIC: [u8; 8] = *b"FISECSTO";

// Fewest encoded bytes of one footprint range, row and group: a sequence
// count claiming more elements than the bytes left can hold is rejected
// before anything is allocated for it.
const FOOT_BYTES: usize = 8;
// The key, the outcome, stop and client tags, and five bool or option
// tags.
const ROW_BYTES: usize = 2 + 3 + 5;
// The address, the instruction length and two sequence counts.
const GROUP_BYTES: usize = 4 + 1 + 2 * 4;

/// Encode a store. Layout, every integer little-endian:
///
/// ```text
/// file   = magic[8] schema:u32 app:str client:str recorder:bool
///          context:str text:bytes n:u32 group*n
/// group  = addr:u32 inst_len:u8 n:u32 (start:u32 len:u32)*n n:u32 row*n
/// row    = byte_index:u8 planted:u8 outcome:u8 activated:bool stop
///          client:u8 crash_latency:opt<u64> transient_deviation:bool
///          divergence:opt<str>
///          div:opt<divergence_depth:opt<u64> trace_latency:opt<u64>>
/// stop   = 0 code:i32 | 1 fault | 2 | 3 | 4 addr:u32
///          (exited, crashed, budget, deadlock, breakpoint)
/// fault  = tag:u8 addr:u32; tag 0 invalid opcode, 1 general protection,
///          2 memory read, 3 memory write, 4 fetch, 5 divide, 6 trap
/// outcome = index in OutcomeClass::ALL (NA NM SD FSV BRK)
/// client = 0 in progress | 1 granted | 2 denied | 3 confused
/// bytes  = len:u32 u8[len]        str = bytes in UTF-8
/// bool   = 0|1                    opt<T> = 0 | 1 T
/// ```
///
/// [`decode_store`] accepts exactly the images this produces, so a
/// decoded file re-encodes to the same bytes.
pub fn encode_store(file: &StoreFile) -> Vec<u8> {
    let mut w = Writer(Vec::new());
    w.0.extend_from_slice(&MAGIC);
    w.u32(file.schema);
    w.str(&file.app);
    w.str(&file.client);
    w.bool(file.recorder);
    w.str(&file.context);
    w.bytes(&file.text);
    w.len(file.groups.len());
    for g in &file.groups {
        w.u32(g.addr);
        w.u8(g.inst_len);
        w.len(g.foot.len());
        for r in &g.foot {
            w.u32(r.start);
            w.u32(r.len);
        }
        w.len(g.rows.len());
        for r in &g.rows {
            w.u8(r.byte_index);
            w.u8(r.planted);
            w.run(&r.run);
        }
    }
    w.0
}

/// Decode a store image. `None` unless the header carries this build's
/// magic and [`CACHE_SCHEMA`] (checked before any group is decoded) and
/// the rest is exactly one well-formed [`encode_store`] body: a short
/// read, trailing bytes, a non-UTF-8 string, a bool or option tag other
/// than 0/1, an outcome, stop, fault or client tag out of range, a
/// group's rows out of key order, or a count or length larger than the
/// bytes left all decode to `None`. Never panics.
pub fn decode_store(bytes: &[u8]) -> Option<StoreFile> {
    let mut r = Reader(bytes);
    if r.take(MAGIC.len())? != MAGIC {
        return None;
    }
    let schema = r.u32()?;
    if schema != CACHE_SCHEMA {
        return None;
    }
    let file = StoreFile {
        schema,
        app: r.str()?,
        client: r.str()?,
        recorder: r.bool()?,
        context: r.str()?,
        text: r.bytes()?.to_vec(),
        groups: r.seq(GROUP_BYTES, read_group)?,
    };
    r.0.is_empty().then_some(file)
}

/// Read and decode a store file; `None` for an unreadable file or
/// anything [`decode_store`] rejects — every failure mode is a cache
/// miss.
pub fn read_store(path: &Path) -> Option<StoreFile> {
    decode_store(&std::fs::read(path).ok()?)
}

/// Encode `file` and write it atomically: a `<path>.<pid>.tmp` file
/// renamed over `path`, creating the cache directory first. The tmp name
/// is the writing process's own, so two campaigns saving the same store
/// never rename each other's half-written file.
///
/// # Errors
/// I/O errors creating the directory, writing or renaming the file.
pub fn write_store(path: &Path, file: &StoreFile) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".{}.tmp", std::process::id()));
    // No fsync: the rename keeps torn writes from ever becoming visible
    // under the store's name, and a file lost to a power cut merely
    // re-runs its groups — `read_store` degrades anything unreadable to
    // a miss. Durability is not worth a per-client fsync stall on the
    // campaign path.
    std::fs::write(&tmp, encode_store(file))?;
    std::fs::rename(&tmp, path)
}

/// One group entry, as [`encode_store`] frames it.
fn read_group(r: &mut Reader<'_>) -> Option<GroupEntry> {
    let entry = GroupEntry {
        addr: r.u32()?,
        inst_len: r.u8()?,
        foot: r.seq(FOOT_BYTES, |r| {
            Some(FootRange {
                start: r.u32()?,
                len: r.u32()?,
            })
        })?,
        rows: r.seq(ROW_BYTES, |r| {
            Some(Row {
                byte_index: r.u8()?,
                planted: r.u8()?,
                run: r.run()?,
            })
        })?,
    };
    // Strictly ascending keys: a lookup's binary search sees every row.
    entry
        .rows
        .windows(2)
        .all(|w| w[0].key() < w[1].key())
        .then_some(entry)
}

// ---------------------------------------------------------------------
// Store maintenance (`fisec cache ls|gc`)
// ---------------------------------------------------------------------

/// One row of `fisec cache ls`.
#[derive(Debug, Clone)]
pub struct StoreSummary {
    /// File name within the cache root.
    pub file: String,
    /// File size in bytes.
    pub bytes: u64,
    /// Seconds since last modification (0 when unavailable).
    pub age_secs: u64,
    /// Whether the file is a store write that never finished (a
    /// `*.tmp` file a killed or racing writer left); never read.
    pub unfinished: bool,
    /// Parsed store, when the file is valid under the current schema.
    pub store: Option<StoreFile>,
}

/// Whether `name` is a store write that never finished:
/// `<store>.<pid>.tmp`, as [`write_store`] names it, or `<store>.tmp`, as
/// older builds did.
fn is_unfinished(name: &str) -> bool {
    let Some(stem) = name.strip_suffix(".tmp") else {
        return false;
    };
    let stem = match stem.rsplit_once('.') {
        Some((store, pid)) if !pid.is_empty() && pid.bytes().all(|b| b.is_ascii_digit()) => store,
        _ => stem,
    };
    stem.ends_with(&format!(".{STORE_EXT}"))
}

/// All store files under `root`, name-sorted (deterministic output):
/// this build's stores, the files older builds left (schema-1 `*.json`
/// stores and older `*.store` layouts), which never decode, and
/// unfinished `*.tmp` writes, which are never read. So `ls` shows the
/// last three invalid or unfinished, `verify` skips them and `gc` counts
/// and evicts them.
pub fn store_paths(root: &Path) -> Vec<PathBuf> {
    let Ok(rd) = std::fs::read_dir(root) else {
        return Vec::new();
    };
    let mut paths: Vec<PathBuf> = rd
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.extension()
                .is_some_and(|x| x == STORE_EXT || x == LEGACY_EXT)
                || p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(is_unfinished)
        })
        .collect();
    paths.sort();
    paths
}

/// Size in bytes and seconds since the last modification of `path`
/// (0 when unavailable).
fn size_and_age(path: &Path) -> (u64, u64) {
    let meta = std::fs::metadata(path).ok();
    let bytes = meta.as_ref().map_or(0, std::fs::Metadata::len);
    let age = meta
        .and_then(|m| m.modified().ok())
        .and_then(|t| std::time::SystemTime::now().duration_since(t).ok())
        .map_or(0, |d| d.as_secs());
    (bytes, age)
}

fn file_name(path: &Path) -> String {
    path.file_name()
        .map_or_else(String::new, |n| n.to_string_lossy().into_owned())
}

/// Summarize every store file under `root`.
pub fn ls(root: &Path) -> Vec<StoreSummary> {
    store_paths(root)
        .into_iter()
        .map(|p| {
            let (bytes, age_secs) = size_and_age(&p);
            let file = file_name(&p);
            let unfinished = is_unfinished(&file);
            StoreSummary {
                file,
                bytes,
                age_secs,
                unfinished,
                store: if unfinished { None } else { read_store(&p) },
            }
        })
        .collect()
}

/// Files evicted by [`gc`].
#[derive(Debug, Clone, Default)]
pub struct GcReport {
    /// `(file name, bytes)` of every evicted store.
    pub evicted: Vec<(String, u64)>,
    /// Files kept.
    pub kept: usize,
    /// Total bytes kept.
    pub kept_bytes: u64,
}

/// Evict store files: everything older than `max_age_secs`, then —
/// oldest first — enough files to bring the root under `max_size`
/// bytes. Invalid files and unfinished writes count like any other
/// (they are dead weight).
pub fn gc(root: &Path, max_size: Option<u64>, max_age_secs: Option<u64>) -> GcReport {
    let mut entries: Vec<(PathBuf, u64, u64)> = store_paths(root)
        .into_iter()
        .map(|p| {
            let (bytes, age) = size_and_age(&p);
            (p, bytes, age)
        })
        .collect();
    let mut report = GcReport::default();
    let evict = |p: &Path, bytes: u64, report: &mut GcReport| {
        if std::fs::remove_file(p).is_ok() {
            report.evicted.push((file_name(p), bytes));
        }
    };
    if let Some(max_age) = max_age_secs {
        entries.retain(|(p, bytes, age)| {
            if *age > max_age {
                evict(p, *bytes, &mut report);
                false
            } else {
                true
            }
        });
    }
    if let Some(max_size) = max_size {
        let mut total: u64 = entries.iter().map(|(_, b, _)| *b).sum();
        // Oldest first.
        entries.sort_by_key(|(_, _, age)| std::cmp::Reverse(*age));
        let mut i = 0;
        while total > max_size && i < entries.len() {
            let (p, bytes, _) = &entries[i];
            evict(p, *bytes, &mut report);
            total -= *bytes;
            i += 1;
        }
        entries.drain(..i);
    }
    report.kept = entries.len();
    report.kept_bytes = entries.iter().map(|(_, b, _)| *b).sum();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use fisec_inject::{golden_run, OutcomeClass};
    use fisec_net::ClientStatus;
    use fisec_os::Stop;

    fn sha_hex(data: &[u8]) -> String {
        let mut h = sha::Sha256::new();
        h.update(data);
        h.finalize().iter().fold(String::new(), |mut s, b| {
            use std::fmt::Write as _;
            let _ = write!(s, "{b:02x}");
            s
        })
    }

    #[test]
    fn sha256_matches_fips_vectors() {
        assert_eq!(
            sha_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            sha_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            sha_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        // Exercise the multi-block and buffered-tail paths.
        let long = vec![b'a'; 1_000_000];
        assert_eq!(
            sha_hex(&long),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
        // Incremental updates across block boundaries agree with one-shot.
        let data: Vec<u8> = (0..=255u8).cycle().take(777).collect();
        let mut inc = sha::Sha256::new();
        for chunk in data.chunks(13) {
            inc.update(chunk);
        }
        let mut one = sha::Sha256::new();
        one.update(&data);
        assert_eq!(inc.finalize(), one.finalize());
    }

    /// The first client's store under `scheme`, opened after `golden`.
    fn open(dir: &Path, app: &AppSpec, scheme: EncodingScheme, golden: &GoldenRun) -> ClientStore {
        CampaignCache::at(dir.to_path_buf()).open_client(
            app,
            &app.clients[0],
            scheme,
            false,
            golden,
        )
    }

    fn golden(app: &AppSpec) -> GoldenRun {
        golden_run(&app.image, &app.clients[0]).unwrap()
    }

    fn test_store(dir: &Path, app: &AppSpec) -> ClientStore {
        open(dir, app, EncodingScheme::Baseline, &golden(app))
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fisec-cache-test-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_group(app: &AppSpec) -> Vec<InjectionTarget> {
        let set = fisec_inject::enumerate_targets(&app.image, &app.auth_funcs, true);
        let addr = set.targets[0].addr;
        set.targets
            .iter()
            .take_while(|t| t.addr == addr)
            .copied()
            .collect()
    }

    fn sample_runs(n: usize) -> Vec<CachedDigestedRun> {
        (0..n)
            .map(|i| {
                (
                    InjectionRun {
                        outcome: OutcomeClass::NotManifested,
                        activated: true,
                        stop: Stop::Exited(i as i32),
                        client: ClientStatus::Denied,
                        crash_latency: None,
                        transient_deviation: false,
                        divergence: None,
                    },
                    (i % 2 == 0).then_some((Some(i as u64), None)),
                )
            })
            .collect()
    }

    /// The first group of a fresh store at `dir`, recorded from
    /// [`sample_runs`] with a 16-byte footprint, and saved.
    fn recorded(dir: &Path, app: &AppSpec) -> (Vec<InjectionTarget>, Vec<CachedDigestedRun>) {
        let group = sample_group(app);
        let runs = sample_runs(group.len());
        let store = test_store(dir, app);
        store.record(&app.image, &group, &runs, vec![(group[0].addr, 16)]);
        store.save().unwrap();
        (group, runs)
    }

    #[test]
    fn store_round_trips_and_survives_reopen() {
        let dir = scratch("roundtrip");
        let app = AppSpec::ftpd();
        let group = sample_group(&app);
        assert!(matches!(
            test_store(&dir, &app).lookup(&app.image, &group),
            CacheLookup::Miss
        ));
        let (group, runs) = recorded(&dir, &app);
        // No tmp file left behind.
        assert_eq!(store_paths(&dir).len(), 1);
        let store = test_store(&dir, &app);
        match store.lookup(&app.image, &group) {
            CacheLookup::Hit(got) => assert_eq!(got, runs),
            _ => panic!("expected a hit after reopen"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Where the first row's outcome tag lies in `encode_store(file)`.
    fn first_outcome_at(file: &StoreFile) -> usize {
        let strings = file.app.len() + file.client.len() + file.context.len();
        let groups_at = 12 + 3 * 4 + strings + 1 + 4 + file.text.len() + 4;
        groups_at + 4 + 1 + 4 + 8 * file.groups[0].foot.len() + 4 + 2
    }

    #[test]
    fn torn_stale_and_collision_shaped_entries_are_misses() {
        let dir = scratch("harden");
        let app = AppSpec::ftpd();
        let (group, _) = recorded(&dir, &app);
        let path = store_paths(&dir)[0].clone();
        let full = std::fs::read(&path).unwrap();
        let miss = |what: &str| {
            assert!(
                matches!(
                    test_store(&dir, &app).lookup(&app.image, &group),
                    CacheLookup::Miss
                ),
                "{what}"
            );
        };

        // Torn tail: truncate mid-file → undecodable → empty store.
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        miss("torn");

        // Stale schema version → ignored wholesale.
        let mut file = decode_store(&full).unwrap();
        file.schema = 999;
        write_store(&path, &file).unwrap();
        assert!(read_store(&path).is_none());
        miss("schema 999");

        // A row short of the group's targets → a miss, never a bad fold:
        // the other rows are still served.
        let mut file = decode_store(&full).unwrap();
        file.groups[0].rows.pop();
        write_store(&path, &file).unwrap();
        miss("one row short");
        let rows = test_store(&dir, &app).rows(&app.image, &group).unwrap();
        assert_eq!(rows.iter().filter(|r| r.is_none()).count(), 1);

        // An outcome tag out of range → the file does not decode.
        let file = decode_store(&full).unwrap();
        let mut bytes = full.clone();
        bytes[first_outcome_at(&file)] = OutcomeClass::ALL.len() as u8;
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_store(&path).is_none());
        miss("bad outcome tag");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_codec_round_trips_every_run_field() {
        let divs = [
            None,
            Some((None, None)),
            Some((Some(17), None)),
            Some((None, Some(9))),
            Some((Some(u64::MAX), Some(0))),
        ];
        let rows: Vec<Row> = crate::persist::tests::every_variant()
            .into_iter()
            .flat_map(|run| divs.map(|div| (run.clone(), div)))
            .enumerate()
            .map(|(i, run)| Row {
                byte_index: (i / 256) as u8,
                planted: (i % 256) as u8,
                run,
            })
            .collect();
        let file = StoreFile {
            schema: CACHE_SCHEMA,
            app: "ftpd".to_string(),
            client: "Client1".to_string(),
            recorder: true,
            context: "ctx".to_string(),
            text: vec![0x90, 0, 0xff],
            groups: vec![GroupEntry {
                addr: 0x0804_8000,
                inst_len: 6,
                foot: vec![FootRange { start: 1, len: 2 }],
                rows,
            }],
        };
        let bytes = encode_store(&file);
        let back = decode_store(&bytes).unwrap();
        assert_eq!(back, file);
        assert_eq!(encode_store(&back), bytes);
        // Rows out of key order do not decode.
        let mut swapped = file;
        swapped.groups[0].rows.swap(0, 1);
        assert!(decode_store(&encode_store(&swapped)).is_none());
    }

    #[test]
    fn legacy_json_stores_are_listed_invalid_and_evicted() {
        let dir = scratch("legacy");
        let app = AppSpec::ftpd();
        let (group, _) = recorded(&dir, &app);
        // What a schema-1 build leaves for the same client.
        std::fs::write(
            dir.join("ftpd-Client1-base.json"),
            r#"{"schema":1,"digest_schema":1,"app":"ftpd","client":"Client1","scheme":"base","recorder":false,"context":"0","groups":[]}"#,
        )
        .unwrap();
        // What a schema-3 build leaves: one file per scheme.
        let mut schema3 = std::fs::read(dir.join("ftpd-Client1.store")).unwrap();
        schema3[8..12].copy_from_slice(&3u32.to_le_bytes());
        std::fs::write(dir.join("ftpd-Client1-base.store"), schema3).unwrap();
        let rows = ls(&dir);
        let names: Vec<&str> = rows.iter().map(|r| r.file.as_str()).collect();
        assert_eq!(
            names,
            [
                "ftpd-Client1-base.json",
                "ftpd-Client1-base.store",
                "ftpd-Client1.store"
            ]
        );
        assert!(rows[0].store.is_none(), "a JSON store never decodes");
        assert!(rows[1].store.is_none(), "a schema-3 store never decodes");
        assert_eq!(rows[2].store.as_ref().unwrap().groups.len(), 1);
        // The current store is the one the campaign reads.
        assert!(matches!(
            test_store(&dir, &app).lookup(&app.image, &group),
            CacheLookup::Hit(_)
        ));
        // gc counts the legacy files like any other and evicts them.
        let report = gc(&dir, Some(0), None);
        assert_eq!(report.evicted.len(), 3);
        assert!(store_paths(&dir).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unfinished_writes_are_listed_and_evicted() {
        let dir = scratch("unfinished");
        let app = AppSpec::ftpd();
        recorded(&dir, &app);
        // A killed writer's leftovers: this build's name and an older one.
        std::fs::write(dir.join("sshd-Client1.store.4242.tmp"), vec![0; 30_000]).unwrap();
        std::fs::write(dir.join("sshd-Client1-base.store.tmp"), vec![0; 30_000]).unwrap();
        // Not a store write: a `.tmp` file of another kind is left alone.
        std::fs::write(dir.join("notes.tmp"), b"x").unwrap();
        let rows = ls(&dir);
        let listed: Vec<(&str, bool)> = rows
            .iter()
            .map(|r| (r.file.as_str(), r.unfinished))
            .collect();
        assert_eq!(
            listed,
            [
                ("ftpd-Client1.store", false),
                ("sshd-Client1-base.store.tmp", true),
                ("sshd-Client1.store.4242.tmp", true)
            ]
        );
        assert!(rows[1].store.is_none() && rows[2].store.is_none());
        // gc counts them under the same bounds, and evicts them.
        let report = gc(&dir, Some(1), None);
        assert_eq!(report.evicted.len(), 3);
        assert_eq!((report.kept, report.kept_bytes), (0, 0));
        assert!(ls(&dir).is_empty());
        assert!(dir.join("notes.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_writer_never_renames_another_processes_tmp_file() {
        let dir = scratch("tmp-names");
        let app = AppSpec::ftpd();
        std::fs::create_dir_all(&dir).unwrap();
        // Another process is half-way through writing the same store.
        let theirs = dir.join(format!("ftpd-Client1.store.{}.tmp", std::process::id() + 1));
        std::fs::write(&theirs, b"FISECSTO half").unwrap();
        let (group, runs) = recorded(&dir, &app);
        assert_eq!(std::fs::read(&theirs).unwrap(), b"FISECSTO half");
        match test_store(&dir, &app).lookup(&app.image, &group) {
            CacheLookup::Hit(got) => assert_eq!(got, runs),
            _ => panic!("the store this process wrote is intact"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The sample group, executed: its runs and its real footprint.
    fn executed_group(
        app: &AppSpec,
    ) -> (
        Vec<InjectionTarget>,
        Vec<CachedDigestedRun>,
        Vec<(u32, u32)>,
    ) {
        let spec = &app.clients[0];
        let golden = golden_run(&app.image, spec).unwrap();
        let group = sample_group(app);
        let engine = fisec_inject::EngineOpts::default().with_footprint();
        let (runs, _, _, foot) = fisec_inject::run_injection_group_recorded(
            &app.image,
            spec,
            &golden,
            &group,
            EncodingScheme::Baseline,
            engine,
        )
        .unwrap();
        let runs = runs.into_iter().map(|(run, ..)| (run, None)).collect();
        (group, runs, foot.unwrap().ranges())
    }

    #[test]
    fn code_byte_pokes_invalidate_exactly_the_covering_entries() {
        let dir = std::env::temp_dir().join("fisec-cache-test-poke-sweep");
        let app = AppSpec::ftpd();
        let (group, runs, mut foot) = executed_group(&app);
        let (text_base, text_len) = (app.image.text_base, app.image.text.len() as u32);
        // Two ranges the text clips: one across its end, one in data.
        foot.push((text_base + text_len - 4, 16));
        foot.push((app.image.data_base, 8));
        let inst_len = group.iter().map(|t| u32::from(t.inst_len)).max().unwrap();
        // The executed footprint, and none (a group golden never reaches
        // keeps only its injected instruction).
        for foot in [foot, Vec::new()] {
            let _ = std::fs::remove_dir_all(&dir);
            let store = test_store(&dir, &app);
            store.record(&app.image, &group, &runs, foot.clone());
            store.save().unwrap();
            let store = test_store(&dir, &app);
            let executed = |a: u32| {
                (group[0].addr..group[0].addr + inst_len).contains(&a)
                    || foot
                        .iter()
                        .any(|&(start, len)| (start..start + len).contains(&a))
            };
            let mut poked = app.image.clone();
            for off in 0..poked.text.len() {
                poked.text[off] ^= 0x01;
                let addr = text_base + off as u32;
                match store.lookup(&poked, &group) {
                    CacheLookup::Stale => {
                        assert!(executed(addr), "{addr:#x} lies outside the group");
                    }
                    CacheLookup::Hit(got) => {
                        assert!(!executed(addr), "{addr:#x} lies inside the group");
                        assert_eq!(got, runs);
                    }
                    CacheLookup::Miss => panic!("{addr:#x}: the entry went missing"),
                }
                poked.text[off] ^= 0x01;
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_row_answers_only_the_key_it_was_recorded_under() {
        let dir = scratch("keys");
        let app = AppSpec::ftpd();
        let (group, runs) = recorded(&dir, &app);
        let path = store_paths(&dir)[0].clone();
        let file = read_store(&path).unwrap();
        let last = group.len() - 1;
        let key = row_key(&app.image, &group[last], EncodingScheme::Baseline).unwrap();
        // Another planted byte, or a byte index past the instruction: no
        // target of the group names the doctored row.
        let doctors: [fn(&mut Row); 2] = [|r| r.planted ^= 1, |r| r.byte_index = 15];
        for (i, doctor) in doctors.into_iter().enumerate() {
            let mut doctored = file.clone();
            let rows = &mut doctored.groups[0].rows;
            doctor(rows.iter_mut().find(|r| r.key() == key).unwrap());
            *rows = canonical_rows(std::mem::take(rows));
            write_store(&path, &doctored).unwrap();
            let store = test_store(&dir, &app);
            assert!(
                matches!(store.lookup(&app.image, &group), CacheLookup::Miss),
                "doctor {i}"
            );
            let served = store.rows(&app.image, &group).unwrap();
            for (t, (row, run)) in served.iter().zip(&runs).enumerate() {
                assert_eq!(row.as_ref(), (t != last).then_some(run), "doctor {i}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Per target of `group`, whether `scheme` plants the byte the
    /// baseline flip of some target plants.
    fn plants_a_baseline_byte(app: &AppSpec, group: &[InjectionTarget]) -> Vec<bool> {
        let base: Vec<_> = group
            .iter()
            .map(|t| row_key(&app.image, t, EncodingScheme::Baseline))
            .collect();
        group
            .iter()
            .map(|t| base.contains(&row_key(&app.image, t, EncodingScheme::NewEncoding)))
            .collect()
    }

    #[test]
    fn a_row_recorded_under_one_scheme_serves_the_other_and_is_stored_once() {
        let dir = scratch("schemes");
        let app = AppSpec::ftpd();
        let golden = golden(&app);
        // A branch whose new-encoding flips plant some baseline bytes and
        // some bytes of their own.
        let set = fisec_inject::enumerate_targets(&app.image, &app.auth_funcs, true);
        let group = set
            .targets
            .chunk_by(|a, b| a.addr == b.addr)
            .find(|g| {
                let shared = plants_a_baseline_byte(&app, g);
                shared.contains(&true) && shared.contains(&false)
            })
            .expect("a branch with mixed rows")
            .to_vec();
        let shared = plants_a_baseline_byte(&app, &group);
        let runs = sample_runs(group.len());
        let store = open(&dir, &app, EncodingScheme::Baseline, &golden);
        store.record(&app.image, &group, &runs, vec![(group[0].addr, 16)]);
        store.save().unwrap();
        // The new encoding opens the same store under the same context and
        // is served every row its flip plants, whichever scheme recorded it.
        let store = open(&dir, &app, EncodingScheme::NewEncoding, &golden);
        assert!(!store.context_invalidated);
        let served = store.rows(&app.image, &group).unwrap();
        let base_keys: Vec<_> = group
            .iter()
            .map(|t| row_key(&app.image, t, EncodingScheme::Baseline))
            .collect();
        for ((t, row), s) in group.iter().zip(&served).zip(&shared) {
            assert_eq!(row.is_some(), *s);
            if let Some(row) = row {
                let key = row_key(&app.image, t, EncodingScheme::NewEncoding);
                let i = base_keys.iter().position(|k| *k == key).unwrap();
                assert_eq!(row, &runs[i]);
            }
        }
        assert!(matches!(
            store.lookup(&app.image, &group),
            CacheLookup::Miss
        ));
        // Recording the whole group under the new encoding adds only the
        // rows it alone plants; the ones both schemes plant stay once.
        let new_runs = sample_runs(group.len());
        store.record(&app.image, &group, &new_runs, vec![(group[0].addr, 32)]);
        store.save().unwrap();
        let file = read_store(&store_paths(&dir)[0]).unwrap();
        let entry = &file.groups[0];
        let fresh = shared.iter().filter(|s| !**s).count();
        assert_eq!(entry.rows.len(), group.len() + fresh);
        assert_eq!(
            entry.foot,
            [FootRange {
                start: group[0].addr,
                len: 32
            }]
        );
        for scheme in EncodingScheme::ALL {
            assert!(matches!(
                open(&dir, &app, scheme, &golden).lookup(&app.image, &group),
                CacheLookup::Hit(_)
            ));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_record_into_a_stale_entry_replaces_it() {
        let dir = scratch("replace");
        let mut app = AppSpec::ftpd();
        // Golden is kept, as for a poke golden never executes.
        let golden = golden(&app);
        let (group, _) = recorded(&dir, &app);
        // Under the new encoding too: the entry holds both schemes' rows.
        let store = open(&dir, &app, EncodingScheme::NewEncoding, &golden);
        store.record(&app.image, &group, &sample_runs(group.len()), Vec::new());
        store.save().unwrap();
        // A byte the footprint covers, past the instruction, changes.
        let off = (group[0].addr - app.image.text_base) as usize + 15;
        app.image.text[off] ^= 0x01;
        for scheme in EncodingScheme::ALL {
            let store = open(&dir, &app, scheme, &golden);
            assert!(!store.context_invalidated);
            assert!(store.rows(&app.image, &group).is_none(), "{scheme}");
        }
        let store = open(&dir, &app, EncodingScheme::Baseline, &golden);
        let runs = sample_runs(group.len() + 1)[1..].to_vec();
        store.record(&app.image, &group, &runs, vec![(group[0].addr, 4)]);
        store.save().unwrap();
        let file = read_store(&store_paths(&dir)[0]).unwrap();
        let entry = &file.groups[0];
        assert_eq!(entry.rows.len(), group.len(), "the old rows are gone");
        assert_eq!(
            entry.foot,
            [FootRange {
                start: group[0].addr,
                len: 4
            }]
        );
        match open(&dir, &app, EncodingScheme::Baseline, &golden).lookup(&app.image, &group) {
            CacheLookup::Hit(got) => assert_eq!(got, runs),
            _ => panic!("the replacing entry serves the group"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_keeps_exactly_the_entries_that_hold_against_the_text_it_writes() {
        let dir = scratch("save-poked");
        let mut app = AppSpec::ftpd();
        let set = fisec_inject::enumerate_targets(&app.image, &app.auth_funcs, true);
        let groups: Vec<&[InjectionTarget]> = set
            .targets
            .chunk_by(|a, b| a.addr == b.addr)
            .take(2)
            .collect();
        let golden = golden(&app);
        let store = test_store(&dir, &app);
        for g in &groups {
            store.record(&app.image, g, &sample_runs(g.len()), vec![(g[0].addr, 1)]);
        }
        store.save().unwrap();

        // Poke the first group's instruction, then open and save under
        // the poked image without recording anything. (Golden is kept, as
        // for a poke golden never executes.)
        let off = (groups[0][0].addr - app.image.text_base) as usize;
        app.image.text[off] ^= 0x01;
        let cache = CampaignCache::at(dir.clone());
        let open = || {
            cache.open_client(
                &app,
                &app.clients[0],
                EncodingScheme::Baseline,
                false,
                &golden,
            )
        };
        let store = open();
        assert!(matches!(
            store.lookup(&app.image, groups[0]),
            CacheLookup::Stale
        ));
        assert!(matches!(
            store.lookup(&app.image, groups[1]),
            CacheLookup::Hit(_)
        ));
        // A group run under another image is not recorded.
        store.record(
            &AppSpec::ftpd().image,
            groups[0],
            &sample_runs(groups[0].len()),
            Vec::new(),
        );
        assert_eq!(store.fresh_count(), 0);
        store.save().unwrap();

        let file = read_store(&store_paths(&dir)[0]).unwrap();
        assert_eq!(
            file.text, app.image.text,
            "save writes the text it opened under"
        );
        let kept: Vec<u32> = file.groups.iter().map(|g| g.addr).collect();
        assert_eq!(kept, [groups[1][0].addr]);
        let store = open();
        assert!(matches!(
            store.lookup(&app.image, groups[0]),
            CacheLookup::Miss
        ));
        assert!(matches!(
            store.lookup(&app.image, groups[1]),
            CacheLookup::Hit(_)
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_text_of_another_length_is_stale_everywhere() {
        let dir = scratch("text-len");
        let app = AppSpec::ftpd();
        let (group, _) = recorded(&dir, &app);
        let path = store_paths(&dir)[0].clone();
        let file = read_store(&path).unwrap();
        let n = file.text.len();
        for len in [0, 1, n - 1, n + 1, 2 * n] {
            let mut doctored = file.clone();
            doctored.text.resize(len, 0x90);
            write_store(&path, &doctored).unwrap();
            for scheme in EncodingScheme::ALL {
                let store = open(&dir, &app, scheme, &golden(&app));
                assert!(
                    store.rows(&app.image, &group).is_none(),
                    "text of {len} bytes, {scheme}"
                );
            }
            let store = test_store(&dir, &app);
            assert!(matches!(
                store.lookup(&app.image, &group),
                CacheLookup::Stale
            ));
            store.save().unwrap();
            assert!(read_store(&path).unwrap().groups.is_empty(), "{len}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn context_changes_are_a_full_miss() {
        let dir = scratch("context");
        let app = AppSpec::ftpd();
        let (group, _) = recorded(&dir, &app);
        let spec = &app.clients[0];
        let golden = golden(&app);

        // Same context: hit. Doctored client fingerprint: full miss.
        let cache = CampaignCache::at(dir.clone());
        let store = cache.open_client(&app, spec, EncodingScheme::Baseline, false, &golden);
        assert!(matches!(
            store.lookup(&app.image, &group),
            CacheLookup::Hit(_)
        ));
        let mut doctored = AppSpec::ftpd();
        doctored.clients[0].fingerprint = "edited-script".to_string();
        let store = cache.open_client(
            &doctored,
            &doctored.clients[0],
            EncodingScheme::Baseline,
            false,
            &golden,
        );
        assert!(store.context_invalidated);
        assert_eq!(store.dropped_groups, 1);
        assert!(matches!(
            store.lookup(&doctored.image, &group),
            CacheLookup::Miss
        ));

        // The scheme is not part of the context: the other scheme opens
        // the same store, valid, and is served the rows it plants.
        let store = cache.open_client(&app, spec, EncodingScheme::NewEncoding, false, &golden);
        assert!(!store.context_invalidated);
        let served = store.rows(&app.image, &group).unwrap();
        assert!(served.iter().any(Option::is_some));

        // Golden observables are keyed: a doctored golden icount is a
        // context miss (stands in for any golden-path behavior change),
        // and so is another golden stop.
        let mut golden2 = golden.clone();
        golden2.icount += 1;
        let store = cache.open_client(&app, spec, EncodingScheme::Baseline, false, &golden2);
        assert!(store.context_invalidated);
        let mut golden3 = golden.clone();
        golden3.stop = Stop::Budget;
        assert_ne!(
            context_key(&app, spec, false, &golden3),
            context_key(&app, spec, false, &golden)
        );

        // The key is deterministic and covers the recorder.
        let a = context_key(&app, spec, false, &golden);
        assert_eq!(
            a,
            context_key(&app, spec, false, &golden),
            "context key must be deterministic"
        );
        assert_ne!(a, context_key(&app, spec, true, &golden));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_evicts_by_age_and_size() {
        let dir = scratch("gc");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("a.json"), vec![b'x'; 100]).unwrap();
        std::fs::write(dir.join("b.json"), vec![b'y'; 200]).unwrap();
        // Size cap alone: evict until under budget (both files share an
        // mtime, so either order is valid — assert the invariant).
        let report = gc(&dir, Some(250), None);
        assert!(!report.evicted.is_empty());
        assert!(report.kept_bytes <= 250);
        // Age cap of zero evicts nothing newer than now; a huge age cap
        // keeps everything.
        let report = gc(&dir, None, Some(3600));
        assert!(report.evicted.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
