//! The incremental campaign cache: memoization of checkpoint-group
//! results with a persistent on-disk store, keyed on exactly the code
//! each group executed.
//!
//! FastFlip-style structure (arXiv 2403.13989): error-injection results
//! compose per section and can be keyed by what actually changed, so
//! only perturbed sections need re-analysis. Our sections are the
//! checkpoint groups the campaign engine already schedules — every
//! target sharing one instruction address. A group's memoized outcomes
//! are valid when
//!
//! 1. the **context** is unchanged — everything shared by every group of
//!    a (app, client, scheme) campaign: the fault model, the budget
//!    constants, the image layout and full data segment, the client
//!    script fingerprint, the encoding scheme, and the golden run's
//!    observable behavior (icount, stop, client verdict, network trace,
//!    which classification compares every run against), hashed once
//!    per store into the context key;
//! 2. the **targets** are unchanged — the stored target tuples equal the
//!    group's; and
//! 3. the **executed text** is unchanged — each store file keeps the
//!    image text its entries were checked against, and it must equal the
//!    current text, byte for byte, over the injected instruction and
//!    over every byte range the group's runs fetched for execution (the
//!    footprint, recorded by [`fisec_x86::Footprint`]: a union over
//!    golden's execution up to activation and every replay). Anything a
//!    run fetched can affect its outcome; anything outside provably
//!    cannot. Code bytes read as *data* are the one documented
//!    exception — `fisec cache verify` exists to audit it.
//!
//! A server's text is a few KB, so comparing it costs less than hashing
//! it would, and the check has no collisions. A store writes the text it
//! was opened under, and keeps only the entries that still hold against
//! it ([`ClientStore::save`]), so every entry in a file holds against
//! that file's text.
//!
//! A missed group can still be answered run by run from its **sibling
//! stores**: the same (app, client, recorder) under another encoding
//! scheme. A run depends only on the client, the instruction address,
//! the byte index and the byte value planted there. The §6.2 mapping is
//! the identity for operand bytes and most opcode bits, so most
//! new-encoding flips plant exactly the byte a baseline flip planted
//! ([`ClientStore::share`]).
//!
//! The store is one binary file (`*.store`) per (app, client, scheme,
//! recorder) under the cache root (`~/.fisec-cache` or `--cache DIR`),
//! written with the same tmp+atomic-rename discipline as the random-tier
//! ledger. [`encode_store`]/[`decode_store`] are its whole codec: a
//! checked header, then little-endian, length-framed fields. Decoding is
//! total — corrupt, truncated or stale-schema files are misses, never a
//! panic. `*.json` files left by schema-1 builds are listed and evicted
//! but never read.

use fisec_apps::{AppSpec, ClientSpec};
use fisec_asm::Image;
use fisec_encoding::EncodingScheme;
use fisec_inject::persist::{self, CachedRun};
use fisec_inject::{ErrorLocation, GoldenRun, InjectionRun, InjectionTarget};
use fisec_net::Dir;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

/// Version tag of the store-file layout. Bump on any change to
/// [`StoreFile`]/[`GroupEntry`] fields, their encoding or the key
/// derivations; files with a different schema are ignored wholesale.
/// Schema 1 was a JSON file; schema 2 the binary layout with per-group
/// SHA-256 keys; schema 3 is the layout of [`encode_store`], which keeps
/// the checked text instead.
pub const CACHE_SCHEMA: u32 = 3;

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

/// One injection target, as stored (everything `fisec cache verify`
/// needs to rebuild the [`InjectionTarget`] and re-execute the group).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CachedTarget {
    /// Byte within the instruction.
    pub byte_index: u8,
    /// Bit within the byte.
    pub bit: u8,
    /// First byte of the instruction.
    pub first_byte: u8,
    /// Encoded instruction length.
    pub inst_len: u8,
    /// Table-2-order index of the error location.
    pub location: u8,
    /// Whether the instruction is a conditional branch.
    pub is_cond_branch: bool,
}

/// One memoized checkpoint group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupEntry {
    /// Shared instruction address (the store's lookup key).
    pub addr: u32,
    /// Targets in campaign order.
    pub targets: Vec<CachedTarget>,
    /// Executed-code footprint: golden up to activation, and every replay.
    pub foot: Vec<FootRange>,
    /// One digested outcome per target, in `targets` order.
    pub runs: Vec<CachedRun>,
}

impl GroupEntry {
    /// The decoded runs, when the entry, checked against `checked`, still
    /// holds for `targets` under `image`: the same target tuples, the
    /// same text over what the group executed, and every run decoding.
    /// `None` means stale.
    fn checked_runs(
        &self,
        checked: &[u8],
        image: &Image,
        targets: &[InjectionTarget],
    ) -> Option<Vec<CachedDigestedRun>> {
        let same_targets = self.targets.len() == targets.len()
            && self
                .targets
                .iter()
                .zip(targets)
                .all(|(c, t)| *c == cached_target(t));
        // A wrong run count must never index out of step with the campaign.
        if !same_targets
            || self.runs.len() != targets.len()
            || !self.same_text(checked, image.text_base, &image.text)
        {
            return None;
        }
        // A malformed payload is stale, never a panic.
        self.runs.iter().map(persist::decode_run).collect()
    }

    /// Whether `checked`, the text this entry was checked against, equals
    /// `text` (based at `text_base`) over the injected instruction,
    /// `[addr, addr + longest target instruction)`, and over every
    /// footprint range, each clipped to the text. Texts of different
    /// lengths hold nothing.
    fn same_text(&self, checked: &[u8], text_base: u32, text: &[u8]) -> bool {
        let inst_len = self.targets.iter().map(|t| t.inst_len).max().unwrap_or(0);
        checked.len() == text.len()
            && std::iter::once((self.addr, u32::from(inst_len)))
                .chain(self.foot.iter().map(|r| (r.start, r.len)))
                .all(|(start, len)| {
                    let r = text_range(text_base, text.len(), start, len);
                    checked[r.clone()] == text[r]
                })
    }
}

/// One per-(app, client, scheme, recorder) store file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreFile {
    /// Store layout version ([`CACHE_SCHEMA`]).
    pub schema: u32,
    /// Digested-run serialization version ([`persist::DIGEST_SCHEMA`]).
    pub digest_schema: u32,
    /// Application name.
    pub app: String,
    /// Client name.
    pub client: String,
    /// Encoding scheme tag ([`EncodingScheme::cache_tag`]).
    pub scheme: String,
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

/// The per-(app, client, scheme, recorder) context key: a change to
/// anything here invalidates every group of the client's store. Engine
/// options (mode, threads, block/trace cache) are deliberately *not*
/// keyed — results are bit-identical across them (pinned by the
/// differential tests), so entries interoperate across execution modes.
pub fn context_key(
    app: &AppSpec,
    spec: &ClientSpec,
    scheme: EncodingScheme,
    recorder: bool,
    golden: &GoldenRun,
) -> String {
    let mut h = KeyHasher::new("fisec-cache-context");
    h.u32(CACHE_SCHEMA);
    h.u32(persist::DIGEST_SCHEMA);
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
    h.str(scheme.cache_tag());
    h.u32(u32::from(recorder));
    // Golden observables: classification compares every run against the
    // golden stop/verdict/trace, so any behavior change on the client's
    // golden path is a (correct) full miss for that client.
    h.u64(golden.icount);
    h.str(&persist::stop_to_string(golden.stop.clone()));
    h.str(persist::client_to_string(golden.client));
    for m in golden.trace.messages() {
        h.u32(match m.dir {
            Dir::ToClient => 0,
            Dir::ToServer => 1,
        });
        h.bytes(&m.bytes);
    }
    h.hex()
}

fn location_index(loc: ErrorLocation) -> u8 {
    ErrorLocation::ALL
        .iter()
        .position(|l| *l == loc)
        .expect("every ErrorLocation variant appears in ErrorLocation::ALL") as u8
}

fn cached_target(t: &InjectionTarget) -> CachedTarget {
    CachedTarget {
        byte_index: t.byte_index,
        bit: t.bit,
        first_byte: t.first_byte,
        inst_len: t.inst_len,
        location: location_index(t.location),
        is_cond_branch: t.is_cond_branch,
    }
}

/// Rebuild the [`InjectionTarget`]s of a stored group (for `fisec cache
/// verify`). `None` when a stored location index is out of range.
pub fn entry_targets(entry: &GroupEntry) -> Option<Vec<InjectionTarget>> {
    entry
        .targets
        .iter()
        .map(|t| {
            Some(InjectionTarget {
                addr: entry.addr,
                inst_len: t.inst_len,
                byte_index: t.byte_index,
                bit: t.bit,
                first_byte: t.first_byte,
                location: *ErrorLocation::ALL.get(t.location as usize)?,
                is_cond_branch: t.is_cond_branch,
            })
        })
        .collect()
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

/// The runs of a missed group that sibling stores answer
/// ([`ClientStore::share`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedRuns {
    /// Per target, in group order: the run a sibling recorded for the
    /// same planted byte, or `None` when the target must execute.
    pub runs: Vec<Option<CachedDigestedRun>>,
    /// The union of the answering entries' footprints: part of the
    /// footprint the group's own entry must carry.
    pub foot: Vec<(u32, u32)>,
}

/// Result of consulting the store for one checkpoint group.
pub enum CacheLookup {
    /// Every run of the group, decoded; fold without executing.
    Hit(Vec<CachedDigestedRun>),
    /// An entry existed but its key, shape or footprint hash no longer
    /// matches — the group was invalidated by a change.
    Stale,
    /// No entry for this address.
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

    /// Open (load or initialize) the store for one campaign column.
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
        let context = context_key(app, spec, scheme, recorder, golden);
        let path = |scheme: EncodingScheme| {
            self.root.join(store_file_name(
                app.name,
                &spec.name,
                scheme.cache_tag(),
                recorder,
            ))
        };
        let siblings = EncodingScheme::ALL
            .into_iter()
            .filter(|&s| s != scheme)
            .map(|s| Sibling {
                scheme: s,
                path: path(s),
                context: context_key(app, spec, s, recorder, golden),
                entries: OnceLock::new(),
            })
            .collect();
        let path = path(scheme);
        let mut loaded = Entries::default();
        let mut context_invalidated = false;
        let mut dropped_groups = 0;
        if let Some(file) = read_store(&path) {
            if file.context == context {
                loaded = Entries::from(file);
            } else {
                // Keyed under a different context (golden behavior,
                // client script, scheme internals, fault model): every
                // entry is unusable. Dropping them keeps the store free
                // of orphans; re-execution repopulates it.
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
            loaded,
            siblings,
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

/// Deterministic store file name for one campaign column.
pub fn store_file_name(app: &str, client: &str, scheme_tag: &str, recorder: bool) -> String {
    format!(
        "{app}-{client}-{scheme_tag}{}.{STORE_EXT}",
        if recorder { "-rec" } else { "" }
    )
}

/// The loaded store for one (app, client, scheme, recorder) column:
/// lookups against the entries on disk, the runs its sibling stores
/// answer for a missed group, fresh results accumulated from worker
/// threads, one atomic write-back at the end of the column.
pub struct ClientStore {
    path: PathBuf,
    app: String,
    client: String,
    scheme: EncodingScheme,
    recorder: bool,
    context: String,
    /// The image text the store was opened under, based at `text_base`:
    /// what [`ClientStore::save`] writes, and what every recorded entry
    /// was checked against.
    text_base: u32,
    text: Vec<u8>,
    loaded: Entries,
    siblings: Vec<Sibling>,
    fresh: Mutex<Vec<GroupEntry>>,
    /// Whether a stored file existed but was keyed under a different
    /// context (full miss).
    pub context_invalidated: bool,
    /// Groups dropped by the context invalidation.
    pub dropped_groups: usize,
}

/// A store file's groups by address, and the text they were checked
/// against.
#[derive(Default)]
struct Entries {
    text: Vec<u8>,
    groups: HashMap<u32, GroupEntry>,
}

impl From<StoreFile> for Entries {
    fn from(file: StoreFile) -> Entries {
        Entries {
            text: file.text,
            groups: file.groups.into_iter().map(|g| (g.addr, g)).collect(),
        }
    }
}

impl Entries {
    /// The entry at the group's address; `Some(None)` when it no longer
    /// holds for `targets` under `image` (see [`GroupEntry::checked_runs`]).
    fn lookup(
        &self,
        image: &Image,
        targets: &[InjectionTarget],
    ) -> Option<(&GroupEntry, Option<Vec<CachedDigestedRun>>)> {
        let entry = self.groups.get(&targets.first()?.addr)?;
        Some((entry, entry.checked_runs(&self.text, image, targets)))
    }
}

/// The store of the same (app, client, recorder) under another scheme,
/// read at most once, when [`ClientStore::share`] first asks for it.
struct Sibling {
    scheme: EncodingScheme,
    path: PathBuf,
    /// [`context_key`] for this scheme and the campaign's golden run: the
    /// file's groups are trusted only under it.
    context: String,
    entries: OnceLock<Entries>,
}

impl Sibling {
    /// The file's entries; none when it is missing, undecodable or keyed
    /// under another context.
    fn entries(&self) -> &Entries {
        self.entries.get_or_init(|| match read_store(&self.path) {
            Some(file) if file.context == self.context => Entries::from(file),
            _ => Entries::default(),
        })
    }
}

impl ClientStore {
    /// Consult the store for one checkpoint group.
    pub fn lookup(&self, image: &Image, targets: &[InjectionTarget]) -> CacheLookup {
        match self.loaded.lookup(image, targets) {
            Some((_, Some(runs))) => CacheLookup::Hit(runs),
            Some((_, None)) => CacheLookup::Stale,
            None => CacheLookup::Miss,
        }
    }

    /// The runs of a group this store missed that its sibling stores
    /// answer; `None` when they answer none.
    ///
    /// A run depends only on the client, the address, the byte index and
    /// the byte planted there, so a sibling's run stands for a target
    /// exactly when both plant the same byte: `(byte_index,
    /// t.flip(image byte, scheme))` under each store's own scheme. The
    /// text segment is mapped read-only, so the byte a flip reads at
    /// activation is the image byte. A
    /// sibling entry is used only when its file's context is
    /// [`context_key`] for its scheme and this golden run, and when the
    /// entry passes the checks a [`CacheLookup::Hit`] passes: target
    /// tuples, executed text and every run decoding. Each sibling file is
    /// read once, at the first call.
    pub fn share(&self, image: &Image, targets: &[InjectionTarget]) -> Option<SharedRuns> {
        let planted = |t: &InjectionTarget, scheme: EncodingScheme| {
            let byte = t.addr.wrapping_add(u32::from(t.byte_index));
            let &b = image
                .text
                .get(byte.checked_sub(image.text_base)? as usize)?;
            Some((t.byte_index, t.flip(b, scheme)))
        };
        let mut shared = SharedRuns {
            runs: vec![None; targets.len()],
            foot: Vec::new(),
        };
        for sibling in &self.siblings {
            let Some((entry, Some(runs))) = sibling.entries().lookup(image, targets) else {
                continue;
            };
            // The entry's target tuples are the group's, so its runs are
            // in `targets` order.
            let by_planted: HashMap<_, _> = targets
                .iter()
                .zip(runs)
                .filter_map(|(t, run)| Some((planted(t, sibling.scheme)?, run)))
                .collect();
            let mut used = false;
            for (slot, t) in shared.runs.iter_mut().zip(targets) {
                if slot.is_none() {
                    *slot = planted(t, self.scheme).and_then(|p| by_planted.get(&p).cloned());
                    used |= slot.is_some();
                }
            }
            if used {
                shared
                    .foot
                    .extend(entry.foot.iter().map(|r| (r.start, r.len)));
            }
        }
        shared.foot = merge_ranges(shared.foot);
        shared.runs.iter().any(Option::is_some).then_some(shared)
    }

    /// Record one freshly executed group. Thread-safe; the entry lands
    /// on disk at the next [`ClientStore::save`]. A group run under an
    /// image whose text is not the one the store was opened under is
    /// not recorded: the file could not show what it was checked
    /// against.
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
        let entry = GroupEntry {
            addr,
            targets: targets.iter().map(cached_target).collect(),
            foot: foot
                .into_iter()
                .map(|(start, len)| FootRange { start, len })
                .collect(),
            runs: runs
                .iter()
                .map(|(run, div)| persist::encode_run(run, *div))
                .collect(),
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
    /// `--cond-branches-only`); fresh results win on address collision.
    /// So every entry of a written file holds against the file's text.
    ///
    /// # Errors
    /// I/O errors creating the cache directory or writing the file. The
    /// campaign treats a failed save as a warning, not a failure.
    pub fn save(&self) -> std::io::Result<()> {
        let mut merged: HashMap<u32, GroupEntry> = self
            .loaded
            .groups
            .values()
            .filter(|g| g.same_text(&self.loaded.text, self.text_base, &self.text))
            .map(|g| (g.addr, g.clone()))
            .collect();
        for e in self.fresh.lock().expect("no worker panicked").drain(..) {
            merged.insert(e.addr, e);
        }
        let mut groups: Vec<GroupEntry> = merged.into_values().collect();
        groups.sort_by_key(|g| g.addr);
        let file = StoreFile {
            schema: CACHE_SCHEMA,
            digest_schema: persist::DIGEST_SCHEMA,
            app: self.app.clone(),
            client: self.client.clone(),
            scheme: self.scheme.cache_tag().to_string(),
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

// Fewest encoded bytes of one target, footprint range, run and group: a
// sequence count claiming more elements than the bytes left can hold is
// rejected before anything is allocated for it.
const TARGET_BYTES: usize = 6;
const FOOT_BYTES: usize = 8;
// Three string lengths, seven bool or option tags.
const RUN_BYTES: usize = 3 * 4 + 7;
// The address and three sequence counts.
const GROUP_BYTES: usize = 4 * 4;

/// Encode a store. Layout, every integer little-endian:
///
/// ```text
/// file   = magic[8] schema:u32 digest_schema:u32
///          app:str client:str scheme:str recorder:bool context:str
///          text:bytes n:u32 group*n
/// group  = addr:u32 n:u32 target*n n:u32 (start:u32 len:u32)*n
///          n:u32 run*n
/// target = byte_index:u8 bit:u8 first_byte:u8 inst_len:u8 location:u8
///          is_cond_branch:bool
/// run    = outcome:str activated:bool stop:str client:str
///          crash_latency:opt<u64> transient_deviation:bool
///          divergence:opt<str> has_div:bool divergence_depth:opt<u64>
///          trace_latency:opt<u64>
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
    w.u32(file.digest_schema);
    w.str(&file.app);
    w.str(&file.client);
    w.str(&file.scheme);
    w.bool(file.recorder);
    w.str(&file.context);
    w.bytes(&file.text);
    w.len(file.groups.len());
    for g in &file.groups {
        w.u32(g.addr);
        w.len(g.targets.len());
        for t in &g.targets {
            w.0.extend_from_slice(&[t.byte_index, t.bit, t.first_byte, t.inst_len, t.location]);
            w.bool(t.is_cond_branch);
        }
        w.len(g.foot.len());
        for r in &g.foot {
            w.u32(r.start);
            w.u32(r.len);
        }
        w.len(g.runs.len());
        for r in &g.runs {
            w.str(&r.outcome);
            w.bool(r.activated);
            w.str(&r.stop);
            w.str(&r.client);
            w.opt(r.crash_latency, Writer::u64);
            w.bool(r.transient_deviation);
            w.opt(r.divergence.as_deref(), Writer::str);
            w.bool(r.has_div);
            w.opt(r.divergence_depth, Writer::u64);
            w.opt(r.trace_latency, Writer::u64);
        }
    }
    w.0
}

/// Decode a store image. `None` unless the header carries this build's
/// magic, [`CACHE_SCHEMA`] and [`persist::DIGEST_SCHEMA`] (checked before
/// any group is decoded) and the rest is exactly one well-formed
/// [`encode_store`] body: a short read, trailing bytes, a non-UTF-8
/// string, a bool or option tag other than 0/1, or a count or length
/// larger than the bytes left all decode to `None`. Never panics.
pub fn decode_store(bytes: &[u8]) -> Option<StoreFile> {
    let mut r = Reader(bytes);
    if r.take(MAGIC.len())? != MAGIC {
        return None;
    }
    let schema = r.u32()?;
    let digest_schema = r.u32()?;
    if schema != CACHE_SCHEMA || digest_schema != persist::DIGEST_SCHEMA {
        return None;
    }
    let file = StoreFile {
        schema,
        digest_schema,
        app: r.str()?,
        client: r.str()?,
        scheme: r.str()?,
        recorder: r.bool()?,
        context: r.str()?,
        text: r.bytes()?.to_vec(),
        groups: r.seq(GROUP_BYTES, Reader::group)?,
    };
    r.0.is_empty().then_some(file)
}

/// Read and decode a store file; `None` for an unreadable file or
/// anything [`decode_store`] rejects — every failure mode is a cache
/// miss.
pub fn read_store(path: &Path) -> Option<StoreFile> {
    decode_store(&std::fs::read(path).ok()?)
}

/// Encode `file` and write it atomically: a sibling `.tmp` file renamed
/// over `path`, creating the cache directory first.
///
/// # Errors
/// I/O errors creating the directory, writing or renaming the file.
pub fn write_store(path: &Path, file: &StoreFile) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    // No fsync: the rename keeps torn writes from ever becoming visible
    // under the store's name, and a file lost to a power cut merely
    // re-runs its groups — `read_store` degrades anything unreadable to
    // a miss. Durability is not worth a per-client fsync stall on the
    // campaign path.
    std::fs::write(&tmp, encode_store(file))?;
    std::fs::rename(&tmp, path)
}

/// Byte sink of [`encode_store`].
struct Writer(Vec<u8>);

impl Writer {
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn bool(&mut self, v: bool) {
        self.0.push(u8::from(v));
    }

    fn len(&mut self, n: usize) {
        self.u32(u32::try_from(n).expect("store sequences hold fewer than 2^32 items"));
    }

    fn bytes(&mut self, b: &[u8]) {
        self.len(b.len());
        self.0.extend_from_slice(b);
    }

    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    fn opt<T>(&mut self, v: Option<T>, put: impl FnOnce(&mut Writer, T)) {
        self.bool(v.is_some());
        if let Some(v) = v {
            put(self, v);
        }
    }
}

/// Byte source of [`decode_store`]: the bytes not yet consumed.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if n > self.0.len() {
            return None;
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Some(head)
    }

    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N)?.try_into().ok()
    }

    fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }

    fn bool(&mut self) -> Option<bool> {
        match self.array::<1>()? {
            [0] => Some(false),
            [1] => Some(true),
            _ => None,
        }
    }

    fn bytes(&mut self) -> Option<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    fn str(&mut self) -> Option<String> {
        std::str::from_utf8(self.bytes()?).ok().map(str::to_owned)
    }

    fn opt<T>(&mut self, get: impl FnOnce(&mut Self) -> Option<T>) -> Option<Option<T>> {
        if self.bool()? {
            get(self).map(Some)
        } else {
            Some(None)
        }
    }

    /// A counted sequence of items at least `min_bytes` long each.
    fn seq<T>(
        &mut self,
        min_bytes: usize,
        mut item: impl FnMut(&mut Self) -> Option<T>,
    ) -> Option<Vec<T>> {
        let n = self.u32()? as usize;
        if n > self.0.len() / min_bytes {
            return None;
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(item(self)?);
        }
        Some(out)
    }

    fn group(&mut self) -> Option<GroupEntry> {
        Some(GroupEntry {
            addr: self.u32()?,
            targets: self.seq(TARGET_BYTES, |r| {
                let [byte_index, bit, first_byte, inst_len, location] = r.array()?;
                Some(CachedTarget {
                    byte_index,
                    bit,
                    first_byte,
                    inst_len,
                    location,
                    is_cond_branch: r.bool()?,
                })
            })?,
            foot: self.seq(FOOT_BYTES, |r| {
                Some(FootRange {
                    start: r.u32()?,
                    len: r.u32()?,
                })
            })?,
            runs: self.seq(RUN_BYTES, |r| {
                Some(CachedRun {
                    outcome: r.str()?,
                    activated: r.bool()?,
                    stop: r.str()?,
                    client: r.str()?,
                    crash_latency: r.opt(Reader::u64)?,
                    transient_deviation: r.bool()?,
                    divergence: r.opt(Reader::str)?,
                    has_div: r.bool()?,
                    divergence_depth: r.opt(Reader::u64)?,
                    trace_latency: r.opt(Reader::u64)?,
                })
            })?,
        })
    }
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
    /// Parsed store, when the file is valid under the current schema.
    pub store: Option<StoreFile>,
}

/// All store files under `root`, name-sorted (deterministic output):
/// this build's stores plus the schema-1 `*.json` stores older builds
/// left, which never decode, so `ls` shows them invalid, `verify` skips
/// them and `gc` counts and evicts them.
pub fn store_paths(root: &Path) -> Vec<PathBuf> {
    let Ok(rd) = std::fs::read_dir(root) else {
        return Vec::new();
    };
    let mut paths: Vec<PathBuf> = rd
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.extension()
                .is_some_and(|x| x == STORE_EXT || x == LEGACY_EXT)
        })
        .collect();
    paths.sort();
    paths
}

/// Summarize every store file under `root`.
pub fn ls(root: &Path) -> Vec<StoreSummary> {
    store_paths(root)
        .into_iter()
        .map(|p| {
            let meta = std::fs::metadata(&p).ok();
            let bytes = meta.as_ref().map_or(0, std::fs::Metadata::len);
            let age_secs = meta
                .and_then(|m| m.modified().ok())
                .and_then(|t| std::time::SystemTime::now().duration_since(t).ok())
                .map_or(0, |d| d.as_secs());
            StoreSummary {
                file: p
                    .file_name()
                    .map_or_else(String::new, |n| n.to_string_lossy().into_owned()),
                bytes,
                age_secs,
                store: read_store(&p),
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
/// bytes. Invalid files count like any other (they are dead weight).
pub fn gc(root: &Path, max_size: Option<u64>, max_age_secs: Option<u64>) -> GcReport {
    let mut entries: Vec<(PathBuf, u64, u64)> = store_paths(root)
        .into_iter()
        .map(|p| {
            let meta = std::fs::metadata(&p).ok();
            let bytes = meta.as_ref().map_or(0, std::fs::Metadata::len);
            let age = meta
                .and_then(|m| m.modified().ok())
                .and_then(|t| std::time::SystemTime::now().duration_since(t).ok())
                .map_or(0, |d| d.as_secs());
            (p, bytes, age)
        })
        .collect();
    let mut report = GcReport::default();
    let evict = |p: &Path, bytes: u64, report: &mut GcReport| {
        if std::fs::remove_file(p).is_ok() {
            report.evicted.push((
                p.file_name()
                    .map_or_else(String::new, |n| n.to_string_lossy().into_owned()),
                bytes,
            ));
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
    use fisec_inject::golden_run;

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

    fn test_store(dir: &Path, app: &AppSpec) -> (ClientStore, GoldenRun) {
        let spec = &app.clients[0];
        let golden = golden_run(&app.image, spec).unwrap();
        let cache = CampaignCache::at(dir.to_path_buf());
        let store = cache.open_client(app, spec, EncodingScheme::Baseline, false, &golden);
        (store, golden)
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
                        outcome: fisec_inject::OutcomeClass::NotManifested,
                        activated: true,
                        stop: fisec_os::Stop::Exited(0),
                        client: fisec_net::ClientStatus::Denied,
                        crash_latency: None,
                        transient_deviation: false,
                        divergence: None,
                    },
                    (i % 2 == 0).then_some((Some(i as u64), None)),
                )
            })
            .collect()
    }

    #[test]
    fn store_round_trips_and_survives_reopen() {
        let dir = std::env::temp_dir().join("fisec-cache-test-roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        let app = AppSpec::ftpd();
        let group = sample_group(&app);
        let runs = sample_runs(group.len());
        let (store, _) = test_store(&dir, &app);
        assert!(matches!(
            store.lookup(&app.image, &group),
            CacheLookup::Miss
        ));
        store.record(&app.image, &group, &runs, vec![(group[0].addr, 16)]);
        store.save().unwrap();
        // No tmp file left behind.
        assert_eq!(store_paths(&dir).len(), 1);
        let (store, _) = test_store(&dir, &app);
        match store.lookup(&app.image, &group) {
            CacheLookup::Hit(got) => assert_eq!(got, runs),
            _ => panic!("expected a hit after reopen"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_stale_and_collision_shaped_entries_are_misses() {
        let dir = std::env::temp_dir().join("fisec-cache-test-harden");
        let _ = std::fs::remove_dir_all(&dir);
        let app = AppSpec::ftpd();
        let group = sample_group(&app);
        let runs = sample_runs(group.len());
        let (store, _) = test_store(&dir, &app);
        store.record(&app.image, &group, &runs, vec![(group[0].addr, 16)]);
        store.save().unwrap();
        let path = store_paths(&dir)[0].clone();

        // Torn tail: truncate mid-file → undecodable → empty store.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        let (store, _) = test_store(&dir, &app);
        assert!(matches!(
            store.lookup(&app.image, &group),
            CacheLookup::Miss
        ));

        // Stale schema version → ignored wholesale.
        let mut file = decode_store(&full).unwrap();
        file.schema = 999;
        write_store(&path, &file).unwrap();
        assert!(read_store(&path).is_none());
        let (store, _) = test_store(&dir, &app);
        assert!(matches!(
            store.lookup(&app.image, &group),
            CacheLookup::Miss
        ));

        // Wrong shape (fewer runs than targets) → stale, never a bad
        // fold.
        let mut file = decode_store(&full).unwrap();
        file.groups[0].runs.pop();
        write_store(&path, &file).unwrap();
        let (store, _) = test_store(&dir, &app);
        assert!(matches!(
            store.lookup(&app.image, &group),
            CacheLookup::Stale
        ));

        // Malformed payload inside a well-shaped entry → stale.
        let mut file = decode_store(&full).unwrap();
        file.groups[0].runs[0].outcome = "bogus".to_string();
        write_store(&path, &file).unwrap();
        let (store, _) = test_store(&dir, &app);
        assert!(matches!(
            store.lookup(&app.image, &group),
            CacheLookup::Stale
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_codec_round_trips_every_run_field() {
        let run = InjectionRun {
            outcome: fisec_inject::OutcomeClass::FailSilenceViolation,
            activated: true,
            stop: fisec_os::Stop::Crashed(fisec_x86::Fault::MemAccess {
                addr: 0x2004,
                write: true,
            }),
            client: fisec_net::ClientStatus::Confused,
            crash_latency: Some(4242),
            transient_deviation: true,
            divergence: Some("msg 3 differs".to_string()),
        };
        let divs = [
            None,
            Some((None, None)),
            Some((Some(17), None)),
            Some((None, Some(9))),
            Some((Some(u64::MAX), Some(0))),
        ];
        let plain = InjectionRun {
            crash_latency: None,
            divergence: None,
            ..run.clone()
        };
        let runs: Vec<CachedRun> = divs
            .iter()
            .flat_map(|div| {
                [
                    persist::encode_run(&run, *div),
                    persist::encode_run(&plain, *div),
                ]
            })
            .collect();
        let file = StoreFile {
            schema: CACHE_SCHEMA,
            digest_schema: persist::DIGEST_SCHEMA,
            app: "ftpd".to_string(),
            client: "Client1".to_string(),
            scheme: "base".to_string(),
            recorder: true,
            context: "ctx".to_string(),
            text: vec![0x90, 0, 0xff],
            groups: vec![GroupEntry {
                addr: 0x0804_8000,
                targets: Vec::new(),
                foot: vec![FootRange { start: 1, len: 2 }],
                runs,
            }],
        };
        let bytes = encode_store(&file);
        let back = decode_store(&bytes).unwrap();
        assert_eq!(back, file);
        assert_eq!(encode_store(&back), bytes);
        for (i, c) in back.groups[0].runs.iter().enumerate() {
            let (dec, div) = persist::decode_run(c).unwrap();
            assert_eq!(dec, if i % 2 == 0 { &run } else { &plain }.clone());
            assert_eq!(div, divs[i / 2]);
        }
    }

    #[test]
    fn legacy_json_stores_are_listed_invalid_and_evicted() {
        let dir = std::env::temp_dir().join("fisec-cache-test-legacy");
        let _ = std::fs::remove_dir_all(&dir);
        let app = AppSpec::ftpd();
        let group = sample_group(&app);
        let runs = sample_runs(group.len());
        let (store, _) = test_store(&dir, &app);
        store.record(&app.image, &group, &runs, vec![(group[0].addr, 16)]);
        store.save().unwrap();
        // What a schema-1 build leaves for the same column.
        let legacy = dir.join("ftpd-Client1-base.json");
        std::fs::write(
            &legacy,
            r#"{"schema":1,"digest_schema":1,"app":"ftpd","client":"Client1","scheme":"base","recorder":false,"context":"0","groups":[]}"#,
        )
        .unwrap();
        let rows = ls(&dir);
        let names: Vec<&str> = rows.iter().map(|r| r.file.as_str()).collect();
        assert_eq!(names, ["ftpd-Client1-base.json", "ftpd-Client1-base.store"]);
        assert!(rows[0].store.is_none(), "a JSON store never decodes");
        assert_eq!(rows[1].store.as_ref().unwrap().groups.len(), 1);
        // The binary store is the one the campaign reads.
        let (store, _) = test_store(&dir, &app);
        assert!(matches!(
            store.lookup(&app.image, &group),
            CacheLookup::Hit(_)
        ));
        // gc counts the legacy file like any other and evicts it.
        let report = gc(&dir, Some(0), None);
        assert_eq!(report.evicted.len(), 2);
        assert!(store_paths(&dir).is_empty());
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
            let (store, _) = test_store(&dir, &app);
            store.record(&app.image, &group, &runs, foot.clone());
            store.save().unwrap();
            let (store, _) = test_store(&dir, &app);
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
    fn a_target_tuple_differing_in_one_field_is_stale() {
        let dir = std::env::temp_dir().join("fisec-cache-test-tuples");
        let _ = std::fs::remove_dir_all(&dir);
        let app = AppSpec::ftpd();
        let group = sample_group(&app);
        let runs = sample_runs(group.len());
        let (store, _) = test_store(&dir, &app);
        store.record(&app.image, &group, &runs, vec![(group[0].addr, 16)]);
        store.save().unwrap();
        let path = store_paths(&dir)[0].clone();
        let file = read_store(&path).unwrap();
        let doctors: [fn(&mut CachedTarget); 6] = [
            |t| t.byte_index ^= 1,
            |t| t.bit ^= 1,
            |t| t.first_byte ^= 1,
            |t| t.inst_len += 1,
            |t| t.location ^= 1,
            |t| t.is_cond_branch = !t.is_cond_branch,
        ];
        for (i, doctor) in doctors.into_iter().enumerate() {
            let mut doctored = file.clone();
            doctor(&mut doctored.groups[0].targets[group.len() - 1]);
            write_store(&path, &doctored).unwrap();
            let (store, _) = test_store(&dir, &app);
            assert!(
                matches!(store.lookup(&app.image, &group), CacheLookup::Stale),
                "field {i}"
            );
        }
        write_store(&path, &file).unwrap();
        let (store, _) = test_store(&dir, &app);
        assert!(matches!(
            store.lookup(&app.image, &group),
            CacheLookup::Hit(_)
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_keeps_exactly_the_entries_that_hold_against_the_text_it_writes() {
        let dir = std::env::temp_dir().join("fisec-cache-test-save-poked");
        let _ = std::fs::remove_dir_all(&dir);
        let mut app = AppSpec::ftpd();
        let set = fisec_inject::enumerate_targets(&app.image, &app.auth_funcs, true);
        let groups: Vec<&[InjectionTarget]> = set
            .targets
            .chunk_by(|a, b| a.addr == b.addr)
            .take(2)
            .collect();
        let (store, golden) = test_store(&dir, &app);
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
        let dir = std::env::temp_dir().join("fisec-cache-test-text-len");
        let _ = std::fs::remove_dir_all(&dir);
        let app = AppSpec::ftpd();
        let group = sample_group(&app);
        let runs = sample_runs(group.len());
        let (store, _) = test_store(&dir, &app);
        store.record(&app.image, &group, &runs, vec![(group[0].addr, 16)]);
        store.save().unwrap();
        let path = store_paths(&dir)[0].clone();
        let file = read_store(&path).unwrap();
        let n = file.text.len();
        for len in [0, 1, n - 1, n + 1, 2 * n] {
            let mut doctored = file.clone();
            doctored.text.resize(len, 0x90);
            write_store(&path, &doctored).unwrap();
            let (store, _) = test_store(&dir, &app);
            assert!(
                matches!(store.lookup(&app.image, &group), CacheLookup::Stale),
                "text of {len} bytes"
            );
            assert!(store.share(&app.image, &group).is_none());
            store.save().unwrap();
            assert!(read_store(&path).unwrap().groups.is_empty(), "{len}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn context_changes_are_a_full_miss() {
        let dir = std::env::temp_dir().join("fisec-cache-test-context");
        let _ = std::fs::remove_dir_all(&dir);
        let app = AppSpec::ftpd();
        let group = sample_group(&app);
        let runs = sample_runs(group.len());
        let (store, golden) = test_store(&dir, &app);
        store.record(&app.image, &group, &runs, vec![(group[0].addr, 16)]);
        store.save().unwrap();

        // Same context: hit. Doctored client fingerprint: full miss.
        let cache = CampaignCache::at(dir.clone());
        let spec = &app.clients[0];
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

        // A different scheme lands in a different file entirely.
        let store = cache.open_client(&app, spec, EncodingScheme::NewEncoding, false, &golden);
        assert!(!store.context_invalidated);
        assert!(matches!(
            store.lookup(&app.image, &group),
            CacheLookup::Miss
        ));

        // Golden observables are keyed: a doctored golden icount is a
        // context miss (stands in for any golden-path behavior change).
        let mut golden2 = golden.clone();
        golden2.icount += 1;
        let store = cache.open_client(&app, spec, EncodingScheme::Baseline, false, &golden2);
        assert!(store.context_invalidated);

        // The fault model string participates in the context key.
        let a = context_key(&app, spec, EncodingScheme::Baseline, false, &golden);
        assert_eq!(
            a,
            context_key(&app, spec, EncodingScheme::Baseline, false, &golden),
            "context key must be deterministic"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_evicts_by_age_and_size() {
        let dir = std::env::temp_dir().join("fisec-cache-test-gc");
        let _ = std::fs::remove_dir_all(&dir);
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

    #[test]
    fn entry_targets_round_trip() {
        let app = AppSpec::ftpd();
        let group = sample_group(&app);
        let entry = GroupEntry {
            addr: group[0].addr,
            targets: group.iter().map(cached_target).collect(),
            foot: Vec::new(),
            runs: Vec::new(),
        };
        assert_eq!(entry_targets(&entry).unwrap(), group);
        let mut bad = entry;
        bad.targets[0].location = 99;
        assert!(entry_targets(&bad).is_none());
    }
}
