//! The concluding-remarks experiment (§7) at scale: massive random
//! single-bit injection over the whole text segment while the server is
//! under a constant authentication attack. The paper reports roughly
//! one security violation per 3,000 single-bit errors.
//!
//! Unlike the breakpoint campaigns, these errors are *latent*: the bit
//! is corrupted in the loaded image before the connection starts,
//! modelling a memory error that persists until the page is reloaded
//! (§5.4). The execution primitive is [`fisec_inject::LatentRunner`];
//! this module is the campaign tier on top of it, built for 10⁶–10⁷
//! runs:
//!
//! * **Sharded deterministic RNG** — [`draw`] is a counter-based
//!   SplitMix64 stream: run index `i` alone determines its
//!   `(offset, bit)` pair, so any partition of the index space over any
//!   number of worker shards draws exactly the same multiset. Sharded
//!   and unsharded campaigns are bit-identical by construction (and
//!   pinned so by differential tests).
//! * **Streaming aggregation** — runs fold straight into
//!   [`RandomCampaignResult`] tallies plus per-outcome icount
//!   histograms ([`fisec_telemetry::OutcomeHists`]); memory stays flat
//!   no matter how many runs.
//! * **Resumable ledger** — every committed batch appends a
//!   *cumulative* checkpoint ([`fisec_telemetry::RandomBatchEvent`]) to
//!   the telemetry stream. A killed campaign restarts from the last
//!   committed batch ([`read_ledger`] + [`resume_random_streaming`])
//!   and finishes with tallies bit-identical to an uninterrupted run.
//! * **Statistical confidence** — the report carries Wilson and
//!   Clopper-Pearson 95% intervals on the violation rate
//!   ([`crate::stats`]), and [`RandomConfig::target_ci`] keeps sampling
//!   until the Wilson interval is narrower than a requested width.

use crate::campaign::{count_fast_forward, micros_since, run_work_queue, ExecutionMode};
use crate::stats::{clopper_pearson95, wilson95, Ci};
use fisec_apps::{AppSpec, ClientSpec};
use fisec_asm::Image;
use fisec_encoding::EncodingScheme;
use fisec_inject::{
    golden_run_opts, EngineOpts, FirstFetchPass, GoldenRun, InjectionRun, LatentError,
    LatentRunner, OutcomeClass,
};
use fisec_telemetry::{
    metric, MetricsShard, OutcomeHists, Phase, RandomBatchEvent, RandomCampaignEvent,
    RandomEndEvent, Telemetry, TraceEvent,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Draw the `(offset, bit)` pair for run `index` of the stream keyed by
/// `seed`, over a text segment of `text_len` bytes.
///
/// Counter-based (SplitMix64 finalizer evaluated at stream positions
/// `2·index` and `2·index + 1`): random access by index, no sequential
/// state. This is what makes the campaign partition-invariant — a shard
/// executing indices `[a, b)` draws exactly what a single-threaded pass
/// draws over that range.
///
/// # Panics
/// If `text_len` is zero (nothing to corrupt).
pub fn draw(seed: u64, index: u64, text_len: usize) -> (usize, u8) {
    assert!(text_len > 0, "text segment is empty");
    let a = splitmix64_at(seed, 2 * index);
    let b = splitmix64_at(seed, 2 * index + 1);
    // Unbiased range reduction by widening multiply (the fixed-point
    // product of a uniform u64 with the length).
    let offset = ((u128::from(a) * text_len as u128) >> 64) as usize;
    let bit = (b >> 61) as u8;
    (offset, bit)
}

/// The SplitMix64 output function evaluated at absolute stream position
/// `pos` of the stream keyed by `seed`.
fn splitmix64_at(seed: u64, pos: u64) -> u64 {
    let mut z = seed.wrapping_add(pos.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Random-campaign tallies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RandomCampaignResult {
    /// Total injected errors.
    pub runs: usize,
    /// Runs indistinguishable from golden.
    pub no_effect: usize,
    /// Crashes.
    pub sd: usize,
    /// Fail-silence violations.
    pub fsv: usize,
    /// Security break-ins.
    pub brk: usize,
}

impl RandomCampaignResult {
    /// Errors per break-in ("one out of N"); `None` when no break-in
    /// occurred.
    pub fn errors_per_breakin(&self) -> Option<f64> {
        if self.brk == 0 {
            None
        } else {
            Some(self.runs as f64 / self.brk as f64)
        }
    }

    fn add(&mut self, outcome: OutcomeClass) {
        self.runs += 1;
        match outcome {
            OutcomeClass::Breakin => self.brk += 1,
            OutcomeClass::SystemDetection => self.sd += 1,
            OutcomeClass::FailSilenceViolation => self.fsv += 1,
            _ => self.no_effect += 1,
        }
    }

    fn merge(&mut self, other: &RandomCampaignResult) {
        self.runs += other.runs;
        self.no_effect += other.no_effect;
        self.sd += other.sd;
        self.fsv += other.fsv;
        self.brk += other.brk;
    }
}

/// Configuration of one streaming random campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomConfig {
    /// Total runs (the cap when [`RandomConfig::target_ci`] is set).
    pub runs: usize,
    /// Master seed of the counter-based draw stream.
    pub seed: u64,
    /// Encoding scheme the flip goes through.
    pub scheme: EncodingScheme,
    /// Execution engine for every session.
    pub mode: ExecutionMode,
    /// Index into the app's client list (the attack pattern).
    pub client: usize,
    /// Worker shards.
    pub threads: usize,
    /// Runs per committed ledger batch.
    pub batch: usize,
    /// Stop early once the Wilson 95% interval on the violation rate is
    /// narrower than this width.
    pub target_ci: Option<f64>,
    /// Execution-engine options threaded into every process.
    pub engine: EngineOpts,
}

impl Default for RandomConfig {
    fn default() -> RandomConfig {
        RandomConfig {
            runs: 3000,
            seed: 2001,
            scheme: EncodingScheme::Baseline,
            mode: ExecutionMode::Snapshot,
            client: 0,
            threads: 1,
            batch: 500,
            target_ci: None,
            engine: EngineOpts::default(),
        }
    }
}

impl RandomConfig {
    fn header(&self, app: &AppSpec, client: &ClientSpec) -> RandomCampaignEvent {
        RandomCampaignEvent {
            app: app.name.to_string(),
            scheme: self.scheme.to_string(),
            mode: self.mode.name().to_string(),
            client: client.name.clone(),
            seed: self.seed,
            runs: self.runs as u64,
            batch: self.batch as u64,
            text_len: app.image.text.len() as u64,
            target_ci: self.target_ci,
        }
    }

    /// Rebuild the configuration a ledger header records, so `--resume`
    /// needs no flag replay. Threads and engine options are
    /// execution-only (they cannot change the outcome) and keep their
    /// caller-chosen values.
    ///
    /// # Errors
    /// A message for an unknown scheme or mode label.
    pub fn from_header(
        header: &RandomCampaignEvent,
        threads: usize,
        engine: EngineOpts,
    ) -> Result<RandomConfig, String> {
        let scheme = EncodingScheme::by_name(&header.scheme)
            .ok_or_else(|| format!("ledger header: unknown scheme label `{}`", header.scheme))?;
        let mode = [ExecutionMode::Snapshot, ExecutionMode::FromScratch]
            .into_iter()
            .find(|m| m.name() == header.mode)
            .ok_or_else(|| format!("ledger header: unknown mode label `{}`", header.mode))?;
        Ok(RandomConfig {
            runs: header.runs as usize,
            seed: header.seed,
            scheme,
            mode,
            client: 0, // resolved by name against the app below
            threads,
            batch: header.batch.max(1) as usize,
            target_ci: header.target_ci,
            engine,
        })
    }
}

/// Everything a finished (or replayed) random campaign reports: the
/// identifying header fields, the folded tallies and the per-outcome
/// icount histograms. [`render_report`] turns it into the CLI report;
/// `fisec stats` rebuilds an identical value from the ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomStats {
    /// Application name.
    pub app: String,
    /// Scheme label.
    pub scheme: String,
    /// Execution engine label.
    pub mode: String,
    /// Attack client name.
    pub client: String,
    /// Master seed.
    pub seed: u64,
    /// Ledger batch granularity.
    pub batch: usize,
    /// Requested Wilson-interval width, when adaptive sampling was on.
    pub target_ci: Option<f64>,
    /// Folded tallies.
    pub result: RandomCampaignResult,
    /// Per-outcome icount histograms.
    pub hists: OutcomeHists,
}

/// Flat JSON shape of a random campaign's headline numbers (tallies +
/// rate + both intervals), for `--json` output and snapshot diffing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RandomJsonSummary {
    /// Total injected errors.
    pub runs: usize,
    /// Runs indistinguishable from golden.
    pub no_effect: usize,
    /// Crashes.
    pub sd: usize,
    /// Fail-silence violations.
    pub fsv: usize,
    /// Break-ins.
    pub brk: usize,
    /// Point estimate brk/runs.
    pub violation_rate: f64,
    /// Wilson 95% lower bound.
    pub wilson_low: f64,
    /// Wilson 95% upper bound.
    pub wilson_high: f64,
    /// Clopper-Pearson 95% lower bound.
    pub cp_low: f64,
    /// Clopper-Pearson 95% upper bound.
    pub cp_high: f64,
}

impl RandomStats {
    /// The flat `--json` summary: tallies, rate, both 95% intervals.
    pub fn json_summary(&self) -> RandomJsonSummary {
        let w = self.wilson95();
        let cp = self.clopper_pearson95();
        RandomJsonSummary {
            runs: self.result.runs,
            no_effect: self.result.no_effect,
            sd: self.result.sd,
            fsv: self.result.fsv,
            brk: self.result.brk,
            violation_rate: self.violation_rate(),
            wilson_low: w.low,
            wilson_high: w.high,
            cp_low: cp.low,
            cp_high: cp.high,
        }
    }

    /// Point estimate of the violation (break-in) rate.
    pub fn violation_rate(&self) -> f64 {
        if self.result.runs == 0 {
            0.0
        } else {
            self.result.brk as f64 / self.result.runs as f64
        }
    }

    /// Wilson 95% interval on the violation rate.
    pub fn wilson95(&self) -> Ci {
        wilson95(self.result.brk as u64, self.result.runs as u64)
    }

    /// Clopper-Pearson 95% interval on the violation rate.
    pub fn clopper_pearson95(&self) -> Ci {
        clopper_pearson95(self.result.brk as u64, self.result.runs as u64)
    }
}

/// Render the campaign report: tallies, the violation rate with both
/// 95% intervals, and the icount histogram per outcome. Deliberately
/// timing-free so a ledger replay (`fisec stats`) reproduces the live
/// report byte-identically.
pub fn render_report(stats: &RandomStats) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "== random injection: {} [{}] — {} engine ==\n",
        stats.app, stats.scheme, stats.mode
    ));
    out.push_str(&format!(
        "client {}  seed {}  batch {}{}\n",
        stats.client,
        stats.seed,
        stats.batch,
        match stats.target_ci {
            Some(w) => format!("  target-ci {w:.2e}"),
            None => String::new(),
        }
    ));
    let r = &stats.result;
    out.push_str(&format!(
        "runs {}: no-effect {}  SD {}  FSV {}  BRK {}\n",
        r.runs, r.no_effect, r.sd, r.fsv, r.brk
    ));
    out.push_str(&format!(
        "violation rate (BRK): {:.3e}{}\n",
        stats.violation_rate(),
        match r.errors_per_breakin() {
            Some(n) => format!("  (1 in {n:.0})"),
            None => String::new(),
        }
    ));
    let w = stats.wilson95();
    let cp = stats.clopper_pearson95();
    out.push_str(&format!(
        "  Wilson 95%:          [{:.3e}, {:.3e}]  width {:.3e}\n",
        w.low,
        w.high,
        w.width()
    ));
    out.push_str(&format!(
        "  Clopper-Pearson 95%: [{:.3e}, {:.3e}]  width {:.3e}\n",
        cp.low,
        cp.high,
        cp.width()
    ));
    out.push_str("icount by outcome:\n");
    for (label, h) in [
        ("no-effect", &stats.hists.no_effect),
        ("SD", &stats.hists.sd),
        ("FSV", &stats.hists.fsv),
        ("BRK", &stats.hists.brk),
    ] {
        if h.count > 0 {
            let (p50, p95, p99) = h.percentiles();
            out.push_str(&format!(
                "  {label:<10} n={:<9} mean={:<11.1} p50={:<9.1} p95={:<9.1} p99={:<11.1} max={}\n",
                h.count,
                h.mean(),
                p50,
                p95,
                p99,
                h.max
            ));
        }
    }
    out
}

/// The aggregation state a ledger restores: the header that keyed the
/// campaign, the cumulative tallies/histograms of the last committed
/// batch, and how far the run-index stream got.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerState {
    /// Campaign header as recorded.
    pub header: RandomCampaignEvent,
    /// One past the last committed run index.
    pub committed: u64,
    /// Cumulative tallies at `committed`.
    pub tallies: RandomCampaignResult,
    /// Cumulative per-outcome icount histograms at `committed`.
    pub hists: OutcomeHists,
    /// Whether the ledger carries a campaign trailer (nothing to
    /// resume).
    pub finished: bool,
    /// Byte length of the well-formed JSONL prefix of the file. A
    /// campaign killed mid-write leaves a torn final line past this
    /// point; [`truncate_torn_tail`] chops it before appending resumes.
    pub valid_len: u64,
}

/// Truncate a ledger file to the well-formed prefix [`read_ledger`]
/// validated, so appending resumed checkpoints cannot splice onto a
/// torn final line.
///
/// # Errors
/// A message when the file cannot be opened or truncated.
pub fn truncate_torn_tail(path: impl AsRef<Path>, ledger: &LedgerState) -> Result<(), String> {
    let path = path.as_ref();
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| format!("open {}: {e}", path.display()))?;
    let len = f
        .metadata()
        .map_err(|e| format!("stat {}: {e}", path.display()))?
        .len();
    if len > ledger.valid_len {
        f.set_len(ledger.valid_len)
            .map_err(|e| format!("truncate {}: {e}", path.display()))?;
    }
    Ok(())
}

/// Read a (possibly truncated) campaign ledger back into its
/// aggregation state. Parsing is deliberately lenient about the tail: a
/// campaign killed mid-write leaves a torn final line, so reading stops
/// at the first malformed line and resumes from the last *parseable*
/// committed batch.
///
/// # Errors
/// A message when the file is unreadable, carries no campaign header,
/// or its first line is already malformed.
pub fn read_ledger(path: impl AsRef<Path>) -> Result<LedgerState, String> {
    let text = std::fs::read_to_string(path.as_ref())
        .map_err(|e| format!("read {}: {e}", path.as_ref().display()))?;
    let mut state: Option<LedgerState> = None;
    let mut valid_len = 0u64;
    let mut pos = 0usize;
    for (i, raw) in text.split_inclusive('\n').enumerate() {
        pos += raw.len();
        // A final line the writer never newline-terminated is a torn
        // tail even when its prefix happens to parse as JSON.
        if !raw.ends_with('\n') {
            break;
        }
        let line = raw.trim();
        if line.is_empty() {
            valid_len = pos as u64;
            continue;
        }
        let ev = match TraceEvent::parse_line(line) {
            Ok(ev) => ev,
            // Torn tail from a killed writer: keep what committed.
            Err(e) if state.is_some() => {
                let _ = e;
                break;
            }
            Err(e) => return Err(format!("ledger line {}: {e}", i + 1)),
        };
        valid_len = pos as u64;
        match ev {
            TraceEvent::RandomCampaign(header) => {
                // A later header supersedes the earlier campaign (the
                // file is append-only; only the last campaign resumes).
                state = Some(LedgerState {
                    header,
                    committed: 0,
                    tallies: RandomCampaignResult::default(),
                    hists: OutcomeHists::default(),
                    finished: false,
                    valid_len: 0,
                });
            }
            TraceEvent::RandomBatch(b) => {
                let Some(st) = state.as_mut() else {
                    return Err(format!("ledger line {}: batch before header", i + 1));
                };
                st.committed = b.end;
                st.tallies = RandomCampaignResult {
                    runs: b.end as usize,
                    no_effect: b.no_effect as usize,
                    sd: b.sd as usize,
                    fsv: b.fsv as usize,
                    brk: b.brk as usize,
                };
                st.hists = b.hists;
            }
            TraceEvent::RandomEnd(_) => {
                if let Some(st) = state.as_mut() {
                    st.finished = true;
                }
            }
            // Targeted-campaign events sharing the stream are not ours.
            TraceEvent::Campaign(_)
            | TraceEvent::Run(_)
            | TraceEvent::CampaignEnd(_)
            | TraceEvent::Span(_)
            | TraceEvent::Profile(_)
            | TraceEvent::Propagation(_)
            | TraceEvent::Cache(_) => {}
        }
    }
    match state {
        Some(mut st) => {
            st.valid_len = valid_len;
            Ok(st)
        }
        None => Err("ledger contains no random-campaign header".to_string()),
    }
}

/// Run a streaming random campaign from index 0.
///
/// # Errors
/// A message for an out-of-range client index, an unloadable image, or
/// an empty text segment.
pub fn run_random_streaming(
    app: &AppSpec,
    cfg: &RandomConfig,
    tel: &Telemetry,
) -> Result<RandomStats, String> {
    run_random_inner(app, cfg, tel, None)
}

/// Resume a streaming random campaign from a ledger's last committed
/// batch. The caller re-opens the ledger file in append mode as `tel`'s
/// sink; checkpoints continue where they left off and the final tallies
/// are bit-identical to an uninterrupted run.
///
/// # Errors
/// A message when the ledger does not match `app`/`cfg` (different
/// seed, scheme, runs, batch, client or text length) or the campaign
/// cannot run.
pub fn resume_random_streaming(
    app: &AppSpec,
    cfg: &RandomConfig,
    ledger: &LedgerState,
    tel: &Telemetry,
) -> Result<RandomStats, String> {
    let client = app
        .clients
        .get(cfg.client)
        .ok_or_else(|| format!("client index {} out of range", cfg.client))?;
    let expect = cfg.header(app, client);
    if ledger.header != expect {
        return Err(format!(
            "ledger header does not match this campaign:\n  ledger: {:?}\n  campaign: {expect:?}",
            ledger.header
        ));
    }
    if ledger.committed as usize > cfg.runs {
        return Err(format!(
            "ledger committed {} runs but the campaign only has {}",
            ledger.committed, cfg.runs
        ));
    }
    run_random_inner(app, cfg, tel, Some(ledger))
}

/// Outcome tallies + histograms of one executed batch, keyed for
/// in-order committing.
#[derive(Default)]
struct BatchPartial {
    tallies: RandomCampaignResult,
    hists: OutcomeHists,
}

/// Folds batches in index order, appends cumulative checkpoints to the
/// event stream, and decides the deterministic stop point.
struct Committer<'a> {
    state: Mutex<CommitState>,
    stop: AtomicBool,
    tel: &'a Telemetry,
    target_ci: Option<f64>,
    batch: usize,
    final_batch: usize,
}

struct CommitState {
    /// Next batch index to fold.
    next: usize,
    /// The batch at which the campaign deterministically stops (target
    /// CI reached); later batches are discarded.
    stop_at: Option<usize>,
    pending: BTreeMap<usize, BatchPartial>,
    tallies: RandomCampaignResult,
    hists: OutcomeHists,
}

impl Committer<'_> {
    fn commit(&self, idx: usize, partial: BatchPartial) {
        let mut st = self.state.lock().expect("no worker panicked");
        if st.stop_at.is_some_and(|s| idx > s) {
            return; // raced past the deterministic stop point
        }
        st.pending.insert(idx, partial);
        while let Some(p) = {
            let next = st.next;
            st.pending.remove(&next)
        } {
            st.tallies.merge(&p.tallies);
            st.hists.merge(&p.hists);
            self.tel.progress.add(
                [
                    0,
                    p.tallies.no_effect as u64,
                    p.tallies.sd as u64,
                    p.tallies.fsv as u64,
                    p.tallies.brk as u64,
                ],
                1,
            );
            if self.tel.events_enabled() {
                let end = st.tallies.runs as u64;
                self.tel
                    .sink
                    .emit(&TraceEvent::RandomBatch(Box::new(RandomBatchEvent {
                        start: end - p.tallies.runs as u64,
                        end,
                        no_effect: st.tallies.no_effect as u64,
                        sd: st.tallies.sd as u64,
                        fsv: st.tallies.fsv as u64,
                        brk: st.tallies.brk as u64,
                        hists: st.hists.clone(),
                    })));
                self.tel.sink.flush();
            }
            let reached_target = self.target_ci.is_some_and(|w| {
                wilson95(st.tallies.brk as u64, st.tallies.runs as u64).width() <= w
            });
            if reached_target || st.next + 1 == self.final_batch {
                st.stop_at = Some(st.next);
                self.stop.store(true, Ordering::Relaxed);
                st.next += 1;
                break;
            }
            st.next += 1;
        }
        // The first committed run index of batch `b` is `b * batch`
        // (only the final batch is short), so cumulative `runs` always
        // equals the committed index frontier.
        debug_assert!(st.tallies.runs <= st.next * self.batch);
    }

    fn into_state(self) -> (RandomCampaignResult, OutcomeHists) {
        let st = self.state.into_inner().expect("no worker panicked");
        (st.tallies, st.hists)
    }
}

fn run_random_inner(
    app: &AppSpec,
    cfg: &RandomConfig,
    tel: &Telemetry,
    resume: Option<&LedgerState>,
) -> Result<RandomStats, String> {
    let client = app.clients.get(cfg.client).ok_or_else(|| {
        format!(
            "client index {} out of range for {} (valid: 0..={})",
            cfg.client,
            app.name,
            app.clients.len() - 1
        )
    })?;
    let text_len = app.image.text.len();
    if text_len == 0 {
        return Err("text segment is empty".to_string());
    }
    let batch = cfg.batch.max(1);
    let start = Instant::now();

    let stats_of = |tallies: RandomCampaignResult, hists: OutcomeHists| RandomStats {
        app: app.name.to_string(),
        scheme: cfg.scheme.to_string(),
        mode: cfg.mode.name().to_string(),
        client: client.name.clone(),
        seed: cfg.seed,
        batch,
        target_ci: cfg.target_ci,
        result: tallies,
        hists,
    };

    let (first_batch, init_tallies, init_hists) = match resume {
        Some(l) => {
            if l.finished || l.committed as usize >= cfg.runs {
                return Ok(stats_of(l.tallies, l.hists.clone()));
            }
            debug_assert_eq!(
                l.committed % batch as u64,
                0,
                "interior checkpoints land on batch boundaries"
            );
            (l.committed as usize / batch, l.tallies, l.hists.clone())
        }
        None => {
            if tel.events_enabled() {
                tel.sink
                    .emit(&TraceEvent::RandomCampaign(cfg.header(app, client)));
                tel.sink.flush();
            }
            (0, RandomCampaignResult::default(), OutcomeHists::default())
        }
    };
    // A resumed campaign may already satisfy the target width.
    if cfg.target_ci.is_some_and(|w| {
        init_tallies.runs > 0
            && wilson95(init_tallies.brk as u64, init_tallies.runs as u64).width() <= w
    }) {
        return Ok(stats_of(init_tallies, init_hists));
    }

    // The registry may span several campaigns: the trailer's counters
    // are the delta over this one.
    let before = tel.events_enabled().then(|| tel.metrics.snapshot());
    let mut main = MetricsShard::new();
    let boot_start = Instant::now();
    // In snapshot mode golden's session is the first-fetch pass, and that
    // one pass serves every worker's runner.
    let (golden, pass) = match cfg.mode {
        ExecutionMode::Snapshot => {
            let (golden, pass) = FirstFetchPass::golden(&app.image, client, cfg.engine)
                .map_err(|e| format!("golden run: {e:?}"))?;
            (golden, Some(pass))
        }
        ExecutionMode::FromScratch => (
            golden_run_opts(&app.image, client, cfg.engine)
                .map_err(|e| format!("golden run: {e:?}"))?,
            None,
        ),
    };
    main.inc(metric::FRESH_BOOTS, 1);
    main.phase_add(Phase::Boot, micros_since(boot_start));
    if tel.enabled() {
        tel.metrics.absorb(&main);
    }
    // The §6.2 byte contexts come from decoding every function body:
    // once per campaign, not once per draw.
    let contexts = match cfg.scheme {
        EncodingScheme::Baseline => Vec::new(),
        EncodingScheme::NewEncoding => opcode_contexts(&app.image),
    };
    let total_batches = cfg.runs.div_ceil(batch);
    let committer = Committer {
        state: Mutex::new(CommitState {
            next: first_batch,
            stop_at: None,
            pending: BTreeMap::new(),
            tallies: init_tallies,
            hists: init_hists,
        }),
        stop: AtomicBool::new(false),
        tel,
        target_ci: cfg.target_ci,
        batch,
        final_batch: total_batches,
    };

    // Resumed runs count toward completion and the tally but not the
    // rate/ETA estimate (which only fresh work should drive).
    tel.progress.begin_resumed(
        &format!("{} random [{}]", app.name, cfg.scheme),
        cfg.runs as u64,
        [
            0,
            init_tallies.no_effect as u64,
            init_tallies.sd as u64,
            init_tallies.fsv as u64,
            init_tallies.brk as u64,
        ],
        first_batch as u64,
    );

    let threads = cfg.threads.max(1).min(total_batches - first_batch);
    let worker_err: Mutex<Option<String>> = Mutex::new(None);
    run_work_queue(threads, total_batches - first_batch, |_, pull| {
        let mut shard = MetricsShard::new();
        let mut runner = match &pass {
            Some(pass) => LatentRunner::with_pass(&app.image, client, pass),
            None => LatentRunner::from_scratch(&app.image, client, &golden, cfg.engine),
        };
        let mut errs = Vec::with_capacity(batch);
        while let Some(i) = pull() {
            if committer.stop.load(Ordering::Relaxed) {
                break;
            }
            let b = first_batch + i;
            let lo = b * batch;
            let hi = ((b + 1) * batch).min(cfg.runs);
            errs.clear();
            errs.extend((lo..hi).map(|idx| {
                let (offset, bit) = draw(cfg.seed, idx as u64, text_len);
                LatentError {
                    offset,
                    corrupted: corrupt_byte(&app.image, &contexts, offset, bit, cfg.scheme),
                }
            }));
            let mut partial = BatchPartial::default();
            let served = runner.run_batch(&golden, &errs, |_, run, meta| {
                partial.tallies.add(run.outcome);
                let hist = match run.outcome {
                    OutcomeClass::Breakin => &mut partial.hists.brk,
                    OutcomeClass::SystemDetection => &mut partial.hists.sd,
                    OutcomeClass::FailSilenceViolation => &mut partial.hists.fsv,
                    _ => &mut partial.hists.no_effect,
                };
                hist.record(meta.icount);
                if tel.enabled() {
                    shard.inc(metric::RUNS, 1);
                    shard.observe(metric::REPLAY_MICROS, meta.run_micros);
                    shard.observe(metric::ICOUNT, meta.icount);
                    count_fast_forward(&mut shard, &meta);
                    shard.phase_add(Phase::Replay, meta.run_micros);
                    shard.phase_add(Phase::Classify, meta.classify_micros);
                }
            });
            let bmeta = match served {
                Ok(m) => m,
                Err(e) => {
                    *worker_err.lock().expect("no worker panicked") =
                        Some(format!("batch {b} (runs {lo}..{hi}): {e}"));
                    return;
                }
            };
            if tel.enabled() {
                shard.inc(metric::NA_PREFILTER_RUNS, bmeta.unfetched);
                shard.inc(metric::RESTORES, bmeta.restores);
                shard.phase_add(Phase::Snapshot, bmeta.rung_micros);
            }
            committer.commit(b, partial);
        }
        if tel.enabled() {
            // This worker's process loads (one per run from scratch).
            shard.inc(metric::FRESH_BOOTS, runner.loads());
            tel.metrics.absorb(&shard);
        }
    });
    tel.progress.finish();
    if let Some(e) = worker_err.into_inner().expect("no worker panicked") {
        return Err(e);
    }

    let (tallies, hists) = committer.into_state();
    let stats = stats_of(tallies, hists);
    if let Some(before) = before {
        let after = tel.metrics.snapshot();
        let ctr = |n| after.counter(n).saturating_sub(before.counter(n));
        let w = stats.wilson95();
        let cp = stats.clopper_pearson95();
        tel.sink.emit(&TraceEvent::RandomEnd(RandomEndEvent {
            runs: stats.result.runs as u64,
            no_effect: stats.result.no_effect as u64,
            sd: stats.result.sd as u64,
            fsv: stats.result.fsv as u64,
            brk: stats.result.brk as u64,
            wall_micros: micros_since(start),
            violation_rate: stats.violation_rate(),
            wilson_low: w.low,
            wilson_high: w.high,
            cp_low: cp.low,
            cp_high: cp.high,
            fast_forwarded_runs: ctr(metric::FAST_FORWARDED_RUNS),
            skipped_guest_insts: ctr(metric::SKIPPED_GUEST_INSTS),
        }));
        tel.sink.flush();
    }
    Ok(stats)
}

/// The corrupted value for flipping `bit` of the text byte at `offset`
/// under `scheme` — a plain XOR for the baseline, the §6.2
/// map→flip→map transform (keyed by the byte's decoded context from
/// `contexts`, the image's [`opcode_contexts`]) for the new encoding.
/// `contexts` is only read under the new encoding.
///
/// # Panics
/// If `offset` is outside the text segment, or outside `contexts` under
/// the new encoding.
pub fn corrupt_byte(
    image: &Image,
    contexts: &[fisec_encoding::ByteCtx],
    offset: usize,
    bit: u8,
    scheme: EncodingScheme,
) -> u8 {
    match scheme {
        EncodingScheme::Baseline => image.text[offset] ^ (1 << bit),
        EncodingScheme::NewEncoding => {
            fisec_encoding::remap_flip(image.text[offset], bit, contexts[offset], scheme)
        }
    }
}

/// Run one session against an image whose text byte `offset` has `bit`
/// flipped. One-shot form of [`fisec_inject::LatentRunner`] for simple
/// callers (benches, exploratory tests).
///
/// # Errors
/// A message when `offset` is outside the text segment or `bit > 7`.
pub fn run_with_latent_error(
    image: &Image,
    spec: &ClientSpec,
    golden: &GoldenRun,
    offset: usize,
    bit: u8,
) -> Result<InjectionRun, String> {
    if bit > 7 {
        return Err(format!("bit {bit} out of range (valid: 0..=7)"));
    }
    if offset >= image.text.len() {
        return Err(format!(
            "offset {} out of range for text segment of {} bytes",
            offset,
            image.text.len()
        ));
    }
    let mut runner = LatentRunner::from_scratch(image, spec, golden, EngineOpts::default());
    let err = LatentError {
        offset,
        corrupted: image.text[offset] ^ (1 << bit),
    };
    runner.run(golden, err).map(|(run, _)| run)
}

/// Run `runs` random single-bit text-segment errors under the attack
/// client (the app's first client pattern), seeded for reproducibility.
pub fn run_random_campaign(app: &AppSpec, runs: usize, seed: u64) -> RandomCampaignResult {
    run_random_campaign_scheme(app, runs, seed, EncodingScheme::Baseline)
}

/// [`run_random_campaign`] parameterized by encoding scheme. Under
/// [`EncodingScheme::NewEncoding`] each chosen byte goes through the
/// §6.2 map→flip→map transform using its decoded byte context.
pub fn run_random_campaign_scheme(
    app: &AppSpec,
    runs: usize,
    seed: u64,
    scheme: EncodingScheme,
) -> RandomCampaignResult {
    let cfg = RandomConfig {
        runs,
        seed,
        scheme,
        ..RandomConfig::default()
    };
    run_random_streaming(app, &cfg, &Telemetry::disabled())
        .expect("default config on a bundled app cannot fail")
        .result
}

/// Per-byte §6.2 mapping context, derived by linearly decoding every
/// function body. A campaign computes it once and hands it to every
/// [`corrupt_byte`] call.
pub fn opcode_contexts(image: &Image) -> Vec<fisec_encoding::ByteCtx> {
    use fisec_encoding::ByteCtx;
    let mut ctx = vec![ByteCtx::Other; image.text.len()];
    for f in &image.symbols.funcs {
        for (addr, inst) in image.decode_func(f) {
            let off = (addr - image.text_base) as usize;
            ctx[off] = ByteCtx::OneByteOpcode;
            if inst.len >= 2 && image.text[off] == 0x0F {
                ctx[off + 1] = ByteCtx::SecondOpcodeByte;
            }
        }
    }
    ctx
}

#[cfg(test)]
mod tests {
    use super::*;
    use fisec_apps::AppSpec;
    use fisec_inject::golden_run;

    #[test]
    fn draw_is_deterministic_and_in_range() {
        for idx in 0..1000u64 {
            let (o1, b1) = draw(42, idx, 997);
            let (o2, b2) = draw(42, idx, 997);
            assert_eq!((o1, b1), (o2, b2));
            assert!(o1 < 997);
            assert!(b1 < 8);
        }
        // Different seeds decorrelate.
        let a: Vec<_> = (0..64).map(|i| draw(1, i, 1 << 20)).collect();
        let b: Vec<_> = (0..64).map(|i| draw(2, i, 1 << 20)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn draw_covers_offsets_and_bits() {
        // 4k draws over a tiny segment hit every offset and every bit.
        let mut offsets = [false; 13];
        let mut bits = [false; 8];
        for i in 0..4096u64 {
            let (o, b) = draw(7, i, 13);
            offsets[o] = true;
            bits[b as usize] = true;
        }
        assert!(offsets.iter().all(|&x| x), "{offsets:?}");
        assert!(bits.iter().all(|&x| x), "{bits:?}");
    }

    #[test]
    fn latent_error_runs_classify() {
        let app = AppSpec::ftpd();
        let spec = &app.clients[0];
        let golden = golden_run(&app.image, spec).unwrap();
        // Flip a bit in _start's first instruction: guaranteed activation,
        // near-certain manifestation of some kind (or none if benign).
        let r = run_with_latent_error(&app.image, spec, &golden, 0, 6).unwrap();
        assert!(matches!(
            r.outcome,
            OutcomeClass::NotManifested
                | OutcomeClass::SystemDetection
                | OutcomeClass::FailSilenceViolation
                | OutcomeClass::Breakin
        ));
    }

    #[test]
    fn random_campaign_is_reproducible() {
        let app = AppSpec::ftpd();
        let a = run_random_campaign(&app, 30, 42);
        let b = run_random_campaign(&app, 30, 42);
        assert_eq!(a, b);
        assert_eq!(a.runs, 30);
        assert_eq!(a.no_effect + a.sd + a.fsv + a.brk, 30);
    }

    #[test]
    fn different_seeds_differ() {
        let app = AppSpec::ftpd();
        let a = run_random_campaign(&app, 40, 1);
        let b = run_random_campaign(&app, 40, 2);
        // Extremely unlikely to tally identically in every category.
        assert!(a != b || a.no_effect == 40);
    }

    #[test]
    fn errors_per_breakin_math() {
        let r = RandomCampaignResult {
            runs: 3000,
            brk: 1,
            ..Default::default()
        };
        assert_eq!(r.errors_per_breakin(), Some(3000.0));
        let r = RandomCampaignResult::default();
        assert_eq!(r.errors_per_breakin(), None);
    }

    #[test]
    fn bad_offset_is_a_hard_error() {
        let app = AppSpec::ftpd();
        let spec = &app.clients[0];
        let golden = golden_run(&app.image, spec).unwrap();
        let msg = run_with_latent_error(&app.image, spec, &golden, usize::MAX, 0).unwrap_err();
        assert!(msg.contains("out of range"), "{msg}");
        let msg = run_with_latent_error(&app.image, spec, &golden, 0, 8).unwrap_err();
        assert!(msg.contains("bit 8 out of range"), "{msg}");
    }

    #[test]
    fn out_of_range_client_is_a_hard_error() {
        let app = AppSpec::ftpd();
        let cfg = RandomConfig {
            runs: 5,
            client: 99,
            ..RandomConfig::default()
        };
        let msg = run_random_streaming(&app, &cfg, &Telemetry::disabled()).unwrap_err();
        assert!(msg.contains("client index 99 out of range"), "{msg}");
        assert!(msg.contains("valid: 0..="), "{msg}");
    }

    #[test]
    fn report_renders_rates_and_intervals() {
        let stats = RandomStats {
            app: "ftpd".into(),
            scheme: "baseline x86".into(),
            mode: "snapshot".into(),
            client: "Client1".into(),
            seed: 7,
            batch: 500,
            target_ci: None,
            result: RandomCampaignResult {
                runs: 3000,
                no_effect: 2800,
                sd: 150,
                fsv: 49,
                brk: 1,
            },
            hists: OutcomeHists::default(),
        };
        let s = render_report(&stats);
        assert!(s.contains("runs 3000"), "{s}");
        assert!(s.contains("(1 in 3000)"), "{s}");
        assert!(s.contains("Wilson 95%"), "{s}");
        assert!(s.contains("Clopper-Pearson 95%"), "{s}");
        // No break-in: rate renders without the "1 in N" suffix.
        let none = RandomStats {
            result: RandomCampaignResult {
                runs: 100,
                no_effect: 100,
                ..Default::default()
            },
            ..stats
        };
        let s = render_report(&none);
        assert!(s.contains("violation rate (BRK): 0.000e0\n"), "{s}");
    }
}
