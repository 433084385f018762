//! The structured run-event stream: schema, sinks and JSONL transport.
//!
//! A trace is a sequence of [`TraceEvent`]s. On disk each event is one
//! JSON object per line, tagged by an `"event"` field:
//!
//! ```text
//! {"event":"campaign","app":"ftpd","scheme":"baseline x86",...}
//! {"event":"run","client":0,"addr":134512678,"byte_index":0,"bit":3,...}
//! {"event":"campaign_end","app":"ftpd","wall_micros":812345,...}
//! ```
//!
//! The `campaign` header scopes the `run` events that follow it (their
//! `client` field indexes its `clients` array), and `campaign_end`
//! closes the campaign with the phase breakdown, so a saved stream is a
//! self-contained, replayable record of the whole experiment.

use crate::hotspot::ProfileData;
use crate::metrics::OutcomeHists;
use serde::{Deserialize, Serialize, Value};
use std::io::{BufRead, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

/// Campaign header: identifies the app/scheme/engine and names the
/// clients so per-run events can reference them by index.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignEvent {
    /// Application name ("ftpd"/"sshd").
    pub app: String,
    /// Encoding scheme label (`EncodingScheme`'s `Display`).
    pub scheme: String,
    /// Execution engine: "snapshot" or "from-scratch".
    pub mode: String,
    /// Targeted instructions.
    pub instructions: usize,
    /// Conditional branches among them.
    pub cond_branches: usize,
    /// Injection runs per client (= target bits).
    pub runs_per_client: usize,
    /// Client names in paper order.
    pub clients: Vec<String>,
    /// Whether the golden run denies each client (same order).
    pub golden_denied: Vec<bool>,
}

/// One injection run. Exactly one of these is emitted per experiment,
/// including runs the NA pre-filter classified without execution.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunEvent {
    /// Index into the enclosing campaign header's `clients`.
    pub client: usize,
    /// Target instruction address.
    pub addr: u32,
    /// Byte within the instruction.
    pub byte_index: u8,
    /// Bit within the byte.
    pub bit: u8,
    /// Outcome abbreviation: NA/NM/SD/FSV/BRK.
    pub outcome: String,
    /// Error-location index in Table 2 order.
    pub location: u8,
    /// Worker thread that executed the run (0 = the campaign thread).
    pub worker: usize,
    /// True when the run replayed a checkpoint instead of booting fresh.
    pub snapshot_replay: bool,
    /// True when the run was classified NA from golden coverage without
    /// ever executing (the pre-filter); `icount`/`micros` are then 0.
    pub na_prefilter: bool,
    /// True when the run was synthesized from the incremental campaign
    /// cache without executing (its checkpoint group's key matched);
    /// `icount`/`micros` are then 0. Absent from cache-off traces
    /// (older streams parse fine).
    #[serde(default)]
    pub cache_hit: bool,
    /// Guest instructions retired for this run (since the restore point
    /// for snapshot replays, since boot for fresh runs).
    pub icount: u64,
    /// Host microseconds spent executing the run (excluding the shared
    /// boot-to-breakpoint prefix of a snapshot group).
    pub micros: u64,
    /// Crash latency in instructions, when the run crashed.
    pub crash_latency: Option<u64>,
    /// Whether pre-crash traffic deviated from golden.
    pub transient_deviation: bool,
    /// Instructions between activation and the first control-flow edge
    /// diverging from the golden continuation, when the campaign ran
    /// with the flight recorder and the run's control flow diverged.
    /// Absent from recorder-off traces (older streams parse fine).
    pub divergence_depth: Option<u64>,
    /// Crash latency re-derived from the recorded trace (stop icount −
    /// activation icount), when the recorder was on and the run
    /// crashed. Equals `crash_latency` by construction — the trace-only
    /// Figure 4 rebuild cross-checks the two.
    pub trace_latency: Option<u64>,
    /// Instructions from the taint seed to the first tainted compare or
    /// branch decision, when the campaign ran with the propagation
    /// tracer and the corruption reached one. Absent from
    /// propagation-off traces (older streams parse fine).
    #[serde(default)]
    pub taint_decision: Option<u64>,
    /// Peak tainted width in bytes over the run, when the tracer was on
    /// and taint was seeded.
    #[serde(default)]
    pub taint_width: Option<u64>,
    /// Whether a tainted compare preceded every tainted store, when the
    /// tracer was on and taint was seeded.
    #[serde(default)]
    pub taint_compare_first: Option<bool>,
}

/// Campaign trailer: wall-clock, the phase breakdown and engine-level
/// aggregates for the whole campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CampaignEndEvent {
    /// Wall-clock microseconds for the whole campaign.
    pub wall_micros: u64,
    /// Attributed microseconds: booting processes to the breakpoint.
    pub boot_micros: u64,
    /// Attributed microseconds: capturing checkpoints.
    pub snapshot_micros: u64,
    /// Attributed microseconds: executing post-flip suffixes.
    pub replay_micros: u64,
    /// Attributed microseconds: classifying outcomes against golden.
    pub classify_micros: u64,
    /// Attributed microseconds: tallying and reassembling results.
    pub reassemble_micros: u64,
    /// Total injection runs.
    pub runs: u64,
    /// Runs classified NA by the first-fetch pass's pre-filter.
    pub na_prefilter_runs: u64,
    /// Checkpoint restores performed for replays.
    pub restores: u64,
    /// Process loads (golden runs and first-fetch passes, from-scratch
    /// runs, one per worker's snapshot runner).
    pub fresh_boots: u64,
    /// Checkpoint groups folded in from the incremental campaign cache
    /// without executing. Absent from cache-off traces (older streams
    /// parse fine, all four cache counters default to 0).
    #[serde(default)]
    pub cache_hit_groups: u64,
    /// Groups that executed because the cache had no usable entry
    /// (includes stale entries).
    #[serde(default)]
    pub cache_miss_groups: u64,
    /// The subset of misses where an entry existed but its key or
    /// footprint hash no longer matched (invalidations).
    #[serde(default)]
    pub cache_stale_groups: u64,
    /// Runs synthesized from cache hits (counted in `runs` as well).
    #[serde(default)]
    pub cache_synth_runs: u64,
    /// Replays that re-joined golden one instruction after the flip and
    /// were classified without running their suffix (0 from scratch).
    /// Absent from older traces (they parse with 0).
    #[serde(default)]
    pub masked_runs: u64,
    /// Runs of missed groups answered by a sibling store (another
    /// encoding scheme planting the same byte) without executing;
    /// counted in `runs` as well. Absent from older traces (they parse
    /// with 0).
    #[serde(default)]
    pub cache_shared_runs: u64,
}

/// Random-campaign (§7 random-injection tier) header: identifies the
/// sample space so a ledger is self-describing and a resumed campaign
/// can hard-check it is continuing the same experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RandomCampaignEvent {
    /// Application name ("ftpd"/"sshd").
    pub app: String,
    /// Encoding scheme label.
    pub scheme: String,
    /// Execution engine: "snapshot" or "from-scratch".
    pub mode: String,
    /// The attack client driving every session.
    pub client: String,
    /// Master seed of the counter-based draw stream.
    pub seed: u64,
    /// Target total runs (the cap when `target_ci` is set).
    pub runs: u64,
    /// Ledger commit granularity in runs.
    pub batch: u64,
    /// Text-segment length the offsets are drawn from.
    pub text_len: u64,
    /// Requested maximum Wilson 95% CI width, when adaptive sampling
    /// was on.
    pub target_ci: Option<f64>,
}

/// One committed ledger checkpoint: the campaign state after folding
/// every run with index `< end`. Tallies and histograms are
/// *cumulative*, so the last committed batch alone restores the whole
/// aggregation state — a killed campaign resumes from `end` and its
/// final tallies are bit-identical to an uninterrupted run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RandomBatchEvent {
    /// First run index this batch covered.
    pub start: u64,
    /// One past the last run index committed (== cumulative runs).
    pub end: u64,
    /// Cumulative runs indistinguishable from golden.
    pub no_effect: u64,
    /// Cumulative crashes.
    pub sd: u64,
    /// Cumulative fail-silence violations.
    pub fsv: u64,
    /// Cumulative break-ins.
    pub brk: u64,
    /// Cumulative per-outcome icount histograms.
    pub hists: OutcomeHists,
}

/// Random-campaign trailer: the final tallies plus the violation-rate
/// estimate and its 95% confidence intervals.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RandomEndEvent {
    /// Total injected errors.
    pub runs: u64,
    /// Runs indistinguishable from golden.
    pub no_effect: u64,
    /// Crashes.
    pub sd: u64,
    /// Fail-silence violations.
    pub fsv: u64,
    /// Break-ins.
    pub brk: u64,
    /// Wall-clock microseconds (this invocation only; a resumed
    /// campaign reports the resume leg, not the sum).
    pub wall_micros: u64,
    /// Point estimate brk/runs.
    pub violation_rate: f64,
    /// Wilson 95% interval on the violation rate.
    pub wilson_low: f64,
    /// Wilson 95% upper bound.
    pub wilson_high: f64,
    /// Clopper-Pearson 95% lower bound.
    pub cp_low: f64,
    /// Clopper-Pearson 95% upper bound.
    pub cp_high: f64,
}

/// One node of the hierarchical span trace (campaign →
/// checkpoint-group → run → phase). Spans are emitted into the same
/// JSONL stream as the run events (only when span tracing is on, so
/// default traces are byte-compatible with older readers) and export
/// directly to Chrome trace-event JSON: `ts`/`dur` are microseconds
/// relative to the campaign epoch, `tid` is the worker lane (0 = the
/// campaign thread), and spans on one lane are strictly nested.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanEvent {
    /// Span label ("campaign", "client", "group", "boot", "snapshot",
    /// "run", "replay", "classify").
    pub name: String,
    /// Category for trace viewers: "campaign", "group", "run" or
    /// "phase".
    pub cat: String,
    /// Lane: worker index + 1, with 0 for the campaign thread.
    pub tid: u32,
    /// Start, in microseconds since the campaign epoch.
    pub ts: u64,
    /// Duration in microseconds.
    pub dur: u64,
    /// Target instruction address, for group/run spans.
    pub addr: Option<u32>,
}

/// Per-campaign hot-spot profile trailer: the interpreter's block/
/// slow-path/cache tallies accumulated by exactly this campaign
/// (emitted only when the profiler is on, before `campaign_end`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProfileEvent {
    /// Application name ("ftpd"/"sshd").
    pub app: String,
    /// Execution engine: "snapshot" or "from-scratch".
    pub mode: String,
    /// The collected profile.
    pub data: ProfileData,
}

/// Per-campaign propagation trailer: how far the corrupted data of the
/// campaign's activated injections travelled, aggregated over every
/// seeded run (emitted only when the taint tracer is on, before
/// `campaign_end`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PropagationEvent {
    /// Application name ("ftpd"/"sshd").
    pub app: String,
    /// Execution engine: "snapshot" or "from-scratch".
    pub mode: String,
    /// Runs whose injected instruction retired (taint was seeded).
    pub seeded: u64,
    /// Seeded runs whose corruption reached a tainted compare or
    /// branch decision before the run stopped.
    pub reached_decision: u64,
    /// Seeded runs where a tainted compare preceded any tainted store.
    pub compare_first: u64,
    /// Seeded runs whose taint died (every corrupted location was
    /// overwritten clean) before the run stopped.
    pub deaths: u64,
    /// Seeded runs whose tracer hit the observation horizon.
    pub frozen: u64,
    /// Fail-silence violations among the seeded runs.
    pub fsv_seeded: u64,
    /// FSV runs whose corruption reached a tainted decision.
    pub fsv_reached_decision: u64,
    /// FSV runs where a tainted compare preceded any tainted store.
    pub fsv_compare_first: u64,
}

/// One incremental-campaign-cache transaction: a checkpoint group
/// consulted against or written to the on-disk store. Emitted only when
/// a cache is attached, so cache-off traces are byte-compatible with
/// older readers.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheEvent {
    /// Application name ("ftpd"/"sshd").
    pub app: String,
    /// Client name the group belongs to.
    pub client: String,
    /// What happened: "hit" (folded from cache), "miss" (no entry),
    /// "stale" (entry invalidated by a key/footprint change), "store"
    /// (fresh result written back), or "context-miss" (the whole
    /// per-client file was invalidated by a context change — golden
    /// behavior, client script, scheme or fault model).
    pub action: String,
    /// Group instruction address; `None` for whole-store events.
    pub addr: Option<u32>,
    /// Runs covered by this transaction.
    pub runs: u64,
}

/// One element of a telemetry trace.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// Campaign header.
    Campaign(CampaignEvent),
    /// One injection run.
    Run(RunEvent),
    /// Campaign trailer.
    CampaignEnd(CampaignEndEvent),
    /// Random-campaign header.
    RandomCampaign(RandomCampaignEvent),
    /// Random-campaign committed checkpoint (boxed: the cumulative
    /// histograms dwarf every other variant).
    RandomBatch(Box<RandomBatchEvent>),
    /// Random-campaign trailer.
    RandomEnd(RandomEndEvent),
    /// One incremental-campaign-cache transaction.
    Cache(CacheEvent),
    /// One hierarchical-trace span.
    Span(SpanEvent),
    /// Per-campaign hot-spot profile (boxed: the block tallies dwarf
    /// every other variant).
    Profile(Box<ProfileEvent>),
    /// Per-campaign propagation aggregate.
    Propagation(PropagationEvent),
}

impl TraceEvent {
    fn tag(&self) -> &'static str {
        match self {
            TraceEvent::Campaign(_) => "campaign",
            TraceEvent::Run(_) => "run",
            TraceEvent::CampaignEnd(_) => "campaign_end",
            TraceEvent::RandomCampaign(_) => "random_campaign",
            TraceEvent::RandomBatch(_) => "random_batch",
            TraceEvent::RandomEnd(_) => "random_end",
            TraceEvent::Cache(_) => "cache",
            TraceEvent::Span(_) => "span",
            TraceEvent::Profile(_) => "profile",
            TraceEvent::Propagation(_) => "propagation",
        }
    }

    /// Encode as one compact JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let body = match self {
            TraceEvent::Campaign(e) => e.serialize(),
            TraceEvent::Run(e) => e.serialize(),
            TraceEvent::CampaignEnd(e) => e.serialize(),
            TraceEvent::RandomCampaign(e) => e.serialize(),
            TraceEvent::RandomBatch(e) => e.serialize(),
            TraceEvent::RandomEnd(e) => e.serialize(),
            TraceEvent::Cache(e) => e.serialize(),
            TraceEvent::Span(e) => e.serialize(),
            TraceEvent::Profile(e) => e.serialize(),
            TraceEvent::Propagation(e) => e.serialize(),
        };
        let mut fields = vec![("event".to_string(), Value::Str(self.tag().to_string()))];
        if let Value::Object(body_fields) = body {
            fields.extend(body_fields);
        }
        serde_json::to_string(&Value::Object(fields)).expect("events contain no non-finite floats")
    }

    /// Decode one JSON line.
    ///
    /// # Errors
    /// A message when the line is not JSON, lacks an `event` tag, or
    /// does not match the tagged schema.
    pub fn parse_line(line: &str) -> Result<TraceEvent, String> {
        let v: Value = serde_json::from_str(line).map_err(|e| format!("bad JSON: {e}"))?;
        let Value::Str(tag) = v.field("event") else {
            return Err("missing `event` tag".to_string());
        };
        match tag.as_str() {
            "campaign" => CampaignEvent::deserialize(&v)
                .map(TraceEvent::Campaign)
                .map_err(|e| format!("campaign event: {e}")),
            "run" => RunEvent::deserialize(&v)
                .map(TraceEvent::Run)
                .map_err(|e| format!("run event: {e}")),
            "campaign_end" => CampaignEndEvent::deserialize(&v)
                .map(TraceEvent::CampaignEnd)
                .map_err(|e| format!("campaign_end event: {e}")),
            "random_campaign" => RandomCampaignEvent::deserialize(&v)
                .map(TraceEvent::RandomCampaign)
                .map_err(|e| format!("random_campaign event: {e}")),
            "random_batch" => RandomBatchEvent::deserialize(&v)
                .map(|e| TraceEvent::RandomBatch(Box::new(e)))
                .map_err(|e| format!("random_batch event: {e}")),
            "random_end" => RandomEndEvent::deserialize(&v)
                .map(TraceEvent::RandomEnd)
                .map_err(|e| format!("random_end event: {e}")),
            "cache" => CacheEvent::deserialize(&v)
                .map(TraceEvent::Cache)
                .map_err(|e| format!("cache event: {e}")),
            "span" => SpanEvent::deserialize(&v)
                .map(TraceEvent::Span)
                .map_err(|e| format!("span event: {e}")),
            "profile" => ProfileEvent::deserialize(&v)
                .map(|e| TraceEvent::Profile(Box::new(e)))
                .map_err(|e| format!("profile event: {e}")),
            "propagation" => PropagationEvent::deserialize(&v)
                .map(TraceEvent::Propagation)
                .map_err(|e| format!("propagation event: {e}")),
            other => Err(format!("unknown event tag `{other}`")),
        }
    }
}

/// Destination for the event stream. Implementations must tolerate
/// concurrent emission from worker threads.
pub trait EventSink: Send + Sync {
    /// Does emitting to this sink do anything? Engines skip building
    /// events entirely when this is false.
    fn enabled(&self) -> bool {
        true
    }

    /// Record one event.
    fn emit(&self, ev: &TraceEvent);

    /// Record a batch under one lock acquisition where possible.
    /// Workers buffer per-group and flush through this.
    fn emit_batch(&self, evs: &[TraceEvent]) {
        for ev in evs {
            self.emit(ev);
        }
    }

    /// Push buffered output to its destination.
    fn flush(&self) {}
}

/// The zero-cost default sink: drops everything, reports disabled.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn emit(&self, _ev: &TraceEvent) {}
}

/// Collects events in memory; the differential tests compare its
/// contents against the campaign result.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<TraceEvent>>,
}

impl MemorySink {
    /// New empty collector.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// Copy of everything collected so far, in emission order.
    ///
    /// # Panics
    /// If a thread panicked while emitting (poisoned lock).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("no emitter panicked").clone()
    }
}

impl EventSink for MemorySink {
    fn emit(&self, ev: &TraceEvent) {
        self.events
            .lock()
            .expect("no emitter panicked")
            .push(ev.clone());
    }

    fn emit_batch(&self, evs: &[TraceEvent]) {
        self.events
            .lock()
            .expect("no emitter panicked")
            .extend_from_slice(evs);
    }
}

/// Streams events as JSON Lines to any writer (normally a file created
/// by the CLI's `--trace-out`).
pub struct JsonlSink {
    out: Mutex<BufWriter<Box<dyn Write + Send>>>,
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink").finish_non_exhaustive()
    }
}

impl JsonlSink {
    /// Create (truncate) `path` and stream events into it.
    ///
    /// # Errors
    /// The underlying [`std::fs::File::create`] error.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<JsonlSink> {
        let f = std::fs::File::create(path)?;
        Ok(JsonlSink::from_writer(Box::new(f)))
    }

    /// Open `path` for appending (creating it if absent) and stream
    /// events onto its end — how a resumed random campaign continues
    /// the ledger it is picking up from.
    ///
    /// # Errors
    /// The underlying [`std::fs::OpenOptions`] error.
    pub fn append(path: impl AsRef<Path>) -> std::io::Result<JsonlSink> {
        let f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(JsonlSink::from_writer(Box::new(f)))
    }

    /// Stream events into an arbitrary writer.
    pub fn from_writer(w: Box<dyn Write + Send>) -> JsonlSink {
        JsonlSink {
            out: Mutex::new(BufWriter::new(w)),
        }
    }

    fn write_line(w: &mut BufWriter<Box<dyn Write + Send>>, ev: &TraceEvent) {
        // A full disk mid-campaign should not kill the experiment;
        // the stats replayer reports truncated streams instead.
        let _ = writeln!(w, "{}", ev.to_json_line());
    }
}

impl EventSink for JsonlSink {
    fn emit(&self, ev: &TraceEvent) {
        let mut w = self.out.lock().expect("no emitter panicked");
        JsonlSink::write_line(&mut w, ev);
    }

    fn emit_batch(&self, evs: &[TraceEvent]) {
        let mut w = self.out.lock().expect("no emitter panicked");
        for ev in evs {
            JsonlSink::write_line(&mut w, ev);
        }
    }

    fn flush(&self) {
        let _ = self.out.lock().expect("no emitter panicked").flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Parse a JSONL event stream. Blank lines are skipped; the first
/// malformed line aborts with its line number.
///
/// # Errors
/// A message naming the offending line.
pub fn read_jsonl(r: impl BufRead) -> Result<Vec<TraceEvent>, String> {
    let mut events = Vec::new();
    for (i, line) in r.lines().enumerate() {
        let line = line.map_err(|e| format!("line {}: {e}", i + 1))?;
        if line.trim().is_empty() {
            continue;
        }
        events.push(TraceEvent::parse_line(&line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(events)
}

/// [`read_jsonl`] over a file path.
///
/// # Errors
/// A message for unreadable files or malformed lines.
pub fn read_jsonl_path(path: impl AsRef<Path>) -> Result<Vec<TraceEvent>, String> {
    let path = path.as_ref();
    let f = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    read_jsonl(std::io::BufReader::new(f))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_run() -> RunEvent {
        RunEvent {
            client: 0,
            addr: 0x0804_8012,
            byte_index: 1,
            bit: 6,
            outcome: "BRK".to_string(),
            location: 0,
            worker: 3,
            snapshot_replay: true,
            na_prefilter: false,
            cache_hit: false,
            icount: 48_211,
            micros: 412,
            crash_latency: None,
            transient_deviation: false,
            divergence_depth: None,
            trace_latency: None,
            taint_decision: None,
            taint_width: None,
            taint_compare_first: None,
        }
    }

    #[test]
    fn run_event_round_trips() {
        let ev = TraceEvent::Run(sample_run());
        let line = ev.to_json_line();
        assert!(line.starts_with("{\"event\":\"run\""), "{line}");
        assert_eq!(TraceEvent::parse_line(&line).unwrap(), ev);
        let ev = TraceEvent::Run(RunEvent {
            divergence_depth: Some(17),
            trace_latency: Some(23),
            crash_latency: Some(23),
            ..sample_run()
        });
        assert_eq!(TraceEvent::parse_line(&ev.to_json_line()).unwrap(), ev);
    }

    #[test]
    fn recorder_fields_are_optional_for_old_traces() {
        // A pre-recorder stream lacks the divergence fields entirely;
        // it must still parse, with both reported absent.
        let line = TraceEvent::Run(sample_run()).to_json_line();
        let stripped = line
            .replace(",\"divergence_depth\":null", "")
            .replace(",\"trace_latency\":null", "");
        assert_ne!(line, stripped, "fields should serialize as null");
        let parsed = TraceEvent::parse_line(&stripped).unwrap();
        assert_eq!(parsed, TraceEvent::Run(sample_run()));
    }

    #[test]
    fn campaign_events_round_trip() {
        let hdr = TraceEvent::Campaign(CampaignEvent {
            app: "ftpd".to_string(),
            scheme: "baseline x86".to_string(),
            mode: "snapshot".to_string(),
            instructions: 42,
            cond_branches: 27,
            runs_per_client: 1072,
            clients: vec!["Client1".to_string(), "Client2".to_string()],
            golden_denied: vec![true, false],
        });
        let end = TraceEvent::CampaignEnd(CampaignEndEvent {
            wall_micros: 1_000_000,
            replay_micros: 700_000,
            runs: 2144,
            ..CampaignEndEvent::default()
        });
        for ev in [hdr, end] {
            assert_eq!(TraceEvent::parse_line(&ev.to_json_line()).unwrap(), ev);
        }
    }

    #[test]
    fn random_events_round_trip() {
        let hdr = TraceEvent::RandomCampaign(RandomCampaignEvent {
            app: "ftpd".to_string(),
            scheme: "baseline x86".to_string(),
            mode: "snapshot".to_string(),
            client: "Client1".to_string(),
            seed: 2001,
            runs: 1_000_000,
            batch: 512,
            text_len: 4096,
            target_ci: None,
        });
        let mut hists = OutcomeHists::default();
        hists.no_effect.record(30_000);
        hists.brk.record(41_000);
        let batch = TraceEvent::RandomBatch(Box::new(RandomBatchEvent {
            start: 512,
            end: 1024,
            no_effect: 1020,
            sd: 2,
            fsv: 1,
            brk: 1,
            hists,
        }));
        let end = TraceEvent::RandomEnd(RandomEndEvent {
            runs: 1_000_000,
            no_effect: 999_000,
            sd: 800,
            fsv: 100,
            brk: 100,
            wall_micros: 55_000_000,
            violation_rate: 1e-4,
            wilson_low: 8.2e-5,
            wilson_high: 1.2e-4,
            cp_low: 8.1e-5,
            cp_high: 1.2e-4,
        });
        for ev in [hdr, batch, end] {
            let line = ev.to_json_line();
            assert_eq!(TraceEvent::parse_line(&line).unwrap(), ev, "{line}");
        }
        // An adaptive campaign's header carries the requested width.
        let hdr = TraceEvent::RandomCampaign(RandomCampaignEvent {
            target_ci: Some(0.0005),
            app: "sshd".to_string(),
            scheme: "baseline x86".to_string(),
            mode: "from-scratch".to_string(),
            client: "Client1".to_string(),
            seed: 7,
            runs: 10_000_000,
            batch: 256,
            text_len: 2048,
        });
        assert_eq!(TraceEvent::parse_line(&hdr.to_json_line()).unwrap(), hdr);
    }

    #[test]
    fn span_events_round_trip() {
        let ev = TraceEvent::Span(SpanEvent {
            name: "group".to_string(),
            cat: "group".to_string(),
            tid: 3,
            ts: 1200,
            dur: 450,
            addr: Some(0x0804_915e),
        });
        let line = ev.to_json_line();
        assert!(line.starts_with("{\"event\":\"span\""), "{line}");
        assert_eq!(TraceEvent::parse_line(&line).unwrap(), ev);
        // Phase spans carry no address.
        let ev = TraceEvent::Span(SpanEvent {
            name: "replay".to_string(),
            cat: "phase".to_string(),
            tid: 0,
            ts: 0,
            dur: 0,
            addr: None,
        });
        assert_eq!(TraceEvent::parse_line(&ev.to_json_line()).unwrap(), ev);
    }

    #[test]
    fn profile_events_round_trip() {
        use crate::hotspot::{HotBlock, SlowShape};
        let ev = TraceEvent::Profile(Box::new(ProfileEvent {
            app: "ftpd".to_string(),
            mode: "snapshot".to_string(),
            data: ProfileData {
                blocks: vec![HotBlock {
                    addr: 0x0804_9000,
                    dispatches: 12_000,
                    retired: 96_000,
                }],
                slow: vec![SlowShape {
                    addr: 0x0804_9123,
                    shape: "shl32 r32, imm".to_string(),
                    count: 77,
                }],
                stepwise_retired: 431,
                cache_built: 96,
                cache_hits: 11_904,
                cache_invalidated: 12,
                hot_traces: vec![HotBlock {
                    addr: 0x0804_9000,
                    dispatches: 9_000,
                    retired: 81_000,
                }],
                trace_built: 3,
                trace_hits: 9_000,
                trace_side_exits: 41,
                ..ProfileData::default()
            },
        }));
        let line = ev.to_json_line();
        assert!(line.starts_with("{\"event\":\"profile\""), "{line}");
        assert_eq!(TraceEvent::parse_line(&line).unwrap(), ev);
    }

    #[test]
    fn propagation_events_round_trip() {
        let ev = TraceEvent::Propagation(PropagationEvent {
            app: "ftpd".to_string(),
            mode: "snapshot".to_string(),
            seeded: 812,
            reached_decision: 790,
            compare_first: 611,
            deaths: 102,
            frozen: 3,
            fsv_seeded: 41,
            fsv_reached_decision: 40,
            fsv_compare_first: 37,
        });
        let line = ev.to_json_line();
        assert!(line.starts_with("{\"event\":\"propagation\""), "{line}");
        assert_eq!(TraceEvent::parse_line(&line).unwrap(), ev);
    }

    #[test]
    fn taint_fields_are_optional_for_old_traces() {
        // A propagation-off stream lacks the taint fields entirely; it
        // must still parse, with all three reported absent.
        let line = TraceEvent::Run(sample_run()).to_json_line();
        let stripped = line
            .replace(",\"taint_decision\":null", "")
            .replace(",\"taint_width\":null", "")
            .replace(",\"taint_compare_first\":null", "");
        assert_ne!(line, stripped, "fields should serialize as null");
        let parsed = TraceEvent::parse_line(&stripped).unwrap();
        assert_eq!(parsed, TraceEvent::Run(sample_run()));
        // And a propagation trace carries them through.
        let ev = TraceEvent::Run(RunEvent {
            taint_decision: Some(12),
            taint_width: Some(6),
            taint_compare_first: Some(true),
            ..sample_run()
        });
        assert_eq!(TraceEvent::parse_line(&ev.to_json_line()).unwrap(), ev);
    }

    #[test]
    fn append_sink_extends_an_existing_ledger() {
        let dir = std::env::temp_dir().join(format!("fisec-append-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ledger.jsonl");
        let a = TraceEvent::CampaignEnd(CampaignEndEvent {
            runs: 1,
            ..CampaignEndEvent::default()
        });
        let b = TraceEvent::CampaignEnd(CampaignEndEvent {
            runs: 2,
            ..CampaignEndEvent::default()
        });
        let sink = JsonlSink::create(&path).unwrap();
        sink.emit(&a);
        drop(sink);
        let sink = JsonlSink::append(&path).unwrap();
        sink.emit(&b);
        drop(sink);
        assert_eq!(read_jsonl_path(&path).unwrap(), vec![a, b]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(TraceEvent::parse_line("not json").is_err());
        assert!(TraceEvent::parse_line("{\"no\":\"tag\"}").is_err());
        assert!(TraceEvent::parse_line("{\"event\":\"martian\"}").is_err());
        let err = TraceEvent::parse_line("{\"event\":\"run\",\"client\":0}").unwrap_err();
        assert!(err.contains("run event"), "{err}");
    }

    #[test]
    fn memory_sink_collects_in_order() {
        let sink = MemorySink::new();
        let a = TraceEvent::Run(sample_run());
        let b = TraceEvent::CampaignEnd(CampaignEndEvent::default());
        sink.emit(&a);
        sink.emit_batch(std::slice::from_ref(&b));
        assert_eq!(sink.events(), vec![a, b]);
    }

    #[test]
    fn jsonl_sink_round_trips_through_reader() {
        // Write through a JsonlSink into a shared buffer, then parse.
        #[derive(Clone, Default)]
        struct Shared(std::sync::Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = Shared::default();
        let sink = JsonlSink::from_writer(Box::new(buf.clone()));
        let ev = TraceEvent::Run(sample_run());
        sink.emit(&ev);
        sink.emit_batch(&[ev.clone(), ev.clone()]);
        sink.flush();
        let bytes = buf.0.lock().unwrap().clone();
        let got = read_jsonl(&bytes[..]).unwrap();
        assert_eq!(got, vec![ev.clone(), ev.clone(), ev]);
    }

    #[test]
    fn read_jsonl_skips_blanks_and_reports_line_numbers() {
        let ok = "\n{\"event\":\"campaign_end\",\"wall_micros\":1,\"boot_micros\":0,\
                  \"snapshot_micros\":0,\"replay_micros\":0,\"classify_micros\":0,\
                  \"reassemble_micros\":0,\"runs\":0,\"na_prefilter_runs\":0,\
                  \"restores\":0,\"fresh_boots\":0}\n\n";
        assert_eq!(read_jsonl(ok.as_bytes()).unwrap().len(), 1);
        let err = read_jsonl("{}\n".as_bytes()).unwrap_err();
        assert!(err.starts_with("line 1"), "{err}");
    }

    #[test]
    fn null_sink_is_disabled() {
        assert!(!NullSink.enabled());
        NullSink.emit(&TraceEvent::CampaignEnd(CampaignEndEvent::default()));
    }
}
