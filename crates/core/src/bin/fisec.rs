//! `fisec` — command-line driver for the DSN'01 reproduction: one
//! subcommand per artefact (`fisec help` lists them).
//!
//! Each subcommand is one function that pulls exactly the flags it
//! reads from a [`Flags`] reader. [`Flags::finish`] rejects every
//! argument no read consumed, naming it and the subcommand, so a flag a
//! subcommand would ignore is an error, never a silent no-op. With
//! `--help` anywhere, `finish` stops the subcommand instead and prints
//! the flags it read on the way, with their defaults, so the help cannot
//! drift from the code.

use fisec_apps::AppSpec;
use fisec_core::{
    cache, data_errors, figure4, load, random, run_campaign, run_campaign_cached, tables, trace,
    CampaignCache, CampaignConfig, CampaignResult, CampaignSummary, EncodingScheme, EngineOpts,
    ExecutionMode,
};
use fisec_inject::{crash_forensics, enumerate_targets, golden_run, run_injection, OutcomeClass};
use fisec_telemetry::{JsonlSink, MemorySink, NullSink, ProfileData, Telemetry};
use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Instant;

/// A subcommand: it reads its flags from the [`Flags`], then runs.
type Command = fn(Flags) -> Result<(), Exit>;

/// Every subcommand and its handler, in the order `fisec help` lists them.
const COMMANDS: [(&str, Command); 19] = [
    ("table1", cmd_table),
    ("table3", cmd_table),
    ("table5", cmd_table),
    ("figure4", cmd_figure4),
    ("random", cmd_random),
    ("load", cmd_load),
    ("ablation", cmd_ablation),
    ("data-errors", cmd_data_errors),
    ("targets", cmd_targets),
    ("disasm", cmd_disasm),
    ("breakins", cmd_breakins),
    ("forensics", cmd_forensics),
    ("explain", cmd_explain_or_propagate),
    ("propagate", cmd_explain_or_propagate),
    ("stats", cmd_stats),
    ("profile", cmd_profile),
    ("report", cmd_report),
    ("bench-diff", cmd_bench_diff),
    ("cache", cmd_cache),
];

/// E2 skips data symbols longer than this many bytes, so buffers like
/// the audit scratch space do not dominate the run count.
const DATA_SYMBOL_MAX_LEN: u32 = 32;

/// `fisec help`: every subcommand's usage line, as its `--help` prints it.
fn usage() -> String {
    let lines: Vec<_> = COMMANDS
        .iter()
        .filter_map(
            |(name, command)| match command(Flags::new(name, ["--help".into()])) {
                Err(Exit::Help(usage)) => Some(usage),
                _ => None,
            },
        )
        .collect();
    format!(
        "{}\n`fisec <command> --help` prints its line",
        lines.join("\n")
    )
}

/// What stops a subcommand short of success.
#[derive(Debug)]
enum Exit {
    /// `--help`: the text for stdout, exit status 0.
    Help(String),
    /// A usage or run-time error for stderr, exit status 1.
    Error(String),
}

impl From<String> for Exit {
    fn from(e: String) -> Exit {
        Exit::Error(e)
    }
}

impl From<&str> for Exit {
    fn from(e: &str) -> Exit {
        Exit::Error(e.to_string())
    }
}

/// One subcommand's arguments. Every read consumes what it names and
/// records it for the usage line; [`Flags::finish`] rejects the rest.
struct Flags {
    cmd: String,
    /// The arguments, each `None` once consumed.
    args: Vec<Option<String>>,
    help: bool,
    /// Every flag and positional read so far, as the usage line shows it.
    read: Vec<String>,
    /// Arguments [`Flags::positional`] passed over as the value of the
    /// flag before them, which was not read yet, with that flag.
    passed: Vec<(usize, String)>,
}

impl Flags {
    fn new(cmd: &str, args: impl IntoIterator<Item = String>) -> Flags {
        let mut help = false;
        let args = args
            .into_iter()
            .filter(|a| {
                let h = a == "--help" || a == "-h";
                help |= h;
                !h
            })
            .map(Some)
            .collect();
        Flags {
            cmd: cmd.to_string(),
            args,
            help,
            read: Vec::new(),
            passed: Vec::new(),
        }
    }

    /// Consume the flag `name`, returning its position.
    fn take(&mut self, name: &str) -> Option<usize> {
        let i = self.args.iter().position(|a| a.as_deref() == Some(name))?;
        self.args[i] = None;
        Some(i)
    }

    /// Whether the switch `name` was given.
    fn switch(&mut self, name: &str) -> bool {
        self.read.push(format!("[{name}]"));
        self.take(name).is_some()
    }

    /// The value of the flag `spec` (`--name METAVAR`), parsed as `T`.
    fn value<T: FromStr>(&mut self, spec: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        self.read.push(format!("[{spec}]"));
        let name = spec.split(' ').next().unwrap_or(spec);
        let Some(i) = self.take(name) else {
            return Ok(None);
        };
        let v = self
            .args
            .get_mut(i + 1)
            .and_then(Option::take)
            .ok_or_else(|| format!("{name} needs a value"))?;
        v.parse().map(Some).map_err(|e| format!("{name} {v}: {e}"))
    }

    /// The value of the flag `spec`, or `default`, which the usage line
    /// shows (`[--name METAVAR=default]`).
    fn value_or<T: FromStr + Display>(&mut self, spec: &str, default: T) -> Result<T, String>
    where
        T::Err: Display,
    {
        Ok(self.value(&format!("{spec}={default}"))?.unwrap_or(default))
    }

    /// The first argument that is neither a flag nor the value of a flag
    /// not read yet, so read a command's flags before its positional.
    fn positional(&mut self, what: &str) -> Option<String> {
        self.read.push(what.to_string());
        for i in 0..self.args.len() {
            if self.args[i].as_deref().is_none_or(|a| a.starts_with('-')) {
                continue;
            }
            match i.checked_sub(1).and_then(|p| self.args[p].clone()) {
                Some(flag) if flag.starts_with('-') => self.passed.push((i, flag)),
                _ => return self.args[i].take(),
            }
        }
        None
    }

    fn usage(&self) -> String {
        format!("usage: fisec {} {}", self.cmd, self.read.join(" "))
    }

    /// Reject every argument no read consumed; under `--help`, stop
    /// with the usage line instead of running.
    fn finish(self) -> Result<(), Exit> {
        let mut args = self.args.iter().enumerate();
        let Some((i, extra)) = args.find_map(|(i, a)| Some((i, a.as_deref()?))) else {
            return if self.help {
                Err(Exit::Help(self.usage()))
            } else {
                Ok(())
            };
        };
        let repeated = self
            .read
            .iter()
            .any(|r| r.trim_start_matches('[').split([' ', ']']).next() == Some(extra));
        let (what, arg, with) = match self.passed.iter().find(|(p, _)| *p == i) {
            // `positional` passed `extra` over as the value of `flag`, which
            // was then read as a switch: the command reads `flag` only
            // without a positional (live `profile`, not its trace replay).
            Some((_, flag)) => ("unknown flag", flag.as_str(), format!(" {extra}")),
            None if !extra.starts_with('-') => ("unexpected argument", extra, String::new()),
            None if repeated => ("repeated flag", extra, String::new()),
            None => ("unknown flag", extra, String::new()),
        };
        let (cmd, usage) = (&self.cmd, self.usage());
        Err(Exit::Error(format!(
            "{what} `{arg}` for `fisec {cmd}{with}`\n{usage}"
        )))
    }
}

/// Parse a byte size with an optional k/m/g suffix (powers of 1024).
fn parse_size(s: &str) -> Result<u64, String> {
    let num = s.trim_end_matches(|c: char| c.is_ascii_alphabetic());
    let mult = match s[num.len()..].to_ascii_lowercase().as_str() {
        "" | "b" => 1u64,
        "k" | "kb" => 1 << 10,
        "m" | "mb" => 1 << 20,
        "g" | "gb" => 1 << 30,
        other => return Err(format!("--max-size: unknown suffix `{other}`")),
    };
    let v: u64 = num.parse().map_err(|e| format!("--max-size {s}: {e}"))?;
    Ok(v.saturating_mul(mult))
}

/// Parse an age with an optional s/m/h/d suffix (plain number = seconds).
fn parse_age(s: &str) -> Result<u64, String> {
    let num = s.trim_end_matches(|c: char| c.is_ascii_alphabetic());
    let mult = match s[num.len()..].to_ascii_lowercase().as_str() {
        "" | "s" => 1u64,
        "m" => 60,
        "h" => 3600,
        "d" => 86_400,
        other => return Err(format!("--max-age: unknown suffix `{other}`")),
    };
    let v: u64 = num.parse().map_err(|e| format!("--max-age {s}: {e}"))?;
    Ok(v.saturating_mul(mult))
}

/// `--app`: the apps a command runs, ftpd then sshd for `both` (the
/// default).
fn apps(r: &mut Flags) -> Result<Vec<AppSpec>, String> {
    match r.value::<String>("--app ftpd|sshd|both")?.as_deref() {
        None | Some("both") => Ok(vec![AppSpec::ftpd(), AppSpec::sshd()]),
        Some(name @ ("ftpd" | "sshd")) => Ok(AppSpec::by_name(name).into_iter().collect()),
        Some(other) => Err(format!("unknown app `{other}` (use ftpd, sshd or both)")),
    }
}

/// `--app` for the single-app commands: ftpd by default, and `both` is
/// refused, since they run one server.
fn app(r: &mut Flags) -> Result<AppSpec, String> {
    match r.value::<String>("--app ftpd|sshd")?.as_deref() {
        None => Ok(AppSpec::ftpd()),
        Some(name @ ("ftpd" | "sshd")) => Ok(AppSpec::by_name(name).expect("a bundled app")),
        Some("both") => Err(format!(
            "`fisec {}` runs one app: use --app ftpd or --app sshd, not both",
            r.cmd
        )),
        Some(other) => Err(format!("unknown app `{other}` (use ftpd or sshd)")),
    }
}

/// `--new-encoding`: inject under the §6 parity encoding.
fn scheme(r: &mut Flags) -> EncodingScheme {
    if r.switch("--new-encoding") {
        EncodingScheme::NewEncoding
    } else {
        EncodingScheme::Baseline
    }
}

/// The 0-based index of `--client N` (1-based, default 1) among `app`'s
/// clients.
fn client_index(app: &AppSpec, client: usize) -> Result<usize, String> {
    if client == 0 || client > app.clients.len() {
        return Err(format!(
            "--client {client} out of range for {} (valid: 1..={})",
            app.name,
            app.clients.len()
        ));
    }
    Ok(client - 1)
}

/// A count flag that must be at least 1.
fn at_least_one(r: &mut Flags, spec: &str, default: usize) -> Result<usize, String> {
    match r.value_or(spec, default)? {
        0 => Err(format!(
            "{} must be at least 1",
            spec.split(' ').next().unwrap_or(spec)
        )),
        v => Ok(v),
    }
}

/// `--no-block-cache`: the engine's escape hatch (results are
/// bit-identical either way).
fn engine(r: &mut Flags) -> EngineOpts {
    EngineOpts {
        block_cache: !r.switch("--no-block-cache"),
        ..EngineOpts::default()
    }
}

/// `--from-scratch`: boot every run afresh (the reference oracle).
fn mode(r: &mut Flags) -> ExecutionMode {
    if r.switch("--from-scratch") {
        ExecutionMode::FromScratch
    } else {
        ExecutionMode::Snapshot
    }
}

/// The engine flags of every campaign command: the escape hatches,
/// `--from-scratch` and `--threads`.
fn campaign_config(r: &mut Flags) -> Result<CampaignConfig, String> {
    let mut cfg = CampaignConfig {
        mode: mode(r),
        engine: engine(r),
        ..CampaignConfig::default()
    };
    if let Some(t) = r.value("--threads N")? {
        cfg.threads = t;
    }
    Ok(cfg)
}

/// Build the telemetry bundle a run goes under: `--trace-out` streams
/// JSONL events, `--progress` adds the live meter (and, on its own,
/// still collects metrics for the stderr breakdown). With `retain` and
/// no `--trace-out`, the events stay in memory (the second slot) so the
/// span exporter has something to read.
fn telemetry(
    trace_out: Option<&str>,
    progress: bool,
    retain: bool,
) -> Result<(Telemetry, Option<Arc<MemorySink>>), String> {
    match trace_out {
        Some(path) => {
            let sink = JsonlSink::create(path).map_err(|e| format!("{path}: {e}"))?;
            Ok((Telemetry::new(Arc::new(sink), progress), None))
        }
        None if retain => {
            let mem = Arc::new(MemorySink::new());
            Ok((
                Telemetry::new(Arc::<MemorySink>::clone(&mem), progress),
                Some(mem),
            ))
        }
        None if progress => Ok((Telemetry::new(Arc::new(NullSink), true), None)),
        None => Ok((Telemetry::disabled(), None)),
    }
}

/// After the campaigns: print the phase breakdown and engine metrics to
/// stderr when the user asked to watch (`--progress`).
fn report_telemetry(progress: bool, tel: &Telemetry, wall_start: Instant) {
    tel.sink.flush();
    if !progress {
        return;
    }
    let snap = tel.metrics.snapshot();
    let wall = u64::try_from(wall_start.elapsed().as_micros()).unwrap_or(u64::MAX);
    eprint!(
        "{}",
        fisec_telemetry::render_phase_table(snap.phases(), wall)
    );
    eprint!("{}", snap.render());
}

/// The flags the table commands (`table1`/`table3`/`table5`/`figure4`)
/// share: engine, observers, store and telemetry.
struct Campaigns {
    cfg: CampaignConfig,
    cache: Option<CampaignCache>,
    trace_out: Option<String>,
    progress: bool,
    chrome_trace: Option<String>,
}

impl Campaigns {
    fn read(r: &mut Flags) -> Result<Campaigns, String> {
        let mut cfg = campaign_config(r)?;
        cfg.engine.flight_recorder = r.switch("--recorder");
        cfg.engine.propagation = r.switch("--propagation");
        cfg.engine.profiler = r.switch("--profile");
        // The store: `--no-cache` disables it, `--cache DIR` overrides
        // the default (off when `HOME` is unset).
        let dir = r.value::<String>("--cache DIR=~/.fisec-cache")?;
        let cache = if r.switch("--no-cache") {
            None
        } else {
            dir.map(std::path::PathBuf::from)
                .or_else(CampaignCache::default_root)
                .map(CampaignCache::at)
        };
        let trace_out = r.value("--trace-out PATH")?;
        let progress = r.switch("--progress");
        let chrome_trace = r.value::<String>("--chrome-trace OUT.json")?;
        cfg.spans = chrome_trace.is_some();
        Ok(Campaigns {
            cfg,
            cache,
            trace_out,
            progress,
            chrome_trace,
        })
    }

    /// Run one campaign per (app, scheme) in order under one telemetry
    /// bundle, then print the phase breakdown and export the spans.
    fn run(&self, campaigns: &[(&AppSpec, EncodingScheme)]) -> Result<Vec<CampaignResult>, String> {
        let (tel, mem) = telemetry(
            self.trace_out.as_deref(),
            self.progress,
            self.chrome_trace.is_some(),
        )?;
        let wall_start = Instant::now();
        let results = campaigns
            .iter()
            .map(|&(app, scheme)| {
                let cfg = CampaignConfig { scheme, ..self.cfg };
                run_campaign_cached(app, &cfg, &tel, self.cache.as_ref())
            })
            .collect();
        report_telemetry(self.progress, &tel, wall_start);
        self.export_chrome_trace(mem.as_deref())?;
        Ok(results)
    }

    /// Export the campaign's span events as Chrome trace-event JSON
    /// (`--chrome-trace OUT.json`, loadable in Perfetto /
    /// `chrome://tracing`). Spans are re-read from the `--trace-out`
    /// file when one was written, otherwise from the retained in-memory
    /// sink; strict per-lane nesting is verified before anything is
    /// written.
    fn export_chrome_trace(&self, mem: Option<&MemorySink>) -> Result<(), String> {
        let Some(out) = &self.chrome_trace else {
            return Ok(());
        };
        let events = match (&self.trace_out, mem) {
            (Some(path), _) => fisec_telemetry::read_jsonl_path(path)?,
            (None, Some(m)) => m.events(),
            (None, None) => return Err("--chrome-trace needs an event stream".to_string()),
        };
        let spans = events
            .iter()
            .filter(|e| matches!(e, fisec_telemetry::TraceEvent::Span(_)))
            .count();
        if spans == 0 {
            return Err("no span events were recorded (is span tracing on?)".to_string());
        }
        fisec_telemetry::check_span_nesting(&events)?;
        let json = fisec_telemetry::chrome_trace_json(&events);
        std::fs::write(out, &json).map_err(|e| format!("{out}: {e}"))?;
        eprintln!("chrome trace: {out} ({spans} spans)");
        Ok(())
    }
}

fn print_json(value: &impl serde::Serialize) -> Result<(), String> {
    println!(
        "{}",
        serde_json::to_string_pretty(value).map_err(|e| e.to_string())?
    );
    Ok(())
}

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Exit::Help(text)) => {
            println!("{text}");
            ExitCode::SUCCESS
        }
        Err(Exit::Error(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(argv: Vec<String>) -> Result<(), Exit> {
    let mut argv = argv.into_iter();
    let cmd = argv
        .next()
        .ok_or_else(|| format!("no command given\n{}", usage()))?;
    let r = Flags::new(&cmd, argv);
    if let Some((_, command)) = COMMANDS.iter().find(|(name, _)| *name == cmd) {
        return command(r);
    }
    if !matches!(cmd.as_str(), "help" | "--help" | "-h") {
        return Err(format!("unknown command `{cmd}`\n{}", usage()).into());
    }
    // `fisec help` takes no arguments, and `--help` is what it does.
    match r.finish() {
        Err(Exit::Error(e)) => Err(Exit::Error(e)),
        _ => Err(Exit::Help(usage())),
    }
}

/// Tables 1, 3 and 5 (with 2 and 4, which need no campaign).
fn cmd_table(mut r: Flags) -> Result<(), Exit> {
    let apps = apps(&mut r)?;
    let schemes = match r.cmd.as_str() {
        "table5" => EncodingScheme::ALL.to_vec(),
        _ => vec![scheme(&mut r)],
    };
    let json = r.switch("--json");
    let campaigns = Campaigns::read(&mut r)?;
    let cmd = r.cmd.clone();
    r.finish()?;
    let runs: Vec<_> = schemes
        .iter()
        .flat_map(|&s| apps.iter().map(move |a| (a, s)))
        .collect();
    let results = campaigns.run(&runs)?;
    let refs: Vec<_> = results.iter().collect();
    if json {
        for res in &results {
            println!("{}", CampaignSummary::from(res).to_json());
        }
    } else if cmd == "table1" {
        println!("{}", tables::render_table1(&refs));
    } else if cmd == "table3" {
        println!("{}", tables::render_table2());
        println!("{}", tables::render_table3(&refs));
    } else {
        let (base, new) = refs.split_at(apps.len());
        println!("{}", fisec_encoding::render_table4());
        println!("{}", tables::render_table5(base, new));
    }
    Ok(())
}

fn cmd_figure4(mut r: Flags) -> Result<(), Exit> {
    let app = app(&mut r)?;
    let client = r.value_or("--client N", 1)?;
    let json = r.switch("--json");
    let from_trace = r.switch("--from-trace");
    let mut campaigns = Campaigns::read(&mut r)?;
    r.finish()?;
    let client = client_index(&app, client)?;
    // The histogram cannot be rebuilt from traces nobody recorded.
    campaigns.cfg.engine.flight_recorder |= from_trace;
    let result = campaigns.run(&[(&app, EncodingScheme::Baseline)])?;
    let c = &result[0].clients[client];
    let live = figure4::histogram(&c.crash_latencies);
    if from_trace {
        // Rebuild Figure 4 purely from the recorded flight traces and
        // hard-check it against the live histogram: any difference is an
        // engine bug, not a rendering one.
        let traced = figure4::histogram(&c.trace_crash_latencies);
        if traced != live {
            return Err(format!(
                "trace-derived Figure 4 diverges from the live histogram:\n\
                 trace-derived:\n{}\nlive:\n{}",
                figure4::render(&traced),
                figure4::render(&live)
            )
            .into());
        }
        eprintln!(
            "figure4: rebuilt from {} recorded traces; matches the live histogram",
            traced.samples
        );
    }
    if json {
        print_json(&live)?;
    } else {
        println!("{}", figure4::render(&live));
        println!(
            "transient deviations before crash: {} of {}",
            c.transient_deviations,
            c.crash_latencies.len()
        );
    }
    Ok(())
}

/// `--addr 0xADDR` (hex or decimal), `--byte N` and `--bit N` (0..=7):
/// the one flip `explain` and `propagate` replay.
fn flip_site(r: &mut Flags) -> Result<(Option<u32>, u8, u8), String> {
    let addr = r
        .value::<String>("--addr 0xADDR")?
        .map(|v| {
            match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
                Some(h) => u32::from_str_radix(h, 16),
                None => v.parse(),
            }
            .map_err(|e| format!("--addr {v}: {e}"))
        })
        .transpose()?;
    let byte = r.value_or("--byte N", 0)?;
    let bit = r.value_or("--bit N", 0)?;
    if bit > 7 {
        return Err(format!("--bit {bit} out of range (bits are 0..=7)"));
    }
    Ok((addr, byte, bit))
}

fn cmd_explain_or_propagate(mut r: Flags) -> Result<(), Exit> {
    let app = app(&mut r)?;
    let client = r.value_or("--client N", 1)?;
    let (addr, byte, bit) = flip_site(&mut r)?;
    let scheme = scheme(&mut r);
    let cmd = r.cmd.clone();
    r.finish()?;
    let addr = addr.ok_or_else(|| {
        format!("{cmd} needs --addr 0xADDR (see `fisec breakins` for candidates)")
    })?;
    let text = if cmd == "explain" {
        fisec_core::explain::explain(&app, client, addr, byte, bit, scheme)?
    } else {
        fisec_core::propagate::propagate(&app, client, addr, byte, bit, scheme)?
    };
    print!("{text}");
    Ok(())
}

fn cmd_stats(mut r: Flags) -> Result<(), Exit> {
    let json = r.switch("--json");
    let path = r.positional("TRACE.jsonl");
    r.finish()?;
    let path = path.ok_or("stats needs a trace file: fisec stats run.jsonl")?;
    let replay = trace::read_trace(&path)?;
    if replay.campaigns.is_empty() && replay.random.is_empty() {
        return Err(format!("{path}: no campaigns in trace").into());
    }
    if json {
        for c in &replay.campaigns {
            println!("{}", CampaignSummary::from(&c.result).to_json());
        }
        for r in &replay.random {
            print_json(&r.stats.json_summary())?;
        }
    } else {
        print!("{}", trace::render_stats(&replay));
    }
    Ok(())
}

fn cmd_random(mut r: Flags) -> Result<(), Exit> {
    let app = app(&mut r)?;
    let json = r.switch("--json");
    let progress = r.switch("--progress");
    let engine = engine(&mut r);
    let threads = r.value_or("--threads N", 1)?.max(1);
    let wall_start = Instant::now();
    let (stats, prior_runs) = if let Some(ledger_path) = r.value::<String>("--resume LEDGER")? {
        // Resume: the ledger header is the configuration; only
        // execution knobs (threads, engine) come from flags.
        r.finish()?;
        let ledger = random::read_ledger(&ledger_path)?;
        if ledger.header.app != app.name {
            return Err(format!(
                "{ledger_path} records a campaign for {} but --app selects {} \
                 (rerun with --app {})",
                ledger.header.app, app.name, ledger.header.app
            )
            .into());
        }
        let mut cfg = random::RandomConfig::from_header(&ledger.header, threads, engine)?;
        cfg.client = app
            .clients
            .iter()
            .position(|c| c.name == ledger.header.client)
            .ok_or_else(|| {
                format!(
                    "ledger client `{}` is not a client of {}",
                    ledger.header.client, app.name
                )
            })?;
        random::truncate_torn_tail(&ledger_path, &ledger)?;
        let sink = JsonlSink::append(&ledger_path).map_err(|e| format!("{ledger_path}: {e}"))?;
        let tel = Telemetry::new(Arc::new(sink), progress);
        let stats = random::resume_random_streaming(&app, &cfg, &ledger, &tel)?;
        report_telemetry(progress, &tel, wall_start);
        (stats, ledger.committed as usize)
    } else {
        let client = r.value_or("--client N", 1)?;
        let runs = r.value_or("--runs N", 3000)?;
        let seed = r.value_or("--seed S", 2001)?;
        let scheme = scheme(&mut r);
        let mode = mode(&mut r);
        let batch = at_least_one(&mut r, "--batch N", 500)?;
        let target_ci = r.value::<f64>("--target-ci WIDTH")?;
        if let Some(w) = target_ci.filter(|w| !(*w > 0.0 && *w < 1.0)) {
            return Err(format!("--target-ci {w} must be in (0, 1)").into());
        }
        let trace_out = r.value::<String>("--trace-out LEDGER")?;
        r.finish()?;
        let cfg = random::RandomConfig {
            runs,
            seed,
            scheme,
            mode,
            client: client_index(&app, client)?,
            threads,
            batch,
            target_ci,
            engine,
        };
        let (tel, _) = telemetry(trace_out.as_deref(), progress, false)?;
        let stats = random::run_random_streaming(&app, &cfg, &tel)?;
        report_telemetry(progress, &tel, wall_start);
        (stats, 0)
    };
    if json {
        print_json(&stats.json_summary())?;
    } else {
        print!("{}", random::render_report(&stats));
        let secs = wall_start.elapsed().as_secs_f64();
        let executed = stats.result.runs.saturating_sub(prior_runs);
        eprintln!(
            "wall {secs:.1}s ({:.0} runs/s this invocation)",
            if secs > 0.0 {
                executed as f64 / secs
            } else {
                0.0
            }
        );
    }
    Ok(())
}

/// `--baseline OLD.jsonl`: the residual slow-path delta of `now` against
/// the profile events of an earlier saved trace of the same workload,
/// tagging shapes lowered since then.
fn slow_delta(now: &ProfileData, base_path: &str) -> Result<String, String> {
    let mut before = ProfileData::default();
    for c in &trace::read_trace(base_path)?.campaigns {
        if let Some(p) = &c.profile {
            before.merge(&p.data);
        }
    }
    if before.is_empty() {
        return Err(format!(
            "{base_path}: no profile events (record the baseline with --profile)"
        ));
    }
    Ok(fisec_core::hotblocks::render_slow_delta(now, &before))
}

fn cmd_profile(mut r: Flags) -> Result<(), Exit> {
    let json = r.switch("--json");
    let top = r.value_or("--top K", fisec_core::hotblocks::DEFAULT_TOP)?;
    let baseline = r.value::<String>("--baseline OLD.jsonl")?;
    let mut now = ProfileData::default();
    if let Some(path) = r.positional("[TRACE.jsonl]") {
        // Replay: render the profile events a saved trace carries.
        r.finish()?;
        let replay = trace::read_trace(&path)?;
        let profiled: Vec<_> = replay
            .campaigns
            .iter()
            .filter_map(|c| c.profile.as_ref())
            .collect();
        if profiled.is_empty() {
            return Err(
                format!("{path}: no profile events (record the trace with --profile)").into(),
            );
        }
        for p in &profiled {
            now.merge(&p.data);
            if json {
                // Machine-readable mirror of the hot-block and slow-path
                // tables: one ProfileEvent JSON doc per profiled campaign
                // (schema in README.md).
                print_json(*p)?;
                continue;
            }
            println!("== {} — {} engine ==", p.app, p.mode);
            let app = AppSpec::by_name(&p.app);
            print!(
                "{}",
                fisec_core::hotblocks::render_hot_blocks(
                    &p.data,
                    app.as_ref().map(|a| &a.image),
                    top
                )
            );
        }
    } else {
        // Live: run the app's campaign with the profiler on (results are
        // bit-identical either way — the differential tests pin it) and
        // rank its blocks. The store is never consulted: a folded group
        // retires no instructions.
        let app = app(&mut r)?;
        let scheme = scheme(&mut r);
        let mut cfg = campaign_config(&mut r)?;
        cfg.engine.flight_recorder = r.switch("--recorder");
        cfg.engine.propagation = r.switch("--propagation");
        let progress = r.switch("--progress");
        r.finish()?;
        cfg.scheme = scheme;
        cfg.engine.profiler = true;
        let tel = Telemetry::new(Arc::new(NullSink), progress);
        run_campaign_cached(&app, &cfg, &tel, None);
        let snap = tel.metrics.snapshot();
        now.merge(snap.profile());
        if json {
            print_json(&fisec_telemetry::ProfileEvent {
                app: app.name.to_string(),
                mode: cfg.mode.name().to_string(),
                data: snap.profile().clone(),
            })?;
        } else {
            println!("== {} [{scheme}] — {} engine ==", app.name, cfg.mode.name());
            print!(
                "{}",
                fisec_core::hotblocks::render_hot_blocks(snap.profile(), Some(&app.image), top)
            );
        }
    }
    if let Some(base_path) = baseline {
        print!("{}", slow_delta(&now, &base_path)?);
    }
    Ok(())
}

fn cmd_report(mut r: Flags) -> Result<(), Exit> {
    let out = r.value::<String>("--out PATH")?;
    let path = r.positional("TRACE.jsonl");
    r.finish()?;
    let path =
        path.ok_or("report needs a trace file: fisec report run.jsonl [--out report.html]")?;
    let replay = trace::read_trace(&path)?;
    if replay.campaigns.is_empty() && replay.random.is_empty() {
        return Err(format!("{path}: no campaigns in trace").into());
    }
    let html = fisec_core::report::render_html(&replay);
    let out = out.unwrap_or_else(|| {
        let stem = path.strip_suffix(".jsonl").unwrap_or(&path);
        format!("{stem}.html")
    });
    std::fs::write(&out, &html).map_err(|e| format!("{out}: {e}"))?;
    println!("report: {out} ({} bytes)", html.len());
    Ok(())
}

fn cmd_bench_diff(mut r: Flags) -> Result<(), Exit> {
    let factor = r.value_or("--factor F", 1.0_f64)?;
    if factor <= 0.0 || factor.is_nan() {
        return Err(format!("--factor {factor} must be positive").into());
    }
    let path = r.positional("BENCH_campaign.json");
    r.finish()?;
    let path = path.ok_or(
        "bench-diff needs the baseline file: fisec bench-diff BENCH_campaign.json [--factor F]",
    )?;
    let baseline = fisec_core::benchdiff::read_baseline(&path)?;
    eprintln!(
        "bench-diff: measuring one full ftpd baseline campaign, plain, profiled and taint-traced ..."
    );
    let measured = fisec_core::benchdiff::measure();
    let rows = fisec_core::benchdiff::compare(&baseline, &measured, factor);
    print!("{}", fisec_core::benchdiff::render(&rows, factor));
    if fisec_core::benchdiff::regressed(&rows) {
        let n = rows.iter().filter(|r| !r.ok).count();
        return Err(
            format!("{n} metric(s) regressed past their thresholds (baseline {path})").into(),
        );
    }
    Ok(())
}

fn cmd_load(mut r: Flags) -> Result<(), Exit> {
    let app = app(&mut r)?;
    let samples = r.value_or("--samples N", 200)?;
    let seed = r.value_or("--seed S", 2001)?;
    let json = r.switch("--json");
    r.finish()?;
    let result = load::run_load_study(&app, samples, seed);
    if json {
        print_json(&result)?;
    } else {
        println!("{}", load::render(&result));
    }
    Ok(())
}

fn cmd_targets(mut r: Flags) -> Result<(), Exit> {
    let apps = apps(&mut r)?;
    r.finish()?;
    for app in apps {
        let set = enumerate_targets(&app.image, &app.auth_funcs, false);
        println!(
            "{}: {} branch instructions ({} conditional), {} injection runs per client, auth = {:.1}% of text",
            app.name,
            set.instructions,
            set.cond_branches,
            set.runs(),
            app.image.text_fraction(&app.auth_funcs) * 100.0
        );
    }
    Ok(())
}

fn cmd_disasm(mut r: Flags) -> Result<(), Exit> {
    let app = app(&mut r)?;
    let func = r.value::<String>("--func NAME")?;
    r.finish()?;
    let funcs: Vec<String> = match func {
        Some(f) => vec![f],
        None => app.auth_funcs.iter().map(|s| s.to_string()).collect(),
    };
    for name in funcs {
        let f = app
            .image
            .func(&name)
            .ok_or(format!("no function `{name}` in {}", app.name))?
            .clone();
        println!("{:08x} <{}>:", f.start, f.name);
        let start = (f.start - app.image.text_base) as usize;
        let end = (f.end - app.image.text_base) as usize;
        for line in fisec_x86::disassemble(&app.image.text[start..end], f.start) {
            println!("{line}");
        }
        println!();
    }
    Ok(())
}

fn cmd_breakins(mut r: Flags) -> Result<(), Exit> {
    let apps = apps(&mut r)?;
    r.finish()?;
    for app in apps {
        let client = &app.clients[0];
        let golden = golden_run(&app.image, client).map_err(|e| e.to_string())?;
        let set = enumerate_targets(&app.image, &app.auth_funcs, true);
        println!("{} ({}):", app.name, client.name);
        for t in set
            .targets
            .iter()
            .filter(|t| t.byte_index == 0 || (t.first_byte == 0x0F && t.byte_index == 1))
        {
            let r = run_injection(&app.image, client, &golden, t, EncodingScheme::Baseline)
                .map_err(|e| e.to_string())?;
            if r.outcome == OutcomeClass::Breakin {
                let off = (t.addr - app.image.text_base) as usize;
                let before = fisec_x86::decode(&app.image.text[off..off + 8]);
                let mut bytes = app.image.text[off..off + 8].to_vec();
                let i = t.byte_index as usize;
                bytes[i] = t.flip(bytes[i], EncodingScheme::Baseline);
                let after = fisec_x86::decode(&bytes);
                println!(
                    "  {:08x}: {}  ->  {}  (bit {} of byte {})",
                    t.addr,
                    fisec_x86::fmt_att(&before, t.addr),
                    fisec_x86::fmt_att(&after, t.addr),
                    t.bit,
                    t.byte_index
                );
            }
        }
    }
    Ok(())
}

fn cmd_ablation(mut r: Flags) -> Result<(), Exit> {
    let cfg = campaign_config(&mut r)?;
    let seed = r.value_or("--seed S", 2001)?;
    r.finish()?;
    println!("== entry points (sshd, Client1) ==");
    let ep = fisec_core::ablation::entry_points_study(&cfg);
    println!("{}", fisec_core::ablation::render_entry_points(&ep));
    println!("== sampling vs exhaustive (ftpd, Client1) ==");
    let mut ftpd = AppSpec::ftpd();
    ftpd.clients.truncate(1);
    let result = run_campaign(&ftpd, &cfg);
    let (truth, rows) = fisec_core::ablation::sampling_study(
        &result,
        0,
        &[50, 200, 500, result.runs_per_client],
        500,
        seed,
    );
    println!("{}", fisec_core::ablation::render_sampling(truth, &rows));
    Ok(())
}

fn cmd_data_errors(mut r: Flags) -> Result<(), Exit> {
    let apps = apps(&mut r)?;
    r.finish()?;
    // The campaign runs the app's first client, its attack pattern.
    for app in &apps {
        let result = data_errors::run_data_campaign(app, DATA_SYMBOL_MAX_LEN);
        println!("{}", data_errors::render(&result));
    }
    Ok(())
}

fn cmd_forensics(mut r: Flags) -> Result<(), Exit> {
    let app = app(&mut r)?;
    let top = r.value_or("--top K", 3)?;
    let stride = at_least_one(&mut r, "--stride N", 4)?;
    r.finish()?;
    let client = &app.clients[0];
    let golden = golden_run(&app.image, client).map_err(|e| e.to_string())?;
    let set = enumerate_targets(&app.image, &app.auth_funcs, false);
    // Collect crash reports and show the longest transient windows,
    // sampling every `--stride`th bit for speed (stride 1 = exhaustive).
    let mut reports = Vec::new();
    for t in &set.targets {
        if !(t.bit as usize).is_multiple_of(stride) {
            continue;
        }
        if let Some(r) = crash_forensics(&app.image, client, &golden, t, EncodingScheme::Baseline)
            .map_err(|e| e.to_string())?
        {
            reports.push((t.addr, r));
        }
    }
    reports.sort_by_key(|(_, r)| std::cmp::Reverse(r.latency));
    println!(
        "{} crashes sampled; {} longest transient windows:",
        reports.len(),
        top
    );
    for (addr, r) in reports.iter().take(top) {
        println!("\ninjected at {addr:#010x}:");
        print!("{r}");
    }
    Ok(())
}

fn cmd_cache(mut r: Flags) -> Result<(), Exit> {
    let dir = r.value::<String>("--cache DIR=~/.fisec-cache")?;
    let op = r.positional("ls|verify|gc").unwrap_or_default();
    // Each operation reads its own flags; without one (an error unless
    // under `--help`), every operation's.
    let (mut seed, mut max_size, mut max_age) = (0, None, None);
    if op == "verify" || op.is_empty() {
        seed = r.value_or("--seed S", 2001)?;
    }
    if op == "gc" || op.is_empty() {
        let size = r.value::<String>("--max-size BYTES[k|m|g]")?;
        max_size = size.map(|s| parse_size(&s)).transpose()?;
        let age = r.value::<String>("--max-age SECS[m|h|d]")?;
        max_age = age.map(|s| parse_age(&s)).transpose()?;
    }
    r.finish()?;
    let root = dir
        .map(std::path::PathBuf::from)
        .or_else(CampaignCache::default_root)
        .ok_or("no cache root: HOME is unset (use --cache DIR)")?;
    match op.as_str() {
        "ls" => cache_ls(&root),
        "verify" => cache_verify(&root, seed)?,
        "gc" if max_size.is_none() && max_age.is_none() => {
            return Err("cache gc needs an eviction bound: --max-size and/or --max-age".into())
        }
        "gc" => {
            let report = cache::gc(&root, max_size, max_age);
            for (file, bytes) in &report.evicted {
                println!("evicted {file} ({bytes} bytes)");
            }
            println!(
                "{} evicted, {} kept ({} bytes)",
                report.evicted.len(),
                report.kept,
                report.kept_bytes
            );
        }
        "" => return Err("cache needs an operation: fisec cache <ls|verify|gc>".into()),
        other => {
            return Err(format!("unknown cache operation `{other}` (use ls/verify/gc)").into())
        }
    }
    Ok(())
}

/// `fisec cache ls`: one row per store file.
fn cache_ls(root: &std::path::Path) {
    let rows = cache::ls(root);
    if rows.is_empty() {
        println!("no cache stores under {}", root.display());
        return;
    }
    println!(
        "{:<34} {:>8} {:>7} {:>8}  contents",
        "store", "bytes", "age", "groups"
    );
    let mut total = 0u64;
    for r in &rows {
        total += r.bytes;
        let contents = match &r.store {
            Some(s) => format!(
                "{}/{}{}  {} rows",
                s.app,
                s.client,
                if s.recorder { " +recorder" } else { "" },
                s.groups.iter().map(|g| g.rows.len()).sum::<usize>()
            ),
            None if r.unfinished => "unfinished write (never read)".to_string(),
            None => "invalid or stale-schema (cold miss)".to_string(),
        };
        println!(
            "{:<34} {:>8} {:>6}s {:>8}  {}",
            r.file,
            r.bytes,
            r.age_secs,
            r.store.as_ref().map_or(0, |s| s.groups.len()),
            contents
        );
    }
    println!("{} stores, {total} bytes", rows.len());
}

/// `fisec cache verify`: for every valid store, re-execute one
/// deterministically sampled group and diff the fresh outcomes against
/// its memoized rows. Catches the one documented soundness gap (code
/// bytes read as *data* are not in any footprint) and any store
/// corruption the text check cannot see. Each row re-runs once, through
/// the from-scratch oracle, as the first target at the group's address
/// that plants its byte under some scheme; it shares no walk with the
/// engine that wrote it. A row no target plants is drift too.
///
/// # Errors
/// A drift report (nonzero exit) when any sampled group's re-execution
/// disagrees with its memoized runs.
fn cache_verify(root: &std::path::Path, seed: u64) -> Result<(), String> {
    let mut checked = 0usize;
    let mut drifted: Vec<String> = Vec::new();
    for summary in cache::ls(root) {
        let Some(store) = &summary.store else {
            let what = if summary.unfinished {
                "unfinished write"
            } else {
                "invalid or stale schema"
            };
            println!("{}: {what} — skipped (cold miss)", summary.file);
            continue;
        };
        let Some(app) = AppSpec::by_name(&store.app) else {
            println!("{}: unknown app `{}` — skipped", summary.file, store.app);
            continue;
        };
        let Some(spec) = app.clients.iter().find(|c| c.name == store.client) else {
            println!(
                "{}: unknown client `{}` — skipped",
                summary.file, store.client
            );
            continue;
        };
        let engine = EngineOpts {
            flight_recorder: store.recorder,
            ..EngineOpts::default()
        };
        let golden =
            fisec_inject::golden_run_opts(&app.image, spec, engine).map_err(|e| e.to_string())?;
        if cache::context_key(&app, spec, store.recorder, &golden) != store.context {
            println!(
                "{}: context key differs from the current build — entries will cold-miss",
                summary.file
            );
            continue;
        }
        if store.groups.is_empty() {
            continue;
        }
        let idx = (seed as usize) % store.groups.len();
        let entry = &store.groups[idx];
        let targets: Vec<_> = enumerate_targets(&app.image, &app.auth_funcs, false)
            .targets
            .into_iter()
            .filter(|t| t.addr == entry.addr)
            .collect();
        checked += 1;
        let (mut mismatches, mut orphans) = (0usize, 0usize);
        for row in &entry.rows {
            let planter = EncodingScheme::ALL.into_iter().find_map(|scheme| {
                let t = targets
                    .iter()
                    .find(|t| cache::row_key(&app.image, t, scheme) == Some(row.key()))?;
                Some((t, scheme))
            });
            let Some((t, scheme)) = planter else {
                drifted.push(format!(
                    "{}: group @ {:#010x}: row (byte {}, planted {:#04x}) is planted by no target",
                    summary.file, entry.addr, row.byte_index, row.planted
                ));
                orphans += 1;
                continue;
            };
            let (runs, ..) =
                fisec_inject::run_injection_recorded(&app.image, spec, &golden, t, scheme, engine)
                    .map_err(|e| e.to_string())?;
            let (run, _meta, rep, _prop) = runs.into_iter().next().ok_or("a run yields one run")?;
            let div = rep.as_ref().map(|r| {
                (
                    r.divergence_depth,
                    run.crash_latency.map(|_| r.faulty.retired()),
                )
            });
            if (run, div) != row.run {
                mismatches += 1;
            }
        }
        if mismatches > 0 {
            drifted.push(format!(
                "{}: group @ {:#010x}: {mismatches} of {} memoized runs drifted",
                summary.file,
                entry.addr,
                entry.rows.len()
            ));
        } else if orphans == 0 {
            println!(
                "{}: group @ {:#010x} ({} rows) verified",
                summary.file,
                entry.addr,
                entry.rows.len()
            );
        }
    }
    if drifted.is_empty() {
        println!("cache verify: {checked} sampled groups verified, no drift");
        Ok(())
    } else {
        Err(format!(
            "cache verify: drift detected:\n{}",
            drifted.join("\n")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reader of `cmd` over the whitespace-separated `args`.
    fn flags(cmd: &str, args: &str) -> Flags {
        Flags::new(cmd, args.split_whitespace().map(String::from))
    }

    /// Parse the command line `line` as far as `finish()` under `--help`,
    /// so nothing runs: the subcommand's usage line when it read every
    /// argument, the rejection otherwise.
    fn check(line: &str) -> Result<String, String> {
        match run(format!("{line} --help")
            .split_whitespace()
            .map(String::from)
            .collect())
        {
            Err(Exit::Help(usage)) => Ok(usage),
            Err(Exit::Error(e)) => Err(e),
            Ok(()) => panic!("`{line}` ran under --help"),
        }
    }

    /// Run the command line `line` for real; it must fail.
    fn fails(line: &str) -> String {
        match run(line.split_whitespace().map(String::from).collect()) {
            Err(Exit::Error(e)) => e,
            other => panic!("`{line}` did not fail: {other:?}"),
        }
    }

    /// `check(line)` fails with a message containing `needle`.
    fn rejects(line: &str, needle: &str) {
        match check(line) {
            Err(e) => assert!(e.contains(needle), "`{line}`: {e}"),
            Ok(u) => panic!("`{line}` parsed: {u}"),
        }
    }

    #[test]
    fn defaults_round_trip() {
        let mut r = flags("figure4", "");
        let names: Vec<_> = apps(&mut r).unwrap().iter().map(|a| a.name).collect();
        assert_eq!(names, ["ftpd", "sshd"]);
        assert_eq!(scheme(&mut r), EncodingScheme::Baseline);
        let c = Campaigns::read(&mut r).unwrap();
        assert_eq!(c.cfg.threads, CampaignConfig::default().threads);
        assert_eq!(c.cfg.engine, EngineOpts::default());
        assert_eq!(c.cfg.mode, ExecutionMode::Snapshot);
        assert!(!c.progress && !c.cfg.spans && c.trace_out.is_none());
        assert!(!r.switch("--json"));
        assert_eq!(r.value::<String>("--func NAME").unwrap(), None);
        assert_eq!(r.positional("TRACE"), None);
        assert!(r.finish().is_ok());
        // Single-app commands run ftpd by default and refuse `both`.
        assert_eq!(app(&mut flags("figure4", "")).unwrap().name, "ftpd");
        for cmd in [
            "figure4",
            "explain",
            "propagate",
            "random",
            "profile",
            "load",
            "disasm",
            "forensics",
        ] {
            rejects(
                &format!("{cmd} --app both"),
                &format!("`fisec {cmd}` runs one app"),
            );
            rejects(&format!("{cmd} --app httpd"), "unknown app `httpd`");
        }
        // A handler's own defaults show in its usage line, so
        // `each_subcommand_lists_exactly_the_flags_it_reads` pins them all.
        assert!(check("figure4").unwrap().contains("[--client N=1]"));
        assert!(check("forensics").unwrap().contains("[--stride N=4]"));
    }

    #[test]
    fn flags_round_trip() {
        let line = "--app sshd --threads 2 --json --new-encoding --trace-out t.jsonl --progress";
        let mut r = flags("table1", line);
        let names: Vec<_> = apps(&mut r).unwrap().iter().map(|a| a.name).collect();
        assert_eq!(names, ["sshd"]);
        assert_eq!(scheme(&mut r), EncodingScheme::NewEncoding);
        assert!(r.switch("--json"));
        let c = Campaigns::read(&mut r).unwrap();
        assert_eq!(
            (c.cfg.threads, c.trace_out.as_deref()),
            (2, Some("t.jsonl"))
        );
        assert!(c.progress);
        assert!(r.finish().is_ok());
        let stride = at_least_one(&mut flags("forensics", "--stride 1"), "--stride N", 4);
        assert_eq!(stride.unwrap(), 1);
        let client = flags("figure4", "--client 3").value("--client N");
        assert_eq!(client.unwrap(), Some(3));
    }

    #[test]
    fn explain_flags_round_trip() {
        let mut r = flags("explain", "--addr 0x08048123 --byte 1 --bit 5");
        assert_eq!(flip_site(&mut r).unwrap(), (Some(0x0804_8123), 1, 5));
        assert!(r.finish().is_ok());
        // Decimal addresses parse too; garbage is rejected.
        assert_eq!(
            flip_site(&mut flags("explain", "--addr 64")).unwrap().0,
            Some(64)
        );
        rejects("explain --addr 0xzz", "--addr 0xzz");
        // Without --addr the command itself errors out.
        assert!(fails("explain --app ftpd").contains("--addr"));
    }

    #[test]
    fn propagate_flags_round_trip() {
        let mut r = flags("propagate", "--addr 0x08049100 --byte 2 --bit 6");
        assert_eq!(flip_site(&mut r).unwrap(), (Some(0x0804_9100), 2, 6));
        check("propagate --app sshd --addr 0x08049100").unwrap();
        // Without --addr the command itself errors out, naming itself.
        let e = fails("propagate --app ftpd");
        assert!(e.contains("propagate needs --addr"), "{e}");
    }

    #[test]
    fn bit_out_of_range_is_a_parse_error() {
        // Bits above 7 are rejected where the flag is read, not silently
        // wrapped into an enumeration miss.
        rejects("explain --bit 8", "0..=7");
        rejects("propagate --bit 200", "0..=7");
        // Values past u8 still fail (as a parse error).
        rejects("explain --bit 300", "--bit 300");
        // The full valid range parses.
        for bit in 0..=7u8 {
            let mut r = flags("explain", &format!("--bit {bit}"));
            assert_eq!(flip_site(&mut r).unwrap().2, bit);
        }
    }

    #[test]
    fn byte_past_instruction_length_is_rejected() {
        // x86 instructions are at most 15 bytes, so --byte 15 is out of
        // range for any real instruction: both explain and propagate
        // must hard-error instead of reporting a missing target.
        let app = AppSpec::ftpd();
        let addr = enumerate_targets(&app.image, &app.auth_funcs, false).targets[0].addr;
        for cmd in ["explain", "propagate"] {
            let e = fails(&format!("{cmd} --app ftpd --addr {addr:#x} --byte 15"));
            assert!(e.contains("--byte 15 out of range"), "{cmd}: {e}");
            assert!(e.contains("byte(s)"), "{cmd}: {e}");
        }
    }

    #[test]
    fn propagation_flag_arms_the_tracer_campaign_wide() {
        let c = Campaigns::read(&mut flags("table1", "--propagation")).unwrap();
        assert!(c.cfg.engine.propagation);
        let plain = Campaigns::read(&mut flags("table1", "")).unwrap();
        assert!(!plain.cfg.engine.propagation);
        assert!(check("table1").unwrap().contains("--propagation"));
    }

    #[test]
    fn recorder_flags_enable_the_flight_recorder() {
        let c = Campaigns::read(&mut flags("table1", "")).unwrap();
        assert!(!c.cfg.engine.flight_recorder);
        let c = Campaigns::read(&mut flags("table1", "--recorder")).unwrap();
        assert!(c.cfg.engine.flight_recorder);
        // --from-trace implies the recorder: the histogram cannot be
        // rebuilt from traces nobody recorded, and figure4 hard-errors
        // when the rebuilt histogram differs from the live one.
        let line = "figure4 --app ftpd --no-cache --from-trace";
        run(line.split_whitespace().map(String::from).collect()).unwrap();
    }

    #[test]
    fn no_block_cache_flag_disables_engine() {
        assert!(engine(&mut flags("table1", "")).block_cache);
        let c = Campaigns::read(&mut flags("table1", "--no-block-cache")).unwrap();
        assert!(!c.cfg.engine.block_cache);
        assert!(!engine(&mut flags("random", "--no-block-cache")).block_cache);
    }

    #[test]
    fn profile_baseline_flag_parses_and_requires_profile_events() {
        let mut r = flags("profile", "run.jsonl --baseline old.jsonl");
        let baseline = r.value::<String>("--baseline OLD.jsonl").unwrap();
        assert_eq!(baseline.as_deref(), Some("old.jsonl"));
        assert_eq!(r.positional("TRACE").as_deref(), Some("run.jsonl"));
        let u = check("profile run.jsonl --baseline old.jsonl").unwrap();
        assert!(u.contains("--baseline"), "{u}");
        let e = slow_delta(&ProfileData::default(), "/nonexistent-fisec.jsonl").unwrap_err();
        assert!(e.contains("/nonexistent-fisec.jsonl"), "{e}");
    }

    #[test]
    fn unknown_flag_is_rejected_with_usage() {
        rejects(
            "table1 --martian",
            "unknown flag `--martian` for `fisec table1`",
        );
        rejects("table1 --martian", "usage: fisec table1");
        rejects("table1 --app ftpd --app sshd", "repeated flag `--app`");
    }

    #[test]
    fn missing_flag_value_is_rejected() {
        rejects("table1 --threads", "--threads needs a value");
        rejects("figure4 --trace-out", "--trace-out needs a value");
    }

    #[test]
    fn non_numeric_values_are_rejected() {
        rejects("table1 --threads many", "--threads many");
        rejects("figure4 --client first", "--client first");
        rejects("forensics --stride -1", "--stride -1");
        rejects("random --target-ci wide", "--target-ci wide");
    }

    #[test]
    fn zero_stride_is_rejected() {
        rejects("forensics --stride 0", "--stride must be at least 1");
        rejects("random --batch 0", "--batch must be at least 1");
        for w in ["0", "1", "-0.5"] {
            rejects(&format!("random --target-ci {w}"), "must be in (0, 1)");
        }
    }

    #[test]
    fn positional_path_lands_in_path() {
        let mut r = flags("stats", "run.jsonl --json");
        assert!(r.switch("--json"));
        assert_eq!(r.positional("TRACE").as_deref(), Some("run.jsonl"));
        assert!(r.finish().is_ok());
        // A flag's value is never taken for the positional.
        let mut r = flags("cache", "--cache store ls");
        assert_eq!(r.positional("OP").as_deref(), Some("ls"));
        // A second positional is an error, not a silent overwrite.
        rejects("stats a.jsonl b.jsonl", "unexpected argument `b.jsonl`");
    }

    #[test]
    fn no_command_shows_usage() {
        assert!(fails("").contains("usage:"));
        assert!(fails("tabel1").contains("unknown command `tabel1`"));
    }

    #[test]
    fn figure4_client_range_is_checked() {
        for bad in [0, 99] {
            let e = fails(&format!("figure4 --app ftpd --client {bad}"));
            assert!(e.contains("out of range"), "client {bad}: {e}");
            assert!(e.contains("1..="), "client {bad}: {e}");
        }
    }

    #[test]
    fn positional_rejected_outside_stats() {
        rejects("table1 run.jsonl", "unexpected argument `run.jsonl`");
    }

    #[test]
    fn help_is_a_first_class_command() {
        // `fisec help`, `fisec --help` and `fisec -h` list every command
        // on stdout with exit 0; `--help` after a command lists its flags.
        for line in ["help", "--help", "-h", "help --help"] {
            match run(line.split_whitespace().map(String::from).collect()) {
                Err(Exit::Help(u)) => assert_eq!(u, usage()),
                other => panic!("{line}: {other:?}"),
            }
        }
        // `fisec help` prints every subcommand's `--help` line.
        for (cmd, _) in COMMANDS {
            assert!(usage().contains(&check(cmd).unwrap()), "{cmd}");
        }
        assert!(check("table1").unwrap().contains("--chrome-trace OUT.json"));
        assert!(check("bench-diff").unwrap().contains("--factor F"));
        assert!(check("report").unwrap().contains("--out PATH"));
    }

    #[test]
    fn observatory_flags_round_trip() {
        let mut r = flags("table1", "--profile --chrome-trace spans.json");
        let c = Campaigns::read(&mut r).unwrap();
        assert!(r.finish().is_ok());
        // --profile turns the profiler on, --chrome-trace span tracing.
        assert!(c.cfg.engine.profiler && c.cfg.spans);
        assert_eq!(c.chrome_trace.as_deref(), Some("spans.json"));
        let plain = Campaigns::read(&mut flags("table1", "")).unwrap();
        assert!(!plain.cfg.engine.profiler && !plain.cfg.spans);
        let f = flags("bench-diff", "--factor 2.5").value::<f64>("--factor F");
        assert!((f.unwrap().unwrap() - 2.5).abs() < 1e-9);
        let out = flags("report", "--out r.html").value::<String>("--out PATH");
        assert_eq!(out.unwrap().as_deref(), Some("r.html"));
        assert_eq!(
            flags("profile", "--top 7").value("--top K").unwrap(),
            Some(7)
        );
        check("report r.jsonl --out r.html").unwrap();
        check("profile --top 7").unwrap();
    }

    #[test]
    fn factor_must_be_positive() {
        for bad in ["0", "-1", "nope"] {
            rejects(&format!("bench-diff --factor {bad}"), "--factor");
        }
    }

    #[test]
    fn report_and_bench_diff_take_a_positional() {
        check("report run.jsonl").unwrap();
        check("bench-diff BENCH_campaign.json").unwrap();
        // Without one, both error out with a pointer to the usage.
        assert!(fails("report").contains("report needs a trace file"));
        assert!(fails("bench-diff").contains("bench-diff needs the baseline file"));
    }

    #[test]
    fn profile_replay_requires_profile_events() {
        // A trace recorded without --profile is a user error, not an
        // empty table.
        let dir = std::env::temp_dir().join("fisec_profile_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plain.jsonl");
        let sink = fisec_telemetry::JsonlSink::create(&path).unwrap();
        let tel = Telemetry::new(Arc::new(sink), false);
        let cfg = CampaignConfig {
            cond_branches_only: true,
            ..CampaignConfig::default()
        };
        run_campaign_cached(&AppSpec::ftpd(), &cfg, &tel, None);
        let path = path.to_str().unwrap();
        assert!(fails(&format!("profile {path}")).contains("no profile events"));
        let e = slow_delta(&ProfileData::default(), path).unwrap_err();
        assert!(e.contains("no profile events"), "{e}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn from_scratch_selects_the_campaign_mode() {
        let c = Campaigns::read(&mut flags("table1", "")).unwrap();
        assert_eq!(c.cfg.mode, ExecutionMode::Snapshot);
        let c = Campaigns::read(&mut flags("table1", "--from-scratch")).unwrap();
        assert_eq!(c.cfg.mode, ExecutionMode::FromScratch);
        let cfg = campaign_config(&mut flags("ablation", "--from-scratch")).unwrap();
        assert_eq!(cfg.mode, ExecutionMode::FromScratch);
        assert_eq!(
            mode(&mut flags("random", "--from-scratch")),
            ExecutionMode::FromScratch
        );
    }

    #[test]
    fn cache_flags_round_trip() {
        let c = Campaigns::read(&mut flags("table1", "--cache /tmp/store")).unwrap();
        let store = c.cache.expect("--cache DIR must enable the cache");
        assert_eq!(store.root(), std::path::Path::new("/tmp/store"));
        // --no-cache wins even when a directory is named.
        let mut r = flags("table1", "--cache /tmp/store --no-cache");
        assert!(Campaigns::read(&mut r).unwrap().cache.is_none());
    }

    #[test]
    fn cache_subcommand_takes_the_op_as_positional() {
        for op in ["ls", "verify", "gc"] {
            assert!(check(&format!("cache {op}"))
                .unwrap()
                .contains("ls|verify|gc"));
        }
        // Each operation reads only its own flags.
        check("cache verify --seed 3").unwrap();
        rejects("cache ls --seed 3", "unknown flag `--seed`");
        rejects("cache verify --max-size 1", "unknown flag `--max-size`");
        // gc without a bound is a user error, not a full wipe.
        assert!(fails("cache gc --cache /nonexistent-fisec").contains("--max-size"));
        let e = fails("cache prune --cache /nonexistent-fisec");
        assert!(e.contains("unknown cache operation `prune`"), "{e}");
    }

    #[test]
    fn size_and_age_suffixes_parse() {
        assert_eq!(parse_size("4096").unwrap(), 4096);
        assert_eq!(parse_size("64k").unwrap(), 64 << 10);
        assert_eq!(parse_size("2M").unwrap(), 2 << 20);
        assert_eq!(parse_size("1gb").unwrap(), 1 << 30);
        assert!(parse_size("7x").is_err());
        assert_eq!(parse_age("90").unwrap(), 90);
        assert_eq!(parse_age("5m").unwrap(), 300);
        assert_eq!(parse_age("2h").unwrap(), 7200);
        assert_eq!(parse_age("7d").unwrap(), 7 * 86_400);
        assert!(parse_age("1w").is_err());
        check("cache gc --max-size 64m --max-age 30d").unwrap();
        rejects("cache gc --max-age 1w", "unknown suffix");
    }

    #[test]
    fn documented_invocations_parse() {
        // Every `fisec` invocation in CI, README.md, EXPERIMENTS.md and
        // the verify skill, as written there.
        let documented = "\
            table1 --app ftpd --trace-out trace.jsonl
            stats trace.jsonl
            table1 --app both --no-cache
            table1 --app both --no-cache --no-block-cache
            table1 --app both --no-cache --from-scratch --trace-out scratch.jsonl
            table1 --app both --no-cache --trace-out snap.jsonl
            table3 --app both --no-cache
            table3 --app both --no-cache --from-scratch
            table5 --app both --no-cache
            table5 --app both --no-cache --from-scratch
            figure4 --app ftpd --no-cache --from-scratch
            figure4 --app sshd --no-cache
            figure4 --app sshd --no-cache --from-scratch
            figure4 --app ftpd --no-cache
            figure4 --app ftpd --no-cache --from-trace
            explain --app ftpd --addr 0x0804915e --byte 0 --bit 0
            table1 --app ftpd --no-cache --trace-out obs.jsonl --profile --chrome-trace perfetto.json
            profile obs.jsonl
            report obs.jsonl --out report.html
            table1 --app both --cache store --threads 2 --trace-out cold.jsonl
            cache ls --cache store
            table1 --app both --cache store1 --threads 1
            table1 --app both --cache store --trace-out warm.jsonl
            table1 --app both --cache store --trace-out heal.jsonl
            table1 --app both --cache store --trace-out healed.jsonl
            figure4 --app ftpd --cache store
            cache verify --cache store
            cache gc --cache store --max-size 64m
            cache gc --cache store --max-size 1
            table1 --app ftpd --no-cache --propagation --trace-out prop.jsonl
            report prop.jsonl --out prop_report.html
            propagate --app ftpd --addr 0x0804915e --byte 0 --bit 0
            propagate --app ftpd --addr 0x08048c96 --byte 0 --bit 0
            random --app ftpd --runs 2000 --seed 2001 --threads 4 --batch 250 --trace-out random.jsonl
            random --app ftpd --runs 2000 --seed 2001 --threads 1 --batch 250
            random --app ftpd --runs 2000 --seed 2001
            random --app ftpd --runs 2000 --seed 2001 --from-scratch
            random --app ftpd --runs 2000 --seed 2001 --new-encoding
            random --app ftpd --runs 2000 --seed 2001 --new-encoding --from-scratch
            random --app sshd --runs 2000 --seed 2001
            random --app sshd --runs 2000 --seed 2001 --from-scratch
            random --app sshd --runs 2000 --seed 2001 --new-encoding
            random --app sshd --runs 2000 --seed 2001 --new-encoding --from-scratch
            stats random.jsonl
            random --resume truncated.jsonl
            stats truncated.jsonl
            table1
            table5 --app ftpd
            figure4
            random --runs 3000
            breakins --app sshd
            disasm --app ftpd --func pass
            forensics --top 3
            ablation
            table1 --trace-out run.jsonl --progress
            stats run.jsonl
            stats run.jsonl --json
            figure4 --from-trace
            explain --app sshd --addr 0x0804907e --byte 0 --bit 0
            propagate --app sshd --addr 0x080490a3 --byte 0 --bit 6
            profile --app ftpd
            table1 --app ftpd --trace-out run.jsonl --profile --chrome-trace spans.json
            profile run.jsonl
            profile --app ftpd --json
            profile --baseline run.jsonl
            profile run.jsonl --baseline obs.jsonl
            report run.jsonl
            bench-diff BENCH_campaign.json --factor 2
            table1 --app both
            cache ls
            cache verify
            cache gc --max-size 64m --max-age 30d
            random --app ftpd --runs 1000000 --threads 8 --batch 10000 --trace-out ledger.jsonl
            random --resume ledger.jsonl
            stats ledger.jsonl
            table1 --no-block-cache
            table3
            forensics
            forensics --app sshd
            breakins
            figure4 --app ftpd --from-trace
            random --runs 1000000 --target-ci 0.001 --batch 10000
            table1 --app both --progress
            table1 --app ftpd --propagation
            table1 --app sshd --propagation
            table1 --app both --threads 1 --cache dir --trace-out t.jsonl
            stats t.jsonl
            table1 --app ftpd
            random --progress
            random --app ftpd --runs 1000000 --seed 2001 --batch 10000 --trace-out ledger2.jsonl
            table1 --app both --cache dir
            random --threads 4
            bench-diff BENCH_campaign.json --factor 4
            table1 --app ftpd --threads 4
            table1 --app both --no-cache --from-scratch
            random --threads 1
            data-errors
            data-errors --app sshd
            load
            targets --app both
            table1 --help
            figure4 --help
            help";
        for line in documented.lines() {
            if let Err(e) = check(line.trim()) {
                panic!("fisec {}: {e}", line.trim());
            }
        }
    }

    #[test]
    fn ignored_flags_are_rejected_by_name() {
        // Each of these once exited 0 with the flag silently dropped.
        for (line, flag) in [
            ("figure4 --app ftpd --new-encoding", "--new-encoding"),
            ("table1 --app ftpd --runs 5", "--runs"),
            ("table1 --app ftpd --seed 9", "--seed"),
            ("table1 --app ftpd --stride 3", "--stride"),
            ("table1 --app ftpd --factor 2", "--factor"),
            ("table1 --app ftpd --max-age 1d", "--max-age"),
            ("table1 --from-trace", "--from-trace"),
            ("breakins --app ftpd --client 2", "--client"),
            ("breakins --app ftpd --new-encoding", "--new-encoding"),
            ("breakins --app sshd --top 3", "--top"),
            ("forensics --app ftpd --client 2", "--client"),
            ("forensics --new-encoding", "--new-encoding"),
            ("random --resume L --seed 7", "--seed"),
            ("random --resume L --runs 50", "--runs"),
            ("random --resume L --new-encoding", "--new-encoding"),
            ("random --resume L --from-scratch", "--from-scratch"),
            ("random --runs 200 --chrome-trace X", "--chrome-trace"),
            ("profile --app ftpd --trace-out Y", "--trace-out"),
            ("profile --app ftpd --no-cache", "--no-cache"),
            ("profile --app ftpd --profile", "--profile"),
            ("profile run.jsonl --app ftpd", "--app"),
            ("ablation --recorder", "--recorder"),
            ("ablation --chrome-trace X", "--chrome-trace"),
            ("stats run.jsonl --app ftpd", "--app"),
            ("data-errors --no-cache", "--no-cache"),
            ("table1 --app ftpd --no-trace-cache", "--no-trace-cache"),
        ] {
            let cmd = line.split(' ').next().unwrap();
            rejects(line, &format!("unknown flag `{flag}` for `fisec {cmd}`"));
        }
        // A trace replay reads no live-campaign switch, not even one
        // before the trace, where it might have been the switch's value.
        for flag in "--progress --from-scratch --recorder --new-encoding".split(' ') {
            let needle = format!("unknown flag `{flag}` for `fisec profile run.jsonl`");
            rejects(&format!("profile {flag} run.jsonl"), &needle);
        }
    }

    #[test]
    fn each_subcommand_lists_exactly_the_flags_it_reads() {
        let apps = "[--app ftpd|sshd|both]";
        let app = "[--app ftpd|sshd]";
        let engine = "[--from-scratch] [--no-block-cache] [--threads N]";
        let observed = "[--recorder] [--propagation] [--profile] [--cache DIR=~/.fisec-cache] \
                        [--no-cache] [--trace-out PATH] [--progress] [--chrome-trace OUT.json]";
        let flip = "[--client N=1] [--addr 0xADDR] [--byte N=0] [--bit N=0] [--new-encoding]";
        let store = "[--cache DIR=~/.fisec-cache] ls|verify|gc";
        let seed = "[--seed S=2001]";
        let bounds = "[--max-size BYTES[k|m|g]] [--max-age SECS[m|h|d]]";
        let expect = [
            (
                "table1",
                format!("{apps} [--new-encoding] [--json] {engine} {observed}"),
            ),
            (
                "table3",
                format!("{apps} [--new-encoding] [--json] {engine} {observed}"),
            ),
            ("table5", format!("{apps} [--json] {engine} {observed}")),
            (
                "figure4",
                format!("{app} [--client N=1] [--json] [--from-trace] {engine} {observed}"),
            ),
            (
                "random",
                format!(
                    "{app} [--json] [--progress] [--no-block-cache] [--threads N=1] \
                     [--resume LEDGER] [--client N=1] [--runs N=3000] \
                     [--seed S=2001] [--new-encoding] [--from-scratch] [--batch N=500] \
                     [--target-ci WIDTH] [--trace-out LEDGER]"
                ),
            ),
            (
                "load",
                format!("{app} [--samples N=200] [--seed S=2001] [--json]"),
            ),
            ("ablation", format!("{engine} [--seed S=2001]")),
            ("data-errors", apps.to_string()),
            ("targets", apps.to_string()),
            ("disasm", format!("{app} [--func NAME]")),
            ("breakins", apps.to_string()),
            ("forensics", format!("{app} [--top K=3] [--stride N=4]")),
            ("explain", format!("{app} {flip}")),
            ("propagate", format!("{app} {flip}")),
            ("stats", "[--json] TRACE.jsonl".to_string()),
            (
                "profile",
                format!(
                    "[--json] [--top K=20] [--baseline OLD.jsonl] [TRACE.jsonl] {app} \
                     [--new-encoding] {engine} [--recorder] [--propagation] [--progress]"
                ),
            ),
            ("report", "[--out PATH] TRACE.jsonl".to_string()),
            (
                "bench-diff",
                "[--factor F=1] BENCH_campaign.json".to_string(),
            ),
            // Without an operation, `--help` lists every operation's flags.
            ("cache", format!("{store} {seed} {bounds}")),
            ("cache ls", store.to_string()),
            ("cache verify", format!("{store} {seed}")),
            ("cache gc", format!("{store} {bounds}")),
        ];
        for (line, flags) in &expect {
            let cmd = line.split(' ').next().unwrap();
            assert_eq!(check(line).unwrap(), format!("usage: fisec {cmd} {flags}"));
        }
        let listed: Vec<_> = expect.iter().filter(|(l, _)| !l.contains(' ')).collect();
        assert_eq!(listed.len(), COMMANDS.len());
        // Down from 34 flags on each of 18 commands: 612 pairs.
        let pairs: usize = listed.iter().map(|(_, f)| f.matches("[--").count()).sum();
        assert_eq!(pairs, 116);
    }
}
