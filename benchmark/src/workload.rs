//! The three workloads: set-up, the timed unit, and the traced pass that
//! drives the same public calls by hand under the layer ledger.

use crate::expected;
use crate::ledger::{micros_ms, ms, remainder_ms, Ledger, StopClass};
use crate::tally::{campaign_lines, tallied_lines, ClientTally, RandomTally};
use fisec_apps::AppSpec;
use fisec_core::cache::{store_file_name, CacheLookup, CachedDigestedRun};
use fisec_core::campaign::{run_campaign_cached, CampaignConfig, CampaignResult};
use fisec_core::random::{draw, run_random_streaming, RandomConfig};
use fisec_core::{CampaignCache, EncodingScheme};
use fisec_inject::{
    enumerate_targets, golden_run_opts, golden_run_with_coverage_opts,
    run_injection_group_recorded, EngineOpts, GoldenRun, InjectionTarget, LatentError,
    LatentRunner,
};
use fisec_os::Stop;
use fisec_telemetry::Telemetry;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Latent-error sessions per `random` unit (ftpd Client1, baseline).
pub const RANDOM_RUNS: usize = 4000;

/// Campaign passes per `warm_cache` unit (one pass is a few tens of ms).
const WARM_PASSES: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The full selective-exhaustive campaign against an empty store.
    Exhaustive,
    /// §7 latent-error sessions drawn from the workload seed.
    Random,
    /// The exhaustive campaign against a store populated in set-up.
    WarmCache,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Exhaustive, Workload::Random, Workload::WarmCache];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Exhaustive => "exhaustive",
            Workload::Random => "random",
            Workload::WarmCache => "warm_cache",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// The two bundled servers, built from their embedded sources.
pub struct Apps {
    apps: [AppSpec; 2],
}

impl Apps {
    pub fn build() -> Apps {
        Apps {
            apps: [AppSpec::ftpd(), AppSpec::sshd()],
        }
    }
}

/// The four campaign columns of a pass, (app, scheme) in paper order.
/// The campaign has no random input, so the seed does not touch it.
const COLUMNS: [(usize, EncodingScheme); 4] = [
    (0, EncodingScheme::Baseline),
    (0, EncodingScheme::NewEncoding),
    (1, EncodingScheme::Baseline),
    (1, EncodingScheme::NewEncoding),
];

/// Compare one campaign's lines with the pinned ones; the differences.
fn check_campaign(lines: &[String], app: &str, scheme: EncodingScheme) -> Vec<String> {
    let prefix = format!("{app}/{} ", scheme.cache_tag());
    let want: Vec<&str> = expected::CAMPAIGN
        .iter()
        .copied()
        .filter(|l| l.starts_with(&prefix))
        .collect();
    if want.len() != lines.len() {
        return vec![format!(
            "{prefix}: {} result lines, {} pinned",
            lines.len(),
            want.len()
        )];
    }
    lines
        .iter()
        .zip(want)
        .filter(|(got, want)| got.as_str() != *want)
        .map(|(got, want)| format!("got  {got}\n  want {want}"))
        .collect()
}

fn check_random(got: RandomTally, want: RandomTally) -> Vec<String> {
    if got == want {
        Vec::new()
    } else {
        vec![format!("random tallies {got:?}, expected {want:?}")]
    }
}

/// A finished unit: how many injection runs it completed, how long that
/// took, and every way its results differ from the expected ones.
pub struct Checked {
    pub runs: usize,
    pub secs: f64,
    pub mismatches: Vec<String>,
}

/// What set-up leaves for the timed units.
pub struct Prepared {
    apps: Apps,
    /// Seconds spent building the app images.
    pub build_secs: f64,
    /// The populated store (`warm_cache`).
    warm_root: Option<PathBuf>,
    /// Set-up results that differ from the expected ones.
    pub mismatches: Vec<String>,
}

/// One workload bound to its seed and its private scratch directory.
pub struct Bench<'a> {
    pub workload: Workload,
    seed: u64,
    scratch: &'a Path,
    /// The seed's `random` tallies from the hand-driven loop.
    random_expected: RandomTally,
}

impl<'a> Bench<'a> {
    /// For `random`, first compute the seed's expected tallies with the
    /// hand-driven loop: checking is the benchmark's work, so it stays
    /// outside the timed set-up.
    pub fn new(workload: Workload, seed: u64, scratch: &'a Path) -> Bench<'a> {
        let random_expected = if workload == Workload::Random {
            traced_random(&Apps::build(), seed, &mut Ledger::default())
        } else {
            RandomTally::default()
        };
        Bench {
            workload,
            seed,
            scratch,
            random_expected,
        }
    }

    /// Set up from nothing: build the app images, then per workload
    /// populate the store and run one checked warm-up unit. `rep` keeps
    /// repeated set-ups in separate directories.
    pub fn set_up(&self, rep: usize) -> Prepared {
        let start = Instant::now();
        let apps = Apps::build();
        let build_secs = start.elapsed().as_secs_f64();
        let mut p = Prepared {
            apps,
            build_secs,
            warm_root: None,
            mismatches: Vec::new(),
        };
        match self.workload {
            Workload::Exhaustive => {
                let root = self.scratch.join(format!("setup-{rep}"));
                p.mismatches = library_pass(&p.apps, &root).mismatches;
                remove_store(&root);
            }
            Workload::WarmCache => {
                let root = self.scratch.join(format!("warm-{rep}"));
                p.mismatches = library_pass(&p.apps, &root).mismatches;
                p.mismatches.extend(library_pass(&p.apps, &root).mismatches);
                p.warm_root = Some(root);
            }
            Workload::Random => p.mismatches = self.random_unit(&p).mismatches,
        }
        p
    }

    /// One timed unit, checked.
    pub fn unit(&self, p: &Prepared, k: usize) -> Checked {
        match self.workload {
            Workload::Random => self.random_unit(p),
            Workload::Exhaustive => {
                let c = library_pass(&p.apps, &self.cold_root(k));
                self.clean_up(k);
                c
            }
            Workload::WarmCache => {
                let mut c = Checked {
                    runs: 0,
                    secs: 0.0,
                    mismatches: Vec::new(),
                };
                for _ in 0..WARM_PASSES {
                    let pass = library_pass(&p.apps, warm_root(p));
                    c.runs += pass.runs;
                    c.secs += pass.secs;
                    c.mismatches.extend(pass.mismatches);
                }
                c
            }
        }
    }

    /// One traced pass charged to `l`; returns its mismatches. The pass's
    /// wall time is the caller's, so cold-store clean-up happens after it
    /// via [`Bench::clean_up`].
    pub fn traced_pass(&self, p: &Prepared, k: usize, l: &mut Ledger) -> Vec<String> {
        match self.workload {
            Workload::Random => {
                check_random(traced_random(&p.apps, self.seed, l), self.random_expected)
            }
            Workload::Exhaustive => traced_campaigns(&p.apps, &self.cold_root(k), l),
            Workload::WarmCache => traced_campaigns(&p.apps, warm_root(p), l),
        }
    }

    /// Remove the cold store unit or traced pass `k` left behind.
    pub fn clean_up(&self, k: usize) {
        if self.workload == Workload::Exhaustive {
            remove_store(&self.cold_root(k));
        }
    }

    fn cold_root(&self, k: usize) -> PathBuf {
        self.scratch.join(format!("cold-{k}"))
    }

    /// `RANDOM_RUNS` sessions through `run_random_streaming`.
    fn random_unit(&self, p: &Prepared) -> Checked {
        let cfg = RandomConfig {
            runs: RANDOM_RUNS,
            seed: self.seed,
            threads: 1,
            ..RandomConfig::default()
        };
        let start = Instant::now();
        let stats = run_random_streaming(&p.apps.apps[0], &cfg, &Telemetry::disabled());
        let secs = start.elapsed().as_secs_f64();
        Checked {
            runs: RANDOM_RUNS,
            secs,
            mismatches: match stats {
                Ok(s) => check_random(s.result.into(), self.random_expected),
                Err(e) => vec![format!("random campaign failed: {e}")],
            },
        }
    }
}

/// The paper's campaign through `run_campaign_cached`, one worker
/// thread, every column against the store at `root`.
fn library_pass(apps: &Apps, root: &Path) -> Checked {
    let (results, secs) = run_columns(apps, root);
    Checked {
        runs: results
            .iter()
            .map(|r| r.runs_per_client * r.clients.len())
            .sum(),
        secs,
        mismatches: results
            .iter()
            .flat_map(|r| check_campaign(&campaign_lines(r), &r.app, r.scheme))
            .collect(),
    }
}

/// Every column driven by hand under the ledger, checked.
fn traced_campaigns(apps: &Apps, root: &Path, l: &mut Ledger) -> Vec<String> {
    let cache = CampaignCache::at(root.to_path_buf());
    COLUMNS
        .into_iter()
        .flat_map(|(a, scheme)| {
            let app = &apps.apps[a];
            match traced_campaign(app, scheme, &cache, l) {
                Ok(lines) => check_campaign(&lines, app.name, scheme),
                Err(e) => vec![e],
            }
        })
        .collect()
}

fn warm_root(p: &Prepared) -> &Path {
    p.warm_root
        .as_deref()
        .expect("warm_cache set-up populates a store")
}

fn remove_store(root: &Path) {
    if root.exists() {
        if let Err(e) = std::fs::remove_dir_all(root) {
            eprintln!("warning: could not remove {}: {e}", root.display());
        }
    }
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Contiguous same-address slices of the address-major target list: the
/// checkpoint groups the engine runs and the store memoizes.
fn checkpoint_groups(targets: &[InjectionTarget]) -> Vec<&[InjectionTarget]> {
    targets.chunk_by(|a, b| a.addr == b.addr).collect()
}

/// One campaign column set driven by hand through the calls
/// `run_campaign_cached` makes (snapshot mode, one thread): enumerate,
/// then per client golden run, store open, coverage run, and per
/// checkpoint group pre-filter → lookup → group run → record, then save.
fn traced_campaign(
    app: &AppSpec,
    scheme: EncodingScheme,
    cache: &CampaignCache,
    l: &mut Ledger,
) -> Result<Vec<String>, String> {
    let set = l.time("inject.targets_ms", || {
        enumerate_targets(&app.image, &app.auth_funcs, false)
    });
    let groups = checkpoint_groups(&set.targets);
    let plain = EngineOpts::default();
    let engine = EngineOpts {
        profiler: true,
        ..EngineOpts::default()
    }
    .with_footprint();
    let mut clients = Vec::with_capacity(app.clients.len());
    for spec in &app.clients {
        let golden = l
            .time("inject.golden_ms", || {
                golden_run_opts(&app.image, spec, plain)
            })
            .expect("bundled image loads");
        l.add_n("inject.n_golden", 1);
        let path = cache.root().join(store_file_name(
            app.name,
            &spec.name,
            scheme.cache_tag(),
            false,
        ));
        l.add_n("cache.bytes_read", file_len(&path));
        let store = l.time("cache.open_ms", || {
            cache.open_client(app, spec, scheme, false, &golden)
        });
        let coverage = if matches!(golden.stop, Stop::Exited(_) | Stop::Deadlock) {
            let (_, cov) = l
                .time("inject.golden_ms", || {
                    golden_run_with_coverage_opts(&app.image, spec, plain)
                })
                .expect("bundled image loads");
            l.add_n("inject.n_golden", 1);
            Some(cov)
        } else {
            None
        };
        let mut tally = ClientTally::default();
        for &group in &groups {
            if coverage
                .as_ref()
                .is_some_and(|cov| !cov.contains(&group[0].addr))
            {
                l.add_n("campaign.n_na_prefilter", group.len() as u64);
                group.iter().for_each(|_| tally.add_not_activated());
                continue;
            }
            match l.time("cache.lookup_ms", || store.lookup(&app.image, group)) {
                CacheLookup::Hit(runs) => {
                    l.add_n("cache.n_hit_groups", 1);
                    for (t, (run, _)) in group.iter().zip(&runs) {
                        tally.add(t, run);
                    }
                    continue;
                }
                CacheLookup::Stale => l.add_n("cache.n_stale_groups", 1),
                CacheLookup::Miss => l.add_n("cache.n_miss_groups", 1),
            }
            let (runs, foot) = traced_group(app, spec, &golden, group, scheme, engine, l);
            for (t, run) in group.iter().zip(&runs) {
                tally.add(t, &run.0);
            }
            l.time("cache.record_ms", || {
                store.record(&app.image, group, &runs, foot)
            });
        }
        if store.fresh_count() > 0 || store.context_invalidated {
            l.time("cache.save_ms", || store.save())
                .map_err(|e| format!("cache save for {}/{}: {e}", app.name, spec.name))?;
            l.add_n("cache.bytes_written", file_len(&path));
        }
        clients.push((spec.name.clone(), tally));
    }
    Ok(tallied_lines(app.name, scheme, set.targets.len(), &clients))
}

/// One checkpoint group through `run_injection_group_recorded`, split by
/// the timings it returns: boot, snapshot, per-run replay (by stop class)
/// and classify; the rest of the call is charged to `os.restore_ms`.
fn traced_group(
    app: &AppSpec,
    spec: &fisec_apps::ClientSpec,
    golden: &GoldenRun,
    group: &[InjectionTarget],
    scheme: EncodingScheme,
    engine: EngineOpts,
    l: &mut Ledger,
) -> (Vec<CachedDigestedRun>, Vec<(u32, u32)>) {
    let start = Instant::now();
    let (runs, gmeta, profile, footprint) =
        run_injection_group_recorded(&app.image, spec, golden, group, scheme, engine)
            .expect("bundled image loads");
    let call = ms(start.elapsed());
    l.add_n("campaign.n_executed", group.len() as u64);
    l.add_n("os.n_boots", 1);
    l.add_n("os.n_restores", gmeta.restores);
    let boot = micros_ms(gmeta.boot_micros);
    let snapshot = micros_ms(gmeta.snapshot_micros);
    l.add_ms("os.boot_ms", boot);
    l.add_ms("os.snapshot_ms", snapshot);
    let (mut replay, mut classify) = (0.0, 0.0);
    for (run, meta, _, _) in &runs {
        if gmeta.activated {
            l.add_replay(StopClass::of(&run.stop), meta.run_micros, meta.icount);
            replay += micros_ms(meta.run_micros);
        }
        classify += micros_ms(meta.classify_micros);
    }
    l.add_ms("inject.classify_ms", classify);
    l.add_ms(
        "os.restore_ms",
        remainder_ms(call, &[boot, snapshot, replay, classify]),
    );
    if let Some(p) = &profile {
        l.add_profile(p);
    }
    let foot = footprint.map(|f| f.ranges()).unwrap_or_default();
    let runs = runs.into_iter().map(|(run, _, _, _)| (run, None)).collect();
    (runs, foot)
}

/// `RANDOM_RUNS` latent-error sessions driven by hand through the calls
/// `run_random_streaming` makes: golden run, `LatentRunner::snapshot`,
/// then per run `draw` + corrupt byte and `LatentRunner::run`.
pub fn traced_random(apps: &Apps, seed: u64, l: &mut Ledger) -> RandomTally {
    let app = &apps.apps[0];
    let client = &app.clients[0];
    let plain = EngineOpts::default();
    let golden = l
        .time("inject.golden_ms", || {
            golden_run_opts(&app.image, client, plain)
        })
        .expect("bundled image loads");
    l.add_n("inject.n_golden", 1);
    let mut runner = l
        .time("random.session_ms", || {
            LatentRunner::snapshot(&app.image, client, &golden, plain)
        })
        .expect("bundled image loads");
    let text = &app.image.text;
    let mut tally = RandomTally::default();
    for idx in 0..RANDOM_RUNS as u64 {
        let err = l.time("random.draw_ms", || {
            let (offset, bit) = draw(seed, idx, text.len());
            LatentError {
                offset,
                corrupted: text[offset] ^ (1 << bit),
            }
        });
        let start = Instant::now();
        let (run, meta) = runner
            .run(&golden, err)
            .expect("drawn offsets lie inside the text segment");
        let call = ms(start.elapsed());
        let replay = micros_ms(meta.run_micros);
        let classify = micros_ms(meta.classify_micros);
        l.add_replay(StopClass::of(&run.stop), meta.run_micros, meta.icount);
        l.add_ms("inject.classify_ms", classify);
        l.add_ms("os.restore_ms", remainder_ms(call, &[replay, classify]));
        l.add_n("os.n_restores", 1);
        tally.add(run.outcome);
    }
    l.add_n("random.n_violations", tally.brk as u64);
    tally
}

/// The pinned lines, recomputed: one library pass over every column
/// (for `--print-expected`, after a change that moves the results).
pub fn current_campaign_lines(scratch: &Path) -> Vec<String> {
    let root = scratch.join("expected");
    let (results, _) = run_columns(&Apps::build(), &root);
    remove_store(&root);
    results.iter().flat_map(campaign_lines).collect()
}

/// Every column through `run_campaign_cached`, one worker thread,
/// against the store at `root`; the results and the seconds they took.
fn run_columns(apps: &Apps, root: &Path) -> (Vec<CampaignResult>, f64) {
    let cache = CampaignCache::at(root.to_path_buf());
    let start = Instant::now();
    let results = COLUMNS
        .into_iter()
        .map(|(a, scheme)| {
            let cfg = CampaignConfig {
                scheme,
                threads: 1,
                ..CampaignConfig::default()
            };
            run_campaign_cached(&apps.apps[a], &cfg, &Telemetry::disabled(), Some(&cache))
        })
        .collect();
    (results, start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fisec-bench-{}-{name}", std::process::id()));
        remove_store(&dir);
        dir
    }

    fn library_lines(app: &AppSpec, scheme: EncodingScheme, cache: &CampaignCache) -> Vec<String> {
        let cfg = CampaignConfig {
            scheme,
            threads: 1,
            ..CampaignConfig::default()
        };
        campaign_lines(&run_campaign_cached(
            app,
            &cfg,
            &Telemetry::disabled(),
            Some(cache),
        ))
    }

    #[test]
    fn pins_cover_every_column() {
        for (a, scheme) in COLUMNS {
            let app = ["ftpd", "sshd"][a];
            let clients = [4, 2][a];
            let prefix = format!("{app}/{} ", scheme.cache_tag());
            let n = expected::CAMPAIGN
                .iter()
                .filter(|l| l.starts_with(&prefix))
                .count();
            assert_eq!(n, clients + 1, "{prefix}");
        }
    }

    /// Smoke pass of `exhaustive` and `warm_cache` on one column: the
    /// library and the traced loop both pass the gate, cold and warm, and
    /// the traced loop's counts repeat exactly.
    #[test]
    fn campaign_smoke_passes_the_gate_cold_and_warm() {
        let apps = Apps::build();
        let (app, scheme) = (&apps.apps[0], EncodingScheme::Baseline);
        let root = scratch("campaign");
        let cache = CampaignCache::at(root.clone());
        assert!(check_campaign(&library_lines(app, scheme, &cache), app.name, scheme).is_empty());
        remove_store(&root);

        let mut cold = Ledger::default();
        let lines = traced_campaign(app, scheme, &cache, &mut cold).expect("traced pass");
        assert!(
            check_campaign(&lines, app.name, scheme).is_empty(),
            "{lines:?}"
        );
        let counts = cold.counts();
        assert_eq!(
            counts["campaign.n_executed"] + counts["campaign.n_na_prefilter"],
            4 * 1072
        );
        assert_eq!(counts["cache.n_miss_groups"], counts["os.n_boots"]);
        assert!(!counts.contains_key("cache.n_hit_groups"));

        let mut warm = Ledger::default();
        let lines = traced_campaign(app, scheme, &cache, &mut warm).expect("traced pass");
        assert!(
            check_campaign(&lines, app.name, scheme).is_empty(),
            "{lines:?}"
        );
        assert_eq!(
            warm.counts()["cache.n_hit_groups"],
            counts["cache.n_miss_groups"]
        );
        assert!(!warm.counts().contains_key("os.n_boots"));
        assert!(check_campaign(&library_lines(app, scheme, &cache), app.name, scheme).is_empty());

        remove_store(&root);
        let mut again = Ledger::default();
        traced_campaign(app, scheme, &cache, &mut again).expect("traced pass");
        assert_eq!(again.counts(), cold.counts(), "exact counts repeat");
        remove_store(&root);
    }

    /// Smoke pass of `random`: the hand-driven loop and the library agree,
    /// and seed 2001 keeps its pinned tallies.
    #[test]
    fn random_smoke_passes_the_gate() {
        let apps = Apps::build();
        let mut l = Ledger::default();
        let hand = traced_random(&apps, 2001, &mut l);
        assert_eq!(
            hand,
            RandomTally {
                runs: 4000,
                no_effect: 2543,
                sd: 1213,
                fsv: 227,
                brk: 17
            }
        );
        assert_eq!(l.counts()["os.n_restores"], 4000);
        assert_eq!(l.counts()["random.n_violations"], 17);
        let bench = Bench {
            workload: Workload::Random,
            seed: 2001,
            scratch: Path::new("unused"),
            random_expected: hand,
        };
        let p = Prepared {
            apps,
            build_secs: 0.0,
            warm_root: None,
            mismatches: Vec::new(),
        };
        assert!(bench.random_unit(&p).mismatches.is_empty());
    }
}
