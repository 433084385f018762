//! Incremental-cache differential tests: a campaign folded out of the
//! persistent store must be indistinguishable — byte for byte — from
//! one computed live, in both execution modes, while the telemetry
//! counters prove the warm run actually skipped the work.
//!
//! The contract under test (ISSUE 9):
//!   * cold (populating), warm (folding) and cache-off campaigns render
//!     identical Table 1 text and Figure 4 latency vectors;
//!   * an unchanged-tree warm run is 100% cache hits — zero snapshot
//!     restores, one fresh boot per client (golden's session);
//!   * editing a client script (fingerprint) cold-misses that client's
//!     store without touching the others;
//!   * poking a code byte re-runs the affected groups and the store
//!     self-heals: the next run is all hits again;
//!   * both encoding schemes share one store per client: a group takes
//!     every row the other scheme recorded for the byte it plants (a
//!     hit when it holds them all), and the campaign stays identical to
//!     the uncached one in both modes, at one and two threads, with the
//!     recorder on and off;
//!   * the other scheme's rows are never served from a store keyed
//!     under another context or torn, nor from an entry whose
//!     footprint went stale; a poke inside a footprint stales every
//!     scheme's rows at that address, and the next runs re-record them.

use fisec_apps::AppSpec;
use fisec_core::{
    cache, figure4, run_campaign_cached, tables::render_table1, CampaignCache, CampaignConfig,
    CampaignResult, EncodingScheme, EngineOpts, ExecutionMode,
};
use fisec_telemetry::{metric, MemorySink, MetricsShard, Telemetry, TraceEvent};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

fn temp_cache(tag: &str) -> (CampaignCache, PathBuf) {
    let dir = std::env::temp_dir().join(format!("fisec-incremental-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    (CampaignCache::at(dir.clone()), dir)
}

/// Run one campaign and return its result plus the final metrics.
fn run(
    app: &AppSpec,
    cfg: &CampaignConfig,
    cache: Option<&CampaignCache>,
) -> (CampaignResult, MetricsShard) {
    let tel = Telemetry::collecting();
    let result = run_campaign_cached(app, cfg, &tel, cache);
    let snap = tel.metrics.snapshot();
    (result, snap)
}

/// Every observable artefact must match: the rendered Table 1, the
/// Figure 4 inputs and rendering, and the full per-run record vectors.
fn assert_identical(a: &CampaignResult, b: &CampaignResult, what: &str) {
    assert_eq!(
        render_table1(&[a]),
        render_table1(&[b]),
        "{what}: Table 1 drifted"
    );
    assert_eq!(a.runs_per_client, b.runs_per_client, "{what}");
    assert_eq!(a.clients.len(), b.clients.len(), "{what}");
    for (x, y) in a.clients.iter().zip(&b.clients) {
        assert_eq!(x.client, y.client, "{what}");
        assert_eq!(x.counts, y.counts, "{what}: {} tallies drifted", x.client);
        assert_eq!(
            x.brkfsv_by_location, y.brkfsv_by_location,
            "{what}: {} location breakdown drifted",
            x.client
        );
        assert_eq!(
            x.crash_latencies, y.crash_latencies,
            "{what}: {} Figure-4 latencies drifted",
            x.client
        );
        assert_eq!(
            figure4::render(&figure4::histogram(&x.crash_latencies)),
            figure4::render(&figure4::histogram(&y.crash_latencies)),
            "{what}: {} Figure 4 drifted",
            x.client
        );
        assert_eq!(
            x.trace_crash_latencies, y.trace_crash_latencies,
            "{what}: {} trace-derived latencies drifted",
            x.client
        );
        assert_eq!(x.transient_deviations, y.transient_deviations, "{what}");
        assert_eq!(
            x.records, y.records,
            "{what}: {} per-run records drifted",
            x.client
        );
    }
}

#[test]
fn warm_run_is_all_hits_zero_replays_and_byte_identical_in_both_modes() {
    let app = AppSpec::ftpd();
    for mode in [ExecutionMode::Snapshot, ExecutionMode::FromScratch] {
        let cfg = CampaignConfig {
            mode,
            ..CampaignConfig::default()
        };
        let (cache, dir) = temp_cache(&format!("warm-{}", mode.name()));

        let (off, _) = run(&app, &cfg, None);
        let (cold, cold_m) = run(&app, &cfg, Some(&cache));
        let (warm, warm_m) = run(&app, &cfg, Some(&cache));

        assert_identical(&cold, &off, "cold vs cache-off");
        assert_identical(&warm, &off, "warm vs cache-off");

        // Cold: every consulted group missed and was stored.
        let groups = cold_m.counter(metric::CACHE_MISS_GROUPS);
        assert!(groups > 0, "{mode:?}: cold run consulted no groups");
        assert_eq!(cold_m.counter(metric::CACHE_HIT_GROUPS), 0);
        assert_eq!(cold_m.counter(metric::CACHE_STORES), groups);

        // Warm: 100% hits, no stores, and the engine never replayed —
        // zero snapshot restores. Either mode boots once per client:
        // golden's session, which in snapshot mode is also the
        // first-fetch pass (it proves which groups are NA, so it runs
        // before the store is consulted).
        assert_eq!(warm_m.counter(metric::CACHE_HIT_GROUPS), groups, "{mode:?}");
        assert_eq!(warm_m.counter(metric::CACHE_MISS_GROUPS), 0, "{mode:?}");
        assert_eq!(warm_m.counter(metric::CACHE_STALE_GROUPS), 0, "{mode:?}");
        assert_eq!(warm_m.counter(metric::CACHE_STORES), 0, "{mode:?}");
        assert_eq!(warm_m.counter(metric::RESTORES), 0, "{mode:?}");
        assert_eq!(
            warm_m.counter(metric::FRESH_BOOTS),
            app.clients.len() as u64,
            "{mode:?}: warm run must boot golden and nothing else"
        );
        assert!(warm_m.counter(metric::CACHE_SYNTH_RUNS) > 0, "{mode:?}");

        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn snapshot_store_warms_a_from_scratch_run_and_vice_versa() {
    // The two engines observe different footprint granularities (block
    // vs instruction), but entries validate over their own recorded
    // ranges — a store populated by one mode must fold cleanly into
    // the other and produce identical bytes.
    let app = AppSpec::ftpd();
    let (cache, dir) = temp_cache("crossmode");
    let snap_cfg = CampaignConfig::default();
    let scratch_cfg = CampaignConfig {
        mode: ExecutionMode::FromScratch,
        ..CampaignConfig::default()
    };

    let (cold, cold_m) = run(&app, &snap_cfg, Some(&cache));
    let groups = cold_m.counter(metric::CACHE_MISS_GROUPS);
    // Every group the snapshot campaign stored folds into the
    // from-scratch run. From-scratch consults *more* groups — the ones
    // the snapshot engine's first-fetch pass proved dead and never
    // stored — and those miss, run live, and heal into the store.
    let (warm_scratch, m) = run(&app, &scratch_cfg, Some(&cache));
    assert_eq!(m.counter(metric::CACHE_HIT_GROUPS), groups);
    assert!(
        m.counter(metric::CACHE_MISS_GROUPS) > 0,
        "prefiltered groups are absent"
    );
    assert_identical(
        &warm_scratch,
        &cold,
        "from-scratch warmed by snapshot store",
    );

    // Healed: a second from-scratch run folds everything.
    let (_, m) = run(&app, &scratch_cfg, Some(&cache));
    assert_eq!(m.counter(metric::CACHE_MISS_GROUPS), 0);

    let (warm_snap, m) = run(&app, &snap_cfg, Some(&cache));
    assert_eq!(m.counter(metric::CACHE_HIT_GROUPS), groups);
    assert_identical(&warm_snap, &cold, "snapshot warmed again");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn client_script_change_cold_misses_that_client_only() {
    let app = AppSpec::ftpd();
    let cfg = CampaignConfig::default();
    let (cache, dir) = temp_cache("fingerprint");

    let (cold, cold_m) = run(&app, &cfg, Some(&cache));
    let groups = cold_m.counter(metric::CACHE_MISS_GROUPS);

    // Doctor one client's script fingerprint: the campaign executes
    // identically (the fingerprint is pure identity), but that client's
    // store context no longer matches.
    let mut edited = AppSpec::ftpd();
    edited.clients[0].fingerprint = "edited-script-v2".to_string();
    let (warm, m) = run(&edited, &cfg, Some(&cache));

    let hits = m.counter(metric::CACHE_HIT_GROUPS);
    let misses = m.counter(metric::CACHE_MISS_GROUPS);
    assert!(hits > 0, "other clients must keep their entries");
    assert!(misses > 0, "the edited client must cold-miss");
    assert_eq!(hits + misses, groups, "every group is a hit or a miss");
    // The dropped entries are reported as stale context.
    assert_eq!(m.counter(metric::CACHE_STALE_GROUPS), misses);
    // Execution is unchanged, so the results still match.
    assert_identical(&warm, &cold, "fingerprint edit");

    // The store healed: rerunning the edited app is all hits again.
    let (_, m) = run(&edited, &cfg, Some(&cache));
    assert_eq!(m.counter(metric::CACHE_HIT_GROUPS), groups);
    assert_eq!(m.counter(metric::CACHE_MISS_GROUPS), 0);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn code_byte_poke_reruns_affected_groups_and_the_store_self_heals() {
    let app = AppSpec::ftpd();
    let cfg = CampaignConfig::default();
    let (cache, dir) = temp_cache("poke");

    let (_, _) = run(&app, &cfg, Some(&cache));

    // Flip the condition of one injected branch (0x7x ^ 1 keeps the
    // instruction length, so the target set shape survives). This is a
    // real semantic edit: the campaign outcome may change, and the
    // cache must notice.
    let mut poked = AppSpec::ftpd();
    let targets = fisec_inject::enumerate_targets(&poked.image, &poked.auth_funcs, false).targets;
    let t = targets
        .iter()
        .find(|t| t.is_cond_branch && (0x70..0x80).contains(&t.first_byte))
        .expect("ftpd auth code has a short conditional branch");
    let off = (t.addr - poked.image.text_base) as usize;
    poked.image.text[off] ^= 0x01;

    let (warm, m) = run(&poked, &cfg, Some(&cache));
    let (off_result, _) = run(&poked, &cfg, None);
    assert_identical(&warm, &off_result, "poked warm vs poked cache-off");
    assert!(
        m.counter(metric::CACHE_MISS_GROUPS) + m.counter(metric::CACHE_STALE_GROUPS) > 0,
        "a code edit must re-run something"
    );

    // Self-heal: the next run of the poked tree is warm again and
    // still byte-identical. The poke may have changed the golden run
    // itself (the flipped branch is live auth code), shifting both the
    // store context and the prefilter's consult set — so the property
    // is "no misses left", not a hit count carried over from the
    // unpoked tree.
    let (warm2, m) = run(&poked, &cfg, Some(&cache));
    assert!(m.counter(metric::CACHE_HIT_GROUPS) > 0);
    assert_eq!(m.counter(metric::CACHE_MISS_GROUPS), 0);
    assert_eq!(m.counter(metric::CACHE_STALE_GROUPS), 0);
    assert_eq!(m.counter(metric::RESTORES), 0);
    assert_identical(&warm2, &off_result, "poked re-warm");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Per run, keyed by (client, address, byte, bit): the outcome, the
/// crash latency and the recorder's divergence digest (depth, trace
/// latency), as the trace's run events carry them.
type RunDigests = BTreeMap<(usize, u32, u8, u8), (String, Option<u64>, Option<u64>, Option<u64>)>;

/// [`run`] with a trace sink: the result, the metrics and every run's
/// digest.
fn run_traced(
    app: &AppSpec,
    cfg: &CampaignConfig,
    cache: Option<&CampaignCache>,
) -> (CampaignResult, MetricsShard, RunDigests) {
    let sink = Arc::new(MemorySink::new());
    let tel = Telemetry::new(sink.clone(), false);
    let result = run_campaign_cached(app, cfg, &tel, cache);
    let digests = sink
        .events()
        .into_iter()
        .filter_map(|e| match e {
            TraceEvent::Run(r) => Some((
                (r.client, r.addr, r.byte_index, r.bit),
                (
                    r.outcome,
                    r.crash_latency,
                    r.divergence_depth,
                    r.trace_latency,
                ),
            )),
            _ => None,
        })
        .collect();
    (result, tel.metrics.snapshot(), digests)
}

fn with_scheme(cfg: &CampaignConfig, scheme: EncodingScheme) -> CampaignConfig {
    CampaignConfig { scheme, ..*cfg }
}

#[test]
fn a_new_encoding_campaign_shares_the_baseline_runs_and_matches_the_uncached_one() {
    let app = AppSpec::ftpd();
    for mode in [ExecutionMode::Snapshot, ExecutionMode::FromScratch] {
        for recorder in [false, true] {
            let newenc = CampaignConfig {
                mode,
                scheme: EncodingScheme::NewEncoding,
                // The oracle boots once per run: branches only keeps it
                // quick, and snapshot mode covers the whole target set.
                cond_branches_only: mode == ExecutionMode::FromScratch,
                engine: EngineOpts {
                    flight_recorder: recorder,
                    ..EngineOpts::default()
                },
                ..CampaignConfig::default()
            };
            let (off, off_m, off_runs) = run_traced(&app, &newenc, None);
            for threads in [1, 2] {
                let what = format!("{} recorder={recorder} threads={threads}", mode.name());
                let newenc = CampaignConfig { threads, ..newenc };
                let (cache, dir) =
                    temp_cache(&format!("share-{}-{recorder}-{threads}", mode.name()));
                run(
                    &app,
                    &with_scheme(&newenc, EncodingScheme::Baseline),
                    Some(&cache),
                );
                let (shared, m, shared_runs) = run_traced(&app, &newenc, Some(&cache));
                assert_identical(&shared, &off, &what);
                assert_eq!(shared_runs, off_runs, "{what}: run digests drifted");
                // The baseline rows answered most runs: those of groups
                // they hold in full (hits) and those of the rest.
                let n_shared = m.counter(metric::CACHE_SHARED_RUNS);
                let served = n_shared + m.counter(metric::CACHE_SYNTH_RUNS);
                assert!(n_shared > 0, "{what}: nothing was shared");
                assert_eq!(
                    m.counter(metric::RUNS),
                    off_m.counter(metric::RUNS),
                    "{what}"
                );
                match mode {
                    ExecutionMode::Snapshot => assert_eq!(
                        m.counter(metric::RESTORES) + served,
                        off_m.counter(metric::RESTORES),
                        "{what}: a served row is an activated replay not redone"
                    ),
                    ExecutionMode::FromScratch => assert_eq!(
                        m.counter(metric::FRESH_BOOTS) + served,
                        off_m.counter(metric::FRESH_BOOTS),
                        "{what}: a served row is a boot not redone"
                    ),
                }
                // The new encoding's store now serves itself in full.
                let (warm, m) = run(&app, &newenc, Some(&cache));
                assert_identical(&warm, &off, &format!("{what} warm"));
                assert_eq!(m.counter(metric::CACHE_MISS_GROUPS), 0, "{what}");
                assert_eq!(m.counter(metric::CACHE_SHARED_RUNS), 0, "{what}");
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}

#[test]
fn a_baseline_campaign_after_a_new_encoding_one_shares_too() {
    let app = AppSpec::ftpd();
    let base = CampaignConfig::default();
    let (cache, dir) = temp_cache("share-reverse");
    let (off, off_m) = run(&app, &base, None);
    run(
        &app,
        &with_scheme(&base, EncodingScheme::NewEncoding),
        Some(&cache),
    );
    let (shared, m) = run(&app, &base, Some(&cache));
    assert_identical(&shared, &off, "baseline after the new encoding");
    let n_shared = m.counter(metric::CACHE_SHARED_RUNS);
    assert!(n_shared > 0, "nothing was shared");
    assert_eq!(
        m.counter(metric::RESTORES) + n_shared + m.counter(metric::CACHE_SYNTH_RUNS),
        off_m.counter(metric::RESTORES)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// ftpd's Table 5 split: of the 1,584 activated new-encoding replays of
/// a cold `table5`, 1,222 plant a byte a baseline run planted and are
/// served from its rows. 80 of them fill the 2 groups whose every row
/// the baseline recorded (hits), 1,142 are served inside the other 68
/// groups, and 362 execute. Afterwards the one store serves both
/// schemes in full.
#[test]
fn ftpd_new_encoding_shares_1222_runs_and_executes_362() {
    let app = AppSpec::ftpd();
    let base = CampaignConfig {
        threads: 1,
        ..CampaignConfig::default()
    };
    let newenc = with_scheme(&base, EncodingScheme::NewEncoding);
    let (cache, dir) = temp_cache("share-pin");
    let (_, m) = run(&app, &base, Some(&cache));
    assert_eq!(m.counter(metric::RESTORES), 1584);
    assert_eq!(m.counter(metric::CACHE_SHARED_RUNS), 0);
    assert_eq!(m.counter(metric::CACHE_MISS_GROUPS), 70);
    let (_, m) = run(&app, &newenc, Some(&cache));
    assert_eq!(m.counter(metric::CACHE_HIT_GROUPS), 2);
    assert_eq!(m.counter(metric::CACHE_MISS_GROUPS), 68);
    assert_eq!(m.counter(metric::CACHE_SYNTH_RUNS), 80);
    assert_eq!(m.counter(metric::CACHE_SHARED_RUNS), 1142);
    assert_eq!(
        m.counter(metric::CACHE_SYNTH_RUNS) + m.counter(metric::CACHE_SHARED_RUNS),
        1222
    );
    assert_eq!(m.counter(metric::RESTORES), 362);
    // Both schemes now warm from the one store.
    for cfg in [&newenc, &base] {
        let (_, m) = run(&app, cfg, Some(&cache));
        assert_eq!(m.counter(metric::CACHE_HIT_GROUPS), 70, "{}", cfg.scheme);
        assert_eq!(m.counter(metric::CACHE_MISS_GROUPS), 0, "{}", cfg.scheme);
        assert_eq!(m.counter(metric::CACHE_SHARED_RUNS), 0, "{}", cfg.scheme);
        assert_eq!(m.counter(metric::RESTORES), 0, "{}", cfg.scheme);
    }
    assert_eq!(cache::store_paths(&dir).len(), app.clients.len());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Rows are keyed by the byte a flip plants, not by the scheme that
/// ran it: a scheme change is served exactly the rows that plant the
/// byte it plants, never one only the other scheme's flips plant, and
/// executes everything else.
#[test]
fn scheme_change_never_reuses_the_other_schemes_entries() {
    let app = AppSpec::ftpd();
    let (cache, dir) = temp_cache("scheme");
    let base = CampaignConfig::default();
    let newenc = with_scheme(&base, EncodingScheme::NewEncoding);

    let (_, m) = run(&app, &base, Some(&cache));
    let base_groups = m.counter(metric::CACHE_MISS_GROUPS);
    assert!(base_groups > 0);

    // Every stored row carries a baseline key; count the new-encoding
    // targets whose own key one of them carries.
    let targets = fisec_inject::enumerate_targets(&app.image, &app.auth_funcs, false).targets;
    let key = |t, scheme| cache::row_key(&app.image, t, scheme).expect("text byte");
    let (mut answered, mut other_only) = (0, 0);
    for path in cache::store_paths(&dir) {
        let file = cache::read_store(&path).expect("a valid store");
        for entry in &file.groups {
            let group: Vec<_> = targets.iter().filter(|t| t.addr == entry.addr).collect();
            let new_keys: Vec<_> = group
                .iter()
                .map(|t| key(t, EncodingScheme::NewEncoding))
                .collect();
            for row in &entry.rows {
                assert!(
                    group
                        .iter()
                        .any(|t| key(t, EncodingScheme::Baseline) == row.key()),
                    "{:#x} {:?}",
                    entry.addr,
                    row.key()
                );
                other_only += usize::from(!new_keys.contains(&row.key()));
            }
            answered += new_keys
                .iter()
                .filter(|k| entry.rows.iter().any(|r| r.key() == **k))
                .count();
        }
    }
    assert!(
        other_only > 0,
        "every baseline row plants a new-encoding byte"
    );

    // The other scheme shares the one store: it is served exactly the
    // rows it plants and executes the rest.
    let (_, m) = run(&app, &newenc, Some(&cache));
    assert_eq!(
        m.counter(metric::CACHE_SHARED_RUNS) + m.counter(metric::CACHE_SYNTH_RUNS),
        answered as u64
    );
    assert!(m.counter(metric::CACHE_MISS_GROUPS) > 0);
    assert!(m.counter(metric::CACHE_SHARED_RUNS) > 0);

    // Both schemes now warm from it.
    let (_, m) = run(&app, &newenc, Some(&cache));
    assert_eq!(m.counter(metric::CACHE_MISS_GROUPS), 0);
    let (_, m) = run(&app, &base, Some(&cache));
    assert_eq!(m.counter(metric::CACHE_HIT_GROUPS), base_groups);
    assert_eq!(m.counter(metric::CACHE_MISS_GROUPS), 0);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_sibling_under_another_context_or_torn_is_never_shared() {
    let mut app = AppSpec::ftpd();
    app.clients.truncate(2);
    let base = CampaignConfig::default();
    let newenc = with_scheme(&base, EncodingScheme::NewEncoding);
    let (off, _) = run(&app, &newenc, None);
    for doctor in ["re-keyed", "torn"] {
        let (cache, dir) = temp_cache(&format!("share-{doctor}"));
        run(&app, &base, Some(&cache));
        for path in cache::store_paths(&dir) {
            match doctor {
                "re-keyed" => {
                    let mut file = cache::read_store(&path).expect("a valid store");
                    file.context = "another-context".to_string();
                    cache::write_store(&path, &file).unwrap();
                }
                _ => {
                    let bytes = std::fs::read(&path).unwrap();
                    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
                }
            }
        }
        let (shared, m) = run(&app, &newenc, Some(&cache));
        assert_eq!(m.counter(metric::CACHE_SHARED_RUNS), 0, "{doctor}");
        assert_eq!(m.counter(metric::CACHE_HIT_GROUPS), 0, "{doctor}");
        assert_identical(&shared, &off, doctor);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Per stored entry of `file`: its group's targets and the first text
/// byte its runs fetched outside the injected instruction for which
/// `pick` holds, when there is one.
fn footprint_bytes<'a>(
    app: &AppSpec,
    file: &'a cache::StoreFile,
    pick: impl Fn(u32) -> bool,
) -> Vec<(
    &'a cache::GroupEntry,
    Vec<fisec_inject::InjectionTarget>,
    u32,
)> {
    let targets = fisec_inject::enumerate_targets(&app.image, &app.auth_funcs, false).targets;
    let text = app.image.text_base..app.image.text_base + app.image.text.len() as u32;
    file.groups
        .iter()
        .filter_map(|entry| {
            let group: Vec<_> = targets
                .iter()
                .filter(|t| t.addr == entry.addr)
                .copied()
                .collect();
            let end = entry.addr + u32::from(group[0].inst_len);
            let byte = entry
                .foot
                .iter()
                .flat_map(|r| r.start..r.start + r.len)
                .find(|&b| text.contains(&b) && !(entry.addr..end).contains(&b) && pick(b))?;
            Some((entry, group, byte))
        })
        .collect()
}

#[test]
fn a_sibling_entry_with_a_stale_footprint_is_never_shared() {
    let mut app = AppSpec::ftpd();
    app.clients.truncate(1);
    let spec = &app.clients[0];
    let (cache, dir) = temp_cache("share-stale");
    run(&app, &CampaignConfig::default(), Some(&cache));
    let golden = fisec_inject::golden_run(&app.image, spec).unwrap();
    let store = cache.open_client(&app, spec, EncodingScheme::NewEncoding, false, &golden);
    let file = cache::read_store(&cache::store_paths(&dir)[0]).expect("a valid store");
    let mut checked = 0;
    for (entry, group, byte) in footprint_bytes(&app, &file, |_| true) {
        // A text byte the entry's runs fetched, outside the injected
        // instruction: poking it leaves the injected region alone.
        let served = store.rows(&app.image, &group).expect("the entry holds");
        assert!(served.iter().any(Option::is_some), "{:#x}", entry.addr);
        let mut poked = app.image.clone();
        poked.text[(byte - app.image.text_base) as usize] ^= 0x01;
        assert!(store.rows(&poked, &group).is_none(), "{:#x}", entry.addr);
        checked += 1;
    }
    assert!(
        checked > 0,
        "no entry had a footprint outside its instruction"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_poke_inside_a_footprint_stales_every_schemes_rows_and_the_next_runs_re_record_them() {
    let mut app = AppSpec::ftpd();
    app.clients.truncate(1);
    let spec = &app.clients[0];
    let base = CampaignConfig::default();
    let newenc = with_scheme(&base, EncodingScheme::NewEncoding);
    let (cache, dir) = temp_cache("poke-rows");
    run(&app, &base, Some(&cache));
    run(&app, &newenc, Some(&cache));
    let file = cache::read_store(&cache::store_paths(&dir)[0]).expect("a valid store");
    // A footprint byte golden never fetches (only a replay did): poking
    // it keeps the store's context (golden's behavior) and stales only
    // the entries over it.
    let (golden, pass) =
        fisec_inject::FirstFetchPass::golden(&app.image, spec, EngineOpts::default()).unwrap();
    let unfetched = |b: u32| pass.rung((b - app.image.text_base) as usize).is_none();
    let (entry, group, byte) = footprint_bytes(&app, &file, unfetched)
        .into_iter()
        .next()
        .expect("a footprint byte golden never fetches");
    let mut poked = AppSpec::ftpd();
    poked.clients.truncate(1);
    poked.image.text[(byte - app.image.text_base) as usize] ^= 0x01;
    let poked_golden = fisec_inject::golden_run(&poked.image, spec).unwrap();
    assert_eq!(
        cache::context_key(&poked, spec, false, &poked_golden),
        cache::context_key(&app, spec, false, &golden),
        "golden never fetches {byte:#x}"
    );
    let addr = entry.addr;
    for scheme in EncodingScheme::ALL {
        let store = cache.open_client(&poked, spec, scheme, false, &golden);
        assert!(!store.context_invalidated, "{scheme}");
        assert!(store.rows(&poked.image, &group).is_none(), "{scheme}");
    }
    // The first run under either scheme re-runs the stale groups and
    // replaces their entries; the other scheme then re-runs only the
    // rows it alone plants; after that both are warm.
    let (warm, m) = run(&poked, &newenc, Some(&cache));
    let stale = m.counter(metric::CACHE_STALE_GROUPS);
    assert!(stale > 0, "the group at {addr:#x} went stale");
    assert_identical(&warm, &run(&poked, &newenc, None).0, "new encoding, poked");
    let (warm, m) = run(&poked, &base, Some(&cache));
    assert_eq!(m.counter(metric::CACHE_STALE_GROUPS), 0);
    assert!(m.counter(metric::CACHE_MISS_GROUPS) <= stale);
    assert_identical(&warm, &run(&poked, &base, None).0, "baseline, poked");
    for cfg in [&base, &newenc] {
        let (warm, m) = run(&poked, cfg, Some(&cache));
        assert_eq!(m.counter(metric::CACHE_MISS_GROUPS), 0, "{}", cfg.scheme);
        assert_eq!(m.counter(metric::CACHE_STALE_GROUPS), 0, "{}", cfg.scheme);
        assert_eq!(m.counter(metric::RESTORES), 0, "{}", cfg.scheme);
        assert_identical(&warm, &run(&poked, cfg, None).0, "re-warmed");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
