//! Incremental-cache differential tests: a campaign folded out of the
//! persistent store must be indistinguishable — byte for byte — from
//! one computed live, in both execution modes, while the telemetry
//! counters prove the warm run actually skipped the work.
//!
//! The contract under test (ISSUE 9):
//!   * cold (populating), warm (folding) and cache-off campaigns render
//!     identical Table 1 text and Figure 4 latency vectors;
//!   * an unchanged-tree warm run is 100% cache hits — zero snapshot
//!     restores, fresh boots for the golden runs only;
//!   * editing a client script (fingerprint) cold-misses that client's
//!     store without touching the others;
//!   * poking a code byte re-runs the affected groups and the store
//!     self-heals: the next run is all hits again;
//!   * switching the encoding scheme never reuses the other scheme's
//!     entries.

use fisec_apps::AppSpec;
use fisec_core::{
    figure4, run_campaign_cached, tables::render_table1, CampaignCache, CampaignConfig,
    CampaignResult, EncodingScheme, ExecutionMode,
};
use fisec_telemetry::{metric, MetricsShard, Telemetry};
use std::path::PathBuf;

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
        // zero snapshot restores. Snapshot mode boots twice per client
        // (golden + the first-fetch pass, which by design runs before
        // the store is consulted); from-scratch once.
        assert_eq!(warm_m.counter(metric::CACHE_HIT_GROUPS), groups, "{mode:?}");
        assert_eq!(warm_m.counter(metric::CACHE_MISS_GROUPS), 0, "{mode:?}");
        assert_eq!(warm_m.counter(metric::CACHE_STALE_GROUPS), 0, "{mode:?}");
        assert_eq!(warm_m.counter(metric::CACHE_STORES), 0, "{mode:?}");
        assert_eq!(warm_m.counter(metric::RESTORES), 0, "{mode:?}");
        let boots_per_client = match mode {
            ExecutionMode::Snapshot => 2,
            ExecutionMode::FromScratch => 1,
        };
        assert_eq!(
            warm_m.counter(metric::FRESH_BOOTS),
            boots_per_client * app.clients.len() as u64,
            "{mode:?}: warm run must boot golden/pass and nothing else"
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

#[test]
fn scheme_change_never_reuses_the_other_schemes_entries() {
    let app = AppSpec::ftpd();
    let (cache, dir) = temp_cache("scheme");
    let base = CampaignConfig::default();
    let newenc = CampaignConfig {
        scheme: EncodingScheme::NewEncoding,
        ..CampaignConfig::default()
    };

    let (_, m) = run(&app, &base, Some(&cache));
    let base_groups = m.counter(metric::CACHE_MISS_GROUPS);
    assert!(base_groups > 0);

    // The other scheme lives in its own store file: zero hits.
    let (_, m) = run(&app, &newenc, Some(&cache));
    assert_eq!(m.counter(metric::CACHE_HIT_GROUPS), 0);
    assert!(m.counter(metric::CACHE_MISS_GROUPS) > 0);

    // Both schemes now warm independently.
    let (_, m) = run(&app, &newenc, Some(&cache));
    assert_eq!(m.counter(metric::CACHE_MISS_GROUPS), 0);
    let (_, m) = run(&app, &base, Some(&cache));
    assert_eq!(m.counter(metric::CACHE_HIT_GROUPS), base_groups);
    assert_eq!(m.counter(metric::CACHE_MISS_GROUPS), 0);

    let _ = std::fs::remove_dir_all(&dir);
}
