//! Observatory overhead: the full ftpd campaign with the profiler off
//! (the default) and on. The hot-spot profiler's contract is ≤ 10%
//! extra wall-clock — its fast path is two counter increments per block
//! dispatch — and the measured ratio feeds the `observatory` block of
//! `BENCH_campaign.json`, which `fisec bench-diff` then gates in CI.

use criterion::{criterion_group, criterion_main, Criterion};
use fisec_apps::AppSpec;
use fisec_core::{run_campaign, CampaignConfig};
use fisec_telemetry::Telemetry;

fn bench(c: &mut Criterion) {
    let ftpd = AppSpec::ftpd();
    let off = CampaignConfig::default();
    let on = CampaignConfig {
        profiler: true,
        ..CampaignConfig::default()
    };

    // Regenerate the differential artefact once: the profiler must be a
    // pure observer — identical outcomes with it on or off.
    let plain = run_campaign(&ftpd, &off);
    let profiled = run_campaign(&ftpd, &on);
    for (a, b) in plain.clients.iter().zip(&profiled.clients) {
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.crash_latencies, b.crash_latencies);
    }

    // And the profile itself is non-trivial: the campaign retires real
    // work inside cached blocks.
    let tel = Telemetry::collecting();
    fisec_core::run_campaign_cached(&ftpd, &on, &tel, None);
    let snap = tel.metrics.snapshot();
    let data = snap.profile();
    assert!(!data.is_empty(), "profiled campaign produced no profile");
    println!(
        "\n== profile cross-check: {} blocks, {} instructions retired, {} cache hits ==",
        data.blocks.len(),
        data.total_retired(),
        data.cache_hits
    );

    c.bench_function("campaign/ftpd_profiler_off", |b| {
        b.iter(|| run_campaign(&ftpd, &off))
    });
    c.bench_function("campaign/ftpd_profiler_on", |b| {
        b.iter(|| run_campaign(&ftpd, &on))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
