//! Measures the observability overhead of the campaign engine and
//! prints a phase-profile breakdown: the disabled-telemetry campaign is
//! the baseline every instrumentation change must stay within (<2% per
//! the telemetry acceptance bar), and the event-collecting run shows
//! the full cost of one structured event per injection run.

use criterion::{criterion_group, criterion_main, Criterion};
use fisec_apps::AppSpec;
use fisec_core::{run_campaign_cached, CampaignConfig};
use fisec_telemetry::{render_phase_table, MemorySink, Telemetry};
use std::sync::Arc;

fn bench(c: &mut Criterion) {
    // A cut-down campaign (one client) keeps iteration time sane while
    // exercising both the snapshot work-queue and the NA pre-filter.
    let mut ftpd = AppSpec::ftpd();
    ftpd.clients.truncate(1);
    let cfg = CampaignConfig::default();

    c.bench_function("campaign/ftpd_client1/telemetry_disabled", |b| {
        b.iter(|| run_campaign_cached(&ftpd, &cfg, &Telemetry::disabled(), None))
    });

    c.bench_function("campaign/ftpd_client1/metrics_only", |b| {
        b.iter(|| run_campaign_cached(&ftpd, &cfg, &Telemetry::collecting(), None))
    });

    c.bench_function("campaign/ftpd_client1/memory_events", |b| {
        b.iter(|| {
            let tel = Telemetry::new(Arc::new(MemorySink::new()), false);
            run_campaign_cached(&ftpd, &cfg, &tel, None)
        })
    });

    // Regenerate the artefact: a measured phase profile of the full
    // ftpd campaign (all clients).
    let full = AppSpec::ftpd();
    let tel = Telemetry::collecting();
    let wall_start = std::time::Instant::now();
    run_campaign_cached(&full, &cfg, &tel, None);
    let wall = u64::try_from(wall_start.elapsed().as_micros()).unwrap_or(u64::MAX);
    let snap = tel.metrics.snapshot();
    println!("\n== Phase profile: full ftpd campaign (baseline encoding) ==");
    print!("{}", render_phase_table(snap.phases(), wall));
    print!("{}", snap.render());
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
