//! Differential: the taint tracer must be invisible to every paper
//! artifact. Table 1, Table 5 and Figure 4 are rendered with the
//! tracer on and off — in both execution modes and with the tier-2
//! trace cache on and off — and must be byte-identical.

use fisec_apps::AppSpec;
use fisec_core::{
    figure4, run_campaign, tables, CampaignConfig, EncodingScheme, EngineOpts, ExecutionMode,
};

/// Render the artifacts one configuration produces.
fn artifacts(app: &AppSpec, cfg: &CampaignConfig) -> (String, String, String) {
    let base = run_campaign(app, cfg);
    let new = run_campaign(
        app,
        &CampaignConfig {
            scheme: EncodingScheme::NewEncoding,
            ..*cfg
        },
    );
    let table1 = tables::render_table1(&[&base]);
    let table5 = tables::render_table5(&[&base], &[&new]);
    let fig4 = figure4::render(&figure4::histogram(&base.clients[0].crash_latencies));
    (table1, table5, fig4)
}

#[test]
fn tables_and_figure4_are_bit_identical_tracer_on_and_off() {
    let mut app = AppSpec::ftpd();
    app.clients.truncate(1);
    for mode in [ExecutionMode::Snapshot, ExecutionMode::FromScratch] {
        for trace_cache in [true, false] {
            let plain = CampaignConfig {
                cond_branches_only: true,
                mode,
                engine: EngineOpts {
                    trace_cache,
                    ..EngineOpts::default()
                },
                ..CampaignConfig::default()
            };
            let traced = CampaignConfig {
                engine: EngineOpts {
                    propagation: true,
                    ..plain.engine
                },
                ..plain
            };
            let off = artifacts(&app, &plain);
            let on = artifacts(&app, &traced);
            assert_eq!(
                off.0,
                on.0,
                "Table 1 drifted under the tracer ({} mode, trace_cache={trace_cache})",
                mode.name()
            );
            assert_eq!(
                off.1,
                on.1,
                "Table 5 drifted under the tracer ({} mode, trace_cache={trace_cache})",
                mode.name()
            );
            assert_eq!(
                off.2,
                on.2,
                "Figure 4 drifted under the tracer ({} mode, trace_cache={trace_cache})",
                mode.name()
            );
        }
    }
}
