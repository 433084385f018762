//! # fisec-core — the experiment layer of the DSN'01 reproduction
//!
//! This crate reproduces the paper's evaluation on top of the fisec
//! substrates:
//!
//! | Artefact | API | Renderer |
//! |---|---|---|
//! | Table 1 (result distributions) | [`run_campaign`] | [`tables::render_table1`] |
//! | Table 2 (location taxonomy) | [`fisec_inject::ErrorLocation`] | [`tables::render_table2`] |
//! | Table 3 (BRK+FSV by location) | [`run_campaign`] | [`tables::render_table3`] |
//! | Table 4 (new encoding map) | `fisec_encoding::table4` | `fisec_encoding::render_table4` |
//! | Table 5 (new-encoding campaign) | [`run_campaign`] with [`EncodingScheme::NewEncoding`] | [`tables::render_table5`] |
//! | Figure 4 (crash latency histogram) | [`figure4::histogram`] | [`figure4::render`] |
//! | §7 random-injection rate | [`random::run_random_campaign`] | — |
//! | §5.4 load/diversity study | [`load::run_load_study`] | [`load::render`] |
//! | §5.3 entry-points ablation | [`ablation::entry_points_study`] | [`ablation::render_entry_points`] |
//! | §4 sampling ablation | [`ablation::sampling_study`] | [`ablation::render_sampling`] |
//! | data-segment extension (§7 future work) | [`data_errors::run_data_campaign`] | [`data_errors::render`] |
//!
//! The heavy campaigns (every bit of every control-transfer instruction
//! in the authentication functions × every client pattern × two encoding
//! schemes) are deterministic; the random studies take explicit seeds.
//!
//! ```no_run
//! use fisec_core::{run_campaign, CampaignConfig, tables};
//! let ftpd = fisec_apps::AppSpec::ftpd();
//! let result = run_campaign(&ftpd, &CampaignConfig::default());
//! println!("{}", tables::render_table1(&[&result]));
//! ```

pub mod ablation;
pub mod benchdiff;
pub mod cache;
pub mod campaign;
pub mod counts;
pub mod data_errors;
pub mod explain;
pub mod figure4;
pub mod hotblocks;
pub mod load;
mod persist;
pub mod propagate;
pub mod random;
pub mod report;
pub mod stats;
pub mod tables;
pub mod trace;

pub use cache::CampaignCache;
pub use campaign::{
    run_campaign, run_campaign_cached, CampaignConfig, CampaignResult, ClientCampaign,
    ExecutionMode, PropagationStats, RunRecord,
};
pub use counts::{LocationCounts, OutcomeCounts};
pub use fisec_encoding::EncodingScheme;
pub use fisec_inject::EngineOpts;

use serde::{Deserialize, Serialize};

/// Compact, serializable summary of one campaign (used for
/// EXPERIMENTS.md snapshots and regression comparison).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignSummary {
    /// Application name.
    pub app: String,
    /// Scheme label.
    pub scheme: String,
    /// Targeted instructions.
    pub instructions: usize,
    /// Conditional branches targeted.
    pub cond_branches: usize,
    /// Runs per client.
    pub runs_per_client: usize,
    /// Per-client outcome tallies, in client order.
    pub clients: Vec<ClientSummary>,
}

/// Per-client tallies of a summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClientSummary {
    /// Client name.
    pub client: String,
    /// Outcome tallies.
    pub counts: OutcomeCounts,
    /// BRK∪FSV location tallies.
    pub locations: LocationCounts,
    /// Crash count with traffic deviation before the crash.
    pub transient_deviations: usize,
    /// Share of crashes within 100 instructions of activation.
    pub crash_within_100: f64,
}

impl From<&CampaignResult> for CampaignSummary {
    fn from(r: &CampaignResult) -> CampaignSummary {
        CampaignSummary {
            app: r.app.clone(),
            scheme: r.scheme.to_string(),
            instructions: r.instructions,
            cond_branches: r.cond_branches,
            runs_per_client: r.runs_per_client,
            clients: r
                .clients
                .iter()
                .map(|c| {
                    let h = figure4::histogram(&c.crash_latencies);
                    ClientSummary {
                        client: c.client.clone(),
                        counts: c.counts,
                        locations: c.brkfsv_by_location,
                        transient_deviations: c.transient_deviations,
                        // Rounded so the value survives JSON round-trips
                        // exactly (snapshot comparisons).
                        crash_within_100: (h.within_100 * 1e6).round() / 1e6,
                    }
                })
                .collect(),
        }
    }
}

impl CampaignSummary {
    /// Serialize as pretty JSON.
    ///
    /// # Panics
    /// Never panics in practice (the structure is always serializable).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("summary serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_serializes() {
        let s = CampaignSummary {
            app: "ftpd".into(),
            scheme: "baseline x86".into(),
            instructions: 10,
            cond_branches: 8,
            runs_per_client: 100,
            clients: vec![ClientSummary {
                client: "Client1".into(),
                counts: OutcomeCounts {
                    na: 50,
                    nm: 20,
                    sd: 25,
                    fsv: 4,
                    brk: 1,
                },
                locations: LocationCounts::default(),
                transient_deviations: 2,
                crash_within_100: 0.9,
            }],
        };
        let j = s.to_json();
        assert!(j.contains("\"brk\": 1"));
        let back: CampaignSummary = serde_json::from_str(&j).unwrap();
        assert_eq!(back, s);
    }
}
