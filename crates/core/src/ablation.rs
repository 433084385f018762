//! Ablation studies for the design claims the paper argues from its data.
//!
//! * **Entry points** (§5.3): "applications with multiple points of entry
//!   have a higher probability of being compromised than those with a
//!   single point of entry." We run the identical sshd binary twice —
//!   once with none/rhosts/RSA/password all enabled, once with password
//!   only (switches zeroed in the data segment) — and compare break-in
//!   rates over the *same* injection target set.
//! * **Sampling** (§4): the paper chose *selective exhaustive* injection
//!   over random sampling. The sampling study quantifies what random
//!   subsets of the exhaustive set would have estimated for the BRK
//!   rate, showing why exhaustive injection was needed for a 1%-scale
//!   phenomenon.

use crate::campaign::{run_campaign, CampaignConfig, CampaignResult};
use fisec_apps::AppSpec;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Result of the entry-points ablation.
#[derive(Debug, Clone)]
pub struct EntryPointsResult {
    /// Campaign with all mechanisms enabled.
    pub multi: CampaignResult,
    /// Campaign with password-only authentication.
    pub single: CampaignResult,
}

impl EntryPointsResult {
    /// Break-ins for the attack client under the multi-mechanism config.
    pub fn multi_brk(&self) -> usize {
        self.multi.clients[0].counts.brk
    }

    /// Break-ins for the attack client under password-only config.
    pub fn single_brk(&self) -> usize {
        self.single.clients[0].counts.brk
    }
}

/// Run the entry-points ablation (attack client only, to keep it fast).
pub fn entry_points_study(cfg: &CampaignConfig) -> EntryPointsResult {
    let mut multi_app = AppSpec::sshd();
    multi_app.clients.truncate(1);
    let mut single_app = AppSpec::sshd_single_entry();
    single_app.clients.truncate(1);
    EntryPointsResult {
        multi: run_campaign(&multi_app, cfg),
        single: run_campaign(&single_app, cfg),
    }
}

/// Render the entry-points comparison.
pub fn render_entry_points(r: &EntryPointsResult) -> String {
    let mc = &r.multi.clients[0];
    let sc = &r.single.clients[0];
    let pct = |c: &crate::campaign::ClientCampaign, n: usize| {
        let act = c.counts.activated();
        if act == 0 {
            0.0
        } else {
            n as f64 * 100.0 / act as f64
        }
    };
    format!(
        "configuration          BRK   (% of activated)   FSV\n\
         multi-entry (4 ways) {:>5}   {:>8.2}%          {:>4}\n\
         password-only        {:>5}   {:>8.2}%          {:>4}\n",
        mc.counts.brk,
        pct(mc, mc.counts.brk),
        mc.counts.fsv,
        sc.counts.brk,
        pct(sc, sc.counts.brk),
        sc.counts.fsv,
    )
}

/// One row of the sampling study: estimate quality at a sample size.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SamplingRow {
    /// Runs sampled from the exhaustive set.
    pub sample_size: usize,
    /// Mean estimated BRK-rate (% of activated) over the resamples.
    pub mean_estimate: f64,
    /// Fraction of resamples that saw *zero* break-ins (and would have
    /// concluded the vulnerability does not exist).
    pub missed_entirely: f64,
}

/// Quantify random-sampling estimates of the BRK rate against the
/// exhaustive ground truth, using the per-run records of a completed
/// campaign (no re-execution).
pub fn sampling_study(
    result: &CampaignResult,
    client_index: usize,
    sample_sizes: &[usize],
    resamples: usize,
    seed: u64,
) -> (f64, Vec<SamplingRow>) {
    let c = &result.clients[client_index];
    let records = &c.records;
    let activated_total = c.counts.activated().max(1);
    let truth = c.counts.brk as f64 * 100.0 / activated_total as f64;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows = Vec::new();
    for &k in sample_sizes {
        let k = k.min(records.len());
        let mut estimates = Vec::with_capacity(resamples);
        let mut missed = 0usize;
        for _ in 0..resamples {
            let sample: Vec<_> = records.choose_multiple(&mut rng, k).collect();
            let act = sample
                .iter()
                .filter(|r| r.outcome_abbrev != 'N')
                .count()
                .max(1);
            let brk = sample.iter().filter(|r| r.outcome_abbrev == 'B').count();
            if brk == 0 {
                missed += 1;
            }
            estimates.push(brk as f64 * 100.0 / act as f64);
        }
        rows.push(SamplingRow {
            sample_size: k,
            mean_estimate: estimates.iter().sum::<f64>() / estimates.len().max(1) as f64,
            missed_entirely: missed as f64 / resamples.max(1) as f64,
        });
    }
    (truth, rows)
}

/// Render the sampling study.
pub fn render_sampling(truth: f64, rows: &[SamplingRow]) -> String {
    let mut out = format!(
        "exhaustive ground truth: BRK = {truth:.2}% of activated errors\n\
         sample size   mean estimate   P(missed entirely)\n"
    );
    for r in rows {
        out.push_str(&format!(
            "{:>11}   {:>12.2}%   {:>18.2}\n",
            r.sample_size, r.mean_estimate, r.missed_entirely
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::RunRecord;
    use crate::counts::{LocationCounts, OutcomeCounts};
    use fisec_encoding::EncodingScheme;
    use fisec_inject::GoldenRun;
    use fisec_net::{ClientStatus, Trace};
    use fisec_os::Stop;

    fn synthetic_result(brk: usize, total: usize) -> CampaignResult {
        let mut records = Vec::new();
        for i in 0..total {
            records.push(RunRecord {
                addr: i as u32,
                byte_index: 0,
                bit: 0,
                outcome_abbrev: if i < brk { 'B' } else { 'S' },
                location_index: 0,
                crash_latency: None,
                transient_deviation: false,
            });
        }
        CampaignResult {
            app: "synthetic".into(),
            scheme: EncodingScheme::Baseline,
            instructions: 1,
            cond_branches: 1,
            runs_per_client: total,
            clients: vec![crate::campaign::ClientCampaign {
                client: "Client1".into(),
                golden_denied: true,
                golden: GoldenRun {
                    stop: Stop::Exited(0),
                    client: ClientStatus::Denied,
                    trace: Trace::default(),
                    icount: 1,
                },
                counts: OutcomeCounts {
                    na: 0,
                    nm: 0,
                    sd: total - brk,
                    fsv: 0,
                    brk,
                },
                brkfsv_by_location: LocationCounts::default(),
                crash_latencies: vec![],
                trace_crash_latencies: vec![],
                transient_deviations: 0,
                records,
                propagation: None,
            }],
        }
    }

    /// A1 as EXPERIMENTS.md reports it: on sshd Client1, the four ways in
    /// give 20 break-ins where password-only authentication gives 9.
    #[test]
    fn entry_points_study_pins_the_a1_row() {
        let r = entry_points_study(&CampaignConfig::default());
        assert_eq!((r.multi_brk(), r.single_brk()), (20, 9));
        let table = render_entry_points(&r);
        assert!(
            table.contains("3.38%") && table.contains("1.88%"),
            "{table}"
        );
    }

    #[test]
    fn sampling_estimates_converge_to_truth() {
        let r = synthetic_result(10, 1000); // 1% BRK
        let (truth, rows) = sampling_study(&r, 0, &[10, 100, 1000], 200, 42);
        assert!((truth - 1.0).abs() < 1e-9);
        // Small samples frequently miss the phenomenon entirely.
        assert!(rows[0].missed_entirely > 0.5, "{rows:?}");
        // The full-set "sample" never misses and matches the truth.
        let last = rows.last().unwrap();
        assert_eq!(last.missed_entirely, 0.0);
        assert!((last.mean_estimate - truth).abs() < 1e-9);
    }

    #[test]
    fn sampling_is_reproducible() {
        let r = synthetic_result(5, 500);
        let a = sampling_study(&r, 0, &[50], 100, 7);
        let b = sampling_study(&r, 0, &[50], 100, 7);
        assert_eq!(a.1, b.1);
    }

    #[test]
    fn render_sampling_has_rows() {
        let r = synthetic_result(5, 500);
        let (truth, rows) = sampling_study(&r, 0, &[10, 50], 50, 1);
        let s = render_sampling(truth, &rows);
        assert_eq!(s.lines().count(), 4);
        assert!(s.contains("ground truth"));
    }
}
