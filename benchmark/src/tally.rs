//! Canonical text form of a pass's results, compared line by line with
//! the pinned expectations: one line per client column (Tables 1, 3 and
//! 5 tallies) and one Figure 4 histogram per campaign, or one line of §7
//! outcome tallies for a random unit.

use fisec_core::campaign::CampaignResult;
use fisec_core::random::RandomCampaignResult;
use fisec_core::{figure4, EncodingScheme, LocationCounts, OutcomeCounts};
use fisec_inject::{InjectionRun, InjectionTarget, OutcomeClass};

/// One client column as the campaign tallies it.
#[derive(Debug, Default)]
pub struct ClientTally {
    counts: OutcomeCounts,
    brkfsv_by_location: LocationCounts,
    crash_latencies: Vec<u64>,
}

impl ClientTally {
    pub fn add(&mut self, target: &InjectionTarget, run: &InjectionRun) {
        self.counts.add(run.outcome);
        if matches!(
            run.outcome,
            OutcomeClass::Breakin | OutcomeClass::FailSilenceViolation
        ) {
            self.brkfsv_by_location.add(target.location);
        }
        if let Some(lat) = run.crash_latency {
            self.crash_latencies.push(lat);
        }
    }

    /// A run the golden-coverage pre-filter classified NA without
    /// executing it.
    pub fn add_not_activated(&mut self) {
        self.counts.add(OutcomeClass::NotActivated);
    }
}

fn client_line(
    app: &str,
    scheme: EncodingScheme,
    runs: usize,
    client: &str,
    c: &OutcomeCounts,
    l: &LocationCounts,
) -> String {
    format!(
        "{app}/{} {client} runs={runs} na={} nm={} sd={} fsv={} brk={} brkfsv_loc={},{},{},{},{},{}",
        scheme.cache_tag(),
        c.na,
        c.nm,
        c.sd,
        c.fsv,
        c.brk,
        l.c2bc,
        l.c2bo,
        l.c6bc1,
        l.c6bc2,
        l.c6bo,
        l.misc
    )
}

fn figure4_line(app: &str, scheme: EncodingScheme, latencies: &[u64]) -> String {
    let h = figure4::histogram(latencies);
    let bins: Vec<String> = h.bins.iter().map(u64::to_string).collect();
    format!(
        "{app}/{} figure4 samples={} bins={}",
        scheme.cache_tag(),
        h.samples,
        bins.join(",")
    )
}

/// Lines of one campaign run through the library.
pub fn campaign_lines(r: &CampaignResult) -> Vec<String> {
    let mut lines: Vec<String> = r
        .clients
        .iter()
        .map(|c| {
            client_line(
                &r.app,
                r.scheme,
                r.runs_per_client,
                &c.client,
                &c.counts,
                &c.brkfsv_by_location,
            )
        })
        .collect();
    let latencies: Vec<u64> = r
        .clients
        .iter()
        .flat_map(|c| c.crash_latencies.iter().copied())
        .collect();
    lines.push(figure4_line(&r.app, r.scheme, &latencies));
    lines
}

/// Lines of one campaign tallied by the traced loop, in the same form.
pub fn tallied_lines(
    app: &str,
    scheme: EncodingScheme,
    runs: usize,
    clients: &[(String, ClientTally)],
) -> Vec<String> {
    let mut lines: Vec<String> = clients
        .iter()
        .map(|(name, t)| client_line(app, scheme, runs, name, &t.counts, &t.brkfsv_by_location))
        .collect();
    let latencies: Vec<u64> = clients
        .iter()
        .flat_map(|(_, t)| t.crash_latencies.iter().copied())
        .collect();
    lines.push(figure4_line(app, scheme, &latencies));
    lines
}

/// Outcome tallies of a random unit, tallied the way the random tier
/// folds them (anything that is not SD/FSV/BRK is "no effect").
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RandomTally {
    pub runs: usize,
    pub no_effect: usize,
    pub sd: usize,
    pub fsv: usize,
    pub brk: usize,
}

impl RandomTally {
    pub fn add(&mut self, outcome: OutcomeClass) {
        self.runs += 1;
        match outcome {
            OutcomeClass::Breakin => self.brk += 1,
            OutcomeClass::SystemDetection => self.sd += 1,
            OutcomeClass::FailSilenceViolation => self.fsv += 1,
            OutcomeClass::NotActivated | OutcomeClass::NotManifested => self.no_effect += 1,
        }
    }
}

impl From<RandomCampaignResult> for RandomTally {
    fn from(r: RandomCampaignResult) -> RandomTally {
        RandomTally {
            runs: r.runs,
            no_effect: r.no_effect,
            sd: r.sd,
            fsv: r.fsv,
            brk: r.brk,
        }
    }
}
