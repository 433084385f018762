//! The outside-in layer ledger of a traced run.
//!
//! Spans are taken from the benchmark's own code around each call into a
//! crate's public API, or read from the timings the API already returns
//! (`GroupMeta`, `RunMeta`). A call whose children are measured
//! contributes only its remainder (call time minus children), so the
//! layers of one pass never overlap and `host.unattributed_ms` (pass
//! wall minus every layer) shows whatever the ledger does not cover.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// How a replayed run stopped: the replay-time split of the ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopClass {
    /// `exit` or a blocked read with nothing left to serve.
    Exit,
    /// A fatal fault.
    Crash,
    /// The instruction budget ran out.
    Hang,
}

impl StopClass {
    pub fn of(stop: &fisec_os::Stop) -> StopClass {
        match stop {
            fisec_os::Stop::Crashed(_) => StopClass::Crash,
            fisec_os::Stop::Budget => StopClass::Hang,
            _ => StopClass::Exit,
        }
    }

    const ALL: [StopClass; 3] = [StopClass::Exit, StopClass::Crash, StopClass::Hang];

    fn suffix(self) -> &'static str {
        match self {
            StopClass::Exit => "exit",
            StopClass::Crash => "crash",
            StopClass::Hang => "hang",
        }
    }
}

/// Every per-layer metric the traced run prints, with its unit. Layers a
/// workload never calls print 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("apps.build_ms", "ms"),
    ("inject.golden_ms", "ms"),
    ("inject.n_golden", "count"),
    ("inject.targets_ms", "ms"),
    ("inject.classify_ms", "ms"),
    ("campaign.n_na_prefilter", "count"),
    ("campaign.n_executed", "count"),
    ("os.boot_ms", "ms"),
    ("os.n_boots", "count"),
    ("os.snapshot_ms", "ms"),
    ("os.restore_ms", "ms"),
    ("os.n_restores", "count"),
    ("x86.replay_ms", "ms"),
    ("x86.replay_ms_exit", "ms"),
    ("x86.replay_ms_crash", "ms"),
    ("x86.replay_ms_hang", "ms"),
    ("x86.n_runs_exit", "count"),
    ("x86.n_runs_crash", "count"),
    ("x86.n_runs_hang", "count"),
    ("x86.n_guest_minst", "Minst"),
    ("x86.n_guest_minst_exit", "Minst"),
    ("x86.n_guest_minst_crash", "Minst"),
    ("x86.n_guest_minst_hang", "Minst"),
    ("x86.ns_per_guest_inst", "ns"),
    ("x86.ns_per_guest_inst_exit", "ns"),
    ("x86.ns_per_guest_inst_crash", "ns"),
    ("x86.ns_per_guest_inst_hang", "ns"),
    ("x86.n_blocks_built", "count"),
    ("x86.n_block_hits", "count"),
    ("x86.n_trace_hits", "count"),
    ("x86.n_trace_side_exits", "count"),
    ("x86.n_stepwise_insts", "count"),
    ("cache.open_ms", "ms"),
    ("cache.lookup_ms", "ms"),
    ("cache.n_hit_groups", "count"),
    ("cache.n_miss_groups", "count"),
    ("cache.n_stale_groups", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.bytes_read", "bytes"),
    ("cache.record_ms", "ms"),
    ("cache.save_ms", "ms"),
    ("cache.bytes_written", "bytes"),
    ("random.draw_ms", "ms"),
    ("random.session_ms", "ms"),
    ("random.n_violations", "count"),
    ("host.ref_ms", "ms"),
    ("host.pass_ms", "ms"),
    ("host.unattributed_ms", "ms"),
    ("host.passes", "count"),
];

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn micros_ms(us: u64) -> f64 {
    us as f64 / 1e3
}

/// A call's own time: its duration minus the children measured inside
/// it. Never clamped — a negative value would expose a double count.
pub fn remainder_ms(call_ms: f64, children_ms: &[f64]) -> f64 {
    call_ms - children_ms.iter().sum::<f64>()
}

/// The ledger of one traced pass: host milliseconds per layer and exact
/// counts. Keys are the metric names of [`PER_LAYER`], except the replay
/// split, which is kept in raw form until [`Summary::metrics`].
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Ledger {
    ms: BTreeMap<&'static str, f64>,
    n: BTreeMap<&'static str, u64>,
}

impl Ledger {
    pub fn add_ms(&mut self, layer: &'static str, v: f64) {
        *self.ms.entry(layer).or_default() += v;
    }

    pub fn add_n(&mut self, counter: &'static str, v: u64) {
        *self.n.entry(counter).or_default() += v;
    }

    /// Run `f`, charging its duration to `layer`.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add_ms(layer, ms(start.elapsed()));
        out
    }

    /// One replayed run: its post-activation host time and guest
    /// instructions, split by how it stopped.
    pub fn add_replay(&mut self, class: StopClass, run_micros: u64, icount: u64) {
        let (t, runs, insts) = match class {
            StopClass::Exit => ("x86.replay_ms_exit", "x86.n_runs_exit", "x86.insts_exit"),
            StopClass::Crash => ("x86.replay_ms_crash", "x86.n_runs_crash", "x86.insts_crash"),
            StopClass::Hang => ("x86.replay_ms_hang", "x86.n_runs_hang", "x86.insts_hang"),
        };
        self.add_ms(t, micros_ms(run_micros));
        self.add_n(runs, 1);
        self.add_n(insts, icount);
    }

    /// Block- and trace-cache traffic of one profiled process.
    pub fn add_profile(&mut self, p: &fisec_x86::ExecProfile) {
        self.add_n("x86.n_blocks_built", p.cache.built);
        self.add_n("x86.n_block_hits", p.cache.hits);
        self.add_n("x86.n_trace_hits", p.trace_cache.hits);
        self.add_n("x86.n_trace_side_exits", p.trace_cache.side_exits);
        self.add_n("x86.n_stepwise_insts", p.stepwise_retired);
    }

    #[cfg(test)]
    pub fn counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.n
    }
}

/// Traced passes folded together: times averaged per pass, counts taken
/// from the first pass and checked against every later one.
#[derive(Debug, Default)]
pub struct Summary {
    passes: usize,
    ms: BTreeMap<&'static str, f64>,
    counts: BTreeMap<&'static str, u64>,
    wall_ms: f64,
    ref_ms: f64,
    /// Counters that differed between passes (they must not).
    pub drift: Vec<String>,
}

impl Summary {
    /// Fold one pass: its ledger, its wall time and the reference
    /// kernel's time before it.
    pub fn add_pass(&mut self, l: &Ledger, wall_ms: f64, ref_ms: f64) {
        if self.passes == 0 {
            self.counts = l.n.clone();
        } else if l.n != self.counts {
            let keys: std::collections::BTreeSet<_> =
                l.n.keys().chain(self.counts.keys()).collect();
            for k in keys {
                let (a, b) = (self.counts.get(k), l.n.get(k));
                if a != b {
                    self.drift.push(format!(
                        "{k}: pass 1 = {}, pass {} = {}",
                        a.copied().unwrap_or(0),
                        self.passes + 1,
                        b.copied().unwrap_or(0)
                    ));
                }
            }
        }
        for (k, v) in &l.ms {
            *self.ms.entry(k).or_default() += v;
        }
        self.wall_ms += wall_ms;
        self.ref_ms += ref_ms;
        self.passes += 1;
    }

    /// Every [`PER_LAYER`] metric, per pass; `extra` carries the ones
    /// measured outside the passes (`apps.build_ms`).
    pub fn metrics(&self, extra: &[(&'static str, f64)]) -> Vec<(&'static str, f64, &'static str)> {
        let per_pass = |v: f64| v / self.passes.max(1) as f64;
        let t = |k: &str| per_pass(self.ms.get(k).copied().unwrap_or(0.0));
        let n = |k: &str| self.counts.get(k).copied().unwrap_or(0);
        let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (k, x) in &self.ms {
            v.insert(k, per_pass(*x));
        }
        for (k, x) in &self.counts {
            v.insert(k, *x as f64);
        }
        let mut replay = 0.0;
        let mut insts = 0u64;
        for c in StopClass::ALL {
            let r = t(&format!("x86.replay_ms_{}", c.suffix()));
            let i = n(&format!("x86.insts_{}", c.suffix()));
            replay += r;
            insts += i;
            let (minst, ns) = match c {
                StopClass::Exit => ("x86.n_guest_minst_exit", "x86.ns_per_guest_inst_exit"),
                StopClass::Crash => ("x86.n_guest_minst_crash", "x86.ns_per_guest_inst_crash"),
                StopClass::Hang => ("x86.n_guest_minst_hang", "x86.ns_per_guest_inst_hang"),
            };
            v.insert(minst, i as f64 / 1e6);
            v.insert(ns, ns_per_inst(r, i));
        }
        v.insert("x86.replay_ms", replay);
        v.insert("x86.n_guest_minst", insts as f64 / 1e6);
        v.insert("x86.ns_per_guest_inst", ns_per_inst(replay, insts));
        let lookups =
            n("cache.n_hit_groups") + n("cache.n_miss_groups") + n("cache.n_stale_groups");
        let hit_ratio = if lookups == 0 {
            0.0
        } else {
            n("cache.n_hit_groups") as f64 / lookups as f64
        };
        v.insert("cache.hit_ratio", hit_ratio);
        let wall = per_pass(self.wall_ms);
        v.insert("host.pass_ms", wall);
        v.insert("host.ref_ms", per_pass(self.ref_ms));
        v.insert(
            "host.unattributed_ms",
            remainder_ms(wall, &[per_pass(self.ms.values().sum())]),
        );
        v.insert("host.passes", self.passes as f64);
        for (k, x) in extra {
            v.insert(k, *x);
        }
        PER_LAYER
            .iter()
            .map(|(k, unit)| (*k, v.get(k).copied().unwrap_or(0.0), *unit))
            .collect()
    }
}

fn ns_per_inst(replay_ms: f64, insts: u64) -> f64 {
    if insts == 0 {
        0.0
    } else {
        replay_ms * 1e6 / insts as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(m: &[(&'static str, f64, &'static str)], k: &str) -> f64 {
        m.iter()
            .find(|(n, _, _)| *n == k)
            .expect("metric present")
            .1
    }

    #[test]
    fn remainder_subtracts_every_child() {
        assert_eq!(remainder_ms(10.0, &[2.0, 3.0, 4.5]), 0.5);
        assert_eq!(remainder_ms(10.0, &[]), 10.0);
        assert!(remainder_ms(1.0, &[0.75, 0.5]) < 0.0, "never clamped");
    }

    #[test]
    fn unattributed_is_pass_wall_minus_every_layer() {
        let mut l = Ledger::default();
        l.add_ms("os.boot_ms", 3.0);
        l.add_replay(StopClass::Crash, 2_000, 1_000);
        l.add_replay(StopClass::Hang, 4_000, 3_000_000);
        let mut s = Summary::default();
        s.add_pass(&l, 12.0, 1.0);
        s.add_pass(&l, 14.0, 3.0);
        let m = s.metrics(&[("apps.build_ms", 40.0)]);
        assert_eq!(m.len(), PER_LAYER.len());
        assert_eq!(get(&m, "host.pass_ms"), 13.0);
        assert_eq!(get(&m, "host.ref_ms"), 2.0);
        assert_eq!(get(&m, "x86.replay_ms"), 6.0);
        assert_eq!(get(&m, "host.unattributed_ms"), 13.0 - 3.0 - 6.0);
        assert_eq!(get(&m, "apps.build_ms"), 40.0);
        assert_eq!(get(&m, "x86.n_runs_hang"), 1.0);
        assert_eq!(get(&m, "x86.n_guest_minst"), 3.001);
        assert_eq!(get(&m, "x86.ns_per_guest_inst_crash"), 2_000.0);
        assert_eq!(get(&m, "cache.hit_ratio"), 0.0);
        assert!(s.drift.is_empty());
    }

    #[test]
    fn differing_counts_are_reported() {
        let mut a = Ledger::default();
        a.add_n("os.n_boots", 3);
        let mut b = a.clone();
        b.add_n("os.n_boots", 1);
        b.add_n("cache.n_hit_groups", 2);
        let mut s = Summary::default();
        s.add_pass(&a, 1.0, 1.0);
        s.add_pass(&a, 1.0, 1.0);
        assert!(s.drift.is_empty());
        s.add_pass(&b, 1.0, 1.0);
        assert_eq!(s.drift.len(), 2, "{:?}", s.drift);
        assert!(s
            .drift
            .iter()
            .any(|d| d.starts_with("os.n_boots: pass 1 = 3, pass 3 = 4")));
    }
}
