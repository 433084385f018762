//! Order statistics and the per-unit throughput figures.

use crate::refkernel::NOMINAL_SECS;

/// Median of `v` (mean of the two middle values for an even count), as
/// Python's `statistics.median` computes it.
///
/// # Panics
/// If `v` is empty.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no values");
    let s = sorted(v);
    let m = s.len();
    if m % 2 == 1 {
        s[m / 2]
    } else {
        (s[m / 2 - 1] + s[m / 2]) / 2.0
    }
}

/// First, second and third quartile by Python's
/// `statistics.quantiles(v, n=4)` (the default "exclusive" method), the
/// statistic the benchmark's spread is judged by.
///
/// # Panics
/// If `v` has fewer than two values.
pub fn quartiles(v: &[f64]) -> [f64; 3] {
    assert!(v.len() >= 2, "quartiles need at least two values");
    let s = sorted(v);
    let n = 4usize;
    let ld = s.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *q = (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64;
    }
    out
}

/// Distance between the first and third quartile as a share of the
/// median: the run-to-run spread a metric's bound is compared with.
pub fn spread(v: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(v);
    (q3 - q1) / median(v)
}

/// The `p` quantile of `v` (0 ≤ p ≤ 1) by linear interpolation between
/// closest ranks.
///
/// # Panics
/// If `v` is empty.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    assert!(!v.is_empty(), "percentile of no values");
    let s = sorted(v);
    let rank = (s.len() - 1) as f64 * p.clamp(0.0, 1.0);
    let lo = rank.floor() as usize;
    let hi = (lo + 1).min(s.len() - 1);
    s[lo] + (s[hi] - s[lo]) * (rank - lo as f64)
}

/// A duration measured next to a reference-kernel call, expressed on
/// the reference host: scaled by nominal over measured kernel time.
pub fn normalized_secs(secs: f64, ref_secs: f64) -> f64 {
    secs * NOMINAL_SECS / ref_secs
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// One timed unit: `runs` injection runs in `secs` host seconds, right
/// after the reference kernel took `ref_secs` on the same thread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Unit {
    pub runs: usize,
    pub secs: f64,
    pub ref_secs: f64,
}

impl Unit {
    /// Injection runs per host second.
    pub fn rate(&self) -> f64 {
        self.runs as f64 / self.secs
    }

    /// Throughput on the reference host: the unit's time is expressed in
    /// reference-kernel times and scaled back by the nominal kernel time,
    /// so a host that is slower for both the unit and the kernel cancels
    /// out while the figure stays in runs per second.
    pub fn normalized_rate(&self) -> f64 {
        self.runs as f64 / normalized_secs(self.secs, self.ref_secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([4, 1, 3, 2], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), [1.25, 2.5, 3.75]);
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[7.0, 5.0]), [4.5, 6.0, 7.5]);
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[2.0; 5]), 0.0);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [40.0, 10.0, 30.0, 20.0, 50.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 0.5), 30.0);
        assert_eq!(percentile(&v, 1.0), 50.0);
        assert_eq!(percentile(&v, 0.9), 46.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn normalized_rate_cancels_a_uniform_slowdown() {
        let quiet = Unit {
            runs: 1000,
            secs: 0.5,
            ref_secs: NOMINAL_SECS,
        };
        // The same work on a host 30% slower for everything.
        let slow = Unit {
            runs: 1000,
            secs: 0.65,
            ref_secs: NOMINAL_SECS * 1.3,
        };
        assert_eq!(quiet.rate(), 2000.0);
        assert!(slow.rate() < 1600.0);
        assert!((quiet.normalized_rate() - 2000.0).abs() < 1e-9);
        assert!((slow.normalized_rate() - 2000.0).abs() < 1e-9);
        // A kernel twice as slow as nominal beside an unchanged unit means
        // the program was twice as fast as the host would suggest.
        let fast_unit = Unit {
            ref_secs: NOMINAL_SECS * 2.0,
            ..quiet
        };
        assert!((fast_unit.normalized_rate() - 4000.0).abs() < 1e-9);
        assert!((normalized_secs(2.0, NOMINAL_SECS / 2.0) - 4.0).abs() < 1e-12);
    }
}
