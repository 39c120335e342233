//! The arithmetic every number in the report goes through: percentiles
//! with a sample-count rule, per-operation normalisation, and the
//! median/quartile summary `--compare` judges two sets of runs by.

/// Fewest samples for which a p99 is reported: ten samples lie beyond it.
pub const P99_MIN_SAMPLES: usize = 1000;

/// Median and 99th percentile of a latency sample, in the sample's unit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencySummary {
    pub p50: f64,
    pub p99: f64,
}

/// Nearest-rank percentile of an ascending slice.
fn percentile(sorted: &[u64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// With fewer than `min_samples` a p99 would be a lower percentile in
/// disguise, so the run fails instead of printing it. The relaxed rule
/// (`--smoke`, `min_samples` 0) still refuses an empty sample.
pub fn require_samples(samples: usize, min_samples: usize) -> Result<(), String> {
    if samples == 0 || samples < min_samples {
        return Err(format!(
            "{samples} latency samples, p99 needs at least {}",
            min_samples.max(1)
        ));
    }
    Ok(())
}

/// Summarises `samples` (sorted in place); `None` when there are none.
pub fn summarize_latency(samples: &mut [u64]) -> Option<LatencySummary> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    Some(LatencySummary {
        p50: percentile(samples, 50.0),
        p99: percentile(samples, 99.0),
    })
}

/// A total divided by the operations that produced it. Zero operations
/// has no per-operation cost; callers treat `None` as a failed run.
pub fn per_op(total: f64, ops: u64) -> Option<f64> {
    (ops > 0).then(|| total / ops as f64)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the "exclusive" method), which is what the driver uses.
/// `None` below two values, where Python raises.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len() as i64;
    if ld < 2 {
        return None;
    }
    let cut = |i: i64| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = i * m - j * 4;
        (v[(j - 1) as usize] * (4 - delta) as f64 + v[j as usize] * delta as f64) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance; 0 for a single run, which has no spread to
/// show.
fn iqr(values: &[f64]) -> f64 {
    quartiles(values).map_or(0.0, |(q1, q3)| q3 - q1)
}

/// How far a metric's median may move the wrong way.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Bound {
    /// As a share of side A's median (BENCHMARK.json's bounds).
    Share(f64),
    /// In the metric's own unit, for a metric whose good value is 0.
    Abs(f64),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One (workload, metric) cell of `--compare`. Spreads and `worse_by`
/// are in the bound's terms: shares of A's median, or the metric's unit.
#[derive(Clone, Copy, Debug)]
pub struct Comparison {
    pub median_a: f64,
    pub median_b: f64,
    pub spread_a: f64,
    pub spread_b: f64,
    /// How far B's median moved the wrong way (negative = B is better).
    pub worse_by: f64,
    pub verdict: Verdict,
}

/// Judges B against A. A spread wider than the bound cannot resolve a
/// move of the size the bound allows, so such a cell is `Unresolved`
/// whichever way the medians point.
pub fn compare(a: &[f64], b: &[f64], lower_is_better: bool, bound: Bound) -> Comparison {
    let (median_a, median_b) = (median(a), median(b));
    let (limit, scale_a, scale_b) = match bound {
        Bound::Share(share) => (share, median_a.abs(), median_b.abs()),
        Bound::Abs(abs) => (abs, 1.0, 1.0),
    };
    let (spread_a, spread_b) = (iqr(a) / scale_a, iqr(b) / scale_b);
    let moved = (median_b - median_a) / scale_a;
    let worse_by = if lower_is_better { moved } else { -moved };
    let resolved = spread_a <= limit && spread_b <= limit && worse_by.is_finite();
    let verdict = match resolved {
        false => Verdict::Unresolved,
        true if worse_by > limit => Verdict::Worse,
        true => Verdict::Ok,
    };
    Comparison {
        median_a,
        median_b,
        spread_a,
        spread_b,
        worse_by,
        verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert!(require_samples(999, P99_MIN_SAMPLES).is_err());
        assert!(require_samples(1000, P99_MIN_SAMPLES).is_ok());
        assert!(require_samples(0, 0).is_err());
        assert!(require_samples(1, 0).is_ok());
        let mut enough: Vec<u64> = (1..=1000).rev().collect();
        let s = summarize_latency(&mut enough).unwrap();
        assert_eq!((s.p50, s.p99), (500.0, 990.0));
        assert_eq!(summarize_latency(&mut []), None);
        assert_eq!(summarize_latency(&mut [7]).unwrap().p99, 7.0);
    }

    #[test]
    fn per_op_normalisation() {
        assert_eq!(per_op(1500.0, 3), Some(500.0));
        assert_eq!(per_op(0.0, 4), Some(0.0));
        assert_eq!(per_op(10.0, 0), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([10, 12], n=4) == [9.5, 11.0, 12.5]
        assert_eq!(quartiles(&[12.0, 10.0]), Some((9.5, 12.5)));
        assert_eq!(quartiles(&[3.0]), None);
        assert_eq!(iqr(&[3.0]), 0.0);
        assert_eq!(iqr(&v), 5.5);
    }

    #[test]
    fn compare_verdicts() {
        let steady = |m: f64| [m * 0.999, m, m * 1.001];
        // Higher is better, B 10 % lower, bound 5 %: worse.
        let c = compare(&steady(100.0), &steady(90.0), false, Bound::Share(0.05));
        assert_eq!(c.verdict, Verdict::Worse);
        assert!((c.worse_by - 0.10).abs() < 1e-9);
        // The same move the right way is fine.
        assert_eq!(
            compare(&steady(90.0), &steady(100.0), false, Bound::Share(0.05)).verdict,
            Verdict::Ok
        );
        // Lower is better, 3 % higher, bound 5 %: within the bound.
        assert_eq!(
            compare(&steady(100.0), &steady(103.0), true, Bound::Share(0.05)).verdict,
            Verdict::Ok
        );
        assert_eq!(
            compare(&steady(100.0), &steady(106.0), true, Bound::Share(0.05)).verdict,
            Verdict::Worse
        );
        // A side whose own runs disagree by more than the bound resolves
        // nothing, even when the medians look fine.
        let noisy = [80.0, 100.0, 120.0];
        assert_eq!(
            compare(&noisy, &steady(100.0), true, Bound::Share(0.05)).verdict,
            Verdict::Unresolved
        );
        assert_eq!(
            compare(&steady(100.0), &noisy, false, Bound::Share(0.05)).verdict,
            Verdict::Unresolved
        );
        // A metric whose good value is 0 is judged in its own unit.
        let clean = [0.0, 0.0, 0.0];
        let abs = Bound::Abs(0.001);
        assert_eq!(compare(&clean, &clean, true, abs).verdict, Verdict::Ok);
        let failing = compare(&clean, &[0.002, 0.002, 0.003], true, abs);
        assert_eq!(failing.verdict, Verdict::Worse);
        assert!((failing.worse_by - 0.002).abs() < 1e-12);
    }
}
