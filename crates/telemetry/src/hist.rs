//! Fixed-bucket log2 histograms.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: one per power of two that fits in a `u64`.
pub const BUCKETS: usize = 64;

/// A lock-free histogram over `u64` samples with log2 buckets.
///
/// Bucket `i` holds samples whose value `v` satisfies `ilog2(v) == i`
/// (bucket 0 additionally holds `v == 0`), i.e. `v` in
/// `[2^i, 2^(i+1))`. Bucketing depends only on the sample values, so a
/// seeded run reproduces its histogram exactly. Its cells are held
/// inline in its domain's block.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// Index of the bucket `value` falls in.
#[inline]
#[must_use]
pub fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        value.ilog2() as usize
    }
}

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Mean sample value, or 0 with no samples.
    #[must_use]
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Occupancy of bucket `i`.
    #[must_use]
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i].load(Ordering::Relaxed)
    }

    /// Upper-bound estimate of the p-th percentile (0–100): the top edge
    /// of the bucket where the cumulative count crosses `p`.
    #[must_use]
    pub fn percentile(&self, p: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let target = ((p / 100.0) * n as f64).ceil().max(1.0) as u64;
        let mut cum = 0;
        for i in 0..BUCKETS {
            cum += self.bucket(i);
            if cum >= target {
                return if i >= 63 { u64::MAX } else { (1u64 << (i + 1)) - 1 };
            }
        }
        u64::MAX
    }

    /// Appends `name.count`, `name.sum`, and each non-empty bucket as
    /// `name.le_<upper>` (upper bound inclusive) to `out`.
    pub(crate) fn export(&self, name: &str, out: &mut Vec<(String, u64)>) {
        out.push((format!("{name}.count"), self.count()));
        out.push((format!("{name}.sum"), self.sum()));
        for i in 0..BUCKETS {
            let n = self.bucket(i);
            if n > 0 {
                let upper = if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
                out.push((format!("{name}.le_{upper}"), n));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(1023), 9);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), 63);
    }

    #[test]
    fn record_and_stats() {
        let h = Histogram::default();
        for v in [1u64, 2, 3, 1500, 1500] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 3006);
        assert_eq!(h.bucket(0), 1); // 1
        assert_eq!(h.bucket(1), 2); // 2, 3
        assert_eq!(h.bucket(10), 2); // 1500 ×2
        assert!(h.mean() > 600.0 && h.mean() < 602.0);
    }

    #[test]
    fn percentile_upper_bounds() {
        let h = Histogram::default();
        for _ in 0..99 {
            h.record(100);
        }
        h.record(100_000);
        // p50 falls in the [64,128) bucket → upper edge 127.
        assert_eq!(h.percentile(50.0), 127);
        assert!(h.percentile(100.0) >= 100_000);
    }

    #[test]
    fn deterministic_export() {
        let mk = || {
            let h = Histogram::default();
            for v in [5u64, 5, 9, 300] {
                h.record(v);
            }
            let mut out = Vec::new();
            h.export("h", &mut out);
            out
        };
        assert_eq!(mk(), mk());
    }
}
