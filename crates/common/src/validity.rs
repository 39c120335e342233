//! Validity maps: ordered sets of disjoint byte intervals.
//!
//! RDMA Write-Record must "log at the target side what data has been written
//! to memory and is valid" (paper §IV.B.3). When a multi-segment message is
//! placed under packet loss, only some segments arrive; the completion entry
//! handed to the application carries a *validity map* — "essentially an
//! aggregated form of individual completion notifications" — describing the
//! byte ranges of the sink buffer that hold valid data.
//!
//! [`ValidityMap`] is that structure: a sorted list of disjoint,
//! non-adjacent `[start, end)` intervals with O(log n) insertion point
//! lookup and automatic coalescing of touching ranges.

use std::fmt;

/// A half-open byte interval `[start, end)` within a tagged buffer.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interval {
    /// Inclusive start offset.
    pub start: u64,
    /// Exclusive end offset.
    pub end: u64,
}

impl Interval {
    /// Creates `[start, end)`. Panics if `end < start`.
    #[must_use]
    pub fn new(start: u64, end: u64) -> Self {
        assert!(end >= start, "interval end {end} precedes start {start}");
        Self { start, end }
    }

    /// Number of bytes covered.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// True when the interval covers no bytes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// True when `self` and `other` overlap or touch (share an endpoint).
    #[must_use]
    pub fn touches(&self, other: &Interval) -> bool {
        self.start <= other.end && other.start <= self.end
    }
}

impl fmt::Debug for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

/// An aggregated record of which byte ranges of a buffer are valid.
///
/// Invariants (checked by `debug_assert` and the property tests):
/// * intervals are sorted by `start`;
/// * intervals are pairwise disjoint and non-adjacent (a gap of at least one
///   byte separates consecutive intervals);
/// * no interval is empty.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct ValidityMap {
    runs: Vec<Interval>,
}

impl ValidityMap {
    /// Creates an empty map (no valid bytes).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `[start, start + len)` as valid, coalescing with existing
    /// runs. Recording an already-valid range (duplicate datagram delivery)
    /// is a no-op on the observable state — placement is idempotent.
    pub fn record(&mut self, start: u64, len: u64) {
        if len == 0 {
            return;
        }
        let new = Interval::new(start, start + len);
        // Position of the first run that could touch `new`.
        let lo = self.runs.partition_point(|r| r.end < new.start);
        // One past the last run that touches `new`.
        let hi = self.runs[lo..].partition_point(|r| r.start <= new.end) + lo;
        if lo == hi {
            self.runs.insert(lo, new);
        } else {
            let merged = Interval::new(
                self.runs[lo].start.min(new.start),
                self.runs[hi - 1].end.max(new.end),
            );
            self.runs[lo] = merged;
            self.runs.drain(lo + 1..hi);
        }
        debug_assert!(self.check_invariants());
    }

    /// Total number of valid bytes.
    #[must_use]
    pub fn valid_bytes(&self) -> u64 {
        self.runs.iter().map(Interval::len).sum()
    }

    /// True when no bytes are valid.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// True when the single run `[0, len)` is valid — i.e. the whole
    /// message arrived intact.
    #[must_use]
    pub fn covers(&self, len: u64) -> bool {
        if len == 0 {
            return true;
        }
        matches!(self.runs.as_slice(), [only] if only.start == 0 && only.end >= len)
    }

    /// True when every byte of `[start, end)` is valid.
    #[must_use]
    pub fn contains_range(&self, start: u64, end: u64) -> bool {
        if start >= end {
            return true;
        }
        let idx = self.runs.partition_point(|r| r.end < end);
        self.runs
            .get(idx)
            .is_some_and(|r| r.start <= start && end <= r.end)
    }

    /// True when the byte at `offset` is valid.
    #[must_use]
    pub fn contains(&self, offset: u64) -> bool {
        self.contains_range(offset, offset + 1)
    }

    /// The valid runs, sorted and disjoint.
    #[must_use]
    pub fn runs(&self) -> &[Interval] {
        &self.runs
    }

    /// Number of disjoint runs.
    #[must_use]
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Gaps (missing ranges) within `[0, len)` — the data the application
    /// must skip over or re-request.
    #[must_use]
    pub fn gaps(&self, len: u64) -> Vec<Interval> {
        let mut out = Vec::new();
        let mut cursor = 0u64;
        for r in &self.runs {
            if r.start >= len {
                break;
            }
            if r.start > cursor {
                out.push(Interval::new(cursor, r.start));
            }
            cursor = cursor.max(r.end);
        }
        if cursor < len {
            out.push(Interval::new(cursor, len));
        }
        out
    }

    fn check_invariants(&self) -> bool {
        self.runs.iter().all(|r| !r.is_empty())
            && self.runs.windows(2).all(|w| w[0].end < w[1].start)
    }
}

impl fmt::Debug for ValidityMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(&self.runs).finish()
    }
}

impl FromIterator<(u64, u64)> for ValidityMap {
    /// Builds a map from `(start, len)` pairs.
    fn from_iter<I: IntoIterator<Item = (u64, u64)>>(iter: I) -> Self {
        let mut m = Self::new();
        for (start, len) in iter {
            m.record(start, len);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_map() {
        let m = ValidityMap::new();
        assert!(m.is_empty());
        assert_eq!(m.valid_bytes(), 0);
        assert!(m.covers(0));
        assert!(!m.covers(1));
        assert_eq!(m.gaps(10), vec![Interval::new(0, 10)]);
    }

    #[test]
    fn single_record() {
        let mut m = ValidityMap::new();
        m.record(100, 50);
        assert_eq!(m.valid_bytes(), 50);
        assert!(m.contains(100));
        assert!(m.contains(149));
        assert!(!m.contains(99));
        assert!(!m.contains(150));
        assert!(m.contains_range(110, 140));
        assert!(!m.contains_range(90, 110));
    }

    #[test]
    fn zero_length_record_is_noop() {
        let mut m = ValidityMap::new();
        m.record(5, 0);
        assert!(m.is_empty());
    }

    #[test]
    fn adjacent_runs_coalesce() {
        let mut m = ValidityMap::new();
        m.record(0, 10);
        m.record(10, 10);
        assert_eq!(m.run_count(), 1);
        assert!(m.covers(20));
    }

    #[test]
    fn overlapping_runs_coalesce() {
        let mut m = ValidityMap::new();
        m.record(0, 15);
        m.record(10, 15);
        assert_eq!(m.run_count(), 1);
        assert_eq!(m.valid_bytes(), 25);
    }

    #[test]
    fn disjoint_runs_stay_separate() {
        let mut m = ValidityMap::new();
        m.record(0, 10);
        m.record(20, 10);
        assert_eq!(m.run_count(), 2);
        assert_eq!(m.valid_bytes(), 20);
        assert_eq!(m.gaps(30), vec![Interval::new(10, 20)]);
    }

    #[test]
    fn bridge_record_merges_three() {
        let mut m = ValidityMap::new();
        m.record(0, 10);
        m.record(20, 10);
        m.record(40, 10);
        m.record(5, 40); // spans all three
        assert_eq!(m.run_count(), 1);
        assert_eq!(m.valid_bytes(), 50);
        assert!(m.covers(50));
    }

    #[test]
    fn duplicate_delivery_is_idempotent() {
        let mut m = ValidityMap::new();
        m.record(1500, 1500);
        let snapshot = m.clone();
        m.record(1500, 1500);
        assert_eq!(m, snapshot);
    }

    #[test]
    fn out_of_order_segments() {
        // Segments of a 6000-byte message arriving 3,0,2 (1 lost).
        let mtu = 1500u64;
        let mut m = ValidityMap::new();
        m.record(3 * mtu, mtu);
        m.record(0, mtu);
        m.record(2 * mtu, mtu);
        assert_eq!(m.valid_bytes(), 3 * mtu);
        assert!(!m.covers(4 * mtu));
        assert_eq!(m.gaps(4 * mtu), vec![Interval::new(mtu, 2 * mtu)]);
    }

    #[test]
    fn covers_requires_start_at_zero() {
        let mut m = ValidityMap::new();
        m.record(1, 100);
        assert!(!m.covers(100));
    }

    #[test]
    fn from_iter_collects() {
        let m: ValidityMap = [(0u64, 10u64), (10, 5), (30, 5)].into_iter().collect();
        assert_eq!(m.run_count(), 2);
        assert_eq!(m.valid_bytes(), 20);
    }
}
