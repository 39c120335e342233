//! Point-in-time export of every metric in a telemetry domain.

use std::fmt;

/// A sorted name→value capture of counters, histogram aggregates, and
/// attached memory scopes. Produced by `Telemetry::snapshot`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    entries: Vec<(String, u64)>,
}

impl Snapshot {
    pub(crate) fn from_entries(entries: Vec<(String, u64)>) -> Self {
        Self { entries }
    }

    /// Looks up one metric by exact name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<u64> {
        self.entries
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
            .ok()
            .map(|i| self.entries[i].1)
    }

    /// All `(name, value)` pairs, sorted by name.
    #[must_use]
    pub fn entries(&self) -> &[(String, u64)] {
        &self.entries
    }

    /// Sum of every metric whose name starts with `prefix` (for rollups
    /// like "all drops under `simnet.fabric.`").
    #[must_use]
    pub fn sum_prefix(&self, prefix: &str) -> u64 {
        self.entries
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }

    /// The change since `earlier`: entries whose value differs, as
    /// `now - then` (saturating; counters are monotonic so a negative
    /// delta indicates a restarted domain and clamps to 0). Metrics new
    /// in `self` appear with their full value.
    #[must_use]
    pub fn delta(&self, earlier: &Self) -> Self {
        let entries = self
            .entries
            .iter()
            .filter_map(|(k, v)| {
                let then = earlier.get(k).unwrap_or(0);
                let d = v.saturating_sub(then);
                (d != 0).then(|| (k.clone(), d))
            })
            .collect();
        Self { entries }
    }

    /// Renders `name,value` CSV with a header row.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from("counter,value\n");
        for (k, v) in &self.entries {
            out.push_str(k);
            out.push(',');
            out.push_str(&v.to_string());
            out.push('\n');
        }
        out
    }

    /// Renders an aligned human-readable table (also the `Display` form).
    #[must_use]
    pub fn to_text(&self) -> String {
        let width = self.entries.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (k, v) in &self.entries {
            out.push_str(&format!("{k:<width$}  {v}\n"));
        }
        out
    }

    /// Number of exported metrics.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Merges `other` into `self`, summing metrics present in both (for
    /// aggregating across the many short-lived fabrics a figure sweep
    /// creates).
    pub fn merge(&mut self, other: &Self) {
        for (k, v) in &other.entries {
            match self.entries.binary_search_by(|(e, _)| e.as_str().cmp(k)) {
                Ok(i) => self.entries[i].1 += v,
                Err(i) => self.entries.insert(i, (k.clone(), *v)),
            }
        }
    }
}

impl fmt::Display for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(pairs: &[(&str, u64)]) -> Snapshot {
        let mut entries: Vec<(String, u64)> =
            pairs.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect();
        entries.sort();
        Snapshot::from_entries(entries)
    }

    #[test]
    fn csv_and_text_forms() {
        let s = snap(&[("a.b", 1), ("a.c", 2)]);
        assert_eq!(s.to_csv(), "counter,value\na.b,1\na.c,2\n");
        assert!(s.to_text().contains("a.b"));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn prefix_rollup() {
        let s = snap(&[("x.a", 1), ("x.b", 2), ("y.a", 10)]);
        assert_eq!(s.sum_prefix("x."), 3);
        assert_eq!(s.sum_prefix("y."), 10);
        assert_eq!(s.sum_prefix("z."), 0);
    }

    #[test]
    fn merge_sums_common_keys() {
        let mut a = snap(&[("k", 1), ("only_a", 5)]);
        let b = snap(&[("k", 2), ("only_b", 7)]);
        a.merge(&b);
        assert_eq!(a.get("k"), Some(3));
        assert_eq!(a.get("only_a"), Some(5));
        assert_eq!(a.get("only_b"), Some(7));
    }
}
