//! Lock-free event counters.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing event counter.
///
/// One plain atomic held inline in its domain's block; increments are
/// single relaxed RMW operations, so a bump on a per-byte hot path costs
/// roughly one uncontended atomic add per event — the "compiled in but
/// almost free" budget the benches hold the stack to.
#[derive(Debug, Default)]
pub struct Counter {
    cell: AtomicU64,
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    #[must_use]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }

    /// Appends `name` with the current value to `out`.
    pub(crate) fn export(&self, name: &str, out: &mut Vec<(String, u64)>) {
        out.push((name.to_owned(), self.get()));
    }
}
