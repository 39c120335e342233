//! Typed slab/arena allocator for per-connection state compaction.
//!
//! The memory-scaling argument of the paper (Fig. 11) lives or dies on how
//! many bytes of host state each concurrent call costs. Boxing every
//! per-call / per-QP object individually scatters small allocations across
//! the heap, costs allocator metadata per object, and makes "how much state
//! do N calls hold?" unanswerable without walking the world. A [`Slab`]
//! packs same-typed entries into one contiguous `Vec`, hands out stable
//! integer keys, reuses freed slots through an intrusive free list, and
//! catches use-after-free through generation-checked [`Handle`]s — the
//! shared, slab-backed resource-pool design RDMAvisor argues is what lets
//! RDMA endpoints scale to datacenter connection counts.
//!
//! Accounting hooks:
//!
//! * a slab built with [`Slab::with_mem`] reports `capacity × entry size`
//!   to a [`MemScope`], so [`crate::memacct::MemRegistry`] totals include
//!   the backing storage (occupied *and* free-listed slots — the bytes are
//!   resident either way, and honest accounting must say so);
//! * a shared [`SlabStats`] handle (attachable to `iwarp-telemetry`, which
//!   folds it into snapshots under `mem.slab.*`) counts allocations, frees,
//!   free-slot reuses, generation-check rejections, and gauges live entries
//!   vs reserved slots across every slab wired to it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::memacct::MemScope;

/// Sentinel index terminating the intrusive free list.
const NIL: u32 = u32::MAX;

/// A generation-checked key into a [`Slab`].
///
/// The index is stable for the lifetime of the entry; the generation is
/// bumped every time the slot is freed, so a stale handle held across a
/// free/reuse cycle is detected (lookups return `None`) instead of silently
/// aliasing the new occupant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Handle {
    index: u32,
    gen: u32,
}

impl Handle {
    /// Slot index of this handle (stable while the entry is live).
    #[must_use]
    pub fn index(self) -> u32 {
        self.index
    }

    /// Generation of this handle (matches the slot only while live).
    #[must_use]
    pub fn gen(self) -> u32 {
        self.gen
    }

    /// Packs the handle into a `u64` (`index` in the high word) for storage
    /// in contexts that only carry an integer, e.g. completion tokens.
    #[must_use]
    pub fn to_u64(self) -> u64 {
        (u64::from(self.index) << 32) | u64::from(self.gen)
    }

    /// Inverse of [`Handle::to_u64`].
    #[must_use]
    pub fn from_u64(raw: u64) -> Self {
        Self {
            index: (raw >> 32) as u32,
            gen: raw as u32,
        }
    }
}

/// Shared counters for slab activity, folded into telemetry snapshots as
/// `mem.slab.*`. Clone-cheap; several slabs may share one handle so the
/// gauges aggregate (e.g. one per device).
#[derive(Clone, Debug, Default)]
pub struct SlabStats {
    inner: Arc<SlabStatsInner>,
}

#[derive(Debug, Default)]
struct SlabStatsInner {
    allocs: AtomicU64,
    frees: AtomicU64,
    reuses: AtomicU64,
    stale_rejected: AtomicU64,
    live: AtomicU64,
    slots: AtomicU64,
}

impl SlabStats {
    /// Creates a fresh stats handle.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Total successful insertions across attached slabs.
    #[must_use]
    pub fn allocs(&self) -> u64 {
        self.inner.allocs.load(Ordering::Relaxed)
    }

    /// Total removals across attached slabs.
    #[must_use]
    pub fn frees(&self) -> u64 {
        self.inner.frees.load(Ordering::Relaxed)
    }

    /// Insertions that reused a free-listed slot instead of growing.
    #[must_use]
    pub fn reuses(&self) -> u64 {
        self.inner.reuses.load(Ordering::Relaxed)
    }

    /// Lookups/removals rejected by the generation check (stale handles).
    #[must_use]
    pub fn stale_rejected(&self) -> u64 {
        self.inner.stale_rejected.load(Ordering::Relaxed)
    }

    /// Gauge: entries currently live across attached slabs.
    #[must_use]
    pub fn live(&self) -> u64 {
        self.inner.live.load(Ordering::Relaxed)
    }

    /// Gauge: slots currently reserved (live + free-listed) across
    /// attached slabs.
    #[must_use]
    pub fn slots(&self) -> u64 {
        self.inner.slots.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
enum Slot<T> {
    /// Freed slot; `next` chains the intrusive free list ([`NIL`] ends it).
    Free {
        next: u32,
    },
    Occupied(T),
}

#[derive(Debug)]
struct Entry<T> {
    gen: u32,
    slot: Slot<T>,
}

/// A typed slab: contiguous storage, stable keys, free-list reuse,
/// generation-checked access.
///
/// Not a concurrent structure — callers wrap it in whatever lock already
/// guards the state it replaces (the point is compaction, not new
/// synchronization).
#[derive(Debug)]
pub struct Slab<T> {
    entries: Vec<Entry<T>>,
    free_head: u32,
    live: usize,
    mem: Option<MemScope>,
    stats: Option<SlabStats>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slab<T> {
    /// Creates an empty slab with no accounting hooks. Allocates nothing
    /// until the first insert.
    #[must_use]
    pub fn new() -> Self {
        Self {
            entries: Vec::new(),
            free_head: NIL,
            live: 0,
            mem: None,
            stats: None,
        }
    }

    /// Attaches a [`MemScope`]; the slab grows/shrinks it to mirror
    /// `capacity × size_of::<entry>()` as the backing vector resizes.
    #[must_use]
    pub fn with_mem(mut self, mem: MemScope) -> Self {
        self.mem = Some(mem);
        self.sync_mem();
        self
    }

    /// Attaches a [`SlabStats`] handle (shared counters/gauges).
    #[must_use]
    pub fn with_stats(mut self, stats: SlabStats) -> Self {
        if let Some(s) = &self.stats {
            // Re-attaching: move our gauge contribution off the old handle.
            s.inner.live.fetch_sub(self.live as u64, Ordering::Relaxed);
            s.inner
                .slots
                .fetch_sub(self.entries.len() as u64, Ordering::Relaxed);
        }
        stats
            .inner
            .live
            .fetch_add(self.live as u64, Ordering::Relaxed);
        stats
            .inner
            .slots
            .fetch_add(self.entries.len() as u64, Ordering::Relaxed);
        self.stats = Some(stats);
        self
    }

    fn entry_bytes() -> u64 {
        std::mem::size_of::<Entry<T>>() as u64
    }

    /// Re-points the attached [`MemScope`] at the current backing capacity.
    fn sync_mem(&mut self) {
        if let Some(mem) = &mut self.mem {
            let want = self.entries.capacity() as u64 * Self::entry_bytes();
            let have = mem.bytes();
            if want > have {
                mem.grow(want - have);
            } else {
                mem.shrink(have - want);
            }
        }
    }

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` when no entries are live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Slots currently reserved (live + free-listed). `occupancy ==
    /// len() / slots()` is the slab-health ratio the scale bench reports.
    #[must_use]
    pub fn slots(&self) -> usize {
        self.entries.len()
    }

    /// Bytes held by the backing vector (what [`Slab::with_mem`] reports).
    #[must_use]
    pub fn backing_bytes(&self) -> u64 {
        self.entries.capacity() as u64 * Self::entry_bytes()
    }

    /// Inserts `value`, reusing a free-listed slot when one exists.
    ///
    /// # Panics
    /// If the slab would exceed `u32::MAX - 1` slots.
    pub fn insert(&mut self, value: T) -> Handle {
        let index = if self.free_head != NIL {
            let i = self.free_head;
            let entry = &mut self.entries[i as usize];
            let Slot::Free { next } = entry.slot else {
                unreachable!("free list points at an occupied slot");
            };
            self.free_head = next;
            entry.slot = Slot::Occupied(value);
            if let Some(s) = &self.stats {
                s.inner.reuses.fetch_add(1, Ordering::Relaxed);
            }
            i
        } else {
            let i = u32::try_from(self.entries.len()).expect("slab index overflow");
            assert!(i < NIL, "slab full");
            self.entries.push(Entry {
                gen: 0,
                slot: Slot::Occupied(value),
            });
            self.sync_mem();
            if let Some(s) = &self.stats {
                s.inner.slots.fetch_add(1, Ordering::Relaxed);
            }
            i
        };
        self.live += 1;
        if let Some(s) = &self.stats {
            s.inner.allocs.fetch_add(1, Ordering::Relaxed);
            s.inner.live.fetch_add(1, Ordering::Relaxed);
        }
        Handle {
            index,
            gen: self.entries[index as usize].gen,
        }
    }

    fn check(&self, h: Handle) -> bool {
        let ok = self
            .entries
            .get(h.index as usize)
            .is_some_and(|e| e.gen == h.gen && matches!(e.slot, Slot::Occupied(_)));
        if !ok {
            if let Some(s) = &self.stats {
                s.inner.stale_rejected.fetch_add(1, Ordering::Relaxed);
            }
        }
        ok
    }

    /// Shared access; `None` if the handle is stale or out of range.
    #[must_use]
    pub fn get(&self, h: Handle) -> Option<&T> {
        if !self.check(h) {
            return None;
        }
        match &self.entries[h.index as usize].slot {
            Slot::Occupied(v) => Some(v),
            Slot::Free { .. } => None,
        }
    }

    /// Exclusive access; `None` if the handle is stale or out of range.
    #[must_use]
    pub fn get_mut(&mut self, h: Handle) -> Option<&mut T> {
        if !self.check(h) {
            return None;
        }
        match &mut self.entries[h.index as usize].slot {
            Slot::Occupied(v) => Some(v),
            Slot::Free { .. } => None,
        }
    }

    /// Removes and returns the entry; `None` (and a `stale_rejected` tick)
    /// if the handle is stale. The slot's generation is bumped so every
    /// outstanding handle to it goes stale, then the slot joins the free
    /// list for reuse.
    pub fn remove(&mut self, h: Handle) -> Option<T> {
        if !self.check(h) {
            return None;
        }
        let entry = &mut self.entries[h.index as usize];
        let old = std::mem::replace(
            &mut entry.slot,
            Slot::Free {
                next: self.free_head,
            },
        );
        entry.gen = entry.gen.wrapping_add(1);
        self.free_head = h.index;
        self.live -= 1;
        if let Some(s) = &self.stats {
            s.inner.frees.fetch_add(1, Ordering::Relaxed);
            s.inner.live.fetch_sub(1, Ordering::Relaxed);
        }
        match old {
            Slot::Occupied(v) => Some(v),
            Slot::Free { .. } => unreachable!("check() verified occupancy"),
        }
    }

    /// Iterates live entries as `(Handle, &T)` in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (Handle, &T)> {
        self.entries.iter().enumerate().filter_map(|(i, e)| {
            if let Slot::Occupied(v) = &e.slot {
                Some((
                    Handle {
                        index: i as u32,
                        gen: e.gen,
                    },
                    v,
                ))
            } else {
                None
            }
        })
    }

    /// Iterates live entries as `(Handle, &mut T)` in slot order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (Handle, &mut T)> {
        self.entries.iter_mut().enumerate().filter_map(|(i, e)| {
            if let Slot::Occupied(v) = &mut e.slot {
                Some((
                    Handle {
                        index: i as u32,
                        gen: e.gen,
                    },
                    v,
                ))
            } else {
                None
            }
        })
    }

    /// Drops every live entry and rebuilds the free list over the existing
    /// slots (capacity — and the accounted bytes — are retained for reuse).
    pub fn clear(&mut self) {
        let freed = self.live;
        let n = self.entries.len();
        for (i, entry) in self.entries.iter_mut().enumerate() {
            if matches!(entry.slot, Slot::Occupied(_)) {
                entry.gen = entry.gen.wrapping_add(1);
            }
            entry.slot = Slot::Free {
                next: if i + 1 < n { (i + 1) as u32 } else { NIL },
            };
        }
        self.free_head = if self.entries.is_empty() { NIL } else { 0 };
        self.live = 0;
        if let Some(s) = &self.stats {
            s.inner.frees.fetch_add(freed as u64, Ordering::Relaxed);
            s.inner.live.fetch_sub(freed as u64, Ordering::Relaxed);
        }
    }
}

impl<T> Drop for Slab<T> {
    fn drop(&mut self) {
        if let Some(s) = &self.stats {
            s.inner.live.fetch_sub(self.live as u64, Ordering::Relaxed);
            s.inner
                .slots
                .fetch_sub(self.entries.len() as u64, Ordering::Relaxed);
        }
        // `mem` (a MemScope) releases the backing bytes on its own drop.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memacct::MemRegistry;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut slab = Slab::new();
        let a = slab.insert("alpha");
        let b = slab.insert("beta");
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.get(a), Some(&"alpha"));
        assert_eq!(slab.get(b), Some(&"beta"));
        assert_eq!(slab.remove(a), Some("alpha"));
        assert_eq!(slab.len(), 1);
        assert_eq!(slab.get(a), None);
        assert_eq!(slab.get(b), Some(&"beta"));
    }

    #[test]
    fn freed_slot_is_reused_and_old_handle_goes_stale() {
        let mut slab = Slab::new().with_stats(SlabStats::new());
        let a = slab.insert(1u32);
        slab.remove(a);
        let b = slab.insert(2u32);
        // Same slot, new generation.
        assert_eq!(a.index(), b.index());
        assert_ne!(a.gen(), b.gen());
        assert_eq!(slab.get(a), None, "stale handle must not alias");
        assert_eq!(slab.get(b), Some(&2));
        assert_eq!(slab.remove(a), None);
        assert_eq!(slab.get(b), Some(&2), "stale remove must not evict");
    }

    #[test]
    fn stats_track_activity() {
        let stats = SlabStats::new();
        let mut slab = Slab::new().with_stats(stats.clone());
        let a = slab.insert(10u8);
        let _b = slab.insert(20u8);
        slab.remove(a);
        let _c = slab.insert(30u8); // reuses a's slot
        assert_eq!(stats.allocs(), 3);
        assert_eq!(stats.frees(), 1);
        assert_eq!(stats.reuses(), 1);
        assert_eq!(stats.live(), 2);
        assert_eq!(stats.slots(), 2);
        let _ = slab.get(a); // stale
        assert_eq!(stats.stale_rejected(), 1);
        drop(slab);
        assert_eq!(stats.live(), 0);
        assert_eq!(stats.slots(), 0);
    }

    #[test]
    fn mem_scope_mirrors_backing_capacity() {
        let reg = MemRegistry::new();
        let mut slab = Slab::new().with_mem(reg.track("slab_test", 0));
        assert_eq!(reg.current("slab_test"), 0, "empty slab costs nothing");
        let handles: Vec<_> = (0..64).map(|i| slab.insert([i as u8; 32])).collect();
        assert_eq!(reg.current("slab_test"), slab.backing_bytes());
        assert!(reg.current("slab_test") > 0);
        for h in handles {
            slab.remove(h);
        }
        // Capacity (and therefore accounted bytes) is retained for reuse.
        assert_eq!(reg.current("slab_test"), slab.backing_bytes());
        drop(slab);
        assert_eq!(reg.current("slab_test"), 0);
    }

    #[test]
    fn handle_u64_roundtrip() {
        let h = Handle {
            index: 0xDEAD_BEEF,
            gen: 0x1234_5678,
        };
        assert_eq!(Handle::from_u64(h.to_u64()), h);
    }

    #[test]
    fn iter_visits_only_live() {
        let mut slab = Slab::new();
        let a = slab.insert('a');
        let b = slab.insert('b');
        let c = slab.insert('c');
        slab.remove(b);
        let seen: Vec<_> = slab.iter().map(|(h, v)| (h, *v)).collect();
        assert_eq!(seen, vec![(a, 'a'), (c, 'c')]);
    }

    #[test]
    fn clear_frees_everything_but_keeps_slots() {
        let stats = SlabStats::new();
        let mut slab = Slab::new().with_stats(stats.clone());
        let a = slab.insert(1);
        let _b = slab.insert(2);
        slab.clear();
        assert!(slab.is_empty());
        assert_eq!(slab.slots(), 2);
        assert_eq!(slab.get(a), None);
        assert_eq!(stats.live(), 0);
        assert_eq!(stats.slots(), 2);
        let c = slab.insert(3);
        assert_eq!(slab.get(c), Some(&3));
        assert_eq!(slab.slots(), 2, "cleared slots are reused");
    }
}
