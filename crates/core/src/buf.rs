//! Registered memory: STags, memory regions and the MR table.
//!
//! iWARP's tagged model steers incoming data directly into application
//! memory named by a *steering tag* (STag) plus offset — no intermediate
//! copies ("zero copy"). That is inherently a shared-memory discipline:
//! the protocol engine writes into a buffer the application also holds.
//! Real RNIC hardware does this by DMA; in this software stack the RX
//! engine thread plays the DMA engine.
//!
//! # Safety model
//!
//! [`MemoryRegion`] wraps its storage in an `UnsafeCell` and hands out
//! *copying* accessors only. The `unsafe` blocks below are sound because:
//!
//! 1. every access is bounds-checked against the registration before the
//!    raw pointer is formed;
//! 2. writers (the engine) and readers (the application) may race on
//!    *content* — exactly as on real RDMA hardware, where a remote write
//!    racing a local read yields unspecified bytes — but never on
//!    *allocation*: the buffer is allocated once at registration and freed
//!    only when the last `Arc` drops, so no access is ever out of bounds
//!    or use-after-free;
//! 3. torn reads are prevented from becoming UB by routing all raw access
//!    through `ptr::copy_nonoverlapping` on `u8`, never through references
//!    to the overlapping range.
//!
//! Applications that follow the RDMA completion discipline (only read
//! ranges a completion/validity map declared valid) observe fully
//! consistent data, because the engine finishes its copy and releases the
//! CQ lock (a release/acquire pair) before the completion is visible.

use std::cell::UnsafeCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use iwarp_common::validity::{Interval, ValidityMap};
use parking_lot::{Mutex, RwLock};

use crate::error::{IwarpError, IwarpResult};

/// Access rights attached to a registration, mirroring iWARP MR rights.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Access {
    /// Local use only (send sources, receive sinks).
    Local,
    /// Remote peers may RDMA-Write (and Write-Record) into this region.
    RemoteWrite,
    /// Remote peers may RDMA-Read from this region.
    RemoteRead,
    /// Both remote read and remote write.
    RemoteReadWrite,
}

impl Access {
    /// True if remote writes are permitted.
    #[must_use]
    pub fn allows_remote_write(self) -> bool {
        matches!(self, Access::RemoteWrite | Access::RemoteReadWrite)
    }

    /// True if remote reads are permitted.
    #[must_use]
    pub fn allows_remote_read(self) -> bool {
        matches!(self, Access::RemoteRead | Access::RemoteReadWrite)
    }
}

struct MrInner {
    stag: u32,
    access: Access,
    storage: UnsafeCell<Box<[u8]>>,
    len: usize,
    /// Opt-in placement tracking: `Some` aggregates every byte range the
    /// engine (or the application) writes into a region-wide validity map,
    /// so consumers can enumerate holes without probing per offset.
    tracking: Mutex<Option<ValidityMap>>,
}

// SAFETY: all access to `storage` goes through the bounds-checked copying
// accessors below (see the module-level safety model). The type exposes no
// references into the cell.
unsafe impl Sync for MrInner {}
unsafe impl Send for MrInner {}

/// A registered memory region, addressable by remote peers via its STag.
///
/// Cloning is cheap (reference counted); all clones alias the same bytes.
#[derive(Clone)]
pub struct MemoryRegion {
    inner: Arc<MrInner>,
}

impl std::fmt::Debug for MemoryRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryRegion")
            .field("stag", &self.inner.stag)
            .field("len", &self.inner.len)
            .field("access", &self.inner.access)
            .finish()
    }
}

impl MemoryRegion {
    fn new(stag: u32, len: usize, access: Access) -> Self {
        Self {
            inner: Arc::new(MrInner {
                stag,
                access,
                storage: UnsafeCell::new(vec![0u8; len].into_boxed_slice()),
                len,
                tracking: Mutex::new(None),
            }),
        }
    }

    /// The steering tag identifying this region on the wire.
    #[must_use]
    pub fn stag(&self) -> u32 {
        self.inner.stag
    }

    /// Registered length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.len
    }

    /// True for zero-length registrations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inner.len == 0
    }

    /// Access rights of this registration.
    #[must_use]
    pub fn access(&self) -> Access {
        self.inner.access
    }

    fn check(&self, offset: u64, len: usize) -> IwarpResult<usize> {
        let off = usize::try_from(offset).map_err(|_| IwarpError::AccessViolation {
            stag: self.inner.stag,
            offset,
            len: len as u32,
        })?;
        if off.checked_add(len).is_none_or(|end| end > self.inner.len) {
            return Err(IwarpError::AccessViolation {
                stag: self.inner.stag,
                offset,
                len: len as u32,
            });
        }
        Ok(off)
    }

    /// Places `data` at `offset` (the engine-side "DMA write").
    ///
    /// Bounds-checked; returns [`IwarpError::AccessViolation`] rather than
    /// touching memory outside the registration.
    pub fn write(&self, offset: u64, data: &[u8]) -> IwarpResult<()> {
        let off = self.check(offset, data.len())?;
        // SAFETY: `off + data.len() <= len` was just checked; the buffer
        // lives as long as `self`; byte-wise copy tolerates racing readers
        // (see module-level safety model).
        unsafe {
            let base = (*self.inner.storage.get()).as_mut_ptr();
            std::ptr::copy_nonoverlapping(data.as_ptr(), base.add(off), data.len());
        }
        self.note_placed(offset, data.len());
        Ok(())
    }

    /// Places `data` at `offset` while resolving a deferred CRC check —
    /// the fused verify-then-place for the datapath's one mandatory copy.
    ///
    /// Bounds are checked before any byte moves, and the digest settles
    /// *before* any byte is placed (store-and-verify semantics): on
    /// [`IwarpError::CrcMismatch`] the region is untouched. This matters
    /// under duplication — a corrupted duplicate of an already-placed,
    /// already-validated segment must not clobber the validated bytes,
    /// since the validity record naming that range stays visible to the
    /// application. Cut-through placement (bytes first, verdict after)
    /// would break exactly that invariant.
    ///
    /// The digest pass and the copy pass both traverse `data` in page-
    /// sized runs; the source stays L1/L2-hot between the two passes, so
    /// the cost over single-traversal cut-through is one extra warm read.
    pub fn write_with_crc(
        &self,
        offset: u64,
        data: &[u8],
        pending: &crate::hdr::PendingCrc,
    ) -> IwarpResult<()> {
        let off = self.check(offset, data.len())?;
        let mut state = pending.state();
        state.update(data);
        if state.finish() != pending.expected() {
            return Err(IwarpError::CrcMismatch);
        }
        // SAFETY: `off + data.len() <= len` was just checked; the buffer
        // lives as long as `self`; byte-wise copy tolerates racing readers
        // (see module-level safety model).
        unsafe {
            let base = (*self.inner.storage.get()).as_mut_ptr().add(off);
            std::ptr::copy_nonoverlapping(data.as_ptr(), base, data.len());
        }
        self.note_placed(offset, data.len());
        Ok(())
    }

    /// Copies `buf.len()` bytes starting at `offset` out of the region.
    pub fn read_into(&self, offset: u64, buf: &mut [u8]) -> IwarpResult<()> {
        let off = self.check(offset, buf.len())?;
        // SAFETY: bounds checked above; see module-level safety model.
        unsafe {
            let base = (*self.inner.storage.get()).as_ptr();
            std::ptr::copy_nonoverlapping(base.add(off), buf.as_mut_ptr(), buf.len());
        }
        Ok(())
    }

    /// Copies a range out of the region into a fresh vector.
    pub fn read_vec(&self, offset: u64, len: usize) -> IwarpResult<Vec<u8>> {
        let mut v = vec![0u8; len];
        self.read_into(offset, &mut v)?;
        Ok(v)
    }

    /// Copies a range into [`bytes::Bytes`] (used by the TX engines to
    /// snapshot send payloads).
    pub fn read_bytes(&self, offset: u64, len: usize) -> IwarpResult<bytes::Bytes> {
        Ok(bytes::Bytes::from(self.read_vec(offset, len)?))
    }

    /// Fills the whole region with `byte` (test helper).
    pub fn fill(&self, byte: u8) {
        let v = vec![byte; self.inner.len];
        self.write(0, &v).expect("full-region write is in bounds");
    }

    fn note_placed(&self, offset: u64, len: usize) {
        if len == 0 {
            return;
        }
        let mut t = self.inner.tracking.lock();
        if let Some(map) = t.as_mut() {
            map.record(offset, len as u64);
        }
    }

    /// Enables region-wide placement tracking, resetting any prior state:
    /// from this call on, every successful [`Self::write`] /
    /// [`Self::write_with_crc`] — including one-sided placement done by
    /// the RX engine — is aggregated into a validity map that
    /// [`Self::holes`] and [`Self::validity`] expose. Bytes written
    /// *before* this call (initial zero fill, sentinel fills) do not
    /// count as valid.
    pub fn track_validity(&self) {
        *self.inner.tracking.lock() = Some(ValidityMap::new());
    }

    /// True once [`Self::track_validity`] has been called.
    #[must_use]
    pub fn is_tracking_validity(&self) -> bool {
        self.inner.tracking.lock().is_some()
    }

    /// Snapshot of the tracked validity map (`None` when tracking is off).
    #[must_use]
    pub fn validity(&self) -> Option<ValidityMap> {
        self.inner.tracking.lock().clone()
    }

    /// Enumerates the invalid byte ranges (holes) in `[0, high_water)` —
    /// the ranges a reconciliation pass must re-fetch. This is the
    /// direct replacement for probing validity per offset: one call, one
    /// lock round, sorted disjoint intervals out.
    ///
    /// With tracking disabled nothing is known to be valid, so the whole
    /// of `[0, high_water)` is reported as one hole.
    #[must_use]
    pub fn holes(&self, high_water: u64) -> Vec<Interval> {
        if high_water == 0 {
            return Vec::new();
        }
        match self.inner.tracking.lock().as_ref() {
            Some(map) => map.gaps(high_water),
            None => vec![Interval::new(0, high_water)],
        }
    }

    /// True when every byte of `[start, end)` has been placed since
    /// tracking was enabled (false whenever tracking is off and the
    /// range is non-empty).
    #[must_use]
    pub fn valid_range(&self, start: u64, end: u64) -> bool {
        if start >= end {
            return true;
        }
        self.inner
            .tracking
            .lock()
            .as_ref()
            .is_some_and(|m| m.contains_range(start, end))
    }
}

/// The registration table: STag → region, shared by all QPs of a device.
///
/// "The receiving machine enforces the requirement that the requested
/// memory location must be registered with the device as a valid memory
/// region before placing the data" (paper §II) — [`MrTable::lookup_remote_write`]
/// and friends are that enforcement point.
#[derive(Default)]
pub struct MrTable {
    regions: RwLock<HashMap<u32, MemoryRegion>>,
    next_stag: AtomicU32,
}

impl MrTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        Self {
            regions: RwLock::new(HashMap::new()),
            next_stag: AtomicU32::new(0x100),
        }
    }

    /// Registers a fresh zeroed region of `len` bytes.
    pub fn register(&self, len: usize, access: Access) -> MemoryRegion {
        let stag = self.next_stag.fetch_add(1, Ordering::Relaxed);
        let mr = MemoryRegion::new(stag, len, access);
        self.regions.write().insert(stag, mr.clone());
        mr
    }

    /// Registers a region initialized with `data`.
    pub fn register_with(&self, data: &[u8], access: Access) -> MemoryRegion {
        let mr = self.register(data.len(), access);
        mr.write(0, data).expect("same-length write is in bounds");
        mr
    }

    /// Invalidates an STag. Subsequent lookups fail; existing clones of
    /// the region remain readable locally (they share the allocation).
    pub fn invalidate(&self, stag: u32) -> IwarpResult<()> {
        self.regions
            .write()
            .remove(&stag)
            .map(|_| ())
            .ok_or(IwarpError::InvalidStag(stag))
    }

    /// Looks up a region without access checks (local use).
    pub fn lookup(&self, stag: u32) -> IwarpResult<MemoryRegion> {
        self.regions
            .read()
            .get(&stag)
            .cloned()
            .ok_or(IwarpError::InvalidStag(stag))
    }

    /// Looks up a region and validates a remote-write of `len` bytes at
    /// `offset` (the tagged-placement enforcement point).
    pub fn lookup_remote_write(
        &self,
        stag: u32,
        offset: u64,
        len: usize,
    ) -> IwarpResult<MemoryRegion> {
        let mr = self.lookup(stag)?;
        if !mr.access().allows_remote_write() {
            return Err(IwarpError::AccessViolation {
                stag,
                offset,
                len: len as u32,
            });
        }
        mr.check(offset, len)?;
        Ok(mr)
    }

    /// Looks up a region and validates a remote-read.
    pub fn lookup_remote_read(
        &self,
        stag: u32,
        offset: u64,
        len: usize,
    ) -> IwarpResult<MemoryRegion> {
        let mr = self.lookup(stag)?;
        if !mr.access().allows_remote_read() {
            return Err(IwarpError::AccessViolation {
                stag,
                offset,
                len: len as u32,
            });
        }
        mr.check(offset, len)?;
        Ok(mr)
    }

    /// Number of live registrations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.regions.read().len()
    }

    /// True when nothing is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.regions.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_rw() {
        let t = MrTable::new();
        let mr = t.register(128, Access::RemoteWrite);
        mr.write(16, b"hello").unwrap();
        assert_eq!(mr.read_vec(16, 5).unwrap(), b"hello");
        assert_eq!(mr.read_vec(0, 4).unwrap(), vec![0u8; 4]);
    }

    #[test]
    fn register_with_initial_data() {
        let t = MrTable::new();
        let mr = t.register_with(b"abcdef", Access::Local);
        assert_eq!(mr.read_vec(0, 6).unwrap(), b"abcdef");
        assert_eq!(mr.len(), 6);
    }

    #[test]
    fn unique_stags() {
        let t = MrTable::new();
        let a = t.register(8, Access::Local);
        let b = t.register(8, Access::Local);
        assert_ne!(a.stag(), b.stag());
    }

    #[test]
    fn out_of_bounds_write_rejected() {
        let t = MrTable::new();
        let mr = t.register(32, Access::RemoteWrite);
        assert!(matches!(
            mr.write(30, b"xyz"),
            Err(IwarpError::AccessViolation { .. })
        ));
        assert!(matches!(
            mr.write(u64::MAX, b"x"),
            Err(IwarpError::AccessViolation { .. })
        ));
        // Boundary write succeeds.
        mr.write(29, b"xyz").unwrap();
    }

    #[test]
    fn out_of_bounds_read_rejected() {
        let t = MrTable::new();
        let mr = t.register(8, Access::Local);
        assert!(mr.read_vec(8, 1).is_err());
        assert!(mr.read_vec(0, 9).is_err());
        assert!(mr.read_vec(0, 8).is_ok());
    }

    #[test]
    fn remote_write_permission_enforced() {
        let t = MrTable::new();
        let local = t.register(64, Access::Local);
        let ro = t.register(64, Access::RemoteRead);
        let rw = t.register(64, Access::RemoteReadWrite);
        assert!(t.lookup_remote_write(local.stag(), 0, 8).is_err());
        assert!(t.lookup_remote_write(ro.stag(), 0, 8).is_err());
        assert!(t.lookup_remote_write(rw.stag(), 0, 8).is_ok());
        assert!(t.lookup_remote_write(rw.stag(), 60, 8).is_err());
    }

    #[test]
    fn remote_read_permission_enforced() {
        let t = MrTable::new();
        let wo = t.register(64, Access::RemoteWrite);
        let ro = t.register(64, Access::RemoteRead);
        assert!(t.lookup_remote_read(wo.stag(), 0, 8).is_err());
        assert!(t.lookup_remote_read(ro.stag(), 0, 8).is_ok());
    }

    #[test]
    fn invalid_stag_lookup() {
        let t = MrTable::new();
        assert_eq!(t.lookup(0xDEAD).unwrap_err(), IwarpError::InvalidStag(0xDEAD));
    }

    #[test]
    fn invalidate_removes() {
        let t = MrTable::new();
        let mr = t.register(8, Access::Local);
        t.invalidate(mr.stag()).unwrap();
        assert!(t.lookup(mr.stag()).is_err());
        assert!(t.invalidate(mr.stag()).is_err());
        // The clone we hold still works locally.
        mr.write(0, b"x").unwrap();
    }

    #[test]
    fn concurrent_disjoint_writes() {
        let t = MrTable::new();
        let mr = t.register(8 * 1024, Access::RemoteWrite);
        std::thread::scope(|s| {
            for i in 0..8usize {
                let mr = mr.clone();
                s.spawn(move || {
                    let chunk = vec![i as u8; 1024];
                    mr.write((i * 1024) as u64, &chunk).unwrap();
                });
            }
        });
        for i in 0..8usize {
            let got = mr.read_vec((i * 1024) as u64, 1024).unwrap();
            assert!(got.iter().all(|&b| b == i as u8), "chunk {i}");
        }
    }

    #[test]
    fn fused_crc_write_places_and_verifies() {
        use crate::hdr::{decode_sg, DdpSegment, RdmapOpcode, SegBatch, TaggedHdr};
        let pool = iwarp_common::pool::BufPool::new();
        let payload: Vec<u8> = (0..9000u32).map(|i| (i % 253) as u8).collect();
        let hdr = TaggedHdr {
            opcode: RdmapOpcode::WriteRecord,
            last: true,
            notify: true,
            stag: 1,
            to: 64,
            base_to: 64,
            total_len: payload.len() as u32,
            src_qpn: 3,
            msg_id: 11,
            imm: 0,
        };
        let mut batch = SegBatch::new(&pool, 1);
        batch.push(DdpSegment::Tagged {
            hdr,
            payload: bytes::Bytes::from(payload.clone()),
        });
        let sg = batch.finish().pop().expect("one segment");
        let (seg, pending) = decode_sg(&sg, true).unwrap();
        let pending = pending.expect("multi-part defers the CRC");
        let DdpSegment::Tagged { payload: p, .. } = seg else {
            panic!("tagged expected")
        };

        let t = MrTable::new();
        let mr = t.register(16 * 1024, Access::RemoteWrite);
        mr.write_with_crc(64, &p, &pending).unwrap();
        assert_eq!(mr.read_vec(64, payload.len()).unwrap(), payload);

        // Corrupt payload: the check fails and — store-and-verify — the
        // previously validated bytes are untouched.
        let mut bad = p.to_vec();
        bad[100] ^= 0x80;
        assert_eq!(
            mr.write_with_crc(64, &bad, &pending).unwrap_err(),
            IwarpError::CrcMismatch
        );
        assert_eq!(
            mr.read_vec(64, payload.len()).unwrap(),
            payload,
            "failed CRC write must not clobber validated bytes"
        );
        // Out of bounds is refused before any byte moves.
        assert!(matches!(
            mr.write_with_crc(16 * 1024 - 8, &p, &pending).unwrap_err(),
            IwarpError::AccessViolation { .. }
        ));
    }

    #[test]
    fn holes_untracked_and_empty_map() {
        let t = MrTable::new();
        let mr = t.register(256, Access::RemoteWrite);
        // Tracking off: everything below high water is one hole.
        assert!(!mr.is_tracking_validity());
        assert_eq!(mr.holes(100), vec![Interval::new(0, 100)]);
        assert!(!mr.valid_range(0, 1));
        assert!(mr.validity().is_none());
        // Tracking on, nothing placed yet: same single hole, empty map.
        mr.track_validity();
        assert!(mr.is_tracking_validity());
        assert_eq!(mr.holes(100), vec![Interval::new(0, 100)]);
        assert!(mr.validity().unwrap().is_empty());
        assert_eq!(mr.holes(0), Vec::new());
        assert!(mr.valid_range(5, 5), "empty range is trivially valid");
    }

    #[test]
    fn holes_full_map() {
        let t = MrTable::new();
        let mr = t.register(256, Access::RemoteWrite);
        // Pre-tracking fills must not count as valid.
        mr.fill(0xA5);
        mr.track_validity();
        assert_eq!(mr.holes(256), vec![Interval::new(0, 256)]);
        mr.write(0, &[1u8; 256]).unwrap();
        assert_eq!(mr.holes(256), Vec::new());
        assert!(mr.valid_range(0, 256));
        assert!(mr.validity().unwrap().covers(256));
        // High water below the valid run still reports no holes.
        assert_eq!(mr.holes(100), Vec::new());
    }

    #[test]
    fn holes_fragmented_map() {
        let t = MrTable::new();
        let mr = t.register(1024, Access::RemoteWrite);
        mr.track_validity();
        // Out-of-order, overlapping, and duplicate placements — the
        // union is what matters.
        mr.write(512, &[2u8; 128]).unwrap();
        mr.write(0, &[1u8; 100]).unwrap();
        mr.write(50, &[3u8; 50]).unwrap(); // duplicate tail of run 1
        mr.write(512, &[2u8; 128]).unwrap(); // exact duplicate
        assert_eq!(
            mr.holes(1024),
            vec![Interval::new(100, 512), Interval::new(640, 1024)]
        );
        // High water inside a hole truncates it ...
        assert_eq!(mr.holes(200), vec![Interval::new(100, 200)]);
        // ... and inside a valid run hides everything past it.
        assert_eq!(mr.holes(60), Vec::new());
        assert!(mr.valid_range(0, 100));
        assert!(!mr.valid_range(0, 101));
        assert!(mr.valid_range(512, 640));
        // Bridge the first gap; holes coalesce away.
        mr.write(100, &[4u8; 412]).unwrap();
        assert_eq!(mr.holes(640), Vec::new());
        assert_eq!(mr.holes(1024), vec![Interval::new(640, 1024)]);
    }

    #[test]
    fn tracking_ignores_failed_writes() {
        let t = MrTable::new();
        let mr = t.register(64, Access::RemoteWrite);
        mr.track_validity();
        assert!(mr.write(60, &[0u8; 8]).is_err());
        assert_eq!(mr.holes(64), vec![Interval::new(0, 64)]);
        // track_validity() again resets the map.
        mr.write(0, &[1u8; 64]).unwrap();
        assert!(mr.valid_range(0, 64));
        mr.track_validity();
        assert_eq!(mr.holes(64), vec![Interval::new(0, 64)]);
    }

    #[test]
    fn zero_length_region() {
        let t = MrTable::new();
        let mr = t.register(0, Access::Local);
        assert!(mr.is_empty());
        assert!(mr.write(0, &[]).is_ok());
        assert!(mr.write(0, b"x").is_err());
    }
}
