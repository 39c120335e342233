//! RDMA Write-Record target-side machinery.
//!
//! "RDMA Write-Record must log at the target side what data has been
//! written to memory and is valid. The target application can then request
//! this information ... by reading the appropriate completion queue
//! entries. These completion queue entries can be designed as either
//! individual entries for each logical chunk of data in a message or can
//! be a validity map; essentially an aggregated form of individual
//! completion notifications." (paper §IV.B.3)
//!
//! [`RecordTable`] implements the aggregated form: as tagged Write-Record
//! segments of a message are placed, their extents accumulate in a
//! [`ValidityMap`]; when the **final** segment (L flag) arrives, a single
//! completion carrying the map is emitted. Losing the final segment loses
//! the whole message (paper §VI.A.2) — the table's garbage collector then
//! reaps the stale record after a TTL, leaving no completion behind.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use simnet::Addr;

use iwarp_common::validity::ValidityMap;

use crate::hdr::TaggedHdr;

/// Validity details delivered with a target-side Write-Record completion.
#[derive(Clone, Debug)]
pub struct WriteRecordInfo {
    /// Sink region the message was written into.
    pub stag: u32,
    /// Tagged offset of the message's first byte in the sink region.
    pub base_to: u64,
    /// Length the sender intended to write.
    pub total_len: u32,
    /// Message-relative valid ranges (offset 0 = `base_to` in the region).
    pub validity: ValidityMap,
}

impl WriteRecordInfo {
    /// True when every intended byte arrived.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.validity.covers(u64::from(self.total_len))
    }

    /// Bytes that actually arrived and were placed.
    #[must_use]
    pub fn valid_bytes(&self) -> u64 {
        self.validity.valid_bytes()
    }

    /// Valid ranges in *sink-region* coordinates.
    #[must_use]
    pub fn absolute_runs(&self) -> Vec<(u64, u64)> {
        self.validity
            .runs()
            .iter()
            .map(|r| (self.base_to + r.start, self.base_to + r.end))
            .collect()
    }
}

struct Record {
    info: WriteRecordInfo,
    last_seen: Instant,
}

/// Aggregates per-segment Write-Record placements into per-message
/// validity maps, keyed by `(source address, source QP, message id)`.
pub struct RecordTable {
    entries: Mutex<HashMap<(Addr, u32, u64), Record>>,
    ttl: Duration,
    last_gc: Mutex<Instant>,
}

/// Statistics snapshot from [`RecordTable::gc`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Stale partial messages reaped (final segment never arrived).
    pub reaped: u64,
}

impl RecordTable {
    /// Creates a table reaping incomplete messages after `ttl`.
    #[must_use]
    pub fn new(ttl: Duration) -> Self {
        Self {
            entries: Mutex::new(HashMap::new()),
            ttl,
            last_gc: Mutex::new(Instant::now()),
        }
    }

    /// Records the placement of one tagged segment; `placed_len` bytes were
    /// written at `hdr.to`. Returns the completed [`WriteRecordInfo`] when
    /// this segment carried the L flag — the declaration point for the
    /// message's validity. A segment whose STag, base or length differs
    /// from its record's is not part of that message: it is neither
    /// counted valid nor allowed to complete the record.
    pub fn ingest(&self, src: Addr, hdr: &TaggedHdr, placed_len: usize) -> Option<WriteRecordInfo> {
        let key = (src, hdr.src_qpn, hdr.msg_id);
        let now = Instant::now();
        let mut entries = self.entries.lock();
        let rec = entries.entry(key).or_insert_with(|| Record {
            info: WriteRecordInfo {
                stag: hdr.stag,
                base_to: hdr.base_to,
                total_len: hdr.total_len,
                validity: ValidityMap::new(),
            },
            last_seen: now,
        });
        let info = &rec.info;
        if (info.stag, info.base_to, info.total_len) != (hdr.stag, hdr.base_to, hdr.total_len) {
            return None;
        }
        rec.last_seen = now;
        let rel = hdr.to.saturating_sub(hdr.base_to);
        rec.info.validity.record(rel, placed_len as u64);
        if hdr.last {
            let rec = entries.remove(&key).expect("present");
            return Some(rec.info);
        }
        None
    }

    /// Reaps records whose message never completed within the TTL.
    /// Called opportunistically by the RX engine; cheap when nothing is
    /// stale (a coarse `last_gc` check throttles full scans).
    pub fn gc(&self) -> GcStats {
        let now = Instant::now();
        {
            let mut last = self.last_gc.lock();
            if now.duration_since(*last) < self.ttl {
                return GcStats::default();
            }
            *last = now;
        }
        let mut entries = self.entries.lock();
        let before = entries.len();
        entries.retain(|_, rec| now.duration_since(rec.last_seen) <= self.ttl);
        GcStats {
            reaped: (before - entries.len()) as u64,
        }
    }

    /// Messages currently awaiting their final segment.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.entries.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hdr::RdmapOpcode;

    fn hdr(to: u64, last: bool) -> TaggedHdr {
        TaggedHdr {
            opcode: RdmapOpcode::WriteRecord,
            last,
            notify: true,
            stag: 0x300,
            to,
            base_to: 1000,
            total_len: 4000,
            src_qpn: 5,
            msg_id: 1,
            imm: 0,
        }
    }

    fn src() -> Addr {
        Addr::new(0, 9)
    }

    #[test]
    fn single_segment_completes_immediately() {
        let t = RecordTable::new(Duration::from_secs(1));
        let mut h = hdr(1000, true);
        h.total_len = 500;
        let info = t.ingest(src(), &h, 500).expect("L flag completes");
        assert!(info.is_complete());
        assert_eq!(info.valid_bytes(), 500);
        assert_eq!(info.absolute_runs(), vec![(1000, 1500)]);
        assert_eq!(t.pending(), 0);
    }

    #[test]
    fn multi_segment_completes_on_last() {
        let t = RecordTable::new(Duration::from_secs(1));
        assert!(t.ingest(src(), &hdr(1000, false), 1000).is_none());
        assert!(t.ingest(src(), &hdr(2000, false), 1000).is_none());
        assert!(t.ingest(src(), &hdr(3000, false), 1000).is_none());
        let info = t.ingest(src(), &hdr(4000, true), 1000).unwrap();
        assert!(info.is_complete());
        assert_eq!(info.valid_bytes(), 4000);
    }

    #[test]
    fn partial_placement_declared_on_last() {
        // Middle segment lost: completion still fires on L, with a gap.
        let t = RecordTable::new(Duration::from_secs(1));
        assert!(t.ingest(src(), &hdr(1000, false), 1000).is_none());
        // segment at to=2000 lost
        assert!(t.ingest(src(), &hdr(3000, false), 1000).is_none());
        let info = t.ingest(src(), &hdr(4000, true), 1000).unwrap();
        assert!(!info.is_complete());
        assert_eq!(info.valid_bytes(), 3000);
        let gaps = info.validity.gaps(u64::from(info.total_len));
        assert_eq!(gaps.len(), 1);
        assert_eq!((gaps[0].start, gaps[0].end), (1000, 2000));
    }

    #[test]
    fn lost_last_segment_never_completes_and_gcs() {
        let t = RecordTable::new(Duration::from_millis(20));
        assert!(t.ingest(src(), &hdr(1000, false), 1000).is_none());
        assert_eq!(t.pending(), 1);
        std::thread::sleep(Duration::from_millis(50));
        let stats = t.gc();
        assert_eq!(stats.reaped, 1);
        assert_eq!(t.pending(), 0);
    }

    #[test]
    fn gc_throttles_within_ttl() {
        let t = RecordTable::new(Duration::from_secs(60));
        assert!(t.ingest(src(), &hdr(1000, false), 1000).is_none());
        assert_eq!(t.gc(), GcStats::default());
        assert_eq!(t.pending(), 1);
    }

    #[test]
    fn segment_naming_another_message_is_not_counted() {
        let t = RecordTable::new(Duration::from_secs(1));
        assert!(t.ingest(src(), &hdr(1000, false), 1000).is_none());
        let mut other = hdr(2000, true);
        other.total_len = 8000;
        assert!(t.ingest(src(), &other, 1000).is_none(), "must not complete");
        let info = t.ingest(src(), &hdr(4000, true), 1000).unwrap();
        assert_eq!(info.valid_bytes(), 2000);
        assert!(info.validity.runs().iter().all(|r| r.end <= 4000));
    }

    #[test]
    fn messages_from_distinct_sources_independent() {
        let t = RecordTable::new(Duration::from_secs(1));
        let a = Addr::new(0, 1);
        let b = Addr::new(0, 2);
        assert!(t.ingest(a, &hdr(1000, false), 1000).is_none());
        assert!(t.ingest(b, &hdr(1000, false), 1000).is_none());
        assert_eq!(t.pending(), 2);
        let done = t.ingest(a, &hdr(4000, true), 1000).unwrap();
        assert_eq!(done.valid_bytes(), 2000);
        assert_eq!(t.pending(), 1);
    }

    #[test]
    fn duplicate_segments_idempotent() {
        let t = RecordTable::new(Duration::from_secs(1));
        assert!(t.ingest(src(), &hdr(1000, false), 1000).is_none());
        assert!(t.ingest(src(), &hdr(1000, false), 1000).is_none());
        let info = t.ingest(src(), &hdr(4000, true), 1000).unwrap();
        assert_eq!(info.valid_bytes(), 2000);
    }
}
