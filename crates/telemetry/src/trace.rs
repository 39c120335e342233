//! Bounded ring-buffer packet-event tracer.

use std::collections::HashSet;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use parking_lot::Mutex;

/// Default ring capacity (events, not bytes).
pub const DEFAULT_CAPACITY: usize = 4096;

/// Identifies one traced endpoint: a `(node, port)` pair packed into a
/// `u32` so the telemetry crate stays independent of `simnet`'s types.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EndpointId(pub u32);

impl EndpointId {
    /// Packs a node id and port.
    #[must_use]
    pub fn new(node: u16, port: u16) -> Self {
        Self((u32::from(node) << 16) | u32::from(port))
    }

    /// The node half.
    #[must_use]
    pub fn node(self) -> u16 {
        (self.0 >> 16) as u16
    }

    /// The port half.
    #[must_use]
    pub fn port(self) -> u16 {
        self.0 as u16
    }
}

impl fmt::Display for EndpointId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.node(), self.port())
    }
}

/// What happened to a packet (or message) at an instrumented point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Queued for transmission above the wire (conduit/QP egress).
    Enqueue,
    /// Handed to the fabric for transmission.
    Tx,
    /// Arrived at a receive endpoint.
    Rx,
    /// Dropped (loss model, unreachable destination, or overflow).
    Drop,
    /// Re-sent after a timeout or duplicate-ACK signal.
    Retransmit,
    /// Payload bytes placed into a receive or tagged buffer.
    Placement,
    /// A completion queue entry was delivered.
    Cqe,
    /// Dropped by an installed chaos fault plan (distinct from the
    /// baseline loss model's `Drop`).
    ChaosDrop,
    /// An extra copy of the packet was injected by the fault plan.
    Duplicate,
    /// The packet was held back to be released out of order.
    Reorder,
    /// A single bit of the frame was flipped in flight.
    Corrupt,
    /// The frame was cut short in flight.
    Truncate,
    /// Dropped because the link was inside a partition window.
    Partition,
}

/// One traced event. `a`/`b` are kind-specific details (lengths, message
/// ids, offsets) documented at each instrumentation site.
#[derive(Clone, Copy, Debug)]
pub struct PacketEvent {
    /// Monotonic sequence number within the telemetry domain.
    pub seq: u64,
    /// Timestamp from `Telemetry::now_nanos` at record time.
    pub t_nanos: u64,
    /// Endpoint the event is attributed to.
    pub endpoint: EndpointId,
    /// What happened.
    pub kind: EventKind,
    /// First detail word (conventionally a byte length).
    pub a: u64,
    /// Second detail word (conventionally a message/sequence id).
    pub b: u64,
}

/// A bounded ring of [`PacketEvent`]s, enabled per endpoint.
///
/// The disabled-path cost — the one paid on every packet of every
/// untraced run — is a single relaxed boolean load.
pub struct Tracer {
    armed: AtomicBool,
    all: AtomicBool,
    enabled: Mutex<HashSet<EndpointId>>,
    seq: AtomicU64,
    ring: Mutex<Ring>,
}

struct Ring {
    buf: Vec<PacketEvent>,
    capacity: usize,
    next: usize,
    dropped: u64,
}

impl Tracer {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            armed: AtomicBool::new(false),
            all: AtomicBool::new(false),
            enabled: Mutex::new(HashSet::new()),
            seq: AtomicU64::new(0),
            ring: Mutex::new(Ring {
                buf: Vec::new(),
                capacity: capacity.max(1),
                next: 0,
                dropped: 0,
            }),
        }
    }

    /// Starts tracing events attributed to `endpoint`.
    pub fn enable(&self, endpoint: EndpointId) {
        self.enabled.lock().insert(endpoint);
        self.armed.store(true, Ordering::Release);
    }

    /// Starts tracing every endpoint (lossy-test debugging).
    pub fn enable_all(&self) {
        self.all.store(true, Ordering::Release);
        self.armed.store(true, Ordering::Release);
    }

    /// Stops tracing `endpoint`.
    pub fn disable(&self, endpoint: EndpointId) {
        let mut set = self.enabled.lock();
        set.remove(&endpoint);
        if set.is_empty() && !self.all.load(Ordering::Acquire) {
            self.armed.store(false, Ordering::Release);
        }
    }

    /// Stops tracing everywhere and clears per-endpoint enables.
    pub fn disable_all(&self) {
        self.all.store(false, Ordering::Release);
        self.enabled.lock().clear();
        self.armed.store(false, Ordering::Release);
    }

    /// Whether any endpoint is currently traced — the hot-path gate.
    /// Instrumented layers call this first and skip event construction
    /// entirely when it returns `false`.
    #[inline]
    #[must_use]
    pub fn armed(&self) -> bool {
        self.armed.load(Ordering::Relaxed)
    }

    /// Records an event for `endpoint` if it is traced. `t_nanos` comes
    /// from `Telemetry::now_nanos`.
    pub fn record(&self, t_nanos: u64, endpoint: EndpointId, kind: EventKind, a: u64, b: u64) {
        if !self.armed() {
            return;
        }
        if !self.all.load(Ordering::Acquire) && !self.enabled.lock().contains(&endpoint) {
            return;
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let ev = PacketEvent {
            seq,
            t_nanos,
            endpoint,
            kind,
            a,
            b,
        };
        let mut ring = self.ring.lock();
        if ring.buf.len() < ring.capacity {
            ring.buf.push(ev);
        } else {
            // Overwrite the oldest slot; the dump reorders by seq.
            let at = ring.next;
            ring.buf[at] = ev;
            ring.dropped += 1;
        }
        ring.next = (ring.next + 1) % ring.capacity;
    }

    /// Copies out the retained events, oldest first, plus how many were
    /// overwritten by ring wrap-around.
    #[must_use]
    pub fn dump(&self) -> TraceDump {
        let ring = self.ring.lock();
        let mut events = ring.buf.clone();
        events.sort_by_key(|e| e.seq);
        TraceDump {
            events,
            overwritten: ring.dropped,
        }
    }

    /// Discards all retained events (enables stay as they are).
    pub fn clear(&self) {
        let mut ring = self.ring.lock();
        ring.buf.clear();
        ring.next = 0;
        ring.dropped = 0;
    }
}

/// Result of [`Tracer::dump`]: the retained timeline.
#[derive(Clone, Debug)]
pub struct TraceDump {
    /// Retained events, oldest first.
    pub events: Vec<PacketEvent>,
    /// Events lost to ring wrap-around before this dump.
    pub overwritten: u64,
}

impl fmt::Display for TraceDump {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "packet trace: {} events ({} overwritten)",
            self.events.len(),
            self.overwritten
        )?;
        for e in &self.events {
            writeln!(
                f,
                "  [{:>6}] {:>12}ns {:>11} {:<10} a={} b={}",
                e.seq,
                e.t_nanos,
                e.endpoint.to_string(),
                format!("{:?}", e.kind),
                e.a,
                e.b
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(8);
        assert!(!t.armed());
        t.record(0, EndpointId::new(0, 1), EventKind::Tx, 10, 0);
        assert!(t.dump().events.is_empty());
    }

    #[test]
    fn per_endpoint_filtering() {
        let t = Tracer::new(8);
        let a = EndpointId::new(0, 1);
        let b = EndpointId::new(1, 1);
        t.enable(a);
        t.record(1, a, EventKind::Tx, 1, 0);
        t.record(2, b, EventKind::Tx, 2, 0);
        let d = t.dump();
        assert_eq!(d.events.len(), 1);
        assert_eq!(d.events[0].endpoint, a);
        t.disable(a);
        assert!(!t.armed());
    }

    #[test]
    fn ring_keeps_newest() {
        let t = Tracer::new(4);
        t.enable_all();
        for i in 0..10u64 {
            t.record(i, EndpointId::new(0, 0), EventKind::Rx, i, 0);
        }
        let d = t.dump();
        assert_eq!(d.events.len(), 4);
        assert_eq!(d.overwritten, 6);
        let seqs: Vec<u64> = d.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn endpoint_packing_roundtrips() {
        let e = EndpointId::new(513, 65535);
        assert_eq!(e.node(), 513);
        assert_eq!(e.port(), 65535);
        assert_eq!(e.to_string(), "513:65535");
    }
}
