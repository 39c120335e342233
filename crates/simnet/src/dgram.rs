//! `DgramConduit` — the UDP-equivalent unreliable datagram service.
//!
//! Semantics mirror kernel UDP as the paper relies on them:
//!
//! * datagrams up to [`MAX_DATAGRAM`] (64 KiB minus headers);
//! * datagrams larger than the wire MTU are fragmented into MTU-sized wire
//!   packets and reassembled at the receiver **all-or-nothing** — "any loss
//!   of the smaller packets making up this large UDP packet results in the
//!   entire (up to 64KB) message being dropped" (paper §VI.A.2);
//! * no delivery, ordering or duplication guarantees;
//! * receive is timeout-based.
//!
//! The UDP checksum is deliberately *not* computed: the paper recommends
//! disabling UDP-level CRC because datagram-iWARP's DDP layer always
//! carries its own CRC32 (§V).

use std::collections::hash_map::{Entry, HashMap};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use bytes::Bytes;
use iwarp_common::pool::{BufPool, PoolBuf};
use iwarp_common::sg::SgBytes;
use iwarp_telemetry::{EndpointId, EventKind, Telemetry};
use parking_lot::Mutex;

use crate::error::{NetError, NetResult};
use crate::fabric::{Endpoint, Fabric};
use crate::ring::Deadline;
use crate::wire::{Addr, NodeId, WirePacket};

/// Wire-packet protocol discriminator for datagram fragments.
pub const PROTO_DGRAM: u8 = 0x01;

/// Serializes one fragment header into `buf[..FRAG_HEADER]`.
fn write_frag_header(buf: &mut [u8], id: u32, idx: u16, cnt: u16, total_len: u32) {
    buf[0] = PROTO_DGRAM;
    buf[1..5].copy_from_slice(&id.to_be_bytes());
    buf[5..7].copy_from_slice(&idx.to_be_bytes());
    buf[7..9].copy_from_slice(&cnt.to_be_bytes());
    buf[9..13].copy_from_slice(&total_len.to_be_bytes());
}

/// Fragment header: proto(1) + dgram_id(4) + frag_index(2) + frag_count(2)
/// + total_len(4).
pub const FRAG_HEADER: usize = 13;

/// Maximum datagram payload (the classic UDP limit: 65 535 minus IP/UDP
/// headers).
pub const MAX_DATAGRAM: usize = 65_507;

/// How long a partially reassembled datagram is kept before being reaped
/// (the kernel's `ipfrag_time` analog, scaled down for tests).
const REASSEMBLY_TTL: Duration = Duration::from_secs(3);

struct Partial {
    total_len: u32,
    frag_count: u16,
    received_mask: Vec<bool>,
    received: u16,
    /// Reassembly buffer, pre-sized to `total_len` and checked out of the
    /// fabric's pool; fragments can arrive out of order, offsets are
    /// computed from the fragment index.
    buf: PoolBuf,
    /// When this partial was created, for TTL-based reaping.
    created: Instant,
}

struct Reassembly {
    partials: HashMap<(Addr, u32), Partial>,
    last_gc: Instant,
}

/// Unreliable datagram endpoint over a [`Fabric`].
pub struct DgramConduit {
    ep: Endpoint,
    next_id: AtomicU32,
    reasm: Mutex<Reassembly>,
    /// Fragment payload capacity per wire packet.
    frag_payload: usize,
    pool: BufPool,
    tel: Telemetry,
}

impl DgramConduit {
    /// Binds a datagram conduit at `addr`.
    pub fn bind(fabric: &Fabric, addr: Addr) -> NetResult<Self> {
        Ok(Self::from_endpoint(fabric.bind(addr)?))
    }

    /// Binds at an ephemeral port on `node`.
    pub fn bind_ephemeral(fabric: &Fabric, node: NodeId) -> NetResult<Self> {
        Ok(Self::from_endpoint(fabric.bind_ephemeral(node)?))
    }

    fn from_endpoint(ep: Endpoint) -> Self {
        let frag_payload = ep.mtu() - FRAG_HEADER;
        let tel = ep.fabric().telemetry().clone();
        let pool = ep.fabric().pool().clone();
        Self {
            ep,
            next_id: AtomicU32::new(1),
            reasm: Mutex::new(Reassembly {
                partials: HashMap::new(),
                last_gc: Instant::now(),
            }),
            frag_payload,
            pool,
            tel,
        }
    }

    /// Local address.
    #[must_use]
    pub fn local_addr(&self) -> Addr {
        self.ep.local_addr()
    }

    /// The fabric this conduit is bound on.
    #[must_use]
    pub fn fabric(&self) -> &crate::fabric::Fabric {
        self.ep.fabric()
    }

    /// Largest datagram this conduit accepts.
    #[must_use]
    pub fn max_datagram(&self) -> usize {
        MAX_DATAGRAM
    }

    /// Wire MTU under this conduit (payload bytes per fragment is smaller
    /// by the fragment header).
    #[must_use]
    pub fn mtu(&self) -> usize {
        self.ep.mtu()
    }

    /// Sends one datagram to `dst`, fragmenting as needed. Unreliable:
    /// success only means the datagram was handed to the wire. Fragments
    /// are zero-copy windows of `payload` ([`Bytes::slice`]).
    pub fn send_to(&self, dst: Addr, payload: Bytes) -> NetResult<()> {
        self.send_sg(dst, SgBytes::from(payload))
    }

    /// Sends one datagram given as a scatter-gather list: a burst of one
    /// through [`send_sg_burst`](Self::send_sg_burst), kept for callers
    /// that send a datagram at a time (the RD conduit, the suite's ladder).
    pub fn send_sg(&self, dst: Addr, payload: SgBytes) -> NetResult<()> {
        self.send_sg_burst(dst, vec![payload])
    }

    /// Sends a burst of datagrams to `dst` as one fabric transmit — the
    /// conduit's one send.
    ///
    /// Each datagram is fragmented by slicing, so no payload byte is
    /// copied, and every fragment header of the burst comes from one
    /// pooled allocation. All fragments go to the wire in a single
    /// [`Endpoint::send_burst`], which draws loss and faults per fragment
    /// in order, exactly as one send per datagram would. An oversized
    /// datagram stops the burst at that datagram (earlier ones still go
    /// out) and the error returns.
    pub fn send_sg_burst(&self, dst: Addr, mut payloads: Vec<SgBytes>) -> NetResult<()> {
        let frag_count = |len: usize| len.div_ceil(self.frag_payload).max(1);
        let accepted = payloads
            .iter()
            .position(|p| p.len() > MAX_DATAGRAM)
            .unwrap_or(payloads.len());
        let result = match payloads.get(accepted) {
            Some(p) => Err(NetError::TooBig {
                len: p.len(),
                max: MAX_DATAGRAM,
            }),
            None => Ok(()),
        };
        payloads.truncate(accepted);
        let frags: usize = payloads.iter().map(|p| frag_count(p.len())).sum();
        let mut hdrs = self.pool.get(frags * FRAG_HEADER);
        let mut h = 0usize;
        for payload in &payloads {
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            let cnt = frag_count(payload.len()) as u16;
            let tel = self.tel.simnet();
            tel.dgram_tx_datagrams.inc();
            tel.dgram_tx_fragments.add(u64::from(cnt));
            tel.dgram_msg_bytes.record(payload.len() as u64);
            let src = self.ep.local_addr();
            self.tel.trace(
                EndpointId::new(src.node.0, src.port),
                EventKind::Enqueue,
                payload.len() as u64,
                u64::from(id),
            );
            for idx in 0..cnt {
                write_frag_header(&mut hdrs[h..], id, idx, cnt, payload.len() as u32);
                h += FRAG_HEADER;
            }
        }
        let hdrs = hdrs.freeze();
        let mut frames = Vec::with_capacity(frags);
        let mut h = 0usize;
        for payload in payloads {
            let cnt = frag_count(payload.len());
            if cnt == 1 {
                // Unfragmented: the whole datagram moves through without
                // re-slicing (the common small-message case).
                frames.push((hdrs.slice(h..h + FRAG_HEADER), payload));
                h += FRAG_HEADER;
                continue;
            }
            for idx in 0..cnt {
                let start = idx * self.frag_payload;
                let end = (start + self.frag_payload).min(payload.len());
                frames.push((hdrs.slice(h..h + FRAG_HEADER), payload.slice(start, end)));
                h += FRAG_HEADER;
            }
        }
        self.ep.send_burst(dst, frames)?;
        result
    }

    /// Receives the next complete datagram, blocking up to `timeout`
    /// (`None` = indefinitely). Returns the sender's address and payload
    /// as one contiguous buffer (flattening a scatter-gather delivery if
    /// needed; zero-copy consumers use
    /// [`recv_sg_from`](Self::recv_sg_from) instead).
    ///
    /// A zero timeout performs a non-blocking drain of already-queued wire
    /// packets (the poll-mode fast path) before reporting `Timeout`.
    pub fn recv_from(&self, timeout: Option<Duration>) -> NetResult<(Addr, Bytes)> {
        let (src, sg) = self.recv_sg_from(timeout)?;
        Ok((src, self.flatten(sg)))
    }

    /// Non-blocking variant of [`recv_from`](Self::recv_from).
    pub fn try_recv_from(&self) -> NetResult<(Addr, Bytes)> {
        let (src, sg) = self.try_recv_sg_from()?;
        Ok((src, self.flatten(sg)))
    }

    fn flatten(&self, sg: SgBytes) -> Bytes {
        if !sg.is_contiguous() {
            self.tel.simnet().bytes_copied.add(sg.len() as u64);
        }
        sg.to_bytes()
    }

    /// Scatter-gather variant of [`recv_from`](Self::recv_from): an
    /// unfragmented datagram is returned as the sender's original slices
    /// without any intermediate buffer.
    pub fn recv_sg_from(&self, timeout: Option<Duration>) -> NetResult<(Addr, SgBytes)> {
        // One deadline for every wait of the call, fixed by the first wait
        // that parks: a call that finds data reads no clock, and a wait
        // reads it once.
        let mut deadline = Deadline::within(timeout);
        loop {
            // Drain queued packets without blocking first, so zero-timeout
            // polling still makes progress.
            loop {
                match self.ep.try_recv() {
                    Ok(pkt) => {
                        if let Some(done) = self.ingest(pkt) {
                            return Ok(done);
                        }
                    }
                    Err(NetError::Timeout) => break,
                    Err(e) => return Err(e),
                }
            }
            let pkt = self.ep.recv(&mut deadline)?;
            if let Some(done) = self.ingest(pkt) {
                return Ok(done);
            }
        }
    }

    /// Non-blocking variant of [`recv_sg_from`](Self::recv_sg_from).
    pub fn try_recv_sg_from(&self) -> NetResult<(Addr, SgBytes)> {
        loop {
            let pkt = self.ep.try_recv()?;
            if let Some(done) = self.ingest(pkt) {
                return Ok(done);
            }
        }
    }

    /// Feeds one wire packet into reassembly; returns a completed datagram
    /// if this fragment finished one.
    ///
    /// Shape-driven: handles both contiguous frames and scatter-gather
    /// packets, however the sender framed them. Unfragmented datagrams
    /// pass through as zero-copy slices of the arriving frame; only
    /// multi-fragment datagrams touch a (pooled) reassembly buffer.
    fn ingest(&self, pkt: WirePacket) -> Option<(Addr, SgBytes)> {
        let src = pkt.src;
        if pkt.header.len() + pkt.payload.len() < FRAG_HEADER {
            return None; // not ours; ignore (wire noise)
        }
        // The fragment header is 13 bytes on the stack either way; the SG
        // datapath sends it as exactly `WirePacket::header`, so the common
        // case parses in place and moves the payload through untouched —
        // no intermediate frame list, no refcount churn.
        let mut hdr = [0u8; FRAG_HEADER];
        let body = if pkt.header.len() == FRAG_HEADER {
            hdr.copy_from_slice(&pkt.header);
            pkt.payload
        } else {
            let frame = pkt.frame();
            frame.read_at(0, &mut hdr);
            frame.slice(FRAG_HEADER, frame.len())
        };
        if hdr[0] != PROTO_DGRAM {
            return None;
        }
        let id = u32::from_be_bytes(hdr[1..5].try_into().ok()?);
        let idx = u16::from_be_bytes(hdr[5..7].try_into().ok()?);
        let cnt = u16::from_be_bytes(hdr[7..9].try_into().ok()?);
        let total_len = u32::from_be_bytes(hdr[9..13].try_into().ok()?);
        if cnt == 0 || idx >= cnt || total_len as usize > MAX_DATAGRAM {
            return None; // malformed
        }
        if cnt == 1 {
            // Fast path: unfragmented datagram — no reassembly state, no
            // intermediate buffer, just the arriving slices.
            self.tel.simnet().dgram_rx_datagrams.inc();
            return Some((src, body));
        }

        let mut g = self.reasm.lock();
        let key = (src, id);
        let p = match g.partials.entry(key) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(_) => {
                // A new partial is the only growth of reassembly memory,
                // so only here is the clock read and are expired partials
                // reaped (at most once a TTL). The sweep needs the whole
                // map, hence the second lookup.
                let now = Instant::now();
                if now.duration_since(g.last_gc) > REASSEMBLY_TTL {
                    let before = g.partials.len();
                    g.partials.retain(|_, p| now - p.created <= REASSEMBLY_TTL);
                    let expired = before - g.partials.len();
                    self.tel.simnet().dgram_partials_expired.add(expired as u64);
                    g.last_gc = now;
                }
                g.partials.entry(key).or_insert(Partial {
                    total_len,
                    frag_count: cnt,
                    received_mask: vec![false; usize::from(cnt)],
                    received: 0,
                    buf: self.pool.get(total_len as usize),
                    created: now,
                })
            }
        };
        if p.frag_count != cnt || p.total_len != total_len {
            // Conflicting metadata for the same id — drop the partial.
            g.partials.remove(&key);
            return None;
        }
        let i = usize::from(idx);
        if p.received_mask[i] {
            return None; // duplicate fragment
        }
        let start = i * self.frag_payload;
        let end = (start + body.len()).min(p.buf.len());
        if end - start != body.len() {
            // Length inconsistent with the advertised total; discard.
            g.partials.remove(&key);
            return None;
        }
        body.copy_to_slice(&mut p.buf[start..end]);
        self.tel.simnet().bytes_copied.add(body.len() as u64);
        p.received_mask[i] = true;
        p.received += 1;
        if p.received == p.frag_count {
            let done = g.partials.remove(&key).expect("present");
            self.tel.simnet().dgram_rx_datagrams.inc();
            return Some((src, SgBytes::from(done.buf.freeze())));
        }
        None
    }

    /// Wire packets waiting in the delivery ring — fragments count
    /// individually, so this is an upper bound on the datagrams a drain
    /// can complete right now. Poll-mode drivers use it to loop a drain
    /// to quiescence regardless of how many packets one receive call
    /// consumes.
    #[must_use]
    pub fn rx_backlog(&self) -> usize {
        self.ep.pending()
    }

    /// Number of incomplete datagrams currently awaiting fragments.
    #[must_use]
    pub fn pending_partials(&self) -> usize {
        self.reasm.lock().partials.len()
    }

    /// Installs (or clears) an arrival notifier on the underlying wire
    /// endpoint: the callback fires once per delivered wire packet (i.e.
    /// per fragment, not per reassembled datagram). Batch consumers use
    /// it to mark this conduit ready and then drain with
    /// [`try_recv_sg_from`](Self::try_recv_sg_from).
    pub fn set_notify(&self, notify: Option<crate::fabric::RxNotify>) {
        self.ep.set_notify(notify);
    }

    /// Runs the arrival notifier, if one is installed, as a delivery
    /// would (see [`Endpoint::renotify`]).
    pub fn renotify(&self) {
        self.ep.renotify();
    }

    /// Subscribes this conduit to a multicast group: datagrams sent to the
    /// group address are received here like unicast ones (each member
    /// reassembles fragments independently).
    pub fn join_multicast(&self, group: Addr) -> NetResult<()> {
        self.ep.join_multicast(group)
    }

    /// Unsubscribes from `group`.
    pub fn leave_multicast(&self, group: Addr) {
        self.ep.leave_multicast(group);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::WireConfig;

    fn pair(fab: &Fabric) -> (DgramConduit, DgramConduit) {
        let a = DgramConduit::bind(fab, Addr::new(0, 100)).unwrap();
        let b = DgramConduit::bind(fab, Addr::new(1, 100)).unwrap();
        (a, b)
    }

    #[test]
    fn small_datagram_roundtrip() {
        let fab = Fabric::loopback();
        let (a, b) = pair(&fab);
        a.send_to(b.local_addr(), Bytes::from_static(b"hello"))
            .unwrap();
        let (src, data) = b.recv_from(Some(Duration::from_secs(1))).unwrap();
        assert_eq!(src, a.local_addr());
        assert_eq!(&data[..], b"hello");
    }

    #[test]
    fn empty_datagram() {
        let fab = Fabric::loopback();
        let (a, b) = pair(&fab);
        a.send_to(b.local_addr(), Bytes::new()).unwrap();
        let (_, data) = b.recv_from(Some(Duration::from_secs(1))).unwrap();
        assert!(data.is_empty());
    }

    #[test]
    fn fragmented_datagram_roundtrip() {
        let fab = Fabric::loopback();
        let (a, b) = pair(&fab);
        let payload: Vec<u8> = (0..60_000u32).map(|i| (i % 251) as u8).collect();
        a.send_to(b.local_addr(), Bytes::from(payload.clone()))
            .unwrap();
        let (_, data) = b.recv_from(Some(Duration::from_secs(1))).unwrap();
        assert_eq!(&data[..], &payload[..]);
    }

    #[test]
    fn max_datagram_roundtrip() {
        let fab = Fabric::loopback();
        let (a, b) = pair(&fab);
        let payload = vec![0x5Au8; MAX_DATAGRAM];
        a.send_to(b.local_addr(), Bytes::from(payload.clone()))
            .unwrap();
        let (_, data) = b.recv_from(Some(Duration::from_secs(1))).unwrap();
        assert_eq!(data.len(), MAX_DATAGRAM);
        assert_eq!(&data[..], &payload[..]);
    }

    #[test]
    fn oversized_rejected() {
        let fab = Fabric::loopback();
        let (a, b) = pair(&fab);
        let err = a
            .send_to(b.local_addr(), Bytes::from(vec![0u8; MAX_DATAGRAM + 1]))
            .unwrap_err();
        assert!(matches!(err, NetError::TooBig { .. }));
    }

    #[test]
    fn interleaved_fragments_from_two_senders() {
        let fab = Fabric::loopback();
        let a = DgramConduit::bind(&fab, Addr::new(0, 1)).unwrap();
        let c = DgramConduit::bind(&fab, Addr::new(2, 1)).unwrap();
        let b = DgramConduit::bind(&fab, Addr::new(1, 1)).unwrap();
        let pa = vec![0xAAu8; 5000];
        let pc = vec![0xCCu8; 5000];
        a.send_to(b.local_addr(), Bytes::from(pa.clone())).unwrap();
        c.send_to(b.local_addr(), Bytes::from(pc.clone())).unwrap();
        let mut got = Vec::new();
        for _ in 0..2 {
            let (src, data) = b.recv_from(Some(Duration::from_secs(1))).unwrap();
            got.push((src, data));
        }
        got.sort_by_key(|(src, _)| *src);
        assert_eq!(&got[0].1[..], &pa[..]);
        assert_eq!(&got[1].1[..], &pc[..]);
    }

    #[test]
    fn fragment_loss_drops_whole_datagram() {
        // 10% per-packet loss; 40-fragment datagrams survive with
        // p ≈ 0.9^40 ≈ 1.5% — expect the vast majority to vanish entirely,
        // and *no* corrupted/partial delivery.
        let fab = Fabric::new(WireConfig::with_loss(0.10, 11));
        let (a, b) = pair(&fab);
        let payload: Vec<u8> = (0..59_000u32).map(|i| (i % 251) as u8).collect();
        let n = 50;
        for _ in 0..n {
            a.send_to(b.local_addr(), Bytes::from(payload.clone()))
                .unwrap();
        }
        let mut delivered = 0;
        while let Ok((_, data)) = b.recv_from(Some(Duration::from_millis(50))) {
            assert_eq!(&data[..], &payload[..], "partial delivery leaked");
            delivered += 1;
        }
        assert!(delivered < n / 2, "delivered {delivered}/{n}");
    }

    #[test]
    fn recv_timeout() {
        let fab = Fabric::loopback();
        let (_a, b) = pair(&fab);
        let err = b.recv_from(Some(Duration::from_millis(10))).unwrap_err();
        assert_eq!(err, NetError::Timeout);
    }

    #[test]
    fn duplicate_fragment_ignored() {
        // Send the same single-fragment datagram twice: two deliveries
        // (UDP duplicates are the app's problem), but duplicated *fragments*
        // of a multi-fragment datagram must not corrupt reassembly.
        let fab = Fabric::loopback();
        let (a, b) = pair(&fab);
        let payload = vec![1u8; 4000];
        a.send_to(b.local_addr(), Bytes::from(payload.clone()))
            .unwrap();
        let (_, d1) = b.recv_from(Some(Duration::from_secs(1))).unwrap();
        assert_eq!(d1.len(), 4000);
        assert_eq!(b.pending_partials(), 0);
    }

    #[test]
    fn an_abandoned_partial_expires_when_a_new_one_starts() {
        // Waits out the reassembly TTL (3 s): the first half of a datagram
        // whose second half never comes is reaped, and counted, when a
        // later datagram's first fragment opens a partial of its own.
        let fab = Fabric::loopback();
        let raw = fab.bind(Addr::new(0, 1)).unwrap();
        let b = DgramConduit::bind(&fab, Addr::new(1, 1)).unwrap();
        let first_half = |id| {
            let mut frame = vec![0u8; FRAG_HEADER + 100];
            write_frag_header(&mut frame, id, 0, 2, 200);
            Bytes::from(frame)
        };
        let expired = || {
            let snap = fab.telemetry().snapshot();
            snap.get("simnet.dgram.partials_expired").unwrap()
        };
        raw.send_to(b.local_addr(), first_half(1)).unwrap();
        assert_eq!(b.recv_from(Some(Duration::ZERO)), Err(NetError::Timeout));
        assert_eq!(b.pending_partials(), 1);
        std::thread::sleep(REASSEMBLY_TTL + Duration::from_millis(100));
        assert_eq!(expired(), 0, "nothing reaps between fragments");
        raw.send_to(b.local_addr(), first_half(2)).unwrap();
        assert_eq!(b.recv_from(Some(Duration::ZERO)), Err(NetError::Timeout));
        assert_eq!(b.pending_partials(), 1, "the new partial stays");
        assert_eq!(expired(), 1);
    }
}
