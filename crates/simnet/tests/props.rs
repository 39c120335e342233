//! Property-based tests for the network substrate.

use std::time::Duration;

use std::sync::atomic::Ordering;

use bytes::Bytes;
use iwarp_common::sg::SgBytes;
use proptest::prelude::*;

use simnet::chaos::FaultEvent;
use simnet::dgram::{FRAG_HEADER, MAX_DATAGRAM, PROTO_DGRAM};
use simnet::{
    Addr, DgramConduit, Fabric, FaultPlan, NodeId, StreamConduit, StreamListener, WireConfig,
};

/// Builds the wire frame of one datagram fragment by hand, so tests can
/// inject duplicates, reorderings and metadata conflicts that no
/// well-behaved sender produces.
fn frag_frame(id: u32, idx: u16, cnt: u16, total_len: u32, body: &[u8]) -> Vec<u8> {
    let mut f = Vec::with_capacity(FRAG_HEADER + body.len());
    f.push(PROTO_DGRAM);
    f.extend_from_slice(&id.to_be_bytes());
    f.extend_from_slice(&idx.to_be_bytes());
    f.extend_from_slice(&cnt.to_be_bytes());
    f.extend_from_slice(&total_len.to_be_bytes());
    f.extend_from_slice(body);
    f
}

/// Splits `payload` into the fragment frames a conforming sender would emit.
fn fragments_of(id: u32, payload: &[u8], frag_payload: usize) -> Vec<Vec<u8>> {
    let cnt = payload.len().div_ceil(frag_payload).max(1) as u16;
    (0..cnt)
        .map(|idx| {
            let start = usize::from(idx) * frag_payload;
            let end = (start + frag_payload).min(payload.len());
            frag_frame(id, idx, cnt, payload.len() as u32, &payload[start..end])
        })
        .collect()
}

/// Deterministic Fisher–Yates driven by a caller-supplied seed (proptest
/// picks the seed, so failures shrink and replay).
fn shuffle<T>(v: &mut [T], mut seed: u64) {
    for i in (1..v.len()).rev() {
        seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        let j = (seed >> 33) as usize % (i + 1);
        v.swap(i, j);
    }
}

/// A fabric's fault trace, its `FabricStats` values, and every delivered
/// wire packet (source and bytes) in arrival order.
type WireView = (Vec<FaultEvent>, [u64; 5], Vec<(Addr, Vec<u8>)>);

/// The [`WireView`] after `sizes.len()` datagrams go from one conduit to
/// one raw endpoint over a fresh lossy, faulty fabric: in one
/// `send_sg_burst` when `burst`, otherwise in one `send_sg` each.
fn wire_after_sends(sizes: &[usize], seed: u64, burst: bool) -> WireView {
    let fab = Fabric::new(WireConfig::with_loss(0.05, seed));
    fab.install_fault_plan(FaultPlan {
        duplicate: 0.05,
        reorder: 0.05,
        reorder_depth: 4,
        corrupt: 0.05,
        truncate: 0.05,
        ..FaultPlan::quiet(seed)
    });
    let tx = DgramConduit::bind(&fab, Addr::new(0, 1)).unwrap();
    let rx = fab.bind(Addr::new(1, 1)).unwrap();
    let payloads: Vec<SgBytes> = sizes
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            SgBytes::from(Bytes::from(
                (0..n).map(|j| (i * 31 + j) as u8).collect::<Vec<_>>(),
            ))
        })
        .collect();
    if burst {
        tx.send_sg_burst(rx.local_addr(), payloads).unwrap();
    } else {
        for p in payloads {
            tx.send_sg(rx.local_addr(), p).unwrap();
        }
    }
    fab.chaos_flush();
    let st = fab.stats();
    let stats = [
        &st.tx_packets,
        &st.tx_bytes,
        &st.dropped_loss,
        &st.dropped_unreachable,
        &st.delivered,
    ]
    .map(|c| c.load(Ordering::Relaxed));
    let mut wire = Vec::new();
    while let Ok(p) = rx.try_recv() {
        wire.push((p.src, p.contiguous().to_vec()));
    }
    (fab.fault_trace(), stats, wire)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The wire-identity contract of the one transmit: a burst of K
    /// datagrams (some fragmenting) draws loss and faults per packet in
    /// transmit order, exactly as K single sends under the same seeds —
    /// same fault trace, same fabric stats, same packets in the same
    /// order.
    #[test]
    fn burst_is_wire_identical_to_single_sends(
        sizes in proptest::collection::vec(1usize..=12 * 1024, 1..8),
        seed in any::<u64>(),
    ) {
        let singles = wire_after_sends(&sizes, seed, false);
        let burst = wire_after_sends(&sizes, seed, true);
        prop_assert!(singles.1[0] > 0, "nothing transmitted");
        prop_assert_eq!(burst, singles);
    }

    /// Any datagram ≤ 64 KiB round-trips intact through fragmentation and
    /// reassembly, regardless of size or content.
    #[test]
    fn dgram_roundtrip_any_payload(payload in proptest::collection::vec(any::<u8>(), 0..8192),
                                   pad in 0usize..4) {
        // Stretch some payloads across the MTU boundary.
        let mut data = payload;
        if pad > 0 {
            data.extend(std::iter::repeat_n(0xEE, pad * 1490));
        }
        let fab = Fabric::loopback();
        let a = DgramConduit::bind(&fab, Addr::new(0, 1)).unwrap();
        let b = DgramConduit::bind(&fab, Addr::new(1, 1)).unwrap();
        a.send_to(b.local_addr(), Bytes::from(data.clone())).unwrap();
        let (_, got) = b.recv_from(Some(Duration::from_secs(2))).unwrap();
        prop_assert_eq!(&got[..], &data[..]);
    }

    /// The stream delivers exactly the bytes written, in order, for any
    /// write pattern (sizes, counts) — the TCP contract.
    #[test]
    fn stream_delivers_exact_bytes(chunks in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..2000), 1..6)) {
        let fab = Fabric::loopback();
        let cfg = simnet::stream::StreamConfig::default();
        let listener = StreamListener::bind(&fab, Addr::new(1, 900), cfg.clone()).unwrap();
        let expected: Vec<u8> = chunks.concat();
        std::thread::scope(|s| {
            let srv = s.spawn(|| listener.accept(Some(Duration::from_secs(5))).unwrap());
            let client = StreamConduit::connect(&fab, NodeId(0), Addr::new(1, 900), cfg).unwrap();
            let server = srv.join().unwrap();
            s.spawn(move || {
                for c in &chunks {
                    client.write_all(c).unwrap();
                }
            });
            let mut got = vec![0u8; expected.len()];
            if !got.is_empty() {
                server.read_exact(&mut got, Some(Duration::from_secs(10))).unwrap();
            }
            prop_assert_eq!(got, expected);
            Ok(())
        })?;
    }

    /// Under loss, the stream still delivers the exact byte sequence
    /// (retransmission correctness) for arbitrary payloads.
    #[test]
    fn stream_exact_under_loss(data in proptest::collection::vec(any::<u8>(), 1..20_000),
                               seed in any::<u64>()) {
        let cfg = WireConfig::with_loss(0.03, seed);
        let fab = Fabric::new(cfg);
        let scfg = simnet::stream::StreamConfig {
            rto_initial: Duration::from_millis(5),
            ..simnet::stream::StreamConfig::default()
        };
        let listener = StreamListener::bind(&fab, Addr::new(1, 901), scfg.clone()).unwrap();
        std::thread::scope(|s| {
            let srv = s.spawn(|| listener.accept(Some(Duration::from_secs(5))).unwrap());
            let client = StreamConduit::connect(&fab, NodeId(0), Addr::new(1, 901), scfg).unwrap();
            let server = srv.join().unwrap();
            let expected = data.clone();
            s.spawn(move || client.write_all(&data).unwrap());
            let mut got = vec![0u8; expected.len()];
            server.read_exact(&mut got, Some(Duration::from_secs(30))).unwrap();
            prop_assert_eq!(got, expected);
            Ok(())
        })?;
    }

    /// Reassembly is immune to duplicated and arbitrarily reordered
    /// fragments: every delivered datagram is byte-identical to the
    /// original, and a complete fragment set always delivers. The
    /// hand-built frames fed in are also what a conforming sender emits,
    /// for sizes spanning the MTU fragmentation boundaries and the 64 KiB
    /// datagram limit.
    #[test]
    fn reassembly_survives_duplicates_and_reordering(
        payload in proptest::collection::vec(any::<u8>(), 1..12_000),
        stretch in 0usize..8,
        order_seed in any::<u64>(),
        dups in proptest::collection::vec(any::<usize>(), 0..4),
    ) {
        let fab = Fabric::loopback();
        let rx = DgramConduit::bind(&fab, Addr::new(1, 700)).unwrap();
        let raw = fab.bind(Addr::new(0, 700)).unwrap();
        let frag_payload = rx.mtu() - FRAG_HEADER;
        let boundaries = [
            0,
            frag_payload - 1,
            frag_payload,
            2 * frag_payload - 1,
            3 * frag_payload,
            32 * 1024,
            60_000,
            MAX_DATAGRAM - 2,
        ];
        let mut payload = payload;
        let target = boundaries[stretch] + payload.len() % 3;
        if target > payload.len() {
            payload.resize(target, payload[0]);
        }

        // Wire format, pinned against frames this test lays out by hand
        // (`frag_frame`): the 13-byte big-endian header — PROTO_DGRAM,
        // id u32, idx u16, count u16, total_len u32 — in front of
        // contiguous `frag_payload`-sized windows of the input, in index
        // order. A fresh conduit's first datagram id is 1.
        let tx = DgramConduit::bind(&fab, Addr::new(2, 700)).unwrap();
        tx.send_to(raw.local_addr(), Bytes::from(payload.clone())).unwrap();
        for want in fragments_of(1, &payload, frag_payload) {
            let pkt = raw.recv(Some(Duration::from_secs(2))).unwrap();
            prop_assert_eq!(pkt.wire_len(), want.len());
            prop_assert_eq!(&pkt.frame().to_bytes()[..], &want[..]);
        }
        prop_assert!(raw.try_recv().is_err(), "sender emitted extra packets");

        let mut frames = fragments_of(9, &payload, frag_payload);
        for &d in &dups {
            let copy = frames[d % frames.len()].clone();
            frames.push(copy);
        }
        shuffle(&mut frames, order_seed);
        for f in frames {
            raw.send_to(rx.local_addr(), Bytes::from(f)).unwrap();
        }
        let mut delivered = 0usize;
        while let Ok((_, got)) = rx.recv_from(Some(Duration::from_millis(20))) {
            prop_assert_eq!(&got[..], &payload[..], "corrupted delivery");
            delivered += 1;
        }
        prop_assert!(delivered >= 1, "complete fragment set never delivered");
    }

    /// A fragment whose metadata (fragment count) conflicts with the
    /// already-open partial must never corrupt a delivery: the partial is
    /// dropped, so either the datagram completed before the conflict
    /// arrived (delivered intact) or it is lost entirely — all-or-nothing,
    /// exactly like kernel IP fragment handling.
    #[test]
    fn conflicting_metadata_never_corrupts(
        payload in proptest::collection::vec(any::<u8>(), 3100..12_000),
        pos in any::<usize>(),
        bump in 1u16..5,
    ) {
        let fab = Fabric::loopback();
        let rx = DgramConduit::bind(&fab, Addr::new(1, 701)).unwrap();
        let raw = fab.bind(Addr::new(0, 701)).unwrap();
        let frag_payload = rx.mtu() - FRAG_HEADER;
        let frames = fragments_of(4, &payload, frag_payload);
        let cnt = frames.len();
        prop_assert!(cnt >= 2);
        // Same datagram id, same total length, different fragment count.
        let conflict = frag_frame(
            4,
            0,
            cnt as u16 + bump,
            payload.len() as u32,
            &payload[..frag_payload],
        );
        let at = pos % (cnt + 1);
        for (i, f) in frames.into_iter().enumerate() {
            if i == at {
                raw.send_to(rx.local_addr(), Bytes::from(conflict.clone())).unwrap();
            }
            raw.send_to(rx.local_addr(), Bytes::from(f)).unwrap();
        }
        if at == cnt {
            raw.send_to(rx.local_addr(), Bytes::from(conflict.clone())).unwrap();
        }
        let mut delivered = 0usize;
        while let Ok((_, got)) = rx.recv_from(Some(Duration::from_millis(20))) {
            prop_assert_eq!(&got[..], &payload[..], "corrupted delivery");
            delivered += 1;
        }
        // Conflict before the last genuine fragment kills the datagram;
        // after completion it only opens a doomed new partial.
        let expected = usize::from(at == cnt);
        prop_assert_eq!(delivered, expected);
        prop_assert!(rx.pending_partials() >= 1, "conflict leftovers should be pending");
    }
}
