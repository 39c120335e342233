//! Property-based tests for the iWARP wire formats and MPA framing.

use bytes::Bytes;
use proptest::prelude::*;

use iwarp::error::IwarpError;
use iwarp::hdr::{
    decode, encode_tagged, encode_untagged, DdpSegment, RdmapOpcode, ReadRequest, TaggedHdr,
    UntaggedHdr,
};
use iwarp::mpa::{MpaConfig, MpaRx, MpaTx, MARKER_INTERVAL, MARKER_LEN};
use iwarp_common::crc32::crc32c;

/// RFC 5044 framing written out the long way, as a reference: build the
/// FPDU (`len | ULPDU | pad | CRC`), then copy it into the stream image,
/// putting a marker (the offset back to the FPDU's start) at every
/// 512-byte stream position from `pos` on. Returns the stream bytes.
fn reference_frame(cfg: MpaConfig, pos: u64, ulpdu: &[u8]) -> Vec<u8> {
    let mut fpdu = (ulpdu.len() as u16).to_be_bytes().to_vec();
    fpdu.extend_from_slice(ulpdu);
    while !fpdu.len().is_multiple_of(4) {
        fpdu.push(0);
    }
    if cfg.crc {
        let crc = crc32c(&fpdu);
        fpdu.extend_from_slice(&crc.to_be_bytes());
    }
    if !cfg.markers {
        return fpdu;
    }
    let mut out = Vec::new();
    let mut at = pos;
    for &b in &fpdu {
        if at.is_multiple_of(MARKER_INTERVAL) {
            out.extend_from_slice(&((at - pos) as u32).to_be_bytes());
            at += MARKER_LEN as u64;
        }
        out.push(b);
        at += 1;
    }
    out
}

fn arb_opcode() -> impl Strategy<Value = RdmapOpcode> {
    prop_oneof![
        Just(RdmapOpcode::Send),
        Just(RdmapOpcode::RdmaWrite),
        Just(RdmapOpcode::WriteRecord),
        Just(RdmapOpcode::ReadRequest),
        Just(RdmapOpcode::ReadResponse),
        Just(RdmapOpcode::Terminate),
    ]
}

prop_compose! {
    fn arb_untagged()(opcode in arb_opcode(), last in any::<bool>(), qn in 0u32..3,
                      msn in any::<u32>(), mo in any::<u32>(), total_len in any::<u32>(),
                      src_qpn in any::<u32>(), msg_id in any::<u64>(),
                      solicited in any::<bool>()) -> UntaggedHdr {
        UntaggedHdr { opcode, last, qn, msn, mo, total_len, src_qpn, msg_id, solicited }
    }
}

prop_compose! {
    fn arb_tagged()(opcode in arb_opcode(), last in any::<bool>(), notify in any::<bool>(),
                    stag in any::<u32>(), to in any::<u64>(), base_to in any::<u64>(),
                    total_len in any::<u32>(), src_qpn in any::<u32>(), msg_id in any::<u64>(),
                    imm in any::<u32>()) -> TaggedHdr {
        TaggedHdr { opcode, last, notify, stag, to, base_to, total_len, src_qpn, msg_id, imm }
    }
}

proptest! {
    /// Untagged segments roundtrip for arbitrary headers and payloads,
    /// with or without the CRC trailer.
    #[test]
    fn untagged_roundtrip(hdr in arb_untagged(),
                          payload in proptest::collection::vec(any::<u8>(), 0..2048),
                          with_crc in any::<bool>()) {
        let enc = encode_untagged(&hdr, &payload, with_crc);
        match decode(&enc, with_crc).unwrap() {
            DdpSegment::Untagged { hdr: h, payload: p } => {
                prop_assert_eq!(h, hdr);
                prop_assert_eq!(&p[..], &payload[..]);
            }
            other => prop_assert!(false, "wrong variant {:?}", other),
        }
    }

    /// Tagged segments roundtrip likewise.
    #[test]
    fn tagged_roundtrip(hdr in arb_tagged(),
                        payload in proptest::collection::vec(any::<u8>(), 0..2048),
                        with_crc in any::<bool>()) {
        let enc = encode_tagged(&hdr, &payload, with_crc);
        match decode(&enc, with_crc).unwrap() {
            DdpSegment::Tagged { hdr: h, payload: p } => {
                prop_assert_eq!(h, hdr);
                prop_assert_eq!(&p[..], &payload[..]);
            }
            other => prop_assert!(false, "wrong variant {:?}", other),
        }
    }

    /// Corrupting any byte of a CRC-protected segment is detected (either
    /// as a CRC mismatch or as a structural parse failure).
    #[test]
    fn corruption_never_passes(hdr in arb_untagged(),
                               payload in proptest::collection::vec(any::<u8>(), 0..512),
                               idx in any::<usize>(), flip in 1u8..=255) {
        let enc = encode_untagged(&hdr, &payload, true);
        let mut bad = enc.to_vec();
        let i = idx % bad.len();
        bad[i] ^= flip;
        prop_assert!(decode(&Bytes::from(bad), true).is_err());
    }

    /// Read-request payloads roundtrip.
    #[test]
    fn read_request_roundtrip(sink_stag in any::<u32>(), sink_to in any::<u64>(),
                              len in any::<u32>(), src_stag in any::<u32>(), src_to in any::<u64>()) {
        let rr = ReadRequest { sink_stag, sink_to, len, src_stag, src_to };
        prop_assert_eq!(ReadRequest::decode(&rr.encode()).unwrap(), rr);
    }

    /// MPA framing delivers exactly the framed ULPDUs, in order, for any
    /// message sizes and any receive chunking, in every marker/CRC mode.
    #[test]
    fn mpa_roundtrip_any_chunking(msgs in proptest::collection::vec(
                                      proptest::collection::vec(any::<u8>(), 0..3000), 1..8),
                                  chunk in 1usize..5000,
                                  markers in any::<bool>(),
                                  crc in any::<bool>()) {
        let cfg = MpaConfig { markers, crc };
        let mut tx = MpaTx::new(cfg);
        let mut wire = Vec::new();
        for m in &msgs {
            wire.extend_from_slice(&tx.frame(m));
        }
        let mut rx = MpaRx::new(cfg);
        let mut out = Vec::new();
        for c in wire.chunks(chunk) {
            rx.feed(c, &mut out).unwrap();
        }
        prop_assert_eq!(out.len(), msgs.len());
        for (got, want) in out.iter().zip(&msgs) {
            prop_assert_eq!(&got[..], &want[..]);
        }
        prop_assert_eq!(tx.position(), rx.position());
    }
}

proptest! {
    // Enough cases to visit most of the 128 marker phases a 4-byte
    // aligned stream position can take.
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `frame_into(hdr, payload)` is `frame(hdr ++ payload)`, and both are
    /// the reference framing, from every marker phase (a first ULPDU of
    /// 0..512 bytes primes the stream position) in every marker/CRC mode.
    #[test]
    fn frame_into_is_frame_of_the_concatenation(
        prime in 0usize..512,
        hdr in proptest::collection::vec(any::<u8>(), 0..64),
        payload in proptest::collection::vec(any::<u8>(), 0..3000),
        markers in any::<bool>(),
        crc in any::<bool>(),
    ) {
        let cfg = MpaConfig { markers, crc };
        let (mut whole, mut split) = (MpaTx::new(cfg), MpaTx::new(cfg));
        let first = vec![0xA5u8; prime];
        prop_assert_eq!(&whole.frame(&first)[..], &reference_frame(cfg, 0, &first)[..]);
        let mut out = bytes::BytesMut::new();
        split.frame_into(&mut out, &[], &first);
        let pos = whole.position();
        prop_assert_eq!(split.position(), pos);

        let cat = [&hdr[..], &payload[..]].concat();
        let framed = whole.frame(&cat);
        let before = out.len();
        split.frame_into(&mut out, &hdr, &payload);
        prop_assert_eq!(&out[before..], &framed[..]);
        prop_assert_eq!(&framed[..], &reference_frame(cfg, pos, &cat)[..]);
        prop_assert_eq!(split.position(), whole.position());
        prop_assert_eq!(split.markers(), whole.markers());
    }

    /// Corrupting any CRC-covered byte of an FPDU (anything but a marker
    /// and the length field) still fails the feed with `CrcMismatch`.
    #[test]
    fn corrupted_fpdu_fails_its_crc(
        payload in proptest::collection::vec(any::<u8>(), 1..2000),
        pick in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let cfg = MpaConfig::default();
        let mut wire = MpaTx::new(cfg).frame(&payload).to_vec();
        // The stream starts with a marker, then the 2-byte length.
        let covered: Vec<usize> = (MARKER_LEN + 2..wire.len())
            .filter(|i| i % MARKER_INTERVAL as usize >= MARKER_LEN)
            .collect();
        let at = covered[pick % covered.len()];
        wire[at] ^= flip;
        let mut out = Vec::new();
        prop_assert_eq!(
            MpaRx::new(cfg).feed(&wire, &mut out).unwrap_err(),
            IwarpError::CrcMismatch
        );
        prop_assert!(out.is_empty());
    }
}

/// The ULPDUs one `feed` yields are windows of one de-marked buffer.
#[test]
fn ulpdus_from_one_feed_share_storage() {
    let cfg = MpaConfig::default();
    let mut tx = MpaTx::new(cfg);
    let msgs: Vec<Vec<u8>> = (0..6u8)
        .map(|i| vec![i; 300 + 97 * usize::from(i)])
        .collect();
    let wire: Vec<u8> = msgs.iter().flat_map(|m| tx.frame(m).to_vec()).collect();
    // Cut the stream mid-FPDU so the second feed also carries a tail.
    let cut = wire.len() / 2 + 3;
    let mut rx = MpaRx::new(cfg);
    let mut out = Vec::new();
    rx.feed(&wire[..cut], &mut out).unwrap();
    let first = out.len();
    assert!(first >= 2, "want several ULPDUs from the first feed");
    rx.feed(&wire[cut..], &mut out).unwrap();
    assert_eq!(out.len(), msgs.len());
    assert!(out.len() - first >= 2);
    for (got, want) in out.iter().zip(&msgs) {
        assert_eq!(&got[..], &want[..]);
    }
    let shared =
        |a: &Bytes, b: &Bytes| std::sync::Arc::ptr_eq(a.shared_storage(), b.shared_storage());
    for group in [&out[..first], &out[first..]] {
        assert!(group.iter().all(|u| shared(u, &group[0])));
    }
    assert!(
        !shared(&out[0], &out[first]),
        "each feed has a buffer of its own"
    );
}
