//! MPA — Marker PDU Aligned framing for the stream (RC) path.
//!
//! TCP is stream-oriented: intermediate devices may resegment, so a
//! receiver cannot know where a DDP segment begins without help. MPA
//! (RFC 5044) solves this by framing each ULPDU into an FPDU
//! (`length | ULPDU | pad | CRC32`) and inserting a 4-byte **marker** at
//! every 512-byte position of the TCP stream, pointing back to the start
//! of the FPDU it falls inside.
//!
//! Both marker insertion and removal require a full extra pass over the
//! payload with a copy — "packet marking ... is a high overhead activity
//! and is very expensive to implement in hardware" (paper §IV.A). This is
//! precisely the layer datagram-iWARP deletes (paper §IV.B item 5), and
//! the ablation benchmarks measure this module to quantify that saving.

use bytes::{BufMut, Bytes, BytesMut};

use iwarp_common::crc32::{crc32c, Crc32c};

use crate::error::{IwarpError, IwarpResult};

/// Marker spacing in stream bytes (RFC 5044 value).
pub const MARKER_INTERVAL: u64 = 512;

/// Marker size in bytes.
pub const MARKER_LEN: usize = 4;

/// Per-FPDU framing overhead without markers: 2-byte length prefix plus
/// the 4-byte CRC (padding varies).
pub const FPDU_OVERHEAD: usize = 6;

/// Negotiated MPA parameters (exchanged by the connection manager).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MpaConfig {
    /// Insert/strip stream markers.
    pub markers: bool,
    /// Compute/verify the per-FPDU CRC32.
    pub crc: bool,
}

impl Default for MpaConfig {
    fn default() -> Self {
        Self {
            markers: true,
            crc: true,
        }
    }
}

fn pad_len(ulpdu_len: usize) -> usize {
    (4 - (2 + ulpdu_len) % 4) % 4
}

/// Transmit-side framer: turns ULPDUs into a marker-studded byte stream.
#[derive(Debug)]
pub struct MpaTx {
    cfg: MpaConfig,
    /// Current stream position (markers included).
    pos: u64,
    /// Markers inserted so far.
    markers: u64,
}

impl MpaTx {
    /// Creates a framer at stream position 0.
    #[must_use]
    pub fn new(cfg: MpaConfig) -> Self {
        Self {
            cfg,
            pos: 0,
            markers: 0,
        }
    }

    /// Frames one ULPDU, returning the exact bytes to write to the stream
    /// (a [`frame_into`](MpaTx::frame_into) with an empty header).
    ///
    /// # Panics
    ///
    /// As [`frame_into`](MpaTx::frame_into).
    #[must_use]
    pub fn frame(&mut self, ulpdu: &[u8]) -> Bytes {
        let mut out = BytesMut::with_capacity(self.framed_len_bound(ulpdu.len()));
        self.frame_into(&mut out, &[], ulpdu);
        out.freeze()
    }

    /// Upper bound on the stream bytes [`frame_into`](MpaTx::frame_into)
    /// appends for a ULPDU of `ulpdu_len` bytes: the FPDU plus every
    /// marker that can fall inside it.
    #[must_use]
    pub(crate) fn framed_len_bound(&self, ulpdu_len: usize) -> usize {
        let crc_len = if self.cfg.crc { 4 } else { 0 };
        let fpdu = 2 + ulpdu_len + pad_len(ulpdu_len) + crc_len;
        if self.cfg.markers {
            let span = MARKER_INTERVAL as usize - MARKER_LEN;
            fpdu + (fpdu / span + 1) * MARKER_LEN
        } else {
            fpdu
        }
    }

    /// Frames the ULPDU `hdr ++ payload` and appends its stream bytes to
    /// `out`, in one pass: each byte is copied once, the CRC streams over
    /// the unmarked FPDU as it is copied, and a marker goes in at every
    /// 512-byte stream position. The bytes are those [`frame`] makes of
    /// the concatenation.
    ///
    /// [`frame`]: MpaTx::frame
    ///
    /// # Panics
    ///
    /// ULPDUs are bounded by the FPDU's 16-bit length field (the standard
    /// bounds MULPDU by the TCP EMSS, far below this); framing a larger
    /// one is a caller bug and panics rather than truncating silently.
    pub fn frame_into(&mut self, out: &mut BytesMut, hdr: &[u8], payload: &[u8]) {
        let ulpdu_len = hdr.len() + payload.len();
        assert!(
            ulpdu_len <= usize::from(u16::MAX),
            "ULPDU of {ulpdu_len} bytes exceeds the FPDU length field"
        );
        out.reserve(self.framed_len_bound(ulpdu_len));
        let fpdu_start = self.pos;
        let mut crc = self.cfg.crc.then(Crc32c::new);
        let pad = [0u8; 3];
        for piece in [
            &(ulpdu_len as u16).to_be_bytes()[..],
            hdr,
            payload,
            &pad[..pad_len(ulpdu_len)],
        ] {
            self.put_marked(out, fpdu_start, piece, crc.as_mut());
        }
        if let Some(crc) = crc {
            self.put_marked(out, fpdu_start, &crc.finish().to_be_bytes(), None);
        }
    }

    /// Copies `src` into the stream image, absorbing it into `crc` and
    /// inserting a marker (pointing back to `fpdu_start`) before any byte
    /// that falls on a marker position: the marking pass the datagram
    /// path avoids.
    fn put_marked(
        &mut self,
        out: &mut BytesMut,
        fpdu_start: u64,
        mut src: &[u8],
        mut crc: Option<&mut Crc32c>,
    ) {
        while !src.is_empty() {
            let take = if self.cfg.markers {
                if self.pos.is_multiple_of(MARKER_INTERVAL) {
                    out.put_u32((self.pos - fpdu_start) as u32);
                    self.pos += MARKER_LEN as u64;
                    self.markers += 1;
                }
                ((MARKER_INTERVAL - self.pos % MARKER_INTERVAL) as usize).min(src.len())
            } else {
                src.len()
            };
            let (now, rest) = src.split_at(take);
            out.extend_from_slice(now);
            if let Some(c) = crc.as_deref_mut() {
                c.update(now);
            }
            self.pos += take as u64;
            src = rest;
        }
    }

    /// Current stream position.
    #[must_use]
    pub fn position(&self) -> u64 {
        self.pos
    }

    /// Markers inserted since creation.
    #[must_use]
    pub fn markers(&self) -> u64 {
        self.markers
    }
}

/// Receive-side deframer: strips markers, verifies CRCs, yields ULPDUs.
#[derive(Debug)]
pub struct MpaRx {
    cfg: MpaConfig,
    pos: u64,
    /// Bytes of the current marker still to skip (markers can straddle
    /// `feed` calls).
    in_marker: usize,
    /// De-marked bytes of the FPDU still incomplete at the end of the
    /// last `feed`: a window of that feed's buffer.
    tail: Bytes,
}

impl MpaRx {
    /// Creates a deframer at stream position 0.
    #[must_use]
    pub fn new(cfg: MpaConfig) -> Self {
        Self {
            cfg,
            pos: 0,
            in_marker: 0,
            tail: Bytes::new(),
        }
    }

    /// Feeds raw stream bytes; complete ULPDUs are appended to `out`.
    /// Fails with [`IwarpError::CrcMismatch`] on FPDU corruption — fatal on
    /// the RC path, per the unrelaxed standard.
    ///
    /// The call de-marks into one buffer sized for the incomplete FPDU
    /// carried from the last call plus `data`; every ULPDU it yields is a
    /// window of that buffer, so only the carried bytes are copied twice.
    pub fn feed(&mut self, data: &[u8], out: &mut Vec<Bytes>) -> IwarpResult<()> {
        let mut clean = BytesMut::with_capacity(self.tail.len() + data.len());
        clean.extend_from_slice(&self.tail);
        // Pass 1: strip markers.
        if self.cfg.markers {
            let mut i = 0usize;
            while i < data.len() {
                if self.in_marker > 0 {
                    let skip = self.in_marker.min(data.len() - i);
                    i += skip;
                    self.pos += skip as u64;
                    self.in_marker -= skip;
                    continue;
                }
                if self.pos.is_multiple_of(MARKER_INTERVAL) {
                    self.in_marker = MARKER_LEN;
                    continue;
                }
                let until_marker = (MARKER_INTERVAL - self.pos % MARKER_INTERVAL) as usize;
                let take = until_marker.min(data.len() - i);
                clean.extend_from_slice(&data[i..i + take]);
                i += take;
                self.pos += take as u64;
            }
        } else {
            clean.extend_from_slice(data);
            self.pos += data.len() as u64;
        }
        let clean = clean.freeze();

        // Pass 2: parse FPDUs from the de-marked stream.
        let crc_len = if self.cfg.crc { 4 } else { 0 };
        let mut off = 0usize;
        while clean.len() - off >= 2 {
            let fpdu = &clean[off..];
            let ulp_len = usize::from(u16::from_be_bytes([fpdu[0], fpdu[1]]));
            let pad = pad_len(ulp_len);
            let need = 2 + ulp_len + pad + crc_len;
            if fpdu.len() < need {
                break;
            }
            if self.cfg.crc {
                let body = &fpdu[..2 + ulp_len + pad];
                let expect =
                    u32::from_be_bytes(fpdu[2 + ulp_len + pad..need].try_into().expect("4 bytes"));
                if crc32c(body) != expect {
                    return Err(IwarpError::CrcMismatch);
                }
            }
            out.push(clean.slice(off + 2..off + 2 + ulp_len));
            off += need;
        }
        self.tail = if off == clean.len() {
            Bytes::new()
        } else {
            clean.slice(off..)
        };
        Ok(())
    }

    /// Current stream position (markers included).
    #[must_use]
    pub fn position(&self) -> u64 {
        self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(cfg: MpaConfig, msgs: &[Vec<u8>], chunk: usize) -> Vec<Bytes> {
        let mut tx = MpaTx::new(cfg);
        let mut stream = Vec::new();
        for m in msgs {
            stream.extend_from_slice(&tx.frame(m));
        }
        let mut rx = MpaRx::new(cfg);
        let mut out = Vec::new();
        for c in stream.chunks(chunk.max(1)) {
            rx.feed(c, &mut out).unwrap();
        }
        out
    }

    fn msg(n: usize, seed: u8) -> Vec<u8> {
        (0..n)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
            .collect()
    }

    #[test]
    fn roundtrip_with_markers_and_crc() {
        let msgs = vec![
            msg(1, 1),
            msg(100, 2),
            msg(511, 3),
            msg(512, 4),
            msg(4096, 5),
        ];
        for chunk in [1, 3, 7, 512, 1448, 100_000] {
            let got = roundtrip(MpaConfig::default(), &msgs, chunk);
            assert_eq!(got.len(), msgs.len(), "chunk={chunk}");
            for (g, m) in got.iter().zip(&msgs) {
                assert_eq!(&g[..], &m[..], "chunk={chunk}");
            }
        }
    }

    #[test]
    fn roundtrip_without_markers() {
        let cfg = MpaConfig {
            markers: false,
            crc: true,
        };
        let msgs = vec![msg(1500, 1), msg(2, 9)];
        let got = roundtrip(cfg, &msgs, 13);
        assert_eq!(got.len(), 2);
        assert_eq!(&got[0][..], &msgs[0][..]);
    }

    #[test]
    fn roundtrip_without_crc() {
        let cfg = MpaConfig {
            markers: true,
            crc: false,
        };
        let msgs = vec![msg(777, 1)];
        let got = roundtrip(cfg, &msgs, 64);
        assert_eq!(&got[0][..], &msgs[0][..]);
    }

    #[test]
    fn empty_ulpdu() {
        let got = roundtrip(MpaConfig::default(), &[vec![]], 4);
        assert_eq!(got.len(), 1);
        assert!(got[0].is_empty());
    }

    #[test]
    fn marker_overhead_on_wire() {
        // 512 bytes of stream gains one 4-byte marker: ≈ 0.78% plus FPDU
        // framing; total wire bytes must exceed payload accordingly.
        let mut tx = MpaTx::new(MpaConfig::default());
        let payload = msg(32 * 1024, 0);
        let framed = tx.frame(&payload);
        let expected_markers = framed.len() / MARKER_INTERVAL as usize;
        assert!(
            framed.len()
                >= payload.len() + FPDU_OVERHEAD + expected_markers * MARKER_LEN - MARKER_LEN
        );
        assert!(framed.len() > payload.len() + 250, "markers missing");
    }

    #[test]
    #[should_panic(expected = "exceeds the FPDU length field")]
    fn oversized_ulpdu_panics() {
        let mut tx = MpaTx::new(MpaConfig::default());
        let _ = tx.frame(&vec![0u8; 65_536]);
    }

    #[test]
    fn positions_stay_in_sync() {
        let cfg = MpaConfig::default();
        let mut tx = MpaTx::new(cfg);
        let mut rx = MpaRx::new(cfg);
        let mut out = Vec::new();
        for i in 0..50 {
            let m = msg(i * 37 + 1, i as u8);
            let framed = tx.frame(&m);
            rx.feed(&framed, &mut out).unwrap();
            assert_eq!(tx.position(), rx.position(), "iteration {i}");
        }
        assert_eq!(out.len(), 50);
    }

    #[test]
    fn crc_corruption_detected() {
        let mut tx = MpaTx::new(MpaConfig::default());
        let framed = tx.frame(&msg(300, 1));
        let mut bad = framed.to_vec();
        // Flip a byte beyond the leading marker + length prefix.
        bad[20] ^= 0x01;
        let mut rx = MpaRx::new(MpaConfig::default());
        let mut out = Vec::new();
        assert_eq!(
            rx.feed(&bad, &mut out).unwrap_err(),
            IwarpError::CrcMismatch
        );
    }

    #[test]
    fn frame_into_matches_frame_of_concatenation() {
        for cfg in [
            MpaConfig::default(),
            MpaConfig {
                markers: false,
                crc: true,
            },
            MpaConfig {
                markers: true,
                crc: false,
            },
        ] {
            let (mut a, mut b) = (MpaTx::new(cfg), MpaTx::new(cfg));
            let mut joined = BytesMut::new();
            for i in 0..40usize {
                let hdr = msg(i % 43, i as u8);
                let payload = msg(i * 61 % 1500, !(i as u8));
                let mut cat = hdr.clone();
                cat.extend_from_slice(&payload);
                let one = a.frame(&cat);
                let start = joined.len();
                b.frame_into(&mut joined, &hdr, &payload);
                assert_eq!(&joined[start..], &one[..], "{cfg:?} message {i}");
                assert!(one.len() <= a.framed_len_bound(cat.len()));
            }
            assert_eq!((a.position(), a.markers()), (b.position(), b.markers()));
        }
    }

    #[test]
    fn pad_lengths() {
        assert_eq!(pad_len(0), 2);
        assert_eq!(pad_len(1), 1);
        assert_eq!(pad_len(2), 0);
        assert_eq!(pad_len(3), 3);
        assert_eq!(pad_len(6), 0);
    }

    #[test]
    fn interleaved_large_small() {
        let msgs: Vec<Vec<u8>> = (0..20)
            .map(|i| msg(if i % 2 == 0 { 9000 } else { 3 }, i as u8))
            .collect();
        let got = roundtrip(MpaConfig::default(), &msgs, 1000);
        assert_eq!(got.len(), msgs.len());
        for (g, m) in got.iter().zip(&msgs) {
            assert_eq!(&g[..], &m[..]);
        }
    }
}
