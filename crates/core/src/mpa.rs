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

use bytes::{Buf, BufMut, Bytes, BytesMut};

use iwarp_common::crc32::crc32c;

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

    /// Frames one ULPDU, returning the exact bytes to write to the stream.
    ///
    /// # Panics
    ///
    /// ULPDUs are bounded by the FPDU's 16-bit length field (the standard
    /// bounds MULPDU by the TCP EMSS, far below this); framing a larger
    /// one is a caller bug and panics rather than truncating silently.
    #[must_use]
    pub fn frame(&mut self, ulpdu: &[u8]) -> Bytes {
        assert!(
            ulpdu.len() <= usize::from(u16::MAX),
            "ULPDU of {} bytes exceeds the FPDU length field",
            ulpdu.len()
        );
        let pad = pad_len(ulpdu.len());
        let crc_len = if self.cfg.crc { 4 } else { 0 };
        let fpdu_len = 2 + ulpdu.len() + pad + crc_len;
        let mut fpdu = BytesMut::with_capacity(fpdu_len);
        fpdu.put_u16(ulpdu.len() as u16);
        fpdu.extend_from_slice(ulpdu);
        fpdu.put_bytes(0, pad);
        if self.cfg.crc {
            let crc = crc32c(&fpdu);
            fpdu.put_u32(crc);
        }
        if !self.cfg.markers {
            self.pos += fpdu.len() as u64;
            return fpdu.freeze();
        }

        // Marker insertion: a full pass copying the FPDU into the stream
        // image with a 4-byte marker at every 512-byte stream position —
        // the overhead the datagram path avoids.
        let fpdu_start = self.pos;
        let mut out = BytesMut::with_capacity(fpdu.len() + fpdu.len() / 128 + MARKER_LEN);
        let mut i = 0usize;
        while i < fpdu.len() {
            if self.pos.is_multiple_of(MARKER_INTERVAL) {
                out.put_u32((self.pos - fpdu_start) as u32);
                self.pos += MARKER_LEN as u64;
                self.markers += 1;
                continue;
            }
            let until_marker = (MARKER_INTERVAL - self.pos % MARKER_INTERVAL) as usize;
            let take = until_marker.min(fpdu.len() - i);
            out.extend_from_slice(&fpdu[i..i + take]);
            i += take;
            self.pos += take as u64;
        }
        out.freeze()
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
    /// De-marked stream bytes awaiting FPDU parsing.
    clean: BytesMut,
}

impl MpaRx {
    /// Creates a deframer at stream position 0.
    #[must_use]
    pub fn new(cfg: MpaConfig) -> Self {
        Self {
            cfg,
            pos: 0,
            in_marker: 0,
            clean: BytesMut::new(),
        }
    }

    /// Feeds raw stream bytes; complete ULPDUs are appended to `out`.
    /// Fails with [`IwarpError::CrcMismatch`] on FPDU corruption — fatal on
    /// the RC path, per the unrelaxed standard.
    pub fn feed(&mut self, data: &[u8], out: &mut Vec<Bytes>) -> IwarpResult<()> {
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
                self.clean.extend_from_slice(&data[i..i + take]);
                i += take;
                self.pos += take as u64;
            }
        } else {
            self.clean.extend_from_slice(data);
            self.pos += data.len() as u64;
        }

        // Pass 2: parse FPDUs from the de-marked stream.
        let crc_len = if self.cfg.crc { 4 } else { 0 };
        loop {
            if self.clean.len() < 2 {
                return Ok(());
            }
            let ulp_len = usize::from(u16::from_be_bytes([self.clean[0], self.clean[1]]));
            let pad = pad_len(ulp_len);
            let need = 2 + ulp_len + pad + crc_len;
            if self.clean.len() < need {
                return Ok(());
            }
            if self.cfg.crc {
                let body = &self.clean[..2 + ulp_len + pad];
                let expect = u32::from_be_bytes(
                    self.clean[2 + ulp_len + pad..need]
                        .try_into()
                        .expect("4 bytes"),
                );
                if crc32c(body) != expect {
                    return Err(IwarpError::CrcMismatch);
                }
            }
            out.push(Bytes::copy_from_slice(&self.clean[2..2 + ulp_len]));
            self.clean.advance(need);
        }
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
        (0..n).map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed)).collect()
    }

    #[test]
    fn roundtrip_with_markers_and_crc() {
        let msgs = vec![msg(1, 1), msg(100, 2), msg(511, 3), msg(512, 4), msg(4096, 5)];
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
        assert!(framed.len() >= payload.len() + FPDU_OVERHEAD + expected_markers * MARKER_LEN - MARKER_LEN);
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
