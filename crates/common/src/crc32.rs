//! CRC32C (Castagnoli) implemented from scratch.
//!
//! iWARP's MPA layer and datagram-iWARP's DDP layer both protect payloads
//! with CRC32C (polynomial `0x1EDC6F41`, reflected `0x82F63B78`) — the same
//! polynomial used by SCTP and iSCSI. Datagram-iWARP makes the CRC
//! *mandatory* for every message (paper §IV.B item 6) because there is no
//! reliable LLP underneath to vouch for payload integrity.
//!
//! Two kernels sit behind one streaming API:
//!
//! * **Hardware**: on x86-64 with SSE4.2, the dedicated `crc32` instruction
//!   (`_mm_crc32_u64`) computes exactly this polynomial. It has a 3-cycle
//!   latency but issues once per cycle, so one dependency chain runs at a
//!   third of the unit's throughput. The kernel cuts its input into blocks
//!   of three equal lanes, runs the three chains in one loop, and joins
//!   them with a table-driven "advance over one lane of zero bytes"
//!   operator (the `crc32_combine` algebra of zlib). Long lanes serve
//!   64 KiB DDP segments, short lanes ~1 KiB messages, and a tail under
//!   three short lanes runs one chain. Detected at runtime
//!   ([`hw_acceleration_active`]).
//! * **Scalar fallback**: the classic "slicing-by-8" technique — eight
//!   256-entry tables, 8 input bytes per iteration, pure safe Rust.
//!
//! Every table is built at compile time by a `const fn`. Both kernels
//! produce identical digests (property-tested in `tests/`).

/// Whether the CRC32C hardware instruction is in use on this machine.
#[must_use]
pub fn hw_acceleration_active() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        // std caches the CPUID probe; this is one relaxed load.
        std::arch::is_x86_feature_detected!("sse4.2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[cfg(target_arch = "x86_64")]
mod hw {
    //! SSE4.2 `crc32` kernel: three interleaved chains per block.
    //!
    //! A block is three lanes of `lane` bytes. Chain 0 starts from the
    //! running state, chains 1 and 2 from zero. CRC is linear over GF(2),
    //! so the digest of the whole block is
    //! `shift(shift(c0) ^ c1) ^ c2`, where `shift` advances a raw state
    //! over `lane` zero bytes.

    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};

    use super::POLY;

    /// Lane of the long blocks (three lanes = 12 KiB), sized for 64 KiB
    /// DDP segments. `tests/props.rs` and `core/tests/corruption.rs`
    /// mirror both lane sizes to place inputs on block edges.
    pub(super) const LONG: usize = 4096;
    /// Lane of the short blocks (three lanes = 768 B), sized for MPA
    /// FPDUs and 1 KiB messages.
    pub(super) const SHORT: usize = 256;

    /// The "advance a raw state over `lane` zero bytes" operator as one
    /// 256-entry table per state byte.
    pub(super) type ShiftTables = [[u32; 256]; 4];

    pub(super) static SHIFT_LONG: ShiftTables = shift_tables(LONG);
    pub(super) static SHIFT_SHORT: ShiftTables = shift_tables(SHORT);

    /// A linear map on 32-bit states over GF(2): entry `i` is the image
    /// of state bit `i`.
    type Matrix = [u32; 32];

    const fn apply(m: &Matrix, mut v: u32) -> u32 {
        let mut out = 0;
        let mut i = 0;
        while v != 0 {
            if v & 1 != 0 {
                out ^= m[i];
            }
            v >>= 1;
            i += 1;
        }
        out
    }

    const fn square(m: &Matrix) -> Matrix {
        let mut out = [0u32; 32];
        let mut i = 0;
        while i < 32 {
            out[i] = apply(m, m[i]);
            i += 1;
        }
        out
    }

    /// Tabulates the operator that advances a raw state over `len` zero
    /// bytes (`len` a power of two), built by repeated squaring of the
    /// one-zero-bit operator as in zlib's `crc32_combine`.
    const fn shift_tables(len: usize) -> ShiftTables {
        assert!(len.is_power_of_two());
        // One zero bit: shift right, folding in the polynomial when the
        // bit shifted out is set.
        let mut m = [0u32; 32];
        m[0] = POLY;
        let mut i = 1;
        while i < 32 {
            m[i] = 1 << (i - 1);
            i += 1;
        }
        let mut bits = 1;
        while bits < 8 * len {
            m = square(&m);
            bits *= 2;
        }
        let mut t = [[0u32; 256]; 4];
        let mut k = 0;
        while k < 4 {
            let mut b = 0;
            while b < 256 {
                t[k][b] = apply(&m, (b as u32) << (8 * k));
                b += 1;
            }
            k += 1;
        }
        t
    }

    /// Advances raw state `s` over the lane length `t` was built for.
    pub(super) fn shift(t: &ShiftTables, s: u32) -> u32 {
        t[0][(s & 0xFF) as usize]
            ^ t[1][((s >> 8) & 0xFF) as usize]
            ^ t[2][((s >> 16) & 0xFF) as usize]
            ^ t[3][(s >> 24) as usize]
    }

    /// Absorbs `data` into a raw (non-inverted) CRC state, or returns
    /// `None` when the CPU lacks SSE4.2.
    pub(super) fn update(state: u32, data: &[u8]) -> Option<u32> {
        if !super::hw_acceleration_active() {
            return None;
        }
        // SAFETY: SSE4.2 presence just checked.
        Some(unsafe { update_sse42(state, data) })
    }

    /// Long blocks, then short blocks, then one chain over the tail.
    #[target_feature(enable = "sse4.2")]
    fn update_sse42(state: u32, data: &[u8]) -> u32 {
        let (crc, rest) = blocks(state, data, LONG, &SHIFT_LONG);
        let (crc, rest) = blocks(crc, rest, SHORT, &SHIFT_SHORT);
        let mut words = rest.chunks_exact(8);
        let mut crc = u64::from(crc);
        for w in &mut words {
            crc = _mm_crc32_u64(crc, word(w));
        }
        let mut crc = crc as u32;
        for &b in words.remainder() {
            crc = _mm_crc32_u8(crc, b);
        }
        crc
    }

    /// Absorbs every whole block of three `lane`-byte lanes (`lane` a
    /// multiple of 8, `shift_lane` built for it) and returns the state
    /// with the unabsorbed remainder.
    #[target_feature(enable = "sse4.2")]
    #[inline]
    fn blocks<'a>(
        mut crc: u32,
        data: &'a [u8],
        lane: usize,
        shift_lane: &ShiftTables,
    ) -> (u32, &'a [u8]) {
        let mut blocks = data.chunks_exact(3 * lane);
        for block in &mut blocks {
            let (l0, rest) = block.split_at(lane);
            let (l1, l2) = rest.split_at(lane);
            let (mut c0, mut c1, mut c2) = (u64::from(crc), 0u64, 0u64);
            for ((w0, w1), w2) in l0
                .chunks_exact(8)
                .zip(l1.chunks_exact(8))
                .zip(l2.chunks_exact(8))
            {
                c0 = _mm_crc32_u64(c0, word(w0));
                c1 = _mm_crc32_u64(c1, word(w1));
                c2 = _mm_crc32_u64(c2, word(w2));
            }
            crc = shift(shift_lane, shift(shift_lane, c0 as u32) ^ c1 as u32) ^ c2 as u32;
        }
        (crc, blocks.remainder())
    }

    /// An 8-byte chunk as the instruction's little-endian operand.
    fn word(chunk: &[u8]) -> u64 {
        u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"))
    }
}

/// Reflected CRC32C polynomial.
const POLY: u32 = 0x82F6_3B78;

/// Number of slicing tables (8 ⇒ one table per byte of a 64-bit word).
const SLICES: usize = 8;

type Tables = [[u32; 256]; SLICES];

static TABLES: Tables = slicing_tables();

const fn slicing_tables() -> Tables {
    let mut t = [[0u32; 256]; SLICES];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut s = 1;
    while s < SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = t[s - 1][i];
            t[s][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        s += 1;
    }
    t
}

/// Streaming CRC32C state.
///
/// Feed data incrementally with [`Crc32c::update`] and extract the final
/// checksum with [`Crc32c::finish`]. Use [`crc32c`] for the common
/// one-shot case.
#[derive(Clone, Copy, Debug)]
pub struct Crc32c {
    state: u32,
}

impl Default for Crc32c {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32c {
    /// Creates a fresh CRC state (all-ones initial value, per the standard).
    #[must_use]
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Absorbs `data` into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if let Some(state) = hw::update(self.state, data) {
            self.state = state;
            return;
        }
        self.update_scalar(data);
    }

    /// Scalar slicing-by-8 kernel (public so benches and equivalence tests
    /// can pin the software path regardless of CPU features).
    pub fn update_scalar(&mut self, data: &[u8]) {
        let t = &TABLES;
        let mut crc = self.state;

        let mut chunks = data.chunks_exact(8);
        for chunk in &mut chunks {
            // Combine the current CRC with the first 4 bytes, then slice
            // all 8 bytes through the tables.
            let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ crc;
            let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][((lo >> 24) & 0xFF) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][((hi >> 24) & 0xFF) as usize];
        }
        for &b in chunks.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// Returns the final checksum (bit-inverted, per the standard).
    #[must_use]
    pub fn finish(self) -> u32 {
        !self.state
    }
}

/// One-shot CRC32C of `data`.
#[must_use]
pub fn crc32c(data: &[u8]) -> u32 {
    let mut c = Crc32c::new();
    c.update(data);
    c.finish()
}

/// One-shot CRC32C of `data` forced onto the scalar kernel (for
/// hardware/software equivalence tests and benches).
#[must_use]
pub fn crc32c_scalar(data: &[u8]) -> u32 {
    let mut c = Crc32c::new();
    c.update_scalar(data);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bitwise reference implementation used to validate the sliced tables.
    fn crc32c_ref(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // RFC 3720 (iSCSI) appendix test vectors for CRC32C.
        assert_eq!(crc32c(b""), 0);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
        let ascending: Vec<u8> = (0u8..32).collect();
        assert_eq!(crc32c(&ascending), 0x46DD_794E);
        let descending: Vec<u8> = (0u8..32).rev().collect();
        assert_eq!(crc32c(&descending), 0x113F_DB5C);
    }

    #[test]
    fn matches_bitwise_reference() {
        let data: Vec<u8> = (0..1021u32)
            .map(|i| (i.wrapping_mul(31) ^ (i >> 3)) as u8)
            .collect();
        for len in [0, 1, 7, 8, 9, 63, 64, 65, 255, 1021] {
            assert_eq!(crc32c(&data[..len]), crc32c_ref(&data[..len]), "len={len}");
        }
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        for split in [0, 1, 5, 8, 100, 4095, 4096] {
            let mut c = Crc32c::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finish(), crc32c(&data), "split={split}");
        }
    }

    #[test]
    fn hardware_and_scalar_kernels_agree() {
        // On SSE4.2 machines `crc32c` runs the hardware kernel; elsewhere
        // this degenerates to scalar==scalar, which is still a valid check.
        let data: Vec<u8> = (0..3000u32)
            .map(|i| (i.wrapping_mul(97) >> 2) as u8)
            .collect();
        for len in [0, 1, 7, 8, 9, 15, 16, 63, 64, 255, 1500, 3000] {
            assert_eq!(
                crc32c(&data[..len]),
                crc32c_scalar(&data[..len]),
                "len={len}"
            );
        }
        // Streaming across odd split points must agree too.
        let mut hw = Crc32c::new();
        let mut sw = Crc32c::new();
        for chunk in data.chunks(13) {
            hw.update(chunk);
            sw.update_scalar(chunk);
        }
        assert_eq!(hw.finish(), sw.finish());
    }

    /// Every entry of both shift tables equals the scalar kernel run over
    /// one lane of zero bytes. The operator is linear, so this covers
    /// every state; a few arbitrary states are checked end to end too.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn shift_tables_advance_over_a_lane_of_zeros() {
        let zeros_then = |s: u32, lane: usize| {
            let mut c = Crc32c { state: s };
            c.update_scalar(&vec![0u8; lane]);
            c.state
        };
        for (lane, table) in [(hw::LONG, &hw::SHIFT_LONG), (hw::SHORT, &hw::SHIFT_SHORT)] {
            for k in 0..4 {
                for b in 0..256u32 {
                    let s = b << (8 * k);
                    assert_eq!(
                        hw::shift(table, s),
                        zeros_then(s, lane),
                        "lane={lane} s={s:#x}"
                    );
                }
            }
            for s in [0xFFFF_FFFF, 0xDEAD_BEEF, 0x8000_0001, 0x1234_5678] {
                assert_eq!(
                    hw::shift(table, s),
                    zeros_then(s, lane),
                    "lane={lane} s={s:#x}"
                );
            }
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data = vec![0xA5u8; 300];
        let orig = crc32c(&data);
        for bit in [0usize, 7, 100 * 8 + 3, 299 * 8 + 7] {
            data[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32c(&data), orig, "bit={bit}");
            data[bit / 8] ^= 1 << (bit % 8);
        }
        assert_eq!(crc32c(&data), orig);
    }
}
