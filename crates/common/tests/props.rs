//! Property-based tests for the shared building blocks.

use proptest::prelude::*;

use iwarp_common::crc32::{crc32c, crc32c_scalar, Crc32c};
use iwarp_common::validity::ValidityMap;

proptest! {
    /// Streaming CRC over arbitrary splits, many of them inside a block
    /// of the three-lane kernel, equals the scalar one-shot CRC.
    #[test]
    fn crc_streaming_split_invariant(data in proptest::collection::vec(any::<u8>(), 0..2 * KERNEL_SPAN),
                                     cuts in proptest::collection::vec(any::<usize>(), 0..8)) {
        let oneshot = crc32c_scalar(&data);
        let mut points: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
        points.sort_unstable();
        let mut state = Crc32c::new();
        let mut prev = 0;
        for p in points {
            state.update(&data[prev..p]);
            prev = p;
        }
        state.update(&data[prev..]);
        prop_assert_eq!(state.finish(), oneshot);
    }

    /// CRC differs when any single byte is flipped (probabilistically:
    /// CRC32C detects all single-bit and most multi-bit errors; a single
    /// byte flip is always detected).
    #[test]
    fn crc_detects_byte_change(mut data in proptest::collection::vec(any::<u8>(), 1..512),
                               idx in any::<usize>(), flip in 1u8..=255) {
        let original = crc32c(&data);
        let i = idx % data.len();
        data[i] ^= flip;
        prop_assert_ne!(crc32c(&data), original);
    }

    /// The validity map matches a naive bitset model for arbitrary
    /// record sequences (duplicates, overlaps, out of order).
    #[test]
    fn validity_matches_bitset_model(ops in proptest::collection::vec((0u64..512, 0u64..128), 0..40)) {
        let mut map = ValidityMap::new();
        let mut model = vec![false; 1024];
        for &(start, len) in &ops {
            map.record(start, len);
            for i in start..(start + len).min(1024) {
                model[i as usize] = true;
            }
        }
        let model_bytes = model.iter().filter(|&&b| b).count() as u64;
        prop_assert_eq!(map.valid_bytes(), model_bytes);
        for probe in 0..1024u64 {
            prop_assert_eq!(map.contains(probe), model[probe as usize], "offset {}", probe);
        }
        // Structural invariants: sorted, disjoint, non-adjacent, non-empty.
        let runs = map.runs();
        for w in runs.windows(2) {
            prop_assert!(w[0].end < w[1].start);
        }
        for r in runs {
            prop_assert!(r.start < r.end);
        }
    }

    /// Recording is order-independent: any permutation of the same
    /// intervals yields the same map.
    #[test]
    fn validity_order_independent(ops in proptest::collection::vec((0u64..256, 1u64..64), 1..16),
                                  seed in any::<u64>()) {
        let mut forward = ValidityMap::new();
        for &(s, l) in &ops {
            forward.record(s, l);
        }
        // Deterministic shuffle from the seed.
        let mut shuffled = ops.clone();
        let mut state = seed;
        for i in (1..shuffled.len()).rev() {
            state = iwarp_common::rng::mix64(state.wrapping_add(i as u64)).max(1);
            let j = (state % (i as u64 + 1)) as usize;
            shuffled.swap(i, j);
        }
        let mut backward = ValidityMap::new();
        for &(s, l) in &shuffled {
            backward.record(s, l);
        }
        prop_assert_eq!(forward.runs(), backward.runs());
    }

    /// Gaps and runs partition [0, len).
    #[test]
    fn validity_gaps_complement_runs(ops in proptest::collection::vec((0u64..200, 1u64..50), 0..12)) {
        let len = 256u64;
        let mut map = ValidityMap::new();
        for &(s, l) in &ops {
            map.record(s, (l).min(len.saturating_sub(s)));
        }
        let covered: u64 = map
            .runs()
            .iter()
            .map(|r| r.end.min(len).saturating_sub(r.start.min(len)))
            .sum();
        let gaps: u64 = map.gaps(len).iter().map(|g| g.end - g.start).sum();
        prop_assert_eq!(covered + gaps, len);
    }

    /// The hardware-dispatching CRC and the scalar sliced-by-8 kernel
    /// agree for arbitrary inputs and alignments (sub-slicing shifts
    /// alignment relative to 8-byte words), at lengths that reach both
    /// block sizes of the three-lane kernel.
    #[test]
    fn crc_kernels_agree(data in proptest::collection::vec(any::<u8>(), 0..KERNEL_SPAN),
                         skew in 0usize..8) {
        let data = &data[skew.min(data.len())..];
        prop_assert_eq!(crc32c_scalar(data), crc32c(data));
    }
}

/// The hardware kernel's lane sizes (`crc32::hw::{LONG, SHORT}`); a block
/// is three lanes, and a tail under one short block runs a single chain.
const LONG: usize = 4096;
const SHORT: usize = 256;
/// One of each block plus a word: every path through the kernel.
const KERNEL_SPAN: usize = 3 * LONG + 3 * SHORT + 8;

/// Lengths on and beside every block edge, the 64 KiB DDP segment among
/// them, at two alignments. Each input starts at its own offset, so the
/// lane states joined at block ends differ from case to case.
#[test]
fn crc_kernels_agree_at_block_edges() {
    let data: Vec<u8> = (0..70_000u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
        .collect();
    let edges = [
        3 * SHORT,
        2 * 3 * SHORT,
        3 * LONG,
        3 * LONG + 3 * SHORT,
        2 * 3 * LONG,
        64 * 1024,
        64 * 1024 + 42,
    ];
    for edge in edges {
        for len in edge - 9..=edge + 9 {
            for skew in [0, 3] {
                let start = (len * 8 + skew) % 256;
                let d = &data[start..start + len];
                assert_eq!(crc32c(d), crc32c_scalar(d), "len={len} start={start}");
            }
        }
    }
}
