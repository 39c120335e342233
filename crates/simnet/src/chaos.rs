//! Seeded fault-injection adversary for the fabric.
//!
//! A [`FaultPlan`] composes per-link fault stages — partition windows,
//! drop (reusing [`LossModel`]), single-bit corruption, truncation,
//! duplication, and reordering — applied to every packet a [`Fabric`]
//! transmits, *after* the baseline loss model and before the delay line.
//! Everything is deterministic: each link `(src, dst)` gets its own RNG
//! stream derived from the plan seed, partition windows are expressed in
//! per-link packet indices (logical time, not wall-clock), and every
//! injected fault is appended to a replayable [`FaultEvent`] trace. Two
//! runs of the same workload under the same plan therefore produce
//! byte-identical fault traces — the property `chaos --replay <seed>`
//! relies on.
//!
//! [`Fabric`]: crate::Fabric

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::Rng;

use iwarp_common::rng::{derive_seed, small_rng};

use crate::loss::{LossModel, LossState};
use crate::wire::{Addr, WirePacket};

/// A half-open window `[start, end)` of per-link packet indices during
/// which the link is partitioned (every packet silently dropped).
/// Logical indices, not wall-clock time, so replays are exact.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PartitionWindow {
    /// First per-link packet index inside the partition.
    pub start: u64,
    /// First per-link packet index after the partition.
    pub end: u64,
}

/// One seeded adversary configuration. Probabilities are per-packet and
/// evaluated independently per link; `seed` roots every link's RNG
/// stream via [`derive_seed`].
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Root of all per-link RNG streams.
    pub seed: u64,
    /// Extra drop stage (composes with the fabric's own loss model).
    pub drop: LossModel,
    /// Probability a surviving packet is delivered twice.
    pub duplicate: f64,
    /// Probability a surviving packet is held back and released later.
    pub reorder: f64,
    /// Maximum hold depth: a reordered packet is released after
    /// `1..=reorder_depth` further packets have passed on its link.
    pub reorder_depth: u64,
    /// Probability a single bit of the frame is flipped.
    pub corrupt: f64,
    /// Probability the frame is cut short.
    pub truncate: f64,
    /// Partition windows, in per-link packet indices.
    pub partitions: Vec<PartitionWindow>,
}

impl FaultPlan {
    /// A plan that injects nothing (useful as a baseline).
    #[must_use]
    pub fn quiet(seed: u64) -> Self {
        Self {
            seed,
            drop: LossModel::None,
            duplicate: 0.0,
            reorder: 0.0,
            reorder_depth: 8,
            corrupt: 0.0,
            truncate: 0.0,
            partitions: Vec::new(),
        }
    }

    /// Derives a varied adversary from a single seed: each fault stage's
    /// intensity (including "off") is itself a seeded choice, so a sweep
    /// over seeds covers quiet links, single-fault links, and compound
    /// pathologies.
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        let mut r = small_rng(derive_seed(seed, 0xFA01));
        let pick = |r: &mut SmallRng, choices: &[f64]| -> f64 {
            choices[(r.gen::<u64>() % choices.len() as u64) as usize]
        };
        let drop = match r.gen::<u64>() % 4 {
            0 => LossModel::None,
            1 => LossModel::Bernoulli {
                rate: pick(&mut r, &[0.01, 0.05, 0.15]),
            },
            _ => LossModel::bursty(pick(&mut r, &[0.02, 0.08]), 4.0),
        };
        let duplicate = pick(&mut r, &[0.0, 0.02, 0.08]);
        let reorder = pick(&mut r, &[0.0, 0.03, 0.10]);
        let corrupt = pick(&mut r, &[0.0, 0.01, 0.05]);
        let truncate = pick(&mut r, &[0.0, 0.01, 0.03]);
        let mut partitions = Vec::new();
        if r.gen_bool(0.4) {
            let start = 20 + r.gen::<u64>() % 200;
            let len = 5 + r.gen::<u64>() % 40;
            partitions.push(PartitionWindow {
                start,
                end: start + len,
            });
        }
        Self {
            seed,
            drop,
            duplicate,
            reorder,
            reorder_depth: 1 + r.gen::<u64>() % 12,
            corrupt,
            truncate,
            partitions,
        }
    }

    /// True when no stage can ever fire.
    #[must_use]
    pub fn is_quiet(&self) -> bool {
        matches!(self.drop, LossModel::None)
            && self.duplicate == 0.0
            && self.reorder == 0.0
            && self.corrupt == 0.0
            && self.truncate == 0.0
            && self.partitions.is_empty()
    }
}

/// Which fault stage fired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Dropped by the plan's loss stage.
    Drop,
    /// Dropped by a partition window.
    Partition,
    /// A duplicate copy was injected.
    Duplicate,
    /// Held back for later, out-of-order release.
    Reorder,
    /// One bit of the frame flipped.
    Corrupt,
    /// Frame cut short.
    Truncate,
}

/// One injected fault, in deterministic injection order. `detail` is
/// kind-specific: flipped bit index for `Corrupt`, surviving byte count
/// for `Truncate`, release depth for `Reorder`, zero otherwise.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Transmitting endpoint of the affected packet.
    pub src: Addr,
    /// Destination endpoint of the affected packet.
    pub dst: Addr,
    /// Per-link packet index of the affected packet.
    pub pkt: u64,
    /// Which stage fired.
    pub kind: FaultKind,
    /// Kind-specific detail word.
    pub detail: u64,
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}->{}:{} pkt#{:<5} {:<9} detail={}",
            self.src.node.0,
            self.src.port,
            self.dst.node.0,
            self.dst.port,
            self.pkt,
            format!("{:?}", self.kind),
            self.detail
        )
    }
}

/// Injection totals, snapshotted via [`Fabric::chaos_stats`].
///
/// [`Fabric::chaos_stats`]: crate::Fabric::chaos_stats
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosSnapshot {
    /// Packets dropped by the plan's loss stage.
    pub dropped: u64,
    /// Packets dropped inside partition windows.
    pub partitioned: u64,
    /// Extra packet copies injected.
    pub duplicated: u64,
    /// Packets held back for out-of-order release.
    pub reordered: u64,
    /// Packets with one bit flipped.
    pub corrupted: u64,
    /// Packets cut short.
    pub truncated: u64,
    /// Packets currently held by reorder stages (0 after
    /// `Fabric::chaos_flush`).
    pub held: u64,
}

impl ChaosSnapshot {
    /// Packets the adversary removed from the wire for good.
    #[must_use]
    pub fn swallowed(&self) -> u64 {
        self.dropped + self.partitioned
    }
}

/// Per-link adversary state. Links are keyed `(src, dst)` — each
/// direction is an independent fault stream.
struct LinkState {
    rng: SmallRng,
    loss: LossState,
    /// Index of the next packet transmitted on this link.
    next_pkt: u64,
    /// Packets held by the reorder stage: `(release_at_index, pkt)`.
    held: VecDeque<(u64, WirePacket)>,
}

impl LinkState {
    fn new(plan_seed: u64, key: u64) -> Self {
        Self {
            rng: small_rng(derive_seed(plan_seed, key)),
            loss: LossState::default(),
            next_pkt: 0,
            held: VecDeque::new(),
        }
    }
}

fn link_key(src: Addr, dst: Addr) -> u64 {
    (u64::from(src.node.0) << 48)
        | (u64::from(src.port) << 32)
        | (u64::from(dst.node.0) << 16)
        | u64::from(dst.port)
}

/// What the adversary decided for one transmitted packet.
pub(crate) struct StageOutput {
    /// Packets to forward now (the original, possibly mutated, plus any
    /// injected duplicate and any reorder-holds that came due). Empty
    /// when the packet was swallowed and nothing was released.
    pub forward: Vec<WirePacket>,
}

/// Shared adversary state installed on a fabric. All mutation happens
/// under one mutex (in `ChaosState`'s owner) so the fault trace order is
/// total and deterministic for single-threaded harnesses.
pub(crate) struct ChaosState {
    pub plan: FaultPlan,
    /// BTreeMap so flush order is deterministic.
    links: BTreeMap<u64, LinkState>,
    trace: Vec<FaultEvent>,
    pub stats: ChaosSnapshot,
}

impl ChaosState {
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            links: BTreeMap::new(),
            trace: Vec::new(),
            stats: ChaosSnapshot::default(),
        }
    }

    pub fn trace(&self) -> Vec<FaultEvent> {
        self.trace.clone()
    }

    pub fn trace_len(&self) -> usize {
        self.trace.len()
    }

    pub fn trace_tail(&self, from: usize) -> Vec<FaultEvent> {
        self.trace[from..].to_vec()
    }

    pub fn held(&self) -> u64 {
        self.links.values().map(|l| l.held.len() as u64).sum()
    }

    /// Drains every reorder hold queue, in link-key order. The caller
    /// forwards the returned packets.
    pub fn drain_held(&mut self) -> Vec<WirePacket> {
        let mut out = Vec::new();
        for link in self.links.values_mut() {
            while let Some((_, p)) = link.held.pop_front() {
                out.push(p);
            }
        }
        self.stats.held = 0;
        out
    }

    /// Runs the fault pipeline for one packet:
    /// partition → drop → corrupt → truncate → duplicate → reorder,
    /// then releases any holds that came due on this link.
    pub fn apply(&mut self, pkt: WirePacket) -> StageOutput {
        let key = link_key(pkt.src, pkt.dst);
        let seed = self.plan.seed;
        let link = self
            .links
            .entry(key)
            .or_insert_with(|| LinkState::new(seed, key));
        let idx = link.next_pkt;
        link.next_pkt += 1;
        let (src, dst) = (pkt.src, pkt.dst);
        let mut forward = Vec::with_capacity(1);
        let mut events: Vec<FaultEvent> = Vec::new();
        let mut ev = |kind: FaultKind, detail: u64| {
            events.push(FaultEvent {
                src,
                dst,
                pkt: idx,
                kind,
                detail,
            });
        };

        let partitioned = self
            .plan
            .partitions
            .iter()
            .any(|w| idx >= w.start && idx < w.end);
        if partitioned {
            self.stats.partitioned += 1;
            ev(FaultKind::Partition, 0);
        } else if link.loss.should_drop(&self.plan.drop, &mut link.rng) {
            self.stats.dropped += 1;
            ev(FaultKind::Drop, 0);
        } else {
            let mut p = pkt;
            if self.plan.corrupt > 0.0 && link.rng.gen_bool(self.plan.corrupt) {
                let bits = (p.wire_len() * 8).max(1) as u64;
                let bit = link.rng.gen::<u64>() % bits;
                p = flip_bit(&p, bit as usize);
                self.stats.corrupted += 1;
                ev(FaultKind::Corrupt, bit);
            }
            if self.plan.truncate > 0.0 && link.rng.gen_bool(self.plan.truncate) {
                let len = p.wire_len();
                // Keep at least one byte; nothing to cut from 1-byte frames.
                if len > 1 {
                    let keep = 1 + (link.rng.gen::<u64>() as usize) % (len - 1);
                    p = truncate_frame(&p, keep);
                    self.stats.truncated += 1;
                    ev(FaultKind::Truncate, keep as u64);
                }
            }
            let dup = self.plan.duplicate > 0.0 && link.rng.gen_bool(self.plan.duplicate);
            if self.plan.reorder > 0.0 && link.rng.gen_bool(self.plan.reorder) {
                let depth = 1 + link.rng.gen::<u64>() % self.plan.reorder_depth.max(1);
                link.held.push_back((idx + depth, p.clone()));
                self.stats.reordered += 1;
                ev(FaultKind::Reorder, depth);
                if dup {
                    // The duplicate of a held packet sails through now.
                    self.stats.duplicated += 1;
                    ev(FaultKind::Duplicate, 0);
                    forward.push(p);
                }
            } else {
                if dup {
                    self.stats.duplicated += 1;
                    ev(FaultKind::Duplicate, 0);
                    forward.push(p.clone());
                }
                forward.push(p);
            }
        }

        // Release holds that came due. Depths vary per packet, so due
        // indices are not monotonic within the queue — scan it all.
        let mut i = 0;
        while i < link.held.len() {
            if link.held[i].0 <= idx {
                let (_, p) = link.held.remove(i).expect("index checked");
                forward.push(p);
            } else {
                i += 1;
            }
        }
        self.stats.held = self.held();
        self.trace.extend(events);
        StageOutput { forward }
    }
}

/// Returns a copy of `pkt` with bit `bit` of its flattened frame flipped.
fn flip_bit(pkt: &WirePacket, bit: usize) -> WirePacket {
    let mut buf = pkt.contiguous().to_vec();
    if buf.is_empty() {
        return pkt.clone();
    }
    let bit = bit % (buf.len() * 8);
    buf[bit / 8] ^= 1 << (bit % 8);
    WirePacket::contiguous_frame(pkt.src, pkt.dst, Bytes::from(buf))
}

/// Returns a copy of `pkt` keeping only the first `keep` frame bytes.
fn truncate_frame(pkt: &WirePacket, keep: usize) -> WirePacket {
    let frame = pkt.contiguous();
    let keep = keep.min(frame.len());
    WirePacket::contiguous_frame(pkt.src, pkt.dst, frame.slice(..keep))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::NodeId;

    fn pkt(src_port: u16, dst_port: u16, n: usize) -> WirePacket {
        WirePacket::contiguous_frame(
            Addr {
                node: NodeId(0),
                port: src_port,
            },
            Addr {
                node: NodeId(1),
                port: dst_port,
            },
            Bytes::from(vec![0x5Au8; n]),
        )
    }

    #[test]
    fn quiet_plan_forwards_everything_unchanged() {
        let mut st = ChaosState::new(FaultPlan::quiet(1));
        for i in 0..100 {
            let out = st.apply(pkt(1, 2, 64 + i));
            assert_eq!(out.forward.len(), 1);
            assert_eq!(out.forward[0].wire_len(), 64 + i);
        }
        assert!(st.trace().is_empty());
        assert_eq!(st.stats, ChaosSnapshot::default());
    }

    #[test]
    fn partition_window_swallows_exactly_its_indices() {
        let mut plan = FaultPlan::quiet(7);
        plan.partitions.push(PartitionWindow { start: 3, end: 6 });
        let mut st = ChaosState::new(plan);
        let mut delivered = Vec::new();
        for i in 0..10u64 {
            let out = st.apply(pkt(1, 2, 32));
            if !out.forward.is_empty() {
                delivered.push(i);
            }
        }
        assert_eq!(delivered, vec![0, 1, 2, 6, 7, 8, 9]);
        assert_eq!(st.stats.partitioned, 3);
        assert!(st
            .trace()
            .iter()
            .all(|e| e.kind == FaultKind::Partition && (3..6).contains(&e.pkt)));
    }

    #[test]
    fn corrupt_flips_exactly_one_bit() {
        let mut plan = FaultPlan::quiet(9);
        plan.corrupt = 1.0;
        let mut st = ChaosState::new(plan);
        let original = pkt(1, 2, 128);
        let before = original.contiguous();
        let out = st.apply(original);
        assert_eq!(out.forward.len(), 1);
        let after = out.forward[0].contiguous();
        assert_eq!(before.len(), after.len());
        let flipped: u32 = before
            .iter()
            .zip(after.iter())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1, "exactly one bit must differ");
        assert_eq!(st.stats.corrupted, 1);
    }

    #[test]
    fn truncate_shortens_frame() {
        let mut plan = FaultPlan::quiet(11);
        plan.truncate = 1.0;
        let mut st = ChaosState::new(plan);
        let out = st.apply(pkt(1, 2, 256));
        assert_eq!(out.forward.len(), 1);
        let got = out.forward[0].wire_len();
        assert!((1..256).contains(&got), "truncated to {got}");
        assert_eq!(st.stats.truncated, 1);
        assert_eq!(st.trace()[0].detail, got as u64);
    }

    #[test]
    fn duplicate_emits_two_identical_packets() {
        let mut plan = FaultPlan::quiet(13);
        plan.duplicate = 1.0;
        let mut st = ChaosState::new(plan);
        let out = st.apply(pkt(1, 2, 40));
        assert_eq!(out.forward.len(), 2);
        assert_eq!(out.forward[0].contiguous(), out.forward[1].contiguous());
        assert_eq!(st.stats.duplicated, 1);
    }

    #[test]
    fn reorder_holds_then_releases_out_of_order() {
        let mut plan = FaultPlan::quiet(17);
        plan.reorder = 1.0;
        plan.reorder_depth = 1;
        let mut st = ChaosState::new(plan);
        // Every packet is held for exactly 1 subsequent packet, so packet
        // i is released while processing packet i+1: a perfect swap chain.
        let first = st.apply(pkt(1, 2, 10));
        assert!(first.forward.is_empty());
        assert_eq!(st.stats.held, 1);
        let second = st.apply(pkt(1, 2, 20));
        // Packet 1 goes on hold, packet 0 is released.
        assert_eq!(second.forward.len(), 1);
        assert_eq!(second.forward[0].wire_len(), 10);
        let leftover = st.drain_held();
        assert_eq!(leftover.len(), 1);
        assert_eq!(leftover[0].wire_len(), 20);
        assert_eq!(st.stats.held, 0);
    }

    #[test]
    fn links_have_independent_fault_streams() {
        let mut plan = FaultPlan::quiet(23);
        plan.drop = LossModel::Bernoulli { rate: 0.5 };
        let mut st = ChaosState::new(plan);
        let mut a_dropped = Vec::new();
        let mut b_dropped = Vec::new();
        for i in 0..64u64 {
            if st.apply(pkt(1, 2, 16)).forward.is_empty() {
                a_dropped.push(i);
            }
            if st.apply(pkt(3, 4, 16)).forward.is_empty() {
                b_dropped.push(i);
            }
        }
        assert_ne!(a_dropped, b_dropped, "links must not share an RNG stream");
    }

    #[test]
    fn same_plan_same_trace() {
        let run = || {
            let mut st = ChaosState::new(FaultPlan::from_seed(0xC0FFEE));
            for i in 0..500usize {
                st.apply(pkt(1, 2, 32 + (i % 64)));
                st.apply(pkt(9, 9, 48));
            }
            (st.trace(), st.stats)
        };
        let (t1, s1) = run();
        let (t2, s2) = run();
        assert_eq!(t1, t2);
        assert_eq!(s1, s2);
        assert!(!t1.is_empty(), "derived plan should inject something");
    }

    #[test]
    fn from_seed_varies_across_seeds() {
        let plans: Vec<FaultPlan> = (0..16).map(FaultPlan::from_seed).collect();
        let quiet = plans.iter().filter(|p| p.is_quiet()).count();
        assert!(quiet < plans.len(), "sweep must contain active plans");
    }
}
