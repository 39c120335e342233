//! Streaming one-sided bulk reads over datagrams.
//!
//! [`BulkRead`] turns the single-shot UD RDMA Read verb
//! ([`crate::qp::DatagramQp::post_read`]) into a large-transfer engine:
//! a remote region is split into fixed-size **batches**, up to a window
//! of batches is kept in flight, and lost read responses are recovered
//! through `iwarp-cc`'s selective-repeat scoreboard — the same engine
//! that backs the reliable conduits, reused here with one batch as the
//! sequence unit.
//!
//! Completion cost is managed with **selective signaling**
//! (`sq_sig_all=0`, the pattern of `ZhuJiaqi9905/benchmark` and
//! ROADMAP item 2): most batches are posted unsignaled
//! ([`DatagramQp::post_read_unsignaled`]) and retire through the QP's
//! drainable retired list; only every k-th (or only the final) batch
//! pays a CQE. The engine enforces the completion-discipline safety rule
//! from *Efficient RDMA Communication Protocols* (arXiv:2212.09134):
//! **never keep more signaled reads outstanding than the receive CQ has
//! capacity** — a CQ overflow silently drops the CQE the application
//! waits on. With a small CQ this rule is exactly what makes signal
//! interval 1 slow (the effective window collapses to the CQ depth) and
//! unsignaled-except-last fast (the full batch window runs) — the curve
//! recorded in `BENCH_PR8.json` (EXPERIMENTS.md, "Read engine").
//!
//! ## Determinism
//!
//! The engine holds no clock and no RNG: every [`BulkRead::step`] takes
//! the current time as a `Duration`, so chaos and determinism tests
//! drive it with a synthetic counter clock and replay byte-identically,
//! while benchmarks pass real elapsed time ([`BulkRead::run`]).
//!
//! ## Loss interaction
//!
//! Recovery is congestion-control-driven, not TTL-driven: callers
//! should configure a long [`crate::qp::QpConfig::read_ttl`] (seconds)
//! so the QP's expiry sweep never races the scoreboard's RTO. A lost
//! response leaves its batch un-SACKed; `detect_losses`/`sweep` queue
//! the batch for retransmit and [`BulkRead::step`] reposts it with the
//! same `wr_id` and a fresh protocol `msg_id`. *Within a transfer*,
//! stale pending reads from a superseded post are harmless — a late
//! response places the same bytes at the same offsets, duplicate
//! completions are ignored by the batch bitmap, and an `Expired` CQE for
//! an already-complete batch is dropped. If a batch exhausts its retry
//! budget the transfer reports `dead` (remote gone / partitioned)
//! instead of spinning forever.
//!
//! ## Transfer boundaries
//!
//! A completion names its batch by `wr_id` alone, so it must never
//! outlive its transfer: the next [`BulkRead`] on the same QP uses the
//! same `base_wr_id` by default and would take a leftover duplicate (a
//! spurious RTO's repost that was still pending when the last batch
//! landed) as an out-of-order SACK of *its* batch. The engine therefore
//! cancels its `wr_id` range ([`DatagramQp::cancel_reads`]) when the
//! last batch completes and when the peer is declared dead, and on its
//! first step cancels again and drains the receive CQ it owns by
//! contract — that also covers a transfer the caller abandoned midway.
//! `ingest` runs `detect_losses` on every step, which is safe: the rule
//! (RFC 6675 *IsLost*) reads only the scoreboard, so a batch is marked
//! lost once `dup_threshold` later batches have completed, however many
//! steps observe that, and a reposted batch is left to the RTO.

use std::time::{Duration, Instant};

use iwarp_cc::RecoveryEngine;
pub use iwarp_cc::{CcAlgo, RecoveryConfig};

use crate::buf::MemoryRegion;
use crate::cq::{Cqe, CqeOpcode, CqeStatus};
use crate::error::{IwarpError, IwarpResult};
use crate::qp::DatagramQp;
use crate::wr::UdDest;

/// Which batches of a bulk read are posted signaled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SignalInterval {
    /// Every k-th batch is signaled (k = 1 means all-signaled — the
    /// legacy discipline). The final batch is always signaled so the
    /// transfer ends with a CQE.
    Every(u32),
    /// Only the final batch is signaled (`sq_sig_all=0` with one
    /// trailing completion) — all other batches retire through the
    /// drainable list.
    LastOnly,
}

impl SignalInterval {
    /// True when batch `b` of `n` should be posted signaled.
    #[must_use]
    pub fn signaled(self, b: u64, n: u64) -> bool {
        let last = b + 1 == n;
        match self {
            SignalInterval::Every(k) => last || (b + 1).is_multiple_of(u64::from(k.max(1))),
            SignalInterval::LastOnly => last,
        }
    }
}

/// Tuning for one [`BulkRead`] transfer.
#[derive(Clone, Debug)]
pub struct BulkReadConfig {
    /// Bytes fetched per read batch (the sweep axis of the paper-style
    /// batch-size-vs-throughput curve).
    pub batch_bytes: u32,
    /// Maximum batches in flight (flow-control bound; congestion control
    /// may keep fewer in flight, the signaling admission rule may too).
    pub window: u64,
    /// Signaling discipline.
    pub signal: SignalInterval,
    /// Loss-recovery tuning. `quantum` is forced to 1 — the sequence
    /// unit is one batch.
    pub recovery: RecoveryConfig,
    /// `wr_id` of batch 0; batch `b` posts as `base_wr_id + b`.
    pub base_wr_id: u64,
}

impl Default for BulkReadConfig {
    fn default() -> Self {
        Self {
            batch_bytes: 64 * 1024,
            window: 32,
            signal: SignalInterval::Every(1),
            recovery: RecoveryConfig::default(),
            base_wr_id: 1 << 32,
        }
    }
}

/// Outcome of a finished (or dead) transfer.
#[derive(Clone, Copy, Debug, Default)]
pub struct BulkReadReport {
    /// Payload bytes delivered into the sink.
    pub bytes: u64,
    /// Batches the transfer was split into.
    pub batches: u64,
    /// Batch reposts driven by the recovery engine (losses + RTOs).
    pub reposts: u64,
    /// `Expired` CQEs observed for in-flight batches (read TTL fired
    /// before recovery — configure a longer TTL to avoid).
    pub expired: u64,
    /// The recovery engine declared the peer dead (retry budget
    /// exhausted); the transfer is incomplete.
    pub dead: bool,
}

/// A streaming bulk-read transfer. See the module docs.
///
/// The engine assumes it is the only consumer of the requester QP's
/// receive CQ and retired-read list while the transfer runs (give the
/// transfer its own QP, the natural design for a bulk mover).
pub struct BulkRead {
    cfg: BulkReadConfig,
    sink: MemoryRegion,
    sink_to: u64,
    len: u64,
    dest: UdDest,
    remote_stag: u32,
    remote_to: u64,
    engine: RecoveryEngine,
    nbatches: u64,
    /// Batch completion bitmap (duplicate completions are ignored).
    completed: Vec<bool>,
    ncompleted: u64,
    /// Contiguous completed prefix, fed to the scoreboard as the
    /// cumulative ACK.
    cum: u64,
    /// Next never-posted batch.
    next_batch: u64,
    /// Per-batch "a signaled post is outstanding" flag.
    sig_pending: Vec<bool>,
    /// Signaled posts currently outstanding — bounded by the receive
    /// CQ's capacity (the admission rule).
    inflight_signaled: usize,
    reposts: u64,
    expired: u64,
    dead: bool,
    /// [`Self::step`] has run once (the QP was purged of a predecessor).
    started: bool,
    scratch: Vec<Cqe>,
}

impl BulkRead {
    /// Plans a transfer of `len` bytes from `(remote_stag, remote_to)`
    /// at `dest` into `(sink, sink_to)`. Nothing is posted until
    /// [`Self::step`].
    #[must_use]
    pub fn new(
        mut cfg: BulkReadConfig,
        sink: &MemoryRegion,
        sink_to: u64,
        len: u64,
        dest: UdDest,
        remote_stag: u32,
        remote_to: u64,
    ) -> Self {
        cfg.recovery.quantum = 1;
        cfg.batch_bytes = cfg.batch_bytes.max(1);
        cfg.window = cfg.window.max(1);
        let nbatches = len.div_ceil(u64::from(cfg.batch_bytes));
        let engine = RecoveryEngine::new(cfg.recovery.clone());
        Self {
            sink: sink.clone(),
            sink_to,
            len,
            dest,
            remote_stag,
            remote_to,
            engine,
            nbatches,
            completed: vec![false; nbatches as usize],
            ncompleted: 0,
            cum: 0,
            next_batch: 0,
            sig_pending: vec![false; nbatches as usize],
            inflight_signaled: 0,
            reposts: 0,
            expired: 0,
            dead: false,
            started: false,
            scratch: vec![Cqe::default(); 64],
            cfg,
        }
    }

    /// Batches the transfer was split into.
    #[must_use]
    pub fn batches(&self) -> u64 {
        self.nbatches
    }

    /// Batches fully placed so far.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.ncompleted
    }

    /// True when every batch is placed (or the engine gave up).
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.dead || self.ncompleted == self.nbatches
    }

    /// The transfer's report so far (final once [`Self::is_finished`]).
    #[must_use]
    pub fn report(&self) -> BulkReadReport {
        BulkReadReport {
            bytes: self.delivered_bytes(),
            batches: self.nbatches,
            reposts: self.reposts,
            expired: self.expired,
            dead: self.dead,
        }
    }

    fn delivered_bytes(&self) -> u64 {
        if self.ncompleted == self.nbatches {
            self.len
        } else {
            // Every non-final batch is exactly batch_bytes.
            let last_done = *self.completed.last().unwrap_or(&false);
            let full = self.ncompleted - u64::from(last_done);
            full * u64::from(self.cfg.batch_bytes)
                + if last_done {
                    self.len - (self.nbatches - 1) * u64::from(self.cfg.batch_bytes)
                } else {
                    0
                }
        }
    }

    /// Cross-checks the recovery scoreboard's internal invariants
    /// (chaos-oracle hook).
    pub fn check_scoreboard(&self) -> Result<(), String> {
        self.engine.check_partition()
    }

    fn batch_span(&self, b: u64) -> (u64, u32) {
        let off = b * u64::from(self.cfg.batch_bytes);
        let blen = (self.len - off).min(u64::from(self.cfg.batch_bytes)) as u32;
        (off, blen)
    }

    fn post_batch(&self, qp: &DatagramQp, b: u64, signaled: bool) -> IwarpResult<()> {
        let (off, blen) = self.batch_span(b);
        let wr_id = self.cfg.base_wr_id + b;
        if signaled {
            qp.post_read(
                wr_id,
                &self.sink,
                self.sink_to + off,
                blen,
                self.dest,
                self.remote_stag,
                self.remote_to + off,
            )
        } else {
            qp.post_read_unsignaled(
                wr_id,
                &self.sink,
                self.sink_to + off,
                blen,
                self.dest,
                self.remote_stag,
                self.remote_to + off,
            )
        }
    }

    fn mark_complete(&mut self, b: u64, now: Duration) {
        let i = b as usize;
        if self.completed[i] {
            return;
        }
        self.completed[i] = true;
        self.ncompleted += 1;
        if self.sig_pending[i] {
            self.sig_pending[i] = false;
            self.inflight_signaled = self.inflight_signaled.saturating_sub(1);
        }
        self.engine.on_sack_seq(now, b);
    }

    /// Cancels every read of this transfer's `wr_id` range still
    /// outstanding on `qp` (see the module docs, "Transfer boundaries").
    fn cancel_outstanding(&self, qp: &DatagramQp) {
        let base = self.cfg.base_wr_id;
        qp.cancel_reads(base, base + self.nbatches);
    }

    /// Drains completions (CQEs and retired unsignaled reads) into the
    /// batch bitmap and the scoreboard.
    fn ingest(&mut self, qp: &DatagramQp, now: Duration) {
        let base = self.cfg.base_wr_id;
        let end = base + self.nbatches;
        loop {
            let n = qp.recv_cq().poll_into(&mut self.scratch);
            if n == 0 {
                break;
            }
            for i in 0..n {
                let cqe = self.scratch[i].clone();
                if cqe.opcode != CqeOpcode::RdmaRead || cqe.wr_id < base || cqe.wr_id >= end {
                    continue; // not ours (dedicated-QP contract violated)
                }
                let b = cqe.wr_id - base;
                match cqe.status {
                    CqeStatus::Success => self.mark_complete(b, now),
                    CqeStatus::Expired if !self.completed[b as usize] => {
                        self.expired += 1;
                        // The signaled post is gone; free its admission
                        // slot. Recovery reposts on RTO.
                        let i = b as usize;
                        if self.sig_pending[i] {
                            self.sig_pending[i] = false;
                            self.inflight_signaled = self.inflight_signaled.saturating_sub(1);
                        }
                    }
                    _ => {}
                }
            }
        }
        for wr_id in qp.take_retired_reads() {
            if wr_id >= base && wr_id < end {
                self.mark_complete(wr_id - base, now);
            }
        }
        // Advance the cumulative frontier and let SACK evidence mark
        // losses.
        while self.cum < self.nbatches && self.completed[self.cum as usize] {
            self.cum += 1;
        }
        if self.cum > self.engine.una() {
            let _ = self.engine.on_cum_ack(now, self.cum);
        }
        let _ = self.engine.detect_losses(now);
    }

    /// Drives the transfer: ingests completions, runs recovery timers,
    /// reposts lost batches, and posts new batches up to the window and
    /// the signaling admission bound. Returns `true` once finished
    /// (all batches placed, or the engine declared the peer dead —
    /// check [`BulkReadReport::dead`]).
    ///
    /// `now` is the caller's clock (monotonic, arbitrary epoch): real
    /// elapsed time in production, a synthetic counter in deterministic
    /// tests. The caller separately drives the QPs' receive engines
    /// (poll-mode `progress`, a shard engine, or an rx thread).
    pub fn step(&mut self, qp: &DatagramQp, now: Duration) -> IwarpResult<bool> {
        if self.is_finished() {
            return Ok(true);
        }
        if !self.started {
            self.started = true;
            self.cancel_outstanding(qp);
            while qp.recv_cq().poll_into(&mut self.scratch) > 0 {}
        }
        self.ingest(qp, now);
        if self.ncompleted == self.nbatches {
            self.cancel_outstanding(qp);
            return Ok(true);
        }
        let sweep = self.engine.sweep(now);
        if sweep.dead || self.engine.is_dead() {
            self.dead = true;
            self.cancel_outstanding(qp);
            return Ok(true);
        }
        // Reposts first: recovering the window head unblocks the
        // cumulative frontier (and therefore the congestion window).
        while let Some((start, span)) = self.engine.pop_rtx(now) {
            for b in start..start + span {
                if b >= self.nbatches || self.completed[b as usize] {
                    continue;
                }
                let signaled = self.cfg.signal.signaled(b, self.nbatches);
                let i = b as usize;
                if signaled && !self.sig_pending[i] {
                    self.sig_pending[i] = true;
                    self.inflight_signaled += 1;
                }
                self.reposts += 1;
                self.post_batch(qp, b, signaled)?;
            }
        }
        // New batches, in sequence order (the scoreboard's sequence IS
        // the batch index), gated by flow window, congestion window and
        // the signaling admission rule.
        let cq_cap = qp.recv_cq().capacity();
        while self.next_batch < self.nbatches {
            let b = self.next_batch;
            if !self.engine.can_send(1, self.cfg.window) {
                break;
            }
            let signaled = self.cfg.signal.signaled(b, self.nbatches);
            if signaled && self.inflight_signaled >= cq_cap {
                // Admission rule: a signaled read may complete before we
                // poll again; never have more outstanding than the CQ
                // can hold.
                break;
            }
            let seq = self.engine.on_send(now, 1);
            debug_assert_eq!(seq, b, "batch index is the sequence");
            if signaled {
                self.sig_pending[b as usize] = true;
                self.inflight_signaled += 1;
            }
            self.post_batch(qp, b, signaled)?;
            self.next_batch += 1;
        }
        self.engine.ensure_deadline(now);
        Ok(false)
    }

    /// Convenience driver for a poll-mode QP pair living in one process
    /// (tests, benchmarks): alternates the responder's and requester's
    /// receive engines with [`Self::step`] on a real-time clock until
    /// the transfer finishes or `timeout` elapses.
    pub fn run(
        &mut self,
        requester: &DatagramQp,
        responder: &DatagramQp,
        timeout: Duration,
    ) -> IwarpResult<BulkReadReport> {
        let start = Instant::now();
        // Budget sized for large batches: a multi-MiB read response is
        // thousands of MTU fragments, and an iteration-bound loop (not
        // the wire) would become the bottleneck.
        loop {
            responder.progress_burst(4096, Duration::ZERO);
            requester.progress_burst(4096, Duration::from_micros(20));
            if self.step(requester, start.elapsed())? {
                return Ok(self.report());
            }
            if start.elapsed() > timeout {
                return Err(IwarpError::PollTimeout);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signal_interval_picks_batches() {
        let every4 = SignalInterval::Every(4);
        let marks: Vec<bool> = (0..10).map(|b| every4.signaled(b, 10)).collect();
        assert_eq!(
            marks,
            [false, false, false, true, false, false, false, true, false, true],
            "every 4th plus the final batch"
        );
        let last = SignalInterval::LastOnly;
        assert!((0..9).all(|b| !last.signaled(b, 10)));
        assert!(last.signaled(9, 10));
        // Every(0) is clamped to 1 (all signaled), not a division crash.
        assert!((0..4).all(|b| SignalInterval::Every(0).signaled(b, 4)));
    }
}
