//! The shared selective-repeat recovery engine.
//!
//! [`RecoveryEngine`] owns the sender-side scoreboard for one reliable
//! conduit: which sequence ranges are in flight, which the peer has
//! selectively acknowledged, and which are presumed lost and queued for
//! retransmission. `simnet::stream` (byte sequences) and
//! `simnet::rdgram` (message sequences) both drive the same engine;
//! sequence arithmetic is in abstract units and `quantum` tells the
//! congestion controller what "one packet" means.
//!
//! ## Scoreboard invariant
//!
//! The segments tile the outstanding range exactly: walking the map in
//! key order, each segment starts where the previous one ended, the
//! first starts at `una`, and the last ends at `nxt`. Equivalently
//! `sacked ∪ lost ∪ in-flight` partitions `[una, nxt)` — no overlap, no
//! gap. Every mutation (send, cumulative ACK, partial-ACK split, SACK
//! mark, loss mark, retransmit) preserves this; [`RecoveryEngine::check_partition`]
//! verifies it and the property tests hammer it with random event
//! interleavings.
//!
//! ## Determinism boundary
//!
//! The engine holds no RNG, and every externally visible decision is a
//! pure function of the event sequence fed in (`on_send`, `on_cum_ack`,
//! `on_sack_range`, `sweep(t)`, ...). Time enters only as a caller-
//! supplied [`Duration`] since the engine's epoch, so tests fabricate
//! timelines without sleeping and replays of a recorded event sequence
//! reproduce the same scoreboard bit-for-bit. What is *not* deterministic
//! is the wall clock the conduit drivers read before calling in — see
//! DESIGN.md §8 for where that boundary sits in the chaos harness.

use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

use iwarp_telemetry::{CcMetrics, Telemetry};

use crate::algo::{build_cc, CcAlgo, CcConfig, CongestionControl};
use crate::rtt::RttEstimator;

/// Where a tracked segment currently stands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SegState {
    /// Transmitted, not yet acknowledged, not yet presumed lost.
    InFlight,
    /// Selectively acknowledged: the peer holds it, never retransmit.
    Sacked,
    /// Presumed lost: queued for (or awaiting) retransmission.
    Lost,
}

#[derive(Clone, Copy, Debug)]
struct Seg {
    len: u64,
    state: SegState,
    /// First transmission time (Karn: only `tx_count == 1` segments
    /// yield RTT samples).
    first_tx: Duration,
    /// Total transmissions, including the first.
    tx_count: u32,
    /// Duplicate cumulative ACKs counted against this segment while it
    /// is the head ([`RecoveryEngine::on_dup_ack`], the stream's SACK-less
    /// path). SACK evidence is not counted here: `detect_losses` reads it
    /// off the scoreboard.
    dup_hints: u32,
    /// Currently sitting in the retransmit queue.
    queued: bool,
    /// Last loss mark came from an RTO (for counter attribution).
    rto_loss: bool,
}

/// Loss threshold (RFC 6675 `DupThresh`): duplicate ACKs against the head
/// ([`RecoveryEngine::on_dup_ack`]), or SACKed units above a segment in
/// multiples of `quantum` ([`RecoveryEngine::detect_losses`]).
pub const DUP_THRESH: u32 = 3;

/// Tuning for one [`RecoveryEngine`].
#[derive(Clone, Debug)]
pub struct RecoveryConfig {
    /// Congestion-control algorithm.
    pub algo: CcAlgo,
    /// One MSS-equivalent in sequence units (bytes for streams, 1 for
    /// message-sequenced paths).
    pub quantum: u64,
    /// Initial congestion window for adaptive algorithms, in units.
    pub init_cwnd: u64,
    /// Constant window when `algo == Fixed`, in units.
    pub fixed_window: u64,
    /// Hard cap on the effective send window, in units (BDP bound).
    pub bdp_cap: u64,
    /// RTO before any RTT sample arrives.
    pub initial_rto: Duration,
    /// RTO floor.
    pub min_rto: Duration,
    /// RTO ceiling (also caps exponential backoff).
    pub max_rto: Duration,
    /// Whether consecutive timeouts double the RTO.
    pub backoff: bool,
    /// Retransmissions allowed per segment before the engine declares
    /// the peer dead ([`RecoveryEngine::is_dead`]).
    pub max_retries: u32,
    /// Bound on the retransmit queue (overflow segments stay `Lost` and
    /// are re-queued by [`RecoveryEngine::sweep`] as slots free up).
    pub rtx_queue_cap: usize,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        Self {
            algo: CcAlgo::Fixed,
            quantum: 1,
            init_cwnd: 10,
            fixed_window: u64::MAX / 4,
            bdp_cap: u64::MAX / 4,
            initial_rto: Duration::from_millis(20),
            min_rto: Duration::from_millis(1),
            max_rto: Duration::from_secs(1),
            backoff: true,
            max_retries: 30,
            rtx_queue_cap: 1024,
        }
    }
}

/// What a cumulative ACK did to the scoreboard.
#[derive(Clone, Copy, Debug, Default)]
pub struct AckEvent {
    /// Units newly removed from the outstanding range.
    pub newly_acked: u64,
    /// Karn-clean RTT sample taken from this ACK, if any.
    pub rtt_sample: Option<Duration>,
    /// The last RTO looks spurious (the "lost" head was acknowledged
    /// implausibly soon after the timeout retransmission).
    pub spurious_rto: bool,
}

/// What a timer sweep decided.
#[derive(Clone, Copy, Debug, Default)]
pub struct SweepEvent {
    /// The retransmission timer expired with data outstanding; the head
    /// segment was marked lost and queued.
    pub rto_fired: bool,
    /// The timer expired with nothing outstanding — the caller's persist
    /// /probe timer (zero-window probe for streams).
    pub probe: bool,
    /// A segment exhausted its retransmission budget; the conduit must
    /// surface [`simnet` `NetError::Reset`]-style failure.
    pub dead: bool,
}

/// Sender-side selective-repeat state machine with pluggable congestion
/// control. See the module docs for the invariants.
pub struct RecoveryEngine {
    cfg: RecoveryConfig,
    cc: Box<dyn CongestionControl>,
    rtt: RttEstimator,
    epoch: Instant,
    una: u64,
    nxt: u64,
    segs: BTreeMap<u64, Seg>,
    rtx: VecDeque<u64>,
    /// Lost segments not currently queued (queue overflow / splits);
    /// swept back in opportunistically.
    unqueued_lost: u32,
    deadline: Option<Duration>,
    /// Highest sequence the peer has selectively acknowledged.
    high_sacked: u64,
    /// Fast-recovery episode high-water mark: the window is only reduced
    /// again once `una` passes this (NewReno-style "recover").
    recover: u64,
    dead: bool,
    /// `(una, when)` at the last RTO, for spurious-RTO detection.
    rto_mark: Option<(u64, Duration)>,
    tel: Option<Telemetry>,
}

impl std::fmt::Debug for RecoveryEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecoveryEngine")
            .field("algo", &self.cc.name())
            .field("una", &self.una)
            .field("nxt", &self.nxt)
            .field("segs", &self.segs.len())
            .field("rtx_queued", &self.rtx.len())
            .field("dead", &self.dead)
            .finish_non_exhaustive()
    }
}

impl RecoveryEngine {
    /// An engine whose sequence space starts at 0.
    #[must_use]
    pub fn new(cfg: RecoveryConfig) -> Self {
        Self::new_at(cfg, 0)
    }

    /// An engine whose sequence space starts at `base` (`una == nxt ==
    /// base`); streams use 1 because the SYN occupies sequence 0.
    #[must_use]
    pub fn new_at(cfg: RecoveryConfig, base: u64) -> Self {
        let cc_cfg = CcConfig {
            quantum: cfg.quantum,
            init_cwnd: cfg.init_cwnd,
            fixed_window: cfg.fixed_window,
            max_cwnd: cfg.bdp_cap,
        };
        let cc = build_cc(cfg.algo, &cc_cfg);
        let rtt = RttEstimator::new(cfg.initial_rto, cfg.min_rto, cfg.max_rto, cfg.backoff);
        Self {
            cfg,
            cc,
            rtt,
            epoch: Instant::now(),
            una: base,
            nxt: base,
            segs: BTreeMap::new(),
            rtx: VecDeque::new(),
            unqueued_lost: 0,
            deadline: None,
            high_sacked: base,
            recover: base,
            dead: false,
            rto_mark: None,
            tel: None,
        }
    }

    /// Attaches the `cc.*` counter/histogram family to `telemetry`.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.tel = Some(telemetry.clone());
        self
    }

    /// The `cc.*` block, when a telemetry domain is attached.
    fn metrics(&self) -> Option<&CcMetrics> {
        self.tel.as_ref().map(Telemetry::cc)
    }

    /// Time since the engine's epoch — the `t` every event method takes.
    #[must_use]
    pub fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    /// Oldest unacknowledged sequence.
    #[must_use]
    pub fn una(&self) -> u64 {
        self.una
    }

    /// Next sequence to assign.
    #[must_use]
    pub fn nxt(&self) -> u64 {
        self.nxt
    }

    /// Outstanding span `nxt - una`, in units. This is the quantity the
    /// window bounds — spans, not live-segment counts, so a wide SACK
    /// hole can never let the sender outrun the receiver's reorder
    /// horizon.
    #[must_use]
    pub fn outstanding(&self) -> u64 {
        self.nxt - self.una
    }

    /// The effective congestion window: `cwnd` clamped to the BDP cap.
    #[must_use]
    pub fn window(&self) -> u64 {
        self.cc.cwnd().min(self.cfg.bdp_cap).max(self.cfg.quantum)
    }

    /// Whether `units` more may enter the network under both the
    /// congestion window and the caller's flow limit (peer window /
    /// SACK-bitmap horizon).
    #[must_use]
    pub fn can_send(&self, units: u64, flow_limit: u64) -> bool {
        !self.dead && self.outstanding() + units <= self.window().min(flow_limit)
    }

    /// Registers a fresh transmission of `units` and returns its start
    /// sequence. Arms the RTO if idle.
    pub fn on_send(&mut self, t: Duration, units: u64) -> u64 {
        debug_assert!(units > 0, "zero-length send");
        let start = self.nxt;
        self.segs.insert(
            start,
            Seg {
                len: units,
                state: SegState::InFlight,
                first_tx: t,
                tx_count: 1,
                dup_hints: 0,
                queued: false,
                rto_loss: false,
            },
        );
        self.nxt += units;
        if self.deadline.is_none() {
            self.deadline = Some(t + self.rtt.rto());
        }
        start
    }

    /// Processes a cumulative acknowledgement up to (exclusive) `ack`.
    pub fn on_cum_ack(&mut self, t: Duration, ack: u64) -> AckEvent {
        let mut ev = AckEvent::default();
        let ack = ack.min(self.nxt);
        if ack <= self.una {
            return ev;
        }
        ev.newly_acked = ack - self.una;
        if let Some((head, when)) = self.rto_mark.take() {
            if ack > head {
                // The RTO'd head is now acked. If that happened within
                // half an SRTT of the timeout, the original almost
                // certainly wasn't lost — the timer was just too eager.
                if let Some(srtt) = self.rtt.srtt() {
                    if t.saturating_sub(when) < srtt / 2 {
                        ev.spurious_rto = true;
                        if let Some(m) = self.metrics() {
                            m.spurious_rto.inc();
                        }
                    }
                }
            } else {
                self.rto_mark = Some((head, when));
            }
        }
        // Retire segments below `ack`; a straddled segment is split and
        // its tail re-keyed at `ack`. The newest fully-covered segment
        // transmitted exactly once yields the RTT sample (Karn).
        let mut sample: Option<Duration> = None;
        while let Some((&start, seg)) = self.segs.iter().next() {
            if start >= ack {
                break;
            }
            let end = start + seg.len;
            if end <= ack {
                let seg = self.segs.remove(&start).expect("just observed");
                if seg.queued {
                    self.rtx.retain(|&s| s != start);
                } else if seg.state == SegState::Lost {
                    self.unqueued_lost = self.unqueued_lost.saturating_sub(1);
                }
                if seg.tx_count == 1 {
                    sample = Some(t.saturating_sub(seg.first_tx));
                }
            } else {
                let mut tail = self.segs.remove(&start).expect("just observed");
                if tail.queued {
                    self.rtx.retain(|&s| s != start);
                    tail.queued = false;
                } else if tail.state == SegState::Lost {
                    self.unqueued_lost = self.unqueued_lost.saturating_sub(1);
                }
                if tail.tx_count == 1 {
                    // The acked prefix of this transmission round-tripped.
                    sample = Some(t.saturating_sub(tail.first_tx));
                }
                tail.len = end - ack;
                if tail.state == SegState::Lost {
                    self.unqueued_lost += 1;
                }
                self.segs.insert(ack, tail);
                break;
            }
        }
        self.una = ack;
        self.high_sacked = self.high_sacked.max(ack);
        if let Some(rtt) = sample {
            self.rtt.on_sample(rtt);
            ev.rtt_sample = Some(rtt);
        } else {
            // Progress without a clean sample still proves the path is
            // alive; unwind any timeout backoff (Karn's algorithm).
            self.rtt.reset_backoff();
        }
        self.cc.on_ack(t, ev.newly_acked, sample);
        self.deadline =
            (self.outstanding() > 0).then(|| t + self.rtt.rto());
        self.record_tel();
        ev
    }

    /// A duplicate cumulative ACK arrived (no window/SACK news). Counts
    /// toward the head segment's loss evidence; at the dup threshold the
    /// head is marked lost (classic triple-dup-ACK fast retransmit).
    pub fn on_dup_ack(&mut self, t: Duration) {
        let head = self.una;
        let Some(seg) = self.segs.get_mut(&head) else {
            return;
        };
        if seg.state != SegState::InFlight {
            return;
        }
        seg.dup_hints += 1;
        if seg.dup_hints >= DUP_THRESH {
            self.mark_lost(head, t, false);
        }
    }

    /// The peer selectively acknowledged the single unit at `seq`
    /// (message-sequenced paths).
    pub fn on_sack_seq(&mut self, t: Duration, seq: u64) {
        self.on_sack_range(t, seq, seq + 1);
    }

    /// The peer selectively acknowledged `[lo, hi)`. Segments fully
    /// inside the range are marked [`SegState::Sacked`] and will never
    /// be retransmitted; partially covered segments stay as they are
    /// (they'll be retired by the cumulative ACK or retransmitted
    /// whole).
    pub fn on_sack_range(&mut self, _t: Duration, lo: u64, hi: u64) {
        if hi <= lo {
            return;
        }
        self.high_sacked = self.high_sacked.max(hi.min(self.nxt));
        let keys: Vec<u64> = self
            .segs
            .range(lo..hi)
            .filter(|(&s, seg)| s + seg.len <= hi && seg.state != SegState::Sacked)
            .map(|(&s, _)| s)
            .collect();
        for s in keys {
            let seg = self.segs.get_mut(&s).expect("collected above");
            if seg.state == SegState::Lost && !seg.queued {
                self.unqueued_lost = self.unqueued_lost.saturating_sub(1);
            }
            // Queued entries are skipped lazily by `pop_rtx`.
            seg.queued = false;
            seg.state = SegState::Sacked;
        }
    }

    /// Runs SACK-based loss detection, RFC 6675 §4 *IsLost*: an in-flight
    /// segment transmitted exactly once is marked lost and queued when
    /// the SACKed units above it reach [`DUP_THRESH`] `× quantum` (for a
    /// message-sequenced path, that many later messages SACKed, however
    /// many ACK frames carried them). Retransmissions are left to the
    /// RTO. The rule reads scoreboard state only, so a call without new
    /// SACK evidence marks nothing. Returns how many segments were newly
    /// marked.
    pub fn detect_losses(&mut self, t: Duration) -> u32 {
        if self.high_sacked <= self.una {
            return 0;
        }
        let need = u64::from(DUP_THRESH) * self.cfg.quantum;
        let mut sacked_above = 0;
        let mut newly = Vec::new();
        for (&s, seg) in self.segs.range(..self.high_sacked).rev() {
            match seg.state {
                SegState::Sacked => sacked_above += seg.len,
                SegState::InFlight if seg.tx_count == 1 && sacked_above >= need => newly.push(s),
                _ => {}
            }
        }
        // Queue in sequence order, head first.
        for &s in newly.iter().rev() {
            self.mark_lost(s, t, false);
        }
        newly.len() as u32
    }

    fn mark_lost(&mut self, start: u64, t: Duration, rto: bool) {
        self.mark_lost_at(start, t, rto, rto);
    }

    /// `rto` attributes the loss (and suppresses the per-episode window
    /// reduction — `cc.on_rto` handles timeouts); `front` queues the
    /// segment ahead of everything already pending.
    fn mark_lost_at(&mut self, start: u64, t: Duration, rto: bool, front: bool) {
        let flight = self.in_flight_units();
        let Some(seg) = self.segs.get_mut(&start) else {
            return;
        };
        if seg.state == SegState::Sacked {
            return;
        }
        let was_lost = seg.state == SegState::Lost;
        seg.state = SegState::Lost;
        seg.rto_loss = rto;
        if !seg.queued {
            if self.rtx.len() < self.cfg.rtx_queue_cap {
                seg.queued = true;
                if front {
                    self.rtx.push_front(start);
                } else {
                    self.rtx.push_back(start);
                }
                if was_lost {
                    self.unqueued_lost = self.unqueued_lost.saturating_sub(1);
                }
            } else if !was_lost {
                self.unqueued_lost += 1;
            }
        }
        if !rto {
            if let Some(m) = self.metrics() {
                m.sack_gaps.inc();
            }
            // One window reduction per recovery episode, however many
            // segments the episode loses.
            if self.una >= self.recover {
                self.cc.on_sack_gap(t, flight);
                self.recover = self.nxt;
                self.record_tel();
            }
        }
    }

    /// Pops the next segment due for retransmission, marking it back in
    /// flight and bumping its transmit count. Returns `(start, len)`.
    /// Returns `None` when nothing is queued — or when the popped
    /// segment has exhausted its retransmission budget, in which case
    /// [`Self::is_dead`] flips and the conduit must fail the connection.
    pub fn pop_rtx(&mut self, t: Duration) -> Option<(u64, u64)> {
        while let Some(start) = self.rtx.pop_front() {
            let Some(seg) = self.segs.get_mut(&start) else {
                continue; // retired by a cumulative ACK
            };
            if !seg.queued || seg.state != SegState::Lost {
                seg.queued = false;
                continue; // sacked (or re-keyed) since queueing
            }
            seg.queued = false;
            if seg.tx_count > self.cfg.max_retries {
                self.dead = true;
                if let Some(m) = self.metrics() {
                    m.resets.inc();
                }
                return None;
            }
            seg.tx_count += 1;
            seg.dup_hints = 0;
            seg.state = SegState::InFlight;
            let len = seg.len;
            let rto_loss = seg.rto_loss;
            if let Some(m) = self.metrics() {
                m.retransmits.inc();
                if rto_loss {
                    m.rto_retransmits.inc();
                } else {
                    m.fast_retransmits.inc();
                }
            }
            if self.deadline.is_none() {
                self.deadline = Some(t + self.rtt.rto());
            }
            return Some((start, len));
        }
        None
    }

    /// Whether retransmissions are pending.
    #[must_use]
    pub fn has_rtx(&self) -> bool {
        !self.rtx.is_empty()
    }

    /// Checks the retransmission timer. On expiry with data outstanding
    /// the head segment is marked lost and queued at the front, the RTO
    /// backs off, and the controller is told; with nothing outstanding
    /// the expiry is reported as the caller's probe timer.
    pub fn sweep(&mut self, t: Duration) -> SweepEvent {
        let mut ev = SweepEvent::default();
        if self.dead {
            ev.dead = true;
            return ev;
        }
        self.requeue_lost();
        let Some(deadline) = self.deadline else {
            return ev;
        };
        if t < deadline {
            return ev;
        }
        self.rtt.on_backoff();
        if self.outstanding() == 0 {
            ev.probe = true;
            self.deadline = None;
            return ev;
        }
        ev.rto_fired = true;
        if let Some(m) = self.metrics() {
            m.rto_fired.inc();
            m.rto_us.record(self.rtt.rto().as_micros() as u64);
        }
        // Only the first non-sacked segment is retransmitted on timeout
        // (selective repeat — everything else waits for SACK evidence).
        let head = self
            .segs
            .iter()
            .find(|(_, seg)| seg.state != SegState::Sacked)
            .map(|(&s, _)| s);
        if let Some(start) = head {
            if self.segs[&start].tx_count > self.cfg.max_retries {
                self.dead = true;
                ev.dead = true;
                if let Some(m) = self.metrics() {
                    m.resets.inc();
                }
                return ev;
            }
            self.mark_lost(start, t, true);
            // Adaptive algorithms treat the timeout as evidence the whole
            // non-SACKed flight is gone (RFC 6675 §5.1 / Linux
            // `tcp_enter_loss`): with SACK feedback flowing, anything the
            // peer held would have been SACKed by now, and recovering the
            // backlog one head-RTO at a time crawls through burst losses
            // under a backed-off timer. `Fixed` keeps the legacy
            // head-only retransmission for wire-identical behavior.
            if self.cfg.algo != CcAlgo::Fixed {
                let rest: Vec<u64> = self
                    .segs
                    .range(start + 1..)
                    .filter(|(_, seg)| seg.state == SegState::InFlight)
                    .map(|(&s, _)| s)
                    .collect();
                for s in rest {
                    self.mark_lost_at(s, t, true, false);
                }
            }
            self.rto_mark = Some((self.una, t));
            self.recover = self.nxt;
            self.cc.on_rto(t);
            self.record_tel();
        }
        self.deadline = Some(t + self.rtt.rto());
        ev
    }

    /// Arms the timer if idle (persist/probe timer for callers with
    /// blocked data and an empty scoreboard).
    pub fn ensure_deadline(&mut self, t: Duration) {
        if self.deadline.is_none() {
            self.deadline = Some(t + self.rtt.rto());
        }
    }

    /// The current timer deadline, as time-since-epoch.
    #[must_use]
    pub fn rto_deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// The current retransmission timeout (backed off, clamped).
    #[must_use]
    pub fn rto(&self) -> Duration {
        self.rtt.rto()
    }

    /// The smoothed RTT, once sampled.
    #[must_use]
    pub fn srtt(&self) -> Option<Duration> {
        self.rtt.srtt()
    }

    /// The current congestion window, in units.
    #[must_use]
    pub fn cwnd(&self) -> u64 {
        self.cc.cwnd()
    }

    /// The controller's slow-start threshold, in units.
    #[must_use]
    pub fn ssthresh(&self) -> u64 {
        self.cc.ssthresh()
    }

    /// Whether a segment exhausted its retransmission budget. Terminal:
    /// the conduit surfaces a reset and stops transmitting.
    #[must_use]
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// `(in_flight, sacked, lost)` unit totals on the scoreboard.
    #[must_use]
    pub fn scoreboard(&self) -> (u64, u64, u64) {
        let (mut inf, mut sack, mut lost) = (0, 0, 0);
        for seg in self.segs.values() {
            match seg.state {
                SegState::InFlight => inf += seg.len,
                SegState::Sacked => sack += seg.len,
                SegState::Lost => lost += seg.len,
            }
        }
        (inf, sack, lost)
    }

    /// Verifies the scoreboard invariant: segments tile `[una, nxt)`
    /// exactly (so in-flight ∪ sacked ∪ lost partitions the outstanding
    /// range) and queue bookkeeping is consistent.
    pub fn check_partition(&self) -> Result<(), String> {
        let mut cursor = self.una;
        for (&start, seg) in &self.segs {
            if start != cursor {
                return Err(if start > cursor {
                    format!("gap in scoreboard: [{cursor}, {start}) untracked")
                } else {
                    format!("overlap in scoreboard at {start} (cursor {cursor})")
                });
            }
            if seg.len == 0 {
                return Err(format!("zero-length segment at {start}"));
            }
            if seg.queued && seg.state != SegState::Lost {
                return Err(format!("queued segment at {start} is {:?}", seg.state));
            }
            cursor = start + seg.len;
        }
        if cursor != self.nxt {
            return Err(format!(
                "scoreboard ends at {cursor}, expected nxt = {}",
                self.nxt
            ));
        }
        for &s in &self.rtx {
            if let Some(seg) = self.segs.get(&s) {
                if seg.queued && seg.state != SegState::Lost {
                    return Err(format!("rtx queue holds non-lost segment {s}"));
                }
            }
        }
        Ok(())
    }

    fn in_flight_units(&self) -> u64 {
        self.scoreboard().0
    }

    fn requeue_lost(&mut self) {
        if self.unqueued_lost == 0 {
            return;
        }
        let mut found = Vec::new();
        for (&s, seg) in &self.segs {
            if self.rtx.len() + found.len() >= self.cfg.rtx_queue_cap {
                break;
            }
            if seg.state == SegState::Lost && !seg.queued {
                found.push(s);
            }
        }
        for s in found {
            if let Some(seg) = self.segs.get_mut(&s) {
                seg.queued = true;
                self.rtx.push_back(s);
                self.unqueued_lost = self.unqueued_lost.saturating_sub(1);
            }
        }
    }

    fn record_tel(&self) {
        let Some(m) = self.metrics() else {
            return;
        };
        let q = self.cfg.quantum.max(1);
        m.cwnd.record(self.cc.cwnd() / q);
        let ss = self.cc.ssthresh();
        if ss != u64::MAX {
            m.ssthresh.record(ss / q);
        }
        if let Some(srtt) = self.rtt.srtt() {
            m.srtt_us.record(srtt.as_micros() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    fn cfg(algo: CcAlgo) -> RecoveryConfig {
        RecoveryConfig {
            algo,
            quantum: 1,
            init_cwnd: 4,
            fixed_window: 64,
            bdp_cap: 256,
            initial_rto: 20 * MS,
            min_rto: MS,
            max_rto: Duration::from_secs(1),
            backoff: true,
            max_retries: 5,
            rtx_queue_cap: 64,
        }
    }

    #[test]
    fn send_ack_retires_segments_and_samples_rtt() {
        let mut e = RecoveryEngine::new(cfg(CcAlgo::NewReno));
        for i in 0..4 {
            assert_eq!(e.on_send(Duration::ZERO, 1), i);
        }
        assert_eq!(e.outstanding(), 4);
        e.check_partition().unwrap();
        let ev = e.on_cum_ack(5 * MS, 4);
        assert_eq!(ev.newly_acked, 4);
        assert_eq!(ev.rtt_sample, Some(5 * MS));
        assert_eq!(e.outstanding(), 0);
        assert!(e.rto_deadline().is_none());
        e.check_partition().unwrap();
        assert!(e.cwnd() > 4, "slow start should have grown cwnd");
    }

    #[test]
    fn window_bounds_span_not_live_segments() {
        let mut e = RecoveryEngine::new(cfg(CcAlgo::Fixed));
        // Fixed window 64, bdp_cap 256 → window 64.
        assert_eq!(e.window(), 64);
        for _ in 0..64 {
            e.on_send(Duration::ZERO, 1);
        }
        assert!(!e.can_send(1, u64::MAX));
        // SACK everything except the head: span unchanged, still blocked.
        e.on_sack_range(MS, 1, 64);
        assert_eq!(e.outstanding(), 64);
        assert!(!e.can_send(1, u64::MAX), "span must stay window-bounded");
        // Cumulative ACK of the head drains the whole scoreboard.
        e.on_cum_ack(2 * MS, 64);
        assert!(e.can_send(64, u64::MAX));
        e.check_partition().unwrap();
    }

    #[test]
    fn sack_gap_marks_loss_and_fast_retransmits() {
        let mut e = RecoveryEngine::new(cfg(CcAlgo::NewReno));
        for _ in 0..8 {
            e.on_send(Duration::ZERO, 1);
        }
        // Peer saw 1..8 but not 0.
        e.on_sack_range(MS, 1, 8);
        let mut lost = 0;
        for _ in 0..3 {
            lost += e.detect_losses(MS);
        }
        assert_eq!(lost, 1, "head is marked lost exactly once");
        let (start, len) = e.pop_rtx(2 * MS).expect("queued for retransmit");
        assert_eq!((start, len), (0, 1));
        assert!(e.pop_rtx(2 * MS).is_none(), "sacked segments never retransmit");
        e.check_partition().unwrap();
        // Cum ack arrives for everything.
        let ev = e.on_cum_ack(3 * MS, 8);
        assert_eq!(ev.newly_acked, 8);
        assert_eq!(e.scoreboard(), (0, 0, 0));
        e.check_partition().unwrap();
    }

    #[test]
    fn one_frame_sacking_three_above_a_hole_marks_it() {
        let mut e = RecoveryEngine::new(cfg(CcAlgo::NewReno));
        for _ in 0..4 {
            e.on_send(Duration::ZERO, 1);
        }
        e.on_sack_range(MS, 1, 4);
        assert_eq!(e.detect_losses(MS), 1, "three SACKed above in one frame");
        assert_eq!(e.pop_rtx(MS), Some((0, 1)));
    }

    #[test]
    fn repeated_calls_without_new_evidence_mark_nothing() {
        let mut e = RecoveryEngine::new(cfg(CcAlgo::NewReno));
        for _ in 0..4 {
            e.on_send(Duration::ZERO, 1);
        }
        e.on_sack_seq(MS, 1);
        for i in 0..10 {
            assert_eq!(e.detect_losses(MS * (i + 1)), 0, "call {i}");
        }
        assert!(!e.has_rtx());
        assert_eq!(e.scoreboard(), (3, 1, 0));
    }

    #[test]
    fn retransmission_is_not_remarked_by_old_evidence() {
        let mut e = RecoveryEngine::new(cfg(CcAlgo::NewReno));
        for _ in 0..8 {
            e.on_send(Duration::ZERO, 1);
        }
        e.on_sack_range(MS, 1, 8);
        assert_eq!(e.detect_losses(MS), 1);
        assert_eq!(e.pop_rtx(2 * MS), Some((0, 1)));
        for i in 0..10 {
            assert_eq!(e.detect_losses(MS * (i + 3)), 0, "call {i}");
        }
        assert!(e.pop_rtx(20 * MS).is_none(), "the retransmission waits for the RTO");
        e.check_partition().unwrap();
    }

    #[test]
    fn byte_sequenced_loss_needs_three_mss_sacked_above() {
        const MSS: u64 = 1000;
        let mut e = RecoveryEngine::new(RecoveryConfig {
            quantum: MSS,
            init_cwnd: 10 * MSS,
            bdp_cap: 64 * MSS,
            ..cfg(CcAlgo::NewReno)
        });
        // [0, 1000) is the hole; 500-byte segments above it.
        e.on_send(Duration::ZERO, MSS);
        for _ in 0..6 {
            e.on_send(Duration::ZERO, MSS / 2);
        }
        e.on_sack_range(MS, MSS, 3 * MSS + MSS / 2);
        assert_eq!(e.detect_losses(MS), 0, "2.5 MSS SACKed above is not enough");
        e.on_sack_range(2 * MS, 3 * MSS + MSS / 2, 4 * MSS);
        assert_eq!(e.detect_losses(2 * MS), 1, "3 MSS SACKed above marks the hole");
        assert_eq!(e.pop_rtx(2 * MS), Some((0, MSS)));
        e.check_partition().unwrap();
    }

    #[test]
    fn one_window_reduction_per_recovery_episode() {
        let mut e = RecoveryEngine::new(cfg(CcAlgo::NewReno));
        for _ in 0..20 {
            e.on_cum_ack(MS, 0); // no-op
        }
        for _ in 0..16 {
            e.on_send(Duration::ZERO, 1);
        }
        let before = e.cwnd();
        // Two separate holes in the same flight: 0 and 5 missing.
        e.on_sack_range(MS, 1, 5);
        e.on_sack_range(MS, 6, 16);
        for _ in 0..3 {
            e.detect_losses(MS);
        }
        let after_first = e.cwnd();
        assert!(after_first < before);
        // More hints in the same episode must not shrink cwnd again.
        for _ in 0..3 {
            e.detect_losses(2 * MS);
        }
        assert_eq!(e.cwnd(), after_first);
    }

    #[test]
    fn rto_marks_head_backs_off_and_eventually_dies() {
        let mut e = RecoveryEngine::new(cfg(CcAlgo::NewReno));
        e.on_send(Duration::ZERO, 1);
        let rto0 = e.rto();
        let mut t = e.rto_deadline().unwrap();
        let mut retransmits = 0;
        loop {
            let ev = e.sweep(t);
            if ev.dead {
                break;
            }
            assert!(ev.rto_fired);
            assert!(e.rto() >= rto0, "backoff should not shrink the RTO");
            if let Some((s, l)) = e.pop_rtx(t) {
                assert_eq!((s, l), (0, 1));
                retransmits += 1;
            }
            e.check_partition().unwrap();
            t = e.rto_deadline().unwrap();
            assert!(retransmits <= 64, "never went dead");
        }
        assert!(e.is_dead());
        assert_eq!(retransmits, 5, "max_retries bounds retransmissions");
    }

    #[test]
    fn partial_ack_splits_straddled_segment() {
        let mut e = RecoveryEngine::new(cfg(CcAlgo::NewReno));
        e.on_send(Duration::ZERO, 10); // [0, 10)
        e.on_send(Duration::ZERO, 10); // [10, 20)
        let ev = e.on_cum_ack(MS, 4);
        assert_eq!(ev.newly_acked, 4);
        assert_eq!(e.una(), 4);
        assert_eq!(e.outstanding(), 16);
        e.check_partition().unwrap();
        let (inf, _, _) = e.scoreboard();
        assert_eq!(inf, 16);
        // Ack the rest.
        e.on_cum_ack(2 * MS, 20);
        assert_eq!(e.outstanding(), 0);
        e.check_partition().unwrap();
    }

    #[test]
    fn dup_acks_trigger_head_fast_retransmit() {
        let mut e = RecoveryEngine::new(cfg(CcAlgo::Fixed));
        e.on_send(Duration::ZERO, 5);
        e.on_send(Duration::ZERO, 5);
        for _ in 0..3 {
            e.on_dup_ack(MS);
        }
        let (start, len) = e.pop_rtx(MS).expect("head queued");
        assert_eq!((start, len), (0, 5));
        e.check_partition().unwrap();
    }

    #[test]
    fn probe_event_when_nothing_outstanding() {
        let mut e = RecoveryEngine::new(cfg(CcAlgo::Fixed));
        e.ensure_deadline(Duration::ZERO);
        let d = e.rto_deadline().unwrap();
        let ev = e.sweep(d);
        assert!(ev.probe);
        assert!(!ev.rto_fired);
        assert!(e.rto_deadline().is_none());
    }

    #[test]
    fn fixed_algo_window_never_moves() {
        let mut e = RecoveryEngine::new(cfg(CcAlgo::Fixed));
        for _ in 0..32 {
            e.on_send(Duration::ZERO, 1);
        }
        e.on_cum_ack(MS, 16);
        e.on_sack_range(MS, 20, 32);
        e.detect_losses(MS);
        e.detect_losses(MS);
        e.detect_losses(MS);
        assert_eq!(e.window(), 64);
        let d = e.rto_deadline().unwrap();
        e.sweep(d);
        assert_eq!(e.window(), 64);
    }
}
