//! Replicated-log state machine over RDMA Write-Record (the PR 9
//! agreement workload).
//!
//! Three replicas share a simnet fabric. The leader of the current term
//! appends fixed-size **records** to its local log region and publishes
//! them to each follower's registered log region — either **one-sided**
//! via [`UdQp::post_write_record`] (no receive consumed at the target;
//! the paper's new verb) or **two-sided** via plain send/recv as the
//! baseline. Datagram loss leaves *holes*: followers detect them from
//! their region's validity map ([`MemoryRegion::holes`]) and reconcile by
//! re-fetching the missing slots from the leader's region with the PR 8
//! [`BulkRead`] one-sided read engine. A lease-based election (terms,
//! vote restriction, commit restriction — the Raft safety rules) fails
//! over when the leader goes quiet.
//!
//! Everything is deterministic under a seeded fabric: replicas are
//! poll-mode QPs driven by one cluster tick loop on a synthetic clock,
//! so a `(seed, config)` pair replays byte-identical histories — the
//! property the chaos oracle (`iwarp-chaos::replog`) and
//! `tests/determinism.rs` lean on.
//!
//! ## Record slots
//!
//! The log is an array of [`SLOT_BYTES`]-byte slots, one record each. A
//! slot is always written whole (header + payload + zero padding), so a
//! slot is either fully stale, fully current, or **torn** — and a torn
//! slot is exactly what the per-record CRC over the whole padded payload
//! area catches: a write-record fragment of slot *k* from term *n* mixed
//! with fragments from term *m* fails the CRC even though every byte is
//! "valid" in the validity-map sense.
//!
//! ## Lease safety
//!
//! A vote grant carries the granter's **shadow tick** — the latest tick
//! at which it supported *any* earlier leader (accepted a heartbeat,
//! granted a vote, or was itself leader). The winner's lease starts at
//! `max(vote_sent, max_quorum(shadow) + lease_ticks)`: any older lease
//! was backed by a majority, every majority intersects the new vote
//! quorum, and the intersecting replica's shadow bounds the old lease's
//! renewal basis — so the old lease provably expires before the new one
//! begins. The oracle checks the resulting intervals never overlap.

use std::collections::BTreeMap;
use std::time::Duration;

use bytes::Bytes;
use iwarp::read::{BulkRead, BulkReadConfig, CcAlgo, RecoveryConfig, SignalInterval};
use iwarp::wr::RecvWr;
use iwarp::{
    Access, Cq, CqeOpcode, CqeStatus, Device, DeviceConfig, MemoryRegion, QpConfig, ShardConfig,
    UdDest, UdQp,
};
use iwarp_common::crc32::crc32c;
use iwarp_common::rng::{derive_seed, mix64};
use iwarp_telemetry::{AppMetrics, Telemetry};
use simnet::{Fabric, NodeId};

// ---------------------------------------------------------------------------
// Constants and configuration
// ---------------------------------------------------------------------------

/// Replica count. The protocol is written for exactly three (majority 2).
pub const N_REPLICAS: usize = 3;
/// Quorum size for votes, commit matching and lease renewal.
pub const MAJORITY: usize = 2;
/// Bytes per log slot (record header + payload area). Three tagged MTU
/// fragments on the default 1500-byte wire, so a lost middle fragment
/// leaves an intra-slot hole.
pub const SLOT_BYTES: usize = 4096;
/// Record header bytes at the front of each slot.
pub const REC_HDR_BYTES: usize = 40;
/// Payload area per slot (payload + zero padding, all covered by the CRC).
pub const PAYLOAD_AREA: usize = SLOT_BYTES - REC_HDR_BYTES;

const REC_MAGIC: u32 = 0x5250_4C47; // "RPLG"
const CTL_BYTES: usize = 34;
const CTL_SLOTS: u64 = 64;
const CTL_WIN: u64 = 64;
const PUB_SLOTS: u64 = 64;
/// Max slots re-fetched per BulkRead transfer.
const FETCH_CAP: u64 = 8;

/// How the leader publishes records to followers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PublishPath {
    /// One-sided `post_write_record` into the follower's log region.
    WriteRecord,
    /// Two-sided send/recv baseline: followers pre-post slot-sized
    /// receives and copy records into their log on delivery.
    TwoSided,
}

/// Deliberate protocol bugs the oracle must catch (ISSUE 9 acceptance).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlantedBug {
    /// Correct protocol.
    None,
    /// Followers ack the leader's announced high-water mark *before*
    /// verifying local placement, and apply blindly up to the commit
    /// hint — committed entries can be lost or diverge under loss.
    AckBeforePlacement,
}

/// Workload parameters. All times are in cluster **ticks** (the synthetic
/// clock), not wall time.
#[derive(Clone, Debug)]
pub struct ReplogConfig {
    /// Client entries to commit.
    pub entries: usize,
    /// Client payload bytes per entry (≤ [`PAYLOAD_AREA`] − 8).
    pub payload: usize,
    /// Log capacity in slots (must exceed `entries` plus per-term no-ops).
    pub max_log: usize,
    /// Publish path under test.
    pub path: PublishPath,
    /// Master seed: payload keystreams, election jitter.
    pub seed: u64,
    /// Tick budget before the run is abandoned as unconverged.
    pub ticks: u64,
    /// Client proposes a new entry every this many ticks.
    pub propose_every: u64,
    /// Max un-acked client entries in flight.
    pub client_window: usize,
    /// Client re-submits an un-acked entry after this many ticks.
    pub retry_after: u64,
    /// Leader heartbeat period.
    pub heartbeat_every: u64,
    /// Lease length: a renewal acked for a heartbeat sent at `t` extends
    /// the lease to `t + lease_ticks`.
    pub lease_ticks: u64,
    /// Follower patience: no accepted heartbeat for this long starts an
    /// election. Must be ≥ `lease_ticks` for lease exclusivity.
    pub follow_timeout: u64,
    /// Candidate round length before a re-election with a higher term.
    pub candidate_round: u64,
    /// Freeze the current leader at tick `.0` for `.1` ticks (fail-over
    /// exercise). `None` disables.
    pub freeze: Option<(u64, u64)>,
    /// Planted protocol bug.
    pub bug: PlantedBug,
    /// Device shard-pool size (inert for these poll-mode QPs — part of
    /// the determinism matrix).
    pub shards: usize,
    /// Congestion-control algorithm for hole-refetch transfers
    /// (determinism axis: the refetch window fits inside every algo's
    /// initial cwnd, so the wire schedule must not depend on it).
    pub cc: CcAlgo,
}

impl Default for ReplogConfig {
    fn default() -> Self {
        Self {
            entries: 24,
            payload: 1000,
            max_log: 24 * 2 + 32,
            path: PublishPath::WriteRecord,
            seed: 0x1AAF_9E17,
            ticks: 30_000,
            propose_every: 25,
            client_window: 2,
            retry_after: 400,
            heartbeat_every: 20,
            lease_ticks: 120,
            follow_timeout: 140,
            candidate_round: 170,
            freeze: None,
            bug: PlantedBug::None,
            shards: 0,
            cc: CcAlgo::Fixed,
        }
    }
}

/// Canonical client payload for a sequence number: 8-byte LE `seq`
/// followed by a seeded keystream. The oracle recomputes this to check
/// committed payload integrity.
pub fn client_payload(seed: u64, seq: u64, len: usize) -> Vec<u8> {
    let len = len.clamp(8, PAYLOAD_AREA);
    let mut out = vec![0u8; len];
    out[..8].copy_from_slice(&seq.to_le_bytes());
    let ks = derive_seed(seed, 0x4000 + seq);
    for (i, b) in out[8..].iter_mut().enumerate() {
        *b = (mix64(ks ^ (i as u64 >> 3)) >> ((i % 8) * 8)) as u8;
    }
    out
}

// ---------------------------------------------------------------------------
// Record codec
// ---------------------------------------------------------------------------

/// Record kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordKind {
    /// Leader barrier entry appended once per reign (Raft's no-op: makes
    /// the current term committable, unlocking older entries).
    NoOp,
    /// Client entry; payload starts with the 8-byte sequence number.
    Client,
}

/// Decoded slot header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecordHdr {
    /// 1-based log index.
    pub index: u64,
    /// Term the entry was first created in (never changes).
    pub entry_term: u64,
    /// Term of the leader that last (re)published the slot.
    pub pub_term: u64,
    /// Client payload length.
    pub len: u32,
    /// Record kind.
    pub kind: RecordKind,
    /// CRC32C over the whole padded payload area.
    pub crc: u32,
}

/// Offset of the `pub_term` field inside a slot (restamped per reign).
const PUB_TERM_OFF: u64 = 20;

fn build_slot(index: u64, entry_term: u64, pub_term: u64, kind: RecordKind, payload: &[u8]) -> Vec<u8> {
    assert!(payload.len() <= PAYLOAD_AREA);
    let mut slot = vec![0u8; SLOT_BYTES];
    slot[REC_HDR_BYTES..REC_HDR_BYTES + payload.len()].copy_from_slice(payload);
    let crc = crc32c(&slot[REC_HDR_BYTES..]);
    slot[0..4].copy_from_slice(&REC_MAGIC.to_le_bytes());
    slot[4..12].copy_from_slice(&index.to_le_bytes());
    slot[12..20].copy_from_slice(&entry_term.to_le_bytes());
    slot[20..28].copy_from_slice(&pub_term.to_le_bytes());
    slot[28..32].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    slot[32] = match kind {
        RecordKind::NoOp => 0,
        RecordKind::Client => 1,
    };
    slot[36..40].copy_from_slice(&crc.to_le_bytes());
    slot
}

fn decode_hdr(slot: &[u8]) -> Option<RecordHdr> {
    if slot.len() < REC_HDR_BYTES {
        return None;
    }
    let word = |a: usize| u32::from_le_bytes(slot[a..a + 4].try_into().unwrap());
    let quad = |a: usize| u64::from_le_bytes(slot[a..a + 8].try_into().unwrap());
    if word(0) != REC_MAGIC {
        return None;
    }
    let kind = match slot[32] {
        0 => RecordKind::NoOp,
        1 => RecordKind::Client,
        _ => return None,
    };
    let len = word(28);
    if len as usize > PAYLOAD_AREA {
        return None;
    }
    Some(RecordHdr {
        index: quad(4),
        entry_term: quad(12),
        pub_term: quad(20),
        len,
        kind,
        crc: word(36),
    })
}

// ---------------------------------------------------------------------------
// Control-plane codec (single-datagram messages, 34 bytes)
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
enum CtlMsg {
    /// `a` = candidate's last entry term, `b` = candidate's log length.
    VoteReq { term: u64, last_term: u64, log_len: u64 },
    /// `a` = granter's shadow tick (see module docs).
    VoteGrant { term: u64, shadow: u64 },
    /// `a` = leader log length (slots), `b` = commit index, `c` = sent tick.
    Heartbeat { term: u64, high_water: u64, commit: u64, sent: u64 },
    /// `a` = follower's matched prefix, `c` = echoed heartbeat sent tick.
    /// With `term` above the leader's it doubles as the step-down NACK.
    HbAck { term: u64, matched: u64, sent: u64 },
}

fn encode_ctl(from: usize, msg: &CtlMsg) -> Bytes {
    let mut b = vec![0u8; CTL_BYTES];
    let (kind, term, a2, b2, c2) = match *msg {
        CtlMsg::VoteReq { term, last_term, log_len } => (0u8, term, last_term, log_len, 0),
        CtlMsg::VoteGrant { term, shadow } => (1, term, shadow, 0, 0),
        CtlMsg::Heartbeat { term, high_water, commit, sent } => (2, term, high_water, commit, sent),
        CtlMsg::HbAck { term, matched, sent } => (3, term, matched, 0, sent),
    };
    b[0] = kind;
    b[1] = from as u8;
    b[2..10].copy_from_slice(&term.to_le_bytes());
    b[10..18].copy_from_slice(&a2.to_le_bytes());
    b[18..26].copy_from_slice(&b2.to_le_bytes());
    b[26..34].copy_from_slice(&c2.to_le_bytes());
    Bytes::from(b)
}

fn decode_ctl(buf: &[u8]) -> Option<(usize, CtlMsg)> {
    if buf.len() != CTL_BYTES {
        return None;
    }
    let quad = |a: usize| u64::from_le_bytes(buf[a..a + 8].try_into().unwrap());
    let from = buf[1] as usize;
    if from >= N_REPLICAS {
        return None;
    }
    let (term, a, b, c) = (quad(2), quad(10), quad(18), quad(26));
    let msg = match buf[0] {
        0 => CtlMsg::VoteReq { term, last_term: a, log_len: b },
        1 => CtlMsg::VoteGrant { term, shadow: a },
        2 => CtlMsg::Heartbeat { term, high_water: a, commit: b, sent: c },
        3 => CtlMsg::HbAck { term, matched: a, sent: c },
        _ => return None,
    };
    Some((from, msg))
}

// ---------------------------------------------------------------------------
// History (the oracle's input)
// ---------------------------------------------------------------------------

/// One observable protocol event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// A client entry was accepted into the leader's log.
    Proposed {
        /// Cluster tick.
        tick: u64,
        /// Client sequence number.
        seq: u64,
        /// Log index assigned.
        index: u64,
        /// Leader term at append.
        term: u64,
        /// Payload-area CRC of the built record.
        crc: u32,
    },
    /// The leader advanced its commit index over this entry.
    Committed {
        /// Cluster tick.
        tick: u64,
        /// Log index.
        index: u64,
        /// Entry term (creation term).
        term: u64,
        /// Client sequence (0 for no-ops).
        seq: u64,
        /// Payload-area CRC.
        crc: u32,
        /// Payload length.
        len: u32,
        /// Record kind.
        kind: RecordKind,
    },
    /// A replica applied this entry to its state machine.
    Applied {
        /// Cluster tick.
        tick: u64,
        /// Applying replica.
        replica: usize,
        /// Log index.
        index: u64,
        /// Entry term read from the slot.
        term: u64,
        /// Client sequence (0 for no-ops).
        seq: u64,
        /// Payload-area CRC recomputed from the slot.
        crc: u32,
        /// Record kind.
        kind: RecordKind,
    },
}

/// A half-open `[start, end)` tick interval during which a replica held
/// a valid leader lease. The oracle checks intervals from different
/// replicas never overlap.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LeaseInterval {
    /// Leaseholder.
    pub replica: usize,
    /// Term of the lease.
    pub term: u64,
    /// First tick held (inclusive).
    pub start: u64,
    /// First tick no longer held (exclusive).
    pub end: u64,
}

/// Full run history: events in emission order plus closed lease intervals.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct History {
    /// Protocol events in emission order.
    pub events: Vec<Event>,
    /// Closed lease intervals in open order.
    pub leases: Vec<LeaseInterval>,
}

impl History {
    /// Order-sensitive digest over every field of every event — the
    /// determinism tests compare this across runs.
    pub fn digest(&self) -> u64 {
        let mut h = 0x9E37_79B9_97F4_A7C5u64;
        let mut fold = |v: u64| h = mix64(h ^ v.wrapping_mul(0x0100_0000_01B3));
        for e in &self.events {
            match *e {
                Event::Proposed { tick, seq, index, term, crc } => {
                    fold(1);
                    fold(tick);
                    fold(seq);
                    fold(index);
                    fold(term);
                    fold(u64::from(crc));
                }
                Event::Committed { tick, index, term, seq, crc, len, kind } => {
                    fold(2);
                    fold(tick);
                    fold(index);
                    fold(term);
                    fold(seq);
                    fold(u64::from(crc));
                    fold(u64::from(len));
                    fold(kind as u64);
                }
                Event::Applied { tick, replica, index, term, seq, crc, kind } => {
                    fold(3);
                    fold(tick);
                    fold(replica as u64);
                    fold(index);
                    fold(term);
                    fold(seq);
                    fold(u64::from(crc));
                    fold(kind as u64);
                }
            }
        }
        for l in &self.leases {
            fold(4);
            fold(l.replica as u64);
            fold(l.term);
            fold(l.start);
            fold(l.end);
        }
        h
    }
}

// ---------------------------------------------------------------------------
// Replica
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Role {
    Follower,
    Candidate,
    Leader,
}

#[derive(Clone, Copy)]
struct Peer {
    ctl: UdDest,
    publ: UdDest,
    log_stag: u32,
}

struct Recon {
    xfer: BulkRead,
    nslots: u64,
}

struct Replica {
    id: usize,
    _dev: Device,
    ctl: UdQp,
    publ: UdQp,
    rec: UdQp,
    log: MemoryRegion,
    ctl_scratch: MemoryRegion,
    pub_scratch: Option<MemoryRegion>,
    peers: Vec<Peer>,

    term: u64,
    role: Role,
    voted_for: Option<usize>,
    leader_hint: Option<usize>,
    /// Latest tick this replica supported any leader (accepted heartbeat,
    /// granted vote, or led) — the lease-safety shadow.
    shadow: u64,
    /// No election (or grant) before this tick.
    guard: u64,
    /// Tick at which this follower starts an election.
    election_at: u64,

    // Follower-side view of the current-term leader.
    hw_hint: u64,
    commit_hint: u64,
    matched_cache: u64,
    matched_sent: u64,
    last_hb_sent_tick: u64,
    have_hb: bool,

    // Candidate state.
    votes: u8, // bitmask
    grant_shadow_max: u64,
    vote_sent: u64,

    // Leader state.
    log_len: u64,
    matched: [u64; N_REPLICAS],
    commit: u64,
    lease_start: u64,
    lease_until: u64,
    hb_acks: BTreeMap<u64, u8>,
    last_hb: u64,
    published_to: [u64; N_REPLICAS],
    seq_index: BTreeMap<u64, u64>,

    applied: u64,
    recon: Option<Recon>,
    recon_epoch: u64,
    next_wr: u64,
}

fn slot_off(index_1based: u64) -> u64 {
    (index_1based - 1) * SLOT_BYTES as u64
}

impl Replica {
    fn new(fab: &Fabric, id: usize, cfg: &ReplogConfig) -> Self {
        let mut dc = DeviceConfig::default();
        if cfg.shards > 0 {
            dc.shard = ShardConfig::with_shards(cfg.shards);
        }
        let dev = Device::with_config(fab, NodeId(id as u16), dc);
        // Poll-mode QPs on a synthetic clock: wall-clock TTLs must never
        // fire mid-run, so park them far out.
        let qc = QpConfig {
            poll_mode: true,
            recv_ttl: Duration::from_secs(600),
            record_ttl: Duration::from_secs(600),
            read_ttl: Duration::from_secs(600),
            ..QpConfig::default()
        };
        let mk = |cap: usize| (Cq::new(cap), Cq::new(cap));
        let (cs, cr) = mk(1024);
        let ctl = dev.create_ud_qp(None, &cs, &cr, qc.clone()).expect("ctl qp");
        let (ps, pr) = mk(1024);
        let publ = dev.create_ud_qp(None, &ps, &pr, qc.clone()).expect("pub qp");
        let (rs, rr) = mk(64);
        let rec = dev.create_ud_qp(None, &rs, &rr, qc).expect("rec qp");

        let log = dev.register(cfg.max_log * SLOT_BYTES, Access::RemoteReadWrite);
        log.track_validity();
        let ctl_scratch = dev.register((CTL_SLOTS * CTL_WIN) as usize, Access::Local);
        for i in 0..CTL_SLOTS {
            ctl.post_recv(RecvWr {
                wr_id: i,
                mr: ctl_scratch.clone(),
                offset: i * CTL_WIN,
                len: CTL_WIN as u32,
            })
            .expect("ctl recv");
        }
        let pub_scratch = if cfg.path == PublishPath::TwoSided {
            let mr = dev.register((PUB_SLOTS as usize) * SLOT_BYTES, Access::Local);
            for i in 0..PUB_SLOTS {
                publ.post_recv(RecvWr {
                    wr_id: 10_000 + i,
                    mr: mr.clone(),
                    offset: i * SLOT_BYTES as u64,
                    len: SLOT_BYTES as u32,
                })
                .expect("pub recv");
            }
            Some(mr)
        } else {
            None
        };

        Self {
            id,
            _dev: dev,
            ctl,
            publ,
            rec,
            log,
            ctl_scratch,
            pub_scratch,
            peers: Vec::new(),
            term: 0,
            role: Role::Follower,
            voted_for: None,
            leader_hint: None,
            shadow: 0,
            guard: 0,
            election_at: 0,
            hw_hint: 0,
            commit_hint: 0,
            matched_cache: 0,
            matched_sent: 0,
            last_hb_sent_tick: 0,
            have_hb: false,
            votes: 0,
            grant_shadow_max: 0,
            vote_sent: 0,
            log_len: 0,
            matched: [0; N_REPLICAS],
            commit: 0,
            lease_start: 0,
            lease_until: 0,
            hb_acks: BTreeMap::new(),
            last_hb: 0,
            published_to: [0; N_REPLICAS],
            seq_index: BTreeMap::new(),
            applied: 0,
            recon: None,
            recon_epoch: 0,
            next_wr: 1 << 40,
        }
    }

    fn wr_id(&mut self) -> u64 {
        self.next_wr += 1;
        self.next_wr
    }

    fn jitter(&self, cfg: &ReplogConfig, term: u64) -> u64 {
        derive_seed(cfg.seed, 0xE1EC ^ (term << 8) ^ self.id as u64) % 80 + self.id as u64 * 7
    }

    fn send_ctl(&mut self, to: usize, msg: &CtlMsg) {
        let wr = self.wr_id();
        let dest = self.peers[to].ctl;
        let _ = self.ctl.post_send(wr, encode_ctl(self.id, msg), dest);
    }

    fn broadcast(&mut self, msg: &CtlMsg) {
        for p in 0..N_REPLICAS {
            if p != self.id {
                self.send_ctl(p, msg);
            }
        }
    }

    /// Is slot `i` (1-based) a verified record published by term `term`?
    fn slot_good(&self, i: u64, want_pub_term: Option<u64>) -> bool {
        let off = slot_off(i);
        if !self.log.valid_range(off, off + SLOT_BYTES as u64) {
            return false;
        }
        let Ok(slot) = self.log.read_vec(off, SLOT_BYTES) else { return false };
        let Some(hdr) = decode_hdr(&slot) else { return false };
        if hdr.index != i || crc32c(&slot[REC_HDR_BYTES..]) != hdr.crc {
            return false;
        }
        match want_pub_term {
            Some(t) => hdr.pub_term == t,
            None => true,
        }
    }

    /// Contiguous verified prefix stamped by the current term (the value
    /// acked back to the leader). Advance-only within a term: a slot that
    /// verified once can only be rewritten with the same bytes.
    fn matched(&mut self, cfg: &ReplogConfig) -> u64 {
        if cfg.bug == PlantedBug::AckBeforePlacement {
            return self.hw_hint; // planted: ack before placement
        }
        while self.matched_cache < self.hw_hint && self.slot_good(self.matched_cache + 1, Some(self.term))
        {
            self.matched_cache += 1;
        }
        self.matched_cache
    }

    /// Log length for the election comparison: contiguous verified prefix
    /// under any publisher term.
    fn election_log(&self) -> (u64, u64) {
        let mut n = 0;
        let mut last_term = 0;
        while self.slot_good(n + 1, None) {
            n += 1;
            let off = slot_off(n);
            if let Ok(slot) = self.log.read_vec(off, REC_HDR_BYTES) {
                if let Some(hdr) = decode_hdr(&slot) {
                    last_term = hdr.entry_term;
                }
            }
        }
        (last_term, n)
    }

    fn adopt(&mut self, term: u64, now: u64, cfg: &ReplogConfig, tel: &AppMetrics) {
        if self.role == Role::Leader {
            self.shadow = self.shadow.max(now);
            tel.replog_step_downs.inc();
        }
        self.term = term;
        self.role = Role::Follower;
        self.voted_for = None;
        self.leader_hint = None;
        self.hw_hint = 0;
        self.commit_hint = 0;
        self.matched_cache = 0;
        self.matched_sent = 0;
        self.have_hb = false;
        self.recon = None;
        self.election_at = self.guard.max(now) + self.jitter(cfg, term);
    }

    fn start_election(&mut self, now: u64, tel: &AppMetrics) {
        self.term += 1;
        self.role = Role::Candidate;
        self.voted_for = Some(self.id);
        self.leader_hint = None;
        self.hw_hint = 0;
        self.commit_hint = 0;
        self.matched_cache = 0;
        self.matched_sent = 0;
        self.have_hb = false;
        self.recon = None;
        self.votes = 1 << self.id;
        self.grant_shadow_max = self.shadow;
        self.vote_sent = now;
        self.shadow = self.shadow.max(now); // self-grant
        let (last_term, log_len) = self.election_log();
        tel.replog_elections.inc();
        self.broadcast(&CtlMsg::VoteReq { term: self.term, last_term, log_len });
    }

    fn append(&mut self, kind: RecordKind, payload: &[u8], cfg: &ReplogConfig) -> Option<(u64, u32)> {
        debug_assert_eq!(self.role, Role::Leader);
        if self.log_len as usize >= cfg.max_log {
            return None;
        }
        let index = self.log_len + 1;
        let slot = build_slot(index, self.term, self.term, kind, payload);
        let crc = crc32c(&slot[REC_HDR_BYTES..]);
        self.log.write(slot_off(index), &slot).expect("local append");
        self.log_len = index;
        self.matched[self.id] = index;
        Some((index, crc))
    }

    fn become_leader(&mut self, cfg: &ReplogConfig, tel: &AppMetrics) {
        self.role = Role::Leader;
        self.leader_hint = Some(self.id);
        tel.replog_leaders.inc();
        self.lease_start = self.vote_sent.max(self.grant_shadow_max + cfg.lease_ticks);
        self.lease_until = self.vote_sent + cfg.lease_ticks;
        // Take ownership of the verified prefix and restamp its publisher
        // term (header-only write: the CRC covers the payload area).
        let (_lt, len) = self.election_log();
        self.log_len = len;
        for i in 1..=len {
            let _ = self
                .log
                .write(slot_off(i) + PUB_TERM_OFF, &self.term.to_le_bytes());
        }
        self.matched = [0; N_REPLICAS];
        self.matched[self.id] = self.log_len;
        self.published_to = [self.log_len; N_REPLICAS];
        // Followers reconcile by pulling; the leader only pushes new slots.
        for f in 0..N_REPLICAS {
            if f != self.id {
                self.published_to[f] = 0;
            }
        }
        self.commit = 0;
        self.hb_acks.clear();
        self.last_hb = 0;
        self.seq_index.clear();
        for i in 1..=self.log_len {
            if let Ok(slot) = self.log.read_vec(slot_off(i), SLOT_BYTES) {
                if let Some(hdr) = decode_hdr(&slot) {
                    if hdr.kind == RecordKind::Client && hdr.len >= 8 {
                        let seq =
                            u64::from_le_bytes(slot[REC_HDR_BYTES..REC_HDR_BYTES + 8].try_into().unwrap());
                        self.seq_index.insert(seq, i);
                    }
                }
            }
        }
        // Reign barrier: makes this term committable (commit restriction).
        let _ = self.append(RecordKind::NoOp, &[], cfg);
    }

    /// Client entry point (leader only, lease-gated by the cluster).
    /// Returns `Some((index, term, crc))` when this call appended a fresh
    /// record; `None` on dedup hit or refusal.
    fn client_append(
        &mut self,
        seq: u64,
        payload: &[u8],
        cfg: &ReplogConfig,
        tel: &AppMetrics,
    ) -> Option<(u64, u64, u32)> {
        if self.role != Role::Leader {
            return None;
        }
        if self.seq_index.contains_key(&seq) {
            return None; // already in this reign's log (possibly committed)
        }
        let (index, crc) = self.append(RecordKind::Client, payload, cfg)?;
        self.seq_index.insert(seq, index);
        tel.replog_proposals.inc();
        Some((index, self.term, crc))
    }

    fn handle_msg(
        &mut self,
        from: usize,
        msg: CtlMsg,
        now: u64,
        cfg: &ReplogConfig,
        tel: &AppMetrics,
    ) {
        match msg {
            CtlMsg::VoteReq { term, last_term, log_len } => {
                if term > self.term {
                    self.adopt(term, now, cfg, tel);
                }
                if term == self.term
                    && self.role == Role::Follower
                    && (self.voted_for.is_none() || self.voted_for == Some(from))
                    && now >= self.guard
                {
                    let (my_lt, my_len) = self.election_log();
                    if (last_term, log_len) >= (my_lt, my_len) {
                        self.voted_for = Some(from);
                        let reply = CtlMsg::VoteGrant { term, shadow: self.shadow };
                        self.shadow = self.shadow.max(now);
                        self.guard = now + cfg.follow_timeout;
                        self.election_at = self.guard + self.jitter(cfg, term);
                        self.send_ctl(from, &reply);
                    }
                }
            }
            CtlMsg::VoteGrant { term, shadow } => {
                if term > self.term {
                    self.adopt(term, now, cfg, tel);
                } else if term == self.term && self.role == Role::Candidate {
                    self.votes |= 1 << from;
                    self.grant_shadow_max = self.grant_shadow_max.max(shadow);
                    if (self.votes.count_ones() as usize) >= MAJORITY {
                        self.become_leader(cfg, tel);
                    }
                }
            }
            CtlMsg::Heartbeat { term, high_water, commit, sent } => {
                if term < self.term {
                    // NACK: tell the stale leader about the newer term.
                    let reply = CtlMsg::HbAck { term: self.term, matched: 0, sent };
                    self.send_ctl(from, &reply);
                    return;
                }
                if term > self.term {
                    self.adopt(term, now, cfg, tel);
                }
                if self.role == Role::Leader {
                    // Same-term second leader is impossible (vote quorum);
                    // ignore defensively.
                    return;
                }
                self.role = Role::Follower;
                self.leader_hint = Some(from);
                self.shadow = self.shadow.max(now);
                self.guard = now + cfg.follow_timeout;
                self.election_at = self.guard + self.jitter(cfg, term);
                self.hw_hint = self.hw_hint.max(high_water);
                self.commit_hint = self.commit_hint.max(commit);
                self.have_hb = true;
                self.last_hb_sent_tick = self.last_hb_sent_tick.max(sent);
                let matched = self.matched(cfg);
                self.matched_sent = matched;
                let reply = CtlMsg::HbAck { term: self.term, matched, sent };
                self.send_ctl(from, &reply);
                tel.replog_acks.inc();
            }
            CtlMsg::HbAck { term, matched, sent } => {
                if term > self.term {
                    self.adopt(term, now, cfg, tel);
                    return;
                }
                if term == self.term && self.role == Role::Leader {
                    self.matched[from] = self.matched[from].max(matched.min(self.log_len));
                    let mask = self.hb_acks.entry(sent).or_insert(1 << self.id);
                    *mask |= 1 << from;
                    if (mask.count_ones() as usize) >= MAJORITY {
                        let renewed = sent + cfg.lease_ticks;
                        if renewed > self.lease_until {
                            self.lease_until = renewed;
                            tel.replog_lease_renewals.inc();
                        }
                    }
                    // Prune ack masks that can no longer extend the lease.
                    let floor = self.lease_until.saturating_sub(cfg.lease_ticks);
                    self.hb_acks.retain(|&s, _| s >= floor);
                }
            }
        }
    }

    fn drain_ctl(&mut self, now: u64, cfg: &ReplogConfig, tel: &AppMetrics) {
        while let Some(cqe) = self.ctl.recv_cq().poll() {
            if cqe.opcode != CqeOpcode::Recv {
                continue;
            }
            let slot = cqe.wr_id;
            if cqe.status == CqeStatus::Success && slot < CTL_SLOTS {
                let off = slot * CTL_WIN;
                let msg = self
                    .ctl_scratch
                    .read_vec(off, cqe.byte_len as usize)
                    .ok()
                    .and_then(|b| decode_ctl(&b));
                // Repost before handling: the handler may send replies.
                let _ = self.ctl.post_recv(RecvWr {
                    wr_id: slot,
                    mr: self.ctl_scratch.clone(),
                    offset: off,
                    len: CTL_WIN as u32,
                });
                if let Some((from, msg)) = msg {
                    self.handle_msg(from, msg, now, cfg, tel);
                }
            } else if slot < CTL_SLOTS {
                let _ = self.ctl.post_recv(RecvWr {
                    wr_id: slot,
                    mr: self.ctl_scratch.clone(),
                    offset: slot * CTL_WIN,
                    len: CTL_WIN as u32,
                });
            }
        }
    }

    fn drain_pub(&mut self, cfg: &ReplogConfig) {
        while let Some(cqe) = self.publ.recv_cq().poll() {
            match cqe.opcode {
                CqeOpcode::WriteRecord => {
                    // One-sided placement: validity map already updated by
                    // the write path; nothing to do.
                }
                CqeOpcode::Recv => {
                    let slot = cqe.wr_id.wrapping_sub(10_000);
                    if slot < PUB_SLOTS {
                        if cqe.status == CqeStatus::Success {
                            if let Some(mr) = &self.pub_scratch {
                                let off = slot * SLOT_BYTES as u64;
                                if let Ok(rec) = mr.read_vec(off, cqe.byte_len as usize) {
                                    if rec.len() == SLOT_BYTES {
                                        if let Some(hdr) = decode_hdr(&rec) {
                                            if hdr.index >= 1 && hdr.index as usize <= cfg.max_log {
                                                let _ = self.log.write(slot_off(hdr.index), &rec);
                                            }
                                        }
                                    }
                                }
                            }
                        }
                        if let Some(mr) = &self.pub_scratch {
                            let _ = self.publ.post_recv(RecvWr {
                                wr_id: 10_000 + slot,
                                mr: mr.clone(),
                                offset: slot * SLOT_BYTES as u64,
                                len: SLOT_BYTES as u32,
                            });
                        }
                    }
                }
                _ => {}
            }
        }
    }

    fn leader_step(
        &mut self,
        now: u64,
        cfg: &ReplogConfig,
        tel: &AppMetrics,
        history: &mut History,
    ) {
        // Heartbeats.
        if self.last_hb == 0 || now.saturating_sub(self.last_hb) >= cfg.heartbeat_every {
            self.last_hb = now;
            self.hb_acks.insert(now, 1 << self.id);
            let msg = CtlMsg::Heartbeat {
                term: self.term,
                high_water: self.log_len,
                commit: self.commit,
                sent: now,
            };
            self.broadcast(&msg);
            tel.replog_heartbeats.inc();
        }
        // Publish new slots (bounded per tick per follower).
        for f in 0..N_REPLICAS {
            if f == self.id {
                continue;
            }
            let mut pushed = 0;
            while self.published_to[f] < self.log_len && pushed < 4 {
                let i = self.published_to[f] + 1;
                let Ok(slot) = self.log.read_bytes(slot_off(i), SLOT_BYTES) else { break };
                let peer = self.peers[f];
                let wr = self.wr_id();
                let res = match cfg.path {
                    PublishPath::WriteRecord => self.publ.post_write_record(
                        wr,
                        slot,
                        peer.publ,
                        peer.log_stag,
                        slot_off(i),
                    ),
                    PublishPath::TwoSided => self.publ.post_send(wr, slot, peer.publ),
                };
                if res.is_err() {
                    break;
                }
                self.published_to[f] = i;
                pushed += 1;
                tel.replog_publishes.inc();
            }
        }
        // Commit: highest majority-matched index whose entry term is the
        // current term (Raft's commit restriction); committing it commits
        // every earlier index too.
        let mut best = self.commit;
        let mut cand = self.commit + 1;
        while cand <= self.log_len {
            let repl = (0..N_REPLICAS).filter(|&r| self.matched[r] >= cand).count();
            if repl < MAJORITY {
                break;
            }
            if let Ok(slot) = self.log.read_vec(slot_off(cand), REC_HDR_BYTES) {
                if let Some(hdr) = decode_hdr(&slot) {
                    if hdr.entry_term == self.term {
                        best = cand;
                    }
                }
            }
            cand += 1;
        }
        if best > self.commit {
            for i in self.commit + 1..=best {
                if let Ok(slot) = self.log.read_vec(slot_off(i), SLOT_BYTES) {
                    if let Some(hdr) = decode_hdr(&slot) {
                        let seq = if hdr.kind == RecordKind::Client && hdr.len >= 8 {
                            u64::from_le_bytes(
                                slot[REC_HDR_BYTES..REC_HDR_BYTES + 8].try_into().unwrap(),
                            )
                        } else {
                            0
                        };
                        history.events.push(Event::Committed {
                            tick: now,
                            index: i,
                            term: hdr.entry_term,
                            seq,
                            crc: hdr.crc,
                            len: hdr.len,
                            kind: hdr.kind,
                        });
                        tel.replog_commits.inc();
                    }
                }
            }
            self.commit = best;
        }
    }

    fn follower_step(&mut self, now: u64, cfg: &ReplogConfig, tel: &AppMetrics) {
        // Event-driven ack when reconciliation advances the prefix between
        // heartbeats (renews the leader's lease and commit progress).
        if self.have_hb {
            let matched = self.matched(cfg);
            if matched > self.matched_sent {
                self.matched_sent = matched;
                if let Some(l) = self.leader_hint {
                    let msg =
                        CtlMsg::HbAck { term: self.term, matched, sent: self.last_hb_sent_tick };
                    self.send_ctl(l, &msg);
                    tel.replog_acks.inc();
                }
            }
        }
        // Reconciliation: pull missing/torn slots from the leader's log
        // with the one-sided bulk-read engine.
        if let Some(rc) = &mut self.recon {
            match rc.xfer.step(&self.rec, Duration::from_millis(now)) {
                Ok(true) => {
                    let rc = self.recon.take().unwrap();
                    if !rc.xfer.report().dead {
                        tel.replog_refetch_bytes.add(rc.nslots * SLOT_BYTES as u64);
                    }
                }
                Ok(false) => {}
                Err(_) => {
                    self.recon = None;
                }
            }
            return;
        }
        let Some(leader) = self.leader_hint else { return };
        if cfg.bug == PlantedBug::AckBeforePlacement {
            return; // planted: never reconciles, acks blindly instead
        }
        let matched = self.matched(cfg);
        if matched >= self.hw_hint {
            return;
        }
        // First bad slot is matched+1; fetch the contiguous bad run.
        let first = matched + 1;
        let mut n = 1;
        while n < FETCH_CAP && first + n <= self.hw_hint && !self.slot_good(first + n, Some(self.term))
        {
            n += 1;
        }
        let peer = self.peers[leader];
        self.recon_epoch += 1;
        let base_wr_id = (1 << 32) + (self.recon_epoch << 16);
        let cfg_br = BulkReadConfig {
            batch_bytes: SLOT_BYTES as u32,
            window: 8,
            signal: SignalInterval::Every(2),
            recovery: RecoveryConfig {
                algo: cfg.cc,
                initial_rto: Duration::from_millis(40),
                min_rto: Duration::from_millis(20),
                max_rto: Duration::from_millis(400),
                max_retries: 64,
                ..RecoveryConfig::default()
            },
            base_wr_id,
        };
        let off = slot_off(first);
        let len = n * SLOT_BYTES as u64;
        let xfer = BulkRead::new(cfg_br, &self.log, off, len, peer.publ, peer.log_stag, off);
        self.recon = Some(Recon { xfer, nslots: n });
        tel.replog_refetch_transfers.inc();
    }

    fn apply_step(
        &mut self,
        now: u64,
        cfg: &ReplogConfig,
        tel: &AppMetrics,
        history: &mut History,
    ) {
        let bugged = cfg.bug == PlantedBug::AckBeforePlacement && self.role != Role::Leader;
        let limit = match self.role {
            Role::Leader => self.commit.min(self.log_len),
            _ if bugged => self.commit_hint, // planted: no local-placement clamp
            _ => self.commit_hint.min(self.matched_cache),
        };
        while self.applied < limit {
            let i = self.applied + 1;
            let Ok(slot) = self.log.read_vec(slot_off(i), SLOT_BYTES) else { break };
            let crc = crc32c(&slot[REC_HDR_BYTES..]);
            let (term, seq, kind) = match decode_hdr(&slot) {
                Some(hdr) => {
                    let seq = if hdr.kind == RecordKind::Client && hdr.len >= 8 {
                        u64::from_le_bytes(slot[REC_HDR_BYTES..REC_HDR_BYTES + 8].try_into().unwrap())
                    } else {
                        0
                    };
                    (hdr.entry_term, seq, hdr.kind)
                }
                None if bugged => (0, 0, RecordKind::Client), // applies garbage
                None => break,
            };
            history.events.push(Event::Applied {
                tick: now,
                replica: self.id,
                index: i,
                term,
                seq,
                crc,
                kind,
            });
            self.applied = i;
            tel.replog_applies.inc();
        }
    }

    fn tick(&mut self, now: u64, cfg: &ReplogConfig, tel: &AppMetrics, history: &mut History) {
        // Drain each QP to quiescence, one datagram per `progress` call,
        // so every tick's protocol step sees the whole delivered backlog.
        for qp in [&self.ctl, &self.publ, &self.rec] {
            while qp.rx_backlog() > 0 {
                qp.progress(Duration::ZERO);
            }
        }
        // Drain and discard send completions (datagram sends complete at
        // the LLP hand-off; errors surface as protocol gaps, not here).
        while self.ctl.send_cq().poll().is_some() {}
        while self.publ.send_cq().poll().is_some() {}
        while self.rec.send_cq().poll().is_some() {}
        self.drain_pub(cfg);
        self.drain_ctl(now, cfg, tel);
        match self.role {
            Role::Leader => self.leader_step(now, cfg, tel, history),
            Role::Candidate => {
                if now.saturating_sub(self.vote_sent) >= cfg.candidate_round {
                    self.start_election(now, tel);
                }
            }
            Role::Follower => {
                self.follower_step(now, cfg, tel);
                if now >= self.election_at.max(self.guard) {
                    self.start_election(now, tel);
                }
            }
        }
        self.apply_step(now, cfg, tel, history);
    }

    /// True while this replica believes it holds the leader lease at `now`.
    fn holds_lease(&self, now: u64) -> bool {
        self.role == Role::Leader && self.lease_start <= now && now < self.lease_until
    }
}

// ---------------------------------------------------------------------------
// Cluster
// ---------------------------------------------------------------------------

struct Client {
    next_seq: u64,
    outstanding: Vec<(u64, u64)>, // (seq, last submit tick)
    committed: std::collections::BTreeSet<u64>,
}

/// Final run result.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Full event + lease history (the oracle's input).
    pub history: History,
    /// All client entries committed and applied everywhere.
    pub converged: bool,
    /// Ticks consumed.
    pub ticks: u64,
    /// Highest committed log index observed.
    pub max_commit: u64,
    /// Elections started during the run.
    pub elections: u64,
    /// Hole-reconciliation BulkRead transfers started during the run.
    pub refetch_transfers: u64,
    /// Publish operations posted during the run.
    pub publishes: u64,
}

/// A three-replica replicated-log cluster on a caller-owned fabric (the
/// caller installs fault plans and collects fault traces).
pub struct Cluster {
    cfg: ReplogConfig,
    replicas: Vec<Replica>,
    now: u64,
    history: History,
    client: Client,
    frozen: Option<(usize, u64)>,
    lease_open: [Option<(u64, u64)>; N_REPLICAS], // (term, start)
    tel: Telemetry,
    elections_at_start: u64,
    refetch_at_start: u64,
    publishes_at_start: u64,
}

impl Cluster {
    /// Builds the cluster: three replicas on fabric nodes 0..3, QPs bound,
    /// log regions registered with validity tracking, recvs pre-posted.
    pub fn new(fab: &Fabric, cfg: ReplogConfig) -> Self {
        assert!(cfg.payload <= PAYLOAD_AREA);
        assert!(cfg.max_log >= cfg.entries + 2);
        assert!(cfg.follow_timeout >= cfg.lease_ticks);
        let tel = fab.telemetry().clone();
        let elections_at_start = tel.app().replog_elections.get();
        let refetch_at_start = tel.app().replog_refetch_transfers.get();
        let publishes_at_start = tel.app().replog_publishes.get();
        let mut replicas: Vec<Replica> = (0..N_REPLICAS).map(|id| Replica::new(fab, id, &cfg)).collect();
        let peers: Vec<Peer> = replicas
            .iter()
            .map(|r| Peer { ctl: r.ctl.dest(), publ: r.publ.dest(), log_stag: r.log.stag() })
            .collect();
        for (id, r) in replicas.iter_mut().enumerate() {
            r.peers = peers.clone();
            // Stagger first elections deterministically.
            r.election_at = 10 + r.jitter(&cfg, 0);
            let _ = id;
        }
        Self {
            cfg,
            replicas,
            now: 0,
            history: History::default(),
            client: Client { next_seq: 1, outstanding: Vec::new(), committed: Default::default() },
            frozen: None,
            lease_open: [None; N_REPLICAS],
            tel,
            elections_at_start,
            refetch_at_start,
            publishes_at_start,
        }
    }

    /// Current tick.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// History so far (grows in place; stable indices).
    pub fn history(&self) -> &History {
        &self.history
    }

    fn try_propose(&mut self, seq: u64) {
        let now = self.now;
        let payload = client_payload(self.cfg.seed, seq, self.cfg.payload.max(8));
        // The client only talks to a replica that holds a valid lease.
        let Some(l) = (0..N_REPLICAS).find(|&r| self.replicas[r].holds_lease(now)) else { return };
        if self.frozen.is_some_and(|(f, _)| f == l) {
            return; // frozen process: client call would hang, model as refusal
        }
        if let Some((index, term, crc)) =
            self.replicas[l].client_append(seq, &payload, &self.cfg, self.tel.app())
        {
            self.history.events.push(Event::Proposed { tick: now, seq, index, term, crc });
        }
    }

    /// Advances the cluster one tick: freeze bookkeeping, client traffic,
    /// replica state machines, lease-interval recording.
    pub fn tick(&mut self) {
        self.now += 1;
        let now = self.now;
        // Freeze window: stop ticking the current leaseholder (or the
        // leader, or replica seed%3) to force a fail-over.
        if let Some((at, len)) = self.cfg.freeze {
            if now == at && self.frozen.is_none() {
                let victim = (0..N_REPLICAS)
                    .find(|&r| self.replicas[r].holds_lease(now))
                    .or_else(|| (0..N_REPLICAS).find(|&r| self.replicas[r].role == Role::Leader))
                    .unwrap_or((self.cfg.seed % N_REPLICAS as u64) as usize);
                self.frozen = Some((victim, at + len));
            }
        }
        if let Some((_, until)) = self.frozen {
            if now >= until {
                self.frozen = None;
            }
        }
        // Client: retire acks, retry stragglers, window new proposals.
        let committed = &self.client.committed;
        self.client.outstanding.retain(|(s, _)| !committed.contains(s));
        if now.is_multiple_of(self.cfg.propose_every) {
            if self.client.outstanding.len() < self.cfg.client_window
                && self.client.next_seq <= self.cfg.entries as u64
            {
                let seq = self.client.next_seq;
                self.client.next_seq += 1;
                self.client.outstanding.push((seq, now));
                self.try_propose(seq);
            }
            let retry_after = self.cfg.retry_after;
            let due: Vec<u64> = self
                .client
                .outstanding
                .iter()
                .filter(|(_, since)| now.saturating_sub(*since) >= retry_after)
                .map(|(s, _)| *s)
                .collect();
            for seq in due {
                for o in self.client.outstanding.iter_mut() {
                    if o.0 == seq {
                        o.1 = now;
                    }
                }
                self.try_propose(seq);
            }
        }
        // Replica state machines (frozen replica skipped entirely).
        let frozen_id = self.frozen.map(|(f, _)| f);
        let events_before = self.history.events.len();
        let (replicas, history, cfg, tel) = (
            &mut self.replicas,
            &mut self.history,
            &self.cfg,
            self.tel.app(),
        );
        for (r, rep) in replicas.iter_mut().enumerate() {
            if frozen_id == Some(r) {
                continue;
            }
            rep.tick(now, cfg, tel, history);
        }
        // Harvest fresh commit acks for the client.
        for e in &self.history.events[events_before..] {
            if let Event::Committed { kind: RecordKind::Client, seq, .. } = e {
                self.client.committed.insert(*seq);
            }
        }
        // Lease-interval recording (frozen replicas still count: their
        // lease claim persists while they are stalled).
        for r in 0..N_REPLICAS {
            let holds = self.replicas[r].holds_lease(now);
            let term = self.replicas[r].term;
            match (self.lease_open[r], holds) {
                (None, true) => self.lease_open[r] = Some((term, now)),
                (Some((t, start)), true) if t != term => {
                    self.history.leases.push(LeaseInterval { replica: r, term: t, start, end: now });
                    self.lease_open[r] = Some((term, now));
                }
                (Some((t, start)), false) => {
                    self.history.leases.push(LeaseInterval { replica: r, term: t, start, end: now });
                    self.lease_open[r] = None;
                }
                _ => {}
            }
        }
    }

    /// Max committed index seen so far.
    fn max_commit(&self) -> u64 {
        self.history
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Committed { index, .. } => Some(*index),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// All client entries committed, and every replica has applied the
    /// whole committed prefix.
    pub fn converged(&self) -> bool {
        if self.client.committed.len() < self.cfg.entries {
            return false;
        }
        let mc = self.max_commit();
        self.replicas.iter().all(|r| r.applied >= mc)
    }

    /// Runs to convergence or the tick budget and returns the outcome.
    pub fn run(&mut self) -> RunOutcome {
        while self.now < self.cfg.ticks {
            self.tick();
            if self.converged() {
                break;
            }
        }
        // Close any leases still open at the end of the run.
        let now = self.now;
        for r in 0..N_REPLICAS {
            if let Some((t, start)) = self.lease_open[r].take() {
                self.history.leases.push(LeaseInterval {
                    replica: r,
                    term: t,
                    start,
                    end: now + 1,
                });
            }
        }
        RunOutcome {
            history: self.history.clone(),
            converged: self.converged(),
            ticks: self.now,
            max_commit: self.max_commit(),
            elections: self.tel.app().replog_elections.get() - self.elections_at_start,
            refetch_transfers: self.tel.app().replog_refetch_transfers.get()
                - self.refetch_at_start,
            publishes: self.tel.app().replog_publishes.get() - self.publishes_at_start,
        }
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::WireConfig;

    fn quiet_run(path: PublishPath, freeze: Option<(u64, u64)>) -> RunOutcome {
        let fab = Fabric::new(WireConfig::default());
        let cfg = ReplogConfig {
            entries: 12,
            propose_every: 5,
            path,
            freeze,
            ticks: 20_000,
            ..Default::default()
        };
        let mut cl = Cluster::new(&fab, cfg);
        cl.run()
    }

    fn assert_lease_exclusive(h: &History) {
        for (i, a) in h.leases.iter().enumerate() {
            for b in h.leases.iter().skip(i + 1) {
                if a.replica != b.replica {
                    assert!(
                        a.end <= b.start || b.end <= a.start,
                        "overlapping leases: {a:?} vs {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn write_record_quiet_converges() {
        let out = quiet_run(PublishPath::WriteRecord, None);
        assert!(out.converged, "unconverged after {} ticks", out.ticks);
        assert!(out.max_commit >= 13, "12 client entries + reign no-op");
        assert_lease_exclusive(&out.history);
    }

    #[test]
    fn two_sided_quiet_converges() {
        let out = quiet_run(PublishPath::TwoSided, None);
        assert!(out.converged, "unconverged after {} ticks", out.ticks);
        assert_lease_exclusive(&out.history);
    }

    #[test]
    fn freeze_forces_failover_and_still_converges() {
        let out = quiet_run(PublishPath::WriteRecord, Some((400, 900)));
        assert!(out.converged, "unconverged after {} ticks", out.ticks);
        // The freeze must have produced a second reign.
        let max_term = out
            .history
            .leases
            .iter()
            .map(|l| l.term)
            .max()
            .unwrap_or(0);
        assert!(max_term >= 2, "no fail-over happened (max term {max_term})");
        assert_lease_exclusive(&out.history);
        // No client entry may be lost across the fail-over: every acked
        // seq has a Committed event and all replicas applied the prefix.
        let mut seqs: Vec<u64> = out
            .history
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Committed { kind: RecordKind::Client, seq, .. } => Some(*seq),
                _ => None,
            })
            .collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs, (1..=12).collect::<Vec<u64>>());
    }

    #[test]
    fn record_codec_roundtrip_and_torn_slot_fails_crc() {
        let payload = client_payload(7, 42, 700);
        let slot = build_slot(5, 3, 4, RecordKind::Client, &payload);
        let hdr = decode_hdr(&slot).unwrap();
        assert_eq!(hdr.index, 5);
        assert_eq!(hdr.entry_term, 3);
        assert_eq!(hdr.pub_term, 4);
        assert_eq!(hdr.len, 700);
        assert_eq!(hdr.kind, RecordKind::Client);
        assert_eq!(hdr.crc, crc32c(&slot[REC_HDR_BYTES..]));
        // Torn slot: splice the tail of a different record in — the CRC
        // must catch it even though every byte is "valid".
        let other = build_slot(5, 9, 9, RecordKind::Client, &client_payload(7, 43, 700));
        let mut torn = slot.clone();
        torn[400..740].copy_from_slice(&other[400..740]);
        let thdr = decode_hdr(&torn).unwrap();
        assert_ne!(crc32c(&torn[REC_HDR_BYTES..]), thdr.crc);
    }

    #[test]
    fn ctl_codec_roundtrip() {
        let msgs = [
            CtlMsg::VoteReq { term: 7, last_term: 3, log_len: 40 },
            CtlMsg::VoteGrant { term: 7, shadow: 1234 },
            CtlMsg::Heartbeat { term: 7, high_water: 11, commit: 9, sent: 500 },
            CtlMsg::HbAck { term: 7, matched: 11, sent: 500 },
        ];
        for (i, m) in msgs.iter().enumerate() {
            let b = encode_ctl(i % N_REPLICAS, m);
            assert_eq!(b.len(), CTL_BYTES);
            let (from, d) = decode_ctl(&b).unwrap();
            assert_eq!(from, i % N_REPLICAS);
            assert_eq!(format!("{d:?}"), format!("{m:?}"));
        }
        assert!(decode_ctl(&[0u8; 10]).is_none());
    }
}
