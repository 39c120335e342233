//! The schedule-randomizing chaos harness.
//!
//! [`run_plan`] drives the full verbs stack (untagged sends, RDMA
//! Write-Records, RDMA Reads) and the socket shim over fabrics with a
//! seeded [`FaultPlan`] installed, then runs every invariant check from
//! [`crate::invariants`] against the final state. Everything is
//! deterministic: poll-mode QPs (no engine threads), a latency-free
//! fabric (synchronous delivery), and per-link fault RNG streams mean
//! the same seed always produces the same fault trace and the same
//! verdict — `chaos --replay <seed>` reproduces a failure byte-for-byte.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use bytes::Bytes;
use iwarp::read::{BulkRead, BulkReadConfig, RecoveryConfig, SignalInterval};
use iwarp::wr::RecvWr;
use iwarp::{Access, Cq, Cqe, CqeOpcode, CqeStatus, Device, QpConfig, UdQp};
use iwarp_common::rng::{derive_seed, mix64};
use iwarp_socket::{SocketConfig, SocketStack};
use simnet::rdgram::RdConfig;
use simnet::stream::StreamConfig;
use simnet::{
    Addr, CcAlgo, Fabric, FaultEvent, FaultPlan, NodeId, RdConduit, StreamConduit,
    StreamListener, WireConfig,
};

use crate::invariants::{
    check_conservation, check_cq_discipline, check_datagram_boundaries,
    check_read_reconciliation, check_recv_accounting, check_window_contents,
    check_write_record_cqes, PostedRead, Violation, WriteWindow,
};

/// Byte value guard zones are filled with before the run; any other value
/// found outside a claimed range after the run is a placement escape.
pub const SENTINEL: u8 = 0xA5;

/// Per-message window stride in the tagged/untagged sink regions — large
/// enough for the biggest workload message plus a guard gap.
const SLOT: usize = 176 * 1024;

/// Workload message sizes, sampled per message. Mixes sub-MTU, one-
/// datagram, exactly-64KiB-boundary, and multi-datagram messages.
const SIZES: [usize; 6] = [32, 700, 4_000, 30_000, 66_000, 150_000];

/// How long the drive loop may go without a single new completion before
/// the phase is considered quiescent. Must exceed the QP TTLs (60 ms)
/// plus the receive engine's 50 ms expiry-sweep throttle.
const QUIET: Duration = Duration::from_millis(170);

/// Hard per-phase deadline (a liveness backstop, never the common exit).
const DEADLINE: Duration = Duration::from_secs(4);

/// Knobs for one plan run.
#[derive(Clone, Debug)]
pub struct ChaosOpts {
    /// Untagged sends in the verbs phase.
    pub send_msgs: usize,
    /// RDMA Write-Records in the verbs phase.
    pub write_msgs: usize,
    /// RDMA Reads in the verbs phase.
    pub read_msgs: usize,
    /// Datagrams in the socket phase.
    pub dgrams: usize,
    /// Batches the bulk-read phase streams through the read engine.
    pub bulk_batches: u64,
    /// Collect a telemetry forensic dump (trace + snapshot) for failures.
    pub forensic: bool,
    /// Congestion-control algorithm the reliable phase's stream and
    /// rdgram conduits run under. The verbs and socket phases never touch
    /// the reliable transports, so their fault traces are byte-identical
    /// across every `CcAlgo` value (see `tests/determinism.rs`).
    pub cc: CcAlgo,
}

impl Default for ChaosOpts {
    fn default() -> Self {
        Self {
            send_msgs: 6,
            write_msgs: 6,
            read_msgs: 2,
            dgrams: 30,
            bulk_batches: 24,
            forensic: false,
            cc: CcAlgo::Fixed,
        }
    }
}

/// Verbs-phase outcome counts (diagnostic, not part of the verdict).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VerbsSummary {
    /// Posted receives completed successfully.
    pub recv_success: usize,
    /// Posted receives recovered by timeout.
    pub recv_expired: usize,
    /// Target-side Write-Record completions (success + partial).
    pub write_cqes: usize,
    /// ... of which fully placed.
    pub write_success: usize,
    /// ... of which partially placed.
    pub write_partial: usize,
    /// Reads completed with data.
    pub read_success: usize,
    /// Reads expired.
    pub read_expired: usize,
    /// Receiver-side CRC rejections (chaos corruption caught in flight).
    pub crc_errors: u64,
    /// Receiver-side malformed-segment rejections (truncation, mangled
    /// headers).
    pub malformed: u64,
}

/// Socket-phase outcome counts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SocketSummary {
    /// Datagrams sent.
    pub sent: usize,
    /// Datagrams surfaced at the receiver.
    pub received: usize,
}

/// Bulk-read-phase outcome counts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BulkReadSummary {
    /// Batches the streaming transfer was split into.
    pub batches: u64,
    /// Batch reposts the recovery engine drove to absorb the adversary.
    pub reposts: u64,
    /// Standalone reads that delivered data (Success CQE or silent
    /// retirement).
    pub solo_success: usize,
    /// Standalone reads that expired (TTL fired — denied or lost).
    pub solo_expired: usize,
}

/// Reliable-phase outcome counts (stream + rdgram under the adversary).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReliableSummary {
    /// Stream bytes verified exact, both directions combined.
    pub stream_bytes: usize,
    /// Reliable-datagram messages verified in order and intact.
    pub rd_msgs: usize,
}

/// Everything one plan run produced: the verdict plus the evidence
/// needed to reproduce and diagnose it.
#[derive(Clone, Debug)]
pub struct PlanReport {
    /// The plan seed (replay key).
    pub seed: u64,
    /// The derived adversary configuration.
    pub plan: FaultPlan,
    /// Invariant violations (empty = the run passed).
    pub violations: Vec<Violation>,
    /// Verbs-phase fault trace (deterministic per seed).
    pub fault_trace: Vec<FaultEvent>,
    /// Socket-phase fault trace (deterministic per seed).
    pub socket_fault_trace: Vec<FaultEvent>,
    /// Bulk-read-phase fault trace. Deterministic per seed: the read
    /// engine runs on a synthetic loop-counter clock with a fixed drive
    /// order, so even its RTO-driven repost schedule replays
    /// byte-for-byte.
    pub read_fault_trace: Vec<FaultEvent>,
    /// Reliable-phase fault trace. Diagnostic only: retransmission timing
    /// is wall-clock, so unlike the verbs/socket traces the reliable
    /// packet schedule is not replay-stable.
    pub reliable_fault_trace: Vec<FaultEvent>,
    /// Verbs-phase outcome counts.
    pub verbs: VerbsSummary,
    /// Socket-phase outcome counts.
    pub socket: SocketSummary,
    /// Bulk-read-phase outcome counts.
    pub bulk: BulkReadSummary,
    /// Reliable-phase outcome counts.
    pub reliable: ReliableSummary,
    /// Telemetry forensics, when [`ChaosOpts::forensic`] was set.
    pub forensic: Option<String>,
}

impl PlanReport {
    /// True when every invariant held.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Renders the failure evidence: seed, verdicts, and the minimal
    /// fault trace needed to replay.
    #[must_use]
    pub fn render_failure(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        if self.ok() {
            let _ = writeln!(s, "chaos plan report — seed {}", self.seed);
        } else {
            let _ = writeln!(s, "chaos plan FAILED — replay with: chaos --replay {}", self.seed);
        }
        let _ = writeln!(s, "plan: {:?}", self.plan);
        for v in &self.violations {
            let _ = writeln!(s, "  {v}");
        }
        // The reliable phase runs on wall-clock timers, so its fault count
        // can differ run to run; it is evidence only when a plan failed.
        // Left out of a passing report, the report is byte-stable.
        let reliable = if self.ok() {
            String::new()
        } else {
            format!(", {} reliable events", self.reliable_fault_trace.len())
        };
        let _ = writeln!(
            s,
            "fault trace ({} verbs events, {} socket events, {} read events{reliable}):",
            self.fault_trace.len(),
            self.socket_fault_trace.len(),
            self.read_fault_trace.len(),
        );
        for e in &self.fault_trace {
            let _ = writeln!(s, "  [verbs]  {e}");
        }
        for e in &self.socket_fault_trace {
            let _ = writeln!(s, "  [socket] {e}");
        }
        for e in &self.read_fault_trace {
            let _ = writeln!(s, "  [read]   {e}");
        }
        if let Some(f) = &self.forensic {
            let _ = writeln!(s, "{f}");
        }
        s
    }
}

/// Deterministic message body for tag `tag`: the first 16 bytes embed
/// `(tag, len)` so untagged receivers can self-identify the message that
/// landed in a window; the rest is a `mix64` keystream.
fn msg_bytes(tag: u64, len: usize) -> Vec<u8> {
    let mut v = Vec::with_capacity(len);
    let mut word = 0u64;
    for k in 0..len {
        if k % 8 == 0 {
            word = mix64(tag ^ (k as u64 / 8));
        }
        v.push((word >> ((k % 8) * 8)) as u8);
    }
    if len >= 16 {
        v[..8].copy_from_slice(&tag.to_le_bytes());
        v[8..16].copy_from_slice(&(len as u64).to_le_bytes());
    }
    v
}

fn pick_size(stream: &mut u64) -> usize {
    *stream = mix64(*stream);
    SIZES[(*stream % SIZES.len() as u64) as usize]
}

struct DriveCqs<'a> {
    b_recv: &'a Cq,
    a_recv: &'a Cq,
    a_send: &'a Cq,
    b_send: &'a Cq,
}

/// Drives both poll-mode QPs and drains every CQ until no completion has
/// arrived for [`QUIET`] (or [`DEADLINE`] passes). Returns the drained
/// completions per queue.
fn drive_until_quiet(
    qa: &UdQp,
    qb: &UdQp,
    cqs: &DriveCqs<'_>,
    sink_recv_cqes: &mut Vec<Cqe>,
    read_cqes: &mut Vec<Cqe>,
    send_cqes: &mut Vec<Cqe>,
) {
    let start = Instant::now();
    let mut last_event = Instant::now();
    loop {
        qb.progress(Duration::from_millis(1));
        qa.progress(Duration::from_millis(1));
        let mut any = false;
        while let Some(c) = cqs.b_recv.poll() {
            sink_recv_cqes.push(c);
            any = true;
        }
        while let Some(c) = cqs.a_recv.poll() {
            read_cqes.push(c);
            any = true;
        }
        while let Some(c) = cqs.a_send.poll() {
            send_cqes.push(c);
            any = true;
        }
        while cqs.b_send.poll().is_some() {
            any = true;
        }
        let now = Instant::now();
        if any {
            last_event = now;
        }
        if now.duration_since(last_event) > QUIET || now.duration_since(start) > DEADLINE {
            return;
        }
    }
}

/// Runs the verbs + socket stacks under the adversary derived from
/// `seed` and returns the full report.
#[must_use]
pub fn run_plan(seed: u64, opts: &ChaosOpts) -> PlanReport {
    let plan = FaultPlan::from_seed(seed);
    let mut violations = Vec::new();

    // ---- Verbs phase -----------------------------------------------
    let fab = Fabric::new(WireConfig::default());
    fab.install_fault_plan(plan.clone());
    if opts.forensic {
        fab.telemetry().tracer().enable_all();
    }
    let qp_cfg = QpConfig {
        poll_mode: true,
        recv_ttl: Duration::from_millis(60),
        record_ttl: Duration::from_millis(60),
        read_ttl: Duration::from_millis(60),
        ..QpConfig::default()
    };
    let a = Device::new(&fab, NodeId(0));
    let b = Device::new(&fab, NodeId(1));
    let (a_send, a_recv) = (Cq::new(4096), Cq::new(4096));
    let (b_send, b_recv) = (Cq::new(4096), Cq::new(4096));
    let qa = a
        .create_ud_qp(None, &a_send, &a_recv, qp_cfg.clone())
        .expect("create qa");
    let qb = b
        .create_ud_qp(None, &b_send, &b_recv, qp_cfg)
        .expect("create qb");

    let mut size_stream = derive_seed(seed, 3);

    // Untagged sends land in per-WR windows of `sink_recv`.
    let sends: Vec<Vec<u8>> = (0..opts.send_msgs)
        .map(|i| msg_bytes(derive_seed(seed, 100 + i as u64), pick_size(&mut size_stream)))
        .collect();
    let send_by_tag: HashMap<u64, usize> = (0..opts.send_msgs)
        .map(|i| (derive_seed(seed, 100 + i as u64), i))
        .collect();
    let sink_recv = b.register(opts.send_msgs * SLOT, Access::Local);
    sink_recv.fill(SENTINEL);
    let posted_recv_ids: Vec<u64> = (0..opts.send_msgs).map(|i| 100 + i as u64).collect();
    for (i, id) in posted_recv_ids.iter().enumerate() {
        qb.post_recv(RecvWr {
            wr_id: *id,
            mr: sink_recv.clone(),
            offset: (i * SLOT) as u64,
            len: SLOT as u32,
        })
        .expect("post recv");
    }

    // Write-Records land in per-message windows of `sink_wr`.
    let writes: Vec<Vec<u8>> = (0..opts.write_msgs)
        .map(|i| msg_bytes(derive_seed(seed, 200 + i as u64), pick_size(&mut size_stream)))
        .collect();
    let sink_wr = b.register(opts.write_msgs * SLOT, Access::RemoteWrite);
    sink_wr.fill(SENTINEL);
    let write_windows: Vec<WriteWindow> = writes
        .iter()
        .enumerate()
        .map(|(i, data)| WriteWindow {
            stag: sink_wr.stag(),
            base_to: (i * SLOT) as u64,
            data: data.clone(),
        })
        .collect();

    // Reads fetch disjoint ranges of `read_src` into `read_sink` windows.
    let read_len: usize = 10_000;
    let read_src_data = msg_bytes(derive_seed(seed, 300), opts.read_msgs.max(1) * read_len);
    let read_src = b.register_with(&read_src_data, Access::RemoteRead);
    let read_sink = a.register(opts.read_msgs.max(1) * SLOT, Access::Local);
    read_sink.fill(SENTINEL);

    // Post everything in a fixed order (the deterministic schedule).
    let mut posted_send_ids = Vec::new();
    for (i, data) in sends.iter().enumerate() {
        let id = i as u64;
        qa.post_send(id, Bytes::from(data.clone()), qb.dest())
            .expect("post send");
        posted_send_ids.push(id);
    }
    for (i, data) in writes.iter().enumerate() {
        let id = 1000 + i as u64;
        qa.post_write_record(
            id,
            Bytes::from(data.clone()),
            qb.dest(),
            sink_wr.stag(),
            (i * SLOT) as u64,
        )
        .expect("post write-record");
        posted_send_ids.push(id);
    }
    let read_ids: Vec<u64> = (0..opts.read_msgs).map(|i| 2000 + i as u64).collect();
    for (i, id) in read_ids.iter().enumerate() {
        qa.post_read(
            *id,
            &read_sink,
            (i * SLOT) as u64,
            read_len as u32,
            qb.dest(),
            read_src.stag(),
            (i * read_len) as u64,
        )
        .expect("post read");
    }

    let cqs = DriveCqs {
        b_recv: &b_recv,
        a_recv: &a_recv,
        a_send: &a_send,
        b_send: &b_send,
    };
    let mut recv_cqes = Vec::new();
    let mut read_side_cqes = Vec::new();
    let mut send_cqes = Vec::new();
    drive_until_quiet(&qa, &qb, &cqs, &mut recv_cqes, &mut read_side_cqes, &mut send_cqes);
    // Release reorder holds, then let the stacks settle again (released
    // packets can complete messages or start TTL clocks).
    fab.chaos_flush();
    drive_until_quiet(&qa, &qb, &cqs, &mut recv_cqes, &mut read_side_cqes, &mut send_cqes);

    // -- Invariants over the verbs phase --
    violations.extend(check_conservation(&fab));

    let wr_cqes: Vec<Cqe> = recv_cqes
        .iter()
        .filter(|c| c.opcode == CqeOpcode::WriteRecord)
        .cloned()
        .collect();
    violations.extend(check_write_record_cqes(&wr_cqes, &write_windows, &sink_wr));
    violations.extend(check_window_contents(&sink_wr, &write_windows, SENTINEL));

    // Untagged windows: Success completions must contain exactly one
    // sent message, self-identified by its embedded tag.
    let mut recv_windows: Vec<WriteWindow> = Vec::new();
    let mut verbs = VerbsSummary::default();
    for cqe in recv_cqes.iter().filter(|c| c.opcode == CqeOpcode::Recv) {
        let win_base = (cqe.wr_id - 100) * SLOT as u64;
        match cqe.status {
            CqeStatus::Success => {
                verbs.recv_success += 1;
                let got = sink_recv
                    .read_vec(win_base, cqe.byte_len as usize)
                    .expect("window read in bounds");
                let tag = u64::from_le_bytes(got[..8].try_into().expect("len >= 16"));
                match send_by_tag.get(&tag) {
                    Some(&idx) if sends[idx] == got => {
                        recv_windows.push(WriteWindow {
                            stag: sink_recv.stag(),
                            base_to: win_base,
                            data: got,
                        });
                    }
                    _ => violations.push(Violation {
                        invariant: "recv-content",
                        detail: format!(
                            "recv wr_id={} delivered {} bytes matching no sent message",
                            cqe.wr_id, cqe.byte_len
                        ),
                    }),
                }
            }
            CqeStatus::Expired => {
                verbs.recv_expired += 1;
                // Partial placement-on-arrival is legitimate; accept the
                // window as-is but keep the guard area strict.
                let got = sink_recv
                    .read_vec(win_base, SLOT)
                    .expect("window read in bounds");
                recv_windows.push(WriteWindow {
                    stag: sink_recv.stag(),
                    base_to: win_base,
                    data: got,
                });
            }
            other => violations.push(Violation {
                invariant: "recv-accounting",
                detail: format!("recv wr_id={} completed with {other:?}", cqe.wr_id),
            }),
        }
    }
    violations.extend(check_window_contents(&sink_recv, &recv_windows, SENTINEL));

    let recv_consumed = recv_cqes
        .iter()
        .filter(|c| c.opcode == CqeOpcode::Recv)
        .count();
    violations.extend(check_recv_accounting(
        posted_recv_ids.len(),
        recv_consumed,
        qb.posted_recvs(),
    ));
    violations.extend(check_cq_discipline(
        &recv_cqes,
        &posted_recv_ids,
        &send_cqes,
        &posted_send_ids,
    ));

    // Reads: completions are unique per wr_id; successful reads must have
    // fetched the exact source bytes.
    violations.extend(check_cq_discipline(&read_side_cqes, &read_ids, &[], &[]));
    let mut read_windows: Vec<WriteWindow> = Vec::new();
    for cqe in &read_side_cqes {
        if cqe.opcode != CqeOpcode::RdmaRead {
            violations.push(Violation {
                invariant: "cq-uniqueness",
                detail: format!("unexpected {:?} on the read-side CQ", cqe.opcode),
            });
            continue;
        }
        let i = (cqe.wr_id - 2000) as usize;
        match cqe.status {
            CqeStatus::Success => {
                verbs.read_success += 1;
                let got = read_sink
                    .read_vec((i * SLOT) as u64, read_len)
                    .expect("read window in bounds");
                if got != read_src_data[i * read_len..(i + 1) * read_len] {
                    violations.push(Violation {
                        invariant: "read-content",
                        detail: format!("read wr_id={} returned wrong bytes", cqe.wr_id),
                    });
                } else {
                    read_windows.push(WriteWindow {
                        stag: read_sink.stag(),
                        base_to: (i * SLOT) as u64,
                        data: got,
                    });
                }
            }
            CqeStatus::Expired => {
                verbs.read_expired += 1;
                let got = read_sink
                    .read_vec((i * SLOT) as u64, SLOT)
                    .expect("read window in bounds");
                read_windows.push(WriteWindow {
                    stag: read_sink.stag(),
                    base_to: (i * SLOT) as u64,
                    data: got,
                });
            }
            other => violations.push(Violation {
                invariant: "cq-uniqueness",
                detail: format!("read wr_id={} completed with {other:?}", cqe.wr_id),
            }),
        }
    }
    violations.extend(check_window_contents(&read_sink, &read_windows, SENTINEL));

    for cqe in &wr_cqes {
        verbs.write_cqes += 1;
        match cqe.status {
            CqeStatus::Success => verbs.write_success += 1,
            CqeStatus::Partial => verbs.write_partial += 1,
            _ => {}
        }
    }
    verbs.crc_errors = qb.stats().crc_errors.load(Ordering::Relaxed)
        + qa.stats().crc_errors.load(Ordering::Relaxed);
    verbs.malformed = qb.stats().malformed.load(Ordering::Relaxed)
        + qa.stats().malformed.load(Ordering::Relaxed);

    let fault_trace = fab.fault_trace();
    let forensic = if opts.forensic && !violations.is_empty() {
        Some(format!(
            "{}\n{}",
            fab.telemetry().snapshot(),
            fab.telemetry().tracer().dump()
        ))
    } else {
        None
    };

    // ---- Socket phase ----------------------------------------------
    let (socket, socket_fault_trace) = {
        let sfab = Fabric::new(WireConfig::default());
        sfab.install_fault_plan(FaultPlan::from_seed(derive_seed(seed, 4)));
        let cfg = SocketConfig {
            qp: QpConfig {
                poll_mode: true,
                recv_ttl: Duration::from_millis(60),
                ..QpConfig::default()
            },
            ..SocketConfig::default()
        };
        let sa = SocketStack::with_config(&sfab, NodeId(0), Default::default(), cfg.clone());
        let sb = SocketStack::with_config(&sfab, NodeId(1), Default::default(), cfg);
        let tx = sa.dgram().expect("tx socket");
        let rx = sb.dgram_bound(4000).expect("rx socket");
        let max = rx.max_datagram();
        let mut sent: Vec<Vec<u8>> = Vec::new();
        let mut received: Vec<Vec<u8>> = Vec::new();
        let mut buf = vec![0u8; max];
        let mut s = derive_seed(seed, 5);
        for i in 0..opts.dgrams {
            s = mix64(s);
            let len = 16 + (s as usize) % (max - 16);
            let d = msg_bytes(derive_seed(seed, 400 + i as u64), len);
            tx.send_to(&d, rx.local_addr()).expect("socket send");
            sent.push(d);
            // Interleave receives so the 16 pre-posted slots recycle.
            while let Ok(Some((n, _src))) = rx.try_recv_from(&mut buf) {
                received.push(buf[..n].to_vec());
            }
        }
        sfab.chaos_flush();
        let deadline = Instant::now() + DEADLINE;
        let mut last = Instant::now();
        while last.elapsed() < QUIET && Instant::now() < deadline {
            match rx.try_recv_from(&mut buf) {
                Ok(Some((n, _src))) => {
                    received.push(buf[..n].to_vec());
                    last = Instant::now();
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                Err(_) => break,
            }
        }
        violations.extend(check_datagram_boundaries(&sent, &received));
        violations.extend(check_conservation(&sfab));
        (
            SocketSummary {
                sent: sent.len(),
                received: received.len(),
            },
            sfab.fault_trace(),
        )
    };

    // ---- Bulk-read phase -------------------------------------------
    // The streaming read engine under the adversary: the transfer must
    // complete byte-exactly (drops, corruption and reorder absorbed by
    // scoreboard reposts — CRC rejections surface as missing segments
    // the engine re-fetches), place nothing outside its sink window,
    // and never overflow the deliberately small receive CQ. Standalone
    // reads then reconcile terminal states: every posted read ends in
    // exactly one of {Success CQE, Expired CQE, silent retirement}.
    let (bulk, read_fault_trace) = {
        let bfab = Fabric::new(WireConfig::default());
        bfab.install_fault_plan(FaultPlan::from_seed(derive_seed(seed, 8)));
        let bcfg = QpConfig {
            poll_mode: true,
            // Loss recovery is the engine's job; the TTL is a backstop
            // that must not race the repost schedule.
            read_ttl: Duration::from_secs(30),
            ..QpConfig::default()
        };
        let ba = Device::new(&bfab, NodeId(0));
        let bb = Device::new(&bfab, NodeId(1));
        // Small on purpose: the signal-placement admission rule is live.
        let bulk_recv = Cq::new(8);
        let bqa = ba
            .create_ud_qp(None, &Cq::new(256), &bulk_recv, bcfg.clone())
            .expect("create bulk requester");
        let bqb = bb
            .create_ud_qp(None, &Cq::new(256), &Cq::new(256), bcfg.clone())
            .expect("create bulk responder");

        const BULK_BATCH: u32 = 8 * 1024;
        const BULK_GUARD: usize = 4 * 1024;
        let total = (opts.bulk_batches * u64::from(BULK_BATCH)) as usize;
        let bulk_src_data = msg_bytes(derive_seed(seed, 700), total);
        let bulk_src = bb.register_with(&bulk_src_data, Access::RemoteRead);
        let bulk_sink = ba.register(total + 2 * BULK_GUARD, Access::Local);
        bulk_sink.fill(SENTINEL);

        let mut xfer = BulkRead::new(
            BulkReadConfig {
                batch_bytes: BULK_BATCH,
                window: 8,
                signal: SignalInterval::Every(2),
                recovery: RecoveryConfig {
                    initial_rto: Duration::from_millis(40),
                    min_rto: Duration::from_millis(20),
                    max_rto: Duration::from_millis(400),
                    // Partition windows run up to 44 packets (see the
                    // reliable phase); budget retries above that.
                    max_retries: 64,
                    ..RecoveryConfig::default()
                },
                base_wr_id: 3000,
            },
            &bulk_sink,
            BULK_GUARD as u64,
            total as u64,
            bqb.dest(),
            bulk_src.stag(),
            0,
        );
        let mut summary = BulkReadSummary {
            batches: xfer.batches(),
            ..BulkReadSummary::default()
        };

        // Fixed drive order on a synthetic loop-counter clock: the
        // iteration count is the only time source the engine sees, so
        // the repost schedule — and with it the fault trace — replays
        // byte-for-byte per seed.
        let mut finished = false;
        for iter in 0..40_000u64 {
            bqb.progress(Duration::ZERO);
            bqa.progress(Duration::ZERO);
            match xfer.step(&bqa, Duration::from_millis(iter)) {
                Ok(true) => {
                    finished = true;
                    break;
                }
                Ok(false) => {}
                Err(e) => {
                    violations.push(Violation {
                        invariant: "bulk-read-liveness",
                        detail: format!("engine error: {e:?}"),
                    });
                    break;
                }
            }
        }
        let report = xfer.report();
        summary.reposts = report.reposts;
        if !finished || report.dead {
            violations.push(Violation {
                invariant: "bulk-read-liveness",
                detail: format!(
                    "transfer did not complete (finished={finished} dead={} \
                     {}/{} batches, {} reposts)",
                    report.dead,
                    xfer.completed(),
                    xfer.batches(),
                    report.reposts
                ),
            });
        }
        if let Err(d) = xfer.check_scoreboard() {
            violations.push(Violation {
                invariant: "bulk-read-scoreboard",
                detail: d,
            });
        }
        if bulk_recv.overflows() != 0 {
            violations.push(Violation {
                invariant: "read-cq-admission",
                detail: format!(
                    "{} completions dropped from the capacity-{} read CQ",
                    bulk_recv.overflows(),
                    bulk_recv.capacity()
                ),
            });
        }
        if finished && !report.dead {
            let got = bulk_sink
                .read_vec(BULK_GUARD as u64, total)
                .expect("bulk sink read in bounds");
            if got != bulk_src_data {
                violations.push(Violation {
                    invariant: "read-content",
                    detail: "bulk transfer delivered wrong bytes".into(),
                });
            }
        }
        // Placement bounds: inside the transfer window every byte is
        // source-or-sentinel; the guard zones stay untouched.
        violations.extend(check_window_contents(
            &bulk_sink,
            &[WriteWindow {
                stag: bulk_sink.stag(),
                base_to: BULK_GUARD as u64,
                data: bulk_src_data.clone(),
            }],
            SENTINEL,
        ));

        // Standalone reads on the same adversarial fabric, short-TTL QPs:
        // two against readable memory (signaled + unsignaled), two
        // against a Local-only region the responder must deny.
        let solo_cfg = QpConfig {
            poll_mode: true,
            read_ttl: Duration::from_millis(150),
            ..QpConfig::default()
        };
        let solo_recv = Cq::new(8);
        let sqa = ba
            .create_ud_qp(None, &Cq::new(64), &solo_recv, solo_cfg.clone())
            .expect("create solo requester");
        let sqb = bb
            .create_ud_qp(None, &Cq::new(64), &Cq::new(64), solo_cfg)
            .expect("create solo responder");
        let denied = bb.register(8 * 1024, Access::Local);
        const SOLO_LEN: u32 = 6000;
        const SOLO_SLOT: u64 = 16 * 1024;
        let solo_sink = ba.register(4 * SOLO_SLOT as usize, Access::Local);
        solo_sink.fill(SENTINEL);
        let posted_reads = [
            PostedRead { wr_id: 4000, signaled: true, len: SOLO_LEN },
            PostedRead { wr_id: 4001, signaled: false, len: SOLO_LEN },
            PostedRead { wr_id: 4002, signaled: true, len: SOLO_LEN },
            PostedRead { wr_id: 4003, signaled: false, len: SOLO_LEN },
        ];
        sqa.post_read(4000, &solo_sink, 0, SOLO_LEN, sqb.dest(), bulk_src.stag(), 0)
            .expect("post solo read");
        sqa.post_read_unsignaled(
            4001,
            &solo_sink,
            SOLO_SLOT,
            SOLO_LEN,
            sqb.dest(),
            bulk_src.stag(),
            u64::from(SOLO_LEN),
        )
        .expect("post solo read");
        sqa.post_read(4002, &solo_sink, 2 * SOLO_SLOT, SOLO_LEN, sqb.dest(), denied.stag(), 0)
            .expect("post solo read");
        sqa.post_read_unsignaled(
            4003,
            &solo_sink,
            3 * SOLO_SLOT,
            SOLO_LEN,
            sqb.dest(),
            denied.stag(),
            0,
        )
        .expect("post solo read");

        let mut solo_cqes: Vec<Cqe> = Vec::new();
        let mut solo_retired: Vec<u64> = Vec::new();
        let deadline = Instant::now() + DEADLINE;
        while solo_cqes.len() + solo_retired.len() < posted_reads.len()
            && Instant::now() < deadline
        {
            sqb.progress(Duration::from_millis(1));
            sqa.progress(Duration::from_millis(1));
            while let Some(c) = solo_recv.poll() {
                solo_cqes.push(c);
            }
            solo_retired.extend(sqa.take_retired_reads());
        }
        // Settle: a buggy double terminal would arrive late.
        let settle = Instant::now() + Duration::from_millis(120);
        while Instant::now() < settle {
            sqb.progress(Duration::from_millis(1));
            sqa.progress(Duration::from_millis(1));
            while let Some(c) = solo_recv.poll() {
                solo_cqes.push(c);
            }
            solo_retired.extend(sqa.take_retired_reads());
        }
        violations.extend(check_read_reconciliation(&posted_reads, &solo_cqes, &solo_retired));
        // Delivered solo reads must hold the exact source bytes; expired
        // ones may be partial (source-or-sentinel, checked below).
        let mut solo_windows: Vec<WriteWindow> = Vec::new();
        for (slot, src_off) in [(0u64, 0usize), (1, SOLO_LEN as usize)] {
            solo_windows.push(WriteWindow {
                stag: solo_sink.stag(),
                base_to: slot * SOLO_SLOT,
                data: bulk_src_data[src_off..src_off + SOLO_LEN as usize].to_vec(),
            });
        }
        for c in &solo_cqes {
            if c.status != CqeStatus::Success {
                continue;
            }
            let got = solo_sink
                .read_vec(0, SOLO_LEN as usize)
                .expect("solo window in bounds");
            if c.wr_id == 4000 && got != bulk_src_data[..SOLO_LEN as usize] {
                violations.push(Violation {
                    invariant: "read-content",
                    detail: "solo read wr_id=4000 delivered wrong bytes".into(),
                });
            }
        }
        if solo_retired.contains(&4001) {
            let got = solo_sink
                .read_vec(SOLO_SLOT, SOLO_LEN as usize)
                .expect("solo window in bounds");
            if got != bulk_src_data[SOLO_LEN as usize..2 * SOLO_LEN as usize] {
                violations.push(Violation {
                    invariant: "read-content",
                    detail: "solo read wr_id=4001 retired with wrong bytes".into(),
                });
            }
        }
        violations.extend(check_window_contents(&solo_sink, &solo_windows, SENTINEL));
        summary.solo_success = solo_cqes
            .iter()
            .filter(|c| c.status == CqeStatus::Success)
            .count()
            + solo_retired.len();
        summary.solo_expired = solo_cqes
            .iter()
            .filter(|c| c.status == CqeStatus::Expired)
            .count();

        // Release reorder holds, drain what lands, then audit packet
        // conservation over the whole phase.
        bfab.chaos_flush();
        for _ in 0..50 {
            bqb.progress(Duration::ZERO);
            bqa.progress(Duration::ZERO);
            sqb.progress(Duration::ZERO);
            sqa.progress(Duration::ZERO);
        }
        violations.extend(check_conservation(&bfab));
        (summary, bfab.fault_trace())
    };

    // ---- Reliable phase --------------------------------------------
    // Streams and reliable datagrams under the adversary: loss,
    // duplication and reordering must be fully absorbed by retransmission
    // — delivery is exact and in order, or the plan fails. Corruption and
    // truncation stages are disabled (these framings carry no CRC;
    // integrity under bit errors is the verbs phase's job), and the
    // conduits run under the configured congestion-control algorithm.
    let (reliable, reliable_fault_trace) = {
        let rfab = Fabric::new(WireConfig::default());
        let mut rplan = FaultPlan::from_seed(derive_seed(seed, 6));
        rplan.corrupt = 0.0;
        rplan.truncate = 0.0;
        rfab.install_fault_plan(rplan);
        let mut summary = ReliableSummary::default();

        // Byte stream, both directions concurrently.
        // Partition windows are counted in per-link *packets*, and
        // selective repeat burns through them one head retransmission per
        // RTO — so cap the backoff low (the simulated wire RTT is sub-ms)
        // and budget retries above the longest partition a plan can draw
        // (44 packets), else a mid-burst partition stalls or resets the
        // conduit instead of being absorbed.
        let scfg = StreamConfig {
            rto_initial: Duration::from_millis(5),
            rto_max: Duration::from_millis(30),
            max_retries: 64,
            cc: opts.cc,
            ..StreamConfig::default()
        };
        let c2s = msg_bytes(derive_seed(seed, 500), 24 * 1024);
        let s2c = msg_bytes(derive_seed(seed, 501), 16 * 1024);
        let listener = StreamListener::bind(&rfab, Addr::new(1, 700), scfg.clone())
            .expect("bind reliable listener");
        let mut stream_results: Vec<(&str, Result<(), String>)> = Vec::new();
        std::thread::scope(|sc| {
            let srv = sc.spawn(|| -> Result<(), String> {
                let server = listener
                    .accept(Some(Duration::from_secs(10)))
                    .map_err(|e| format!("accept: {e}"))?;
                let mut got = vec![0u8; c2s.len()];
                server
                    .read_exact(&mut got, Some(Duration::from_secs(20)))
                    .map_err(|e| format!("server read: {e}"))?;
                if got != c2s {
                    return Err("client->server stream bytes differ".into());
                }
                server.write_all(&s2c).map_err(|e| format!("server write: {e}"))?;
                // Hold the conduit open until the client has read
                // everything (its FIN lands as our EOF); dropping early
                // would stop retransmitting unacked tail segments.
                let mut eof = [0u8; 1];
                let _ = server.read(&mut eof, Some(Duration::from_secs(10)));
                Ok(())
            });
            let cli = sc.spawn(|| -> Result<(), String> {
                let client = StreamConduit::connect(&rfab, NodeId(0), Addr::new(1, 700), scfg.clone())
                    .map_err(|e| format!("connect: {e}"))?;
                client.write_all(&c2s).map_err(|e| format!("client write: {e}"))?;
                let mut got = vec![0u8; s2c.len()];
                client
                    .read_exact(&mut got, Some(Duration::from_secs(20)))
                    .map_err(|e| format!("client read: {e}"))?;
                if got != s2c {
                    return Err("server->client stream bytes differ".into());
                }
                client.close();
                Ok(())
            });
            stream_results
                .push(("server", srv.join().unwrap_or_else(|_| Err("thread panicked".into()))));
            stream_results
                .push(("client", cli.join().unwrap_or_else(|_| Err("thread panicked".into()))));
        });
        let mut stream_ok = true;
        for (side, r) in stream_results {
            if let Err(d) = r {
                stream_ok = false;
                violations.push(Violation {
                    invariant: "reliable-stream",
                    detail: format!("[{}] {side}: {d}", opts.cc),
                });
            }
        }
        if stream_ok {
            summary.stream_bytes = c2s.len() + s2c.len();
        }

        // Reliable datagrams: every message arrives exactly once, intact,
        // in send order.
        let rd_msgs = 64usize;
        let rcfg = RdConfig {
            window: 32,
            rto: Duration::from_millis(5),
            max_rto: Duration::from_millis(30),
            cc: opts.cc,
            ..RdConfig::default()
        };
        let ra = RdConduit::bind(&rfab, Addr::new(2, 701), rcfg.clone()).expect("bind rd tx");
        let rb = RdConduit::bind(&rfab, Addr::new(3, 701), rcfg).expect("bind rd rx");
        let msgs: Vec<Vec<u8>> = (0..rd_msgs)
            .map(|i| msg_bytes(derive_seed(seed, 600 + i as u64), 64 + (i * 37) % 1800))
            .collect();
        let mut rd_result: Result<usize, String> = Ok(0);
        let rd_sent = AtomicBool::new(false);
        std::thread::scope(|sc| {
            let rx = sc.spawn(|| -> Result<usize, String> {
                for (i, want) in msgs.iter().enumerate() {
                    let (_, d) = rb
                        .recv_from(Some(Duration::from_secs(20)))
                        .map_err(|e| format!("rd recv {i}: {e}"))?;
                    if d[..] != want[..] {
                        return Err(format!("rd message {i} reordered or corrupted"));
                    }
                }
                // The conduit runs only inside calls on it: keep
                // acknowledging retransmissions until the sender is done.
                while !rd_sent.load(Ordering::Acquire) {
                    if rb.recv_from(Some(Duration::from_millis(1))).is_ok() {
                        return Err("rd message delivered twice".into());
                    }
                }
                Ok(msgs.len())
            });
            for (i, m) in msgs.iter().enumerate() {
                if let Err(e) = ra.send_to(rb.local_addr(), Bytes::from(m.clone())) {
                    rd_result = Err(format!("rd send {i}: {e}"));
                    break;
                }
            }
            if rd_result.is_ok() {
                if let Err(e) = ra.flush(Duration::from_secs(20)) {
                    rd_result = Err(format!("rd flush: {e}"));
                }
            }
            rd_sent.store(true, Ordering::Release);
            let recv_result = rx
                .join()
                .unwrap_or_else(|_| Err("rd rx thread panicked".into()));
            if rd_result.is_ok() {
                rd_result = recv_result;
            }
        });
        match rd_result {
            Ok(n) => summary.rd_msgs = n,
            Err(d) => violations.push(Violation {
                invariant: "reliable-rdgram",
                detail: format!("[{}] {d}", opts.cc),
            }),
        }

        rfab.chaos_flush();
        drop((ra, rb, listener));
        violations.extend(check_conservation(&rfab));
        (summary, rfab.fault_trace())
    };

    PlanReport {
        seed,
        plan,
        violations,
        fault_trace,
        socket_fault_trace,
        read_fault_trace,
        reliable_fault_trace,
        verbs,
        socket,
        bulk,
        reliable,
        forensic,
    }
}

/// Runs `n` consecutive plans derived from `master` and returns every
/// report (callers decide how to render failures).
#[must_use]
pub fn run_sweep(master: u64, n: usize, opts: &ChaosOpts) -> Vec<PlanReport> {
    (0..n)
        .map(|i| run_plan(derive_seed(master, i as u64), opts))
        .collect()
}
