//! The seven workloads. Names are final: BENCHMARK.json, result files
//! and `--compare` key on them.
//!
//! Every world is built from library defaults (`..Default::default()`)
//! plus the structural choices its file names, so a later change that
//! moves a default shows up here without an edit to the suite.

mod bulk_read;
mod bulk_wr;
mod oneway;
mod pingpong;
mod rc_bw;
mod sip;

use std::sync::atomic::{AtomicU64, Ordering};

use iwarp::{Cq, Cqe, CqeStatus, DeviceConfig};
use iwarp_common::memacct::MemRegistry;

use crate::harness::{now_ns, Credit, LadderVerb, Limit, Spec, Tally, OP_TIMEOUT};
use crate::trace::Recorder;

/// Largest payload that is still one datagram at every rung of the
/// ladder (64 KiB minus the DDP and fragment headers): the "64 KiB"
/// datagram shape of the bulk workloads.
const BULK_DATAGRAM: usize = 60 * 1024;

const MESSAGES_AND_LATENCY: &[&str] = &["ops_per_s", "op_p50_us", "op_p99_us"];

pub const SPECS: [Spec; 7] = [
    Spec {
        name: "pingpong_64B",
        why: "fixed per-message cost and every notification hop; bytes, fragmentation and cc do nothing",
        cells: MESSAGES_AND_LATENCY,
        warmup_ops: 20_000,
        ladder_bytes: 64,
        ladder_verb: LadderVerb::Send,
        build: pingpong::build,
    },
    Spec {
        name: "flood_64B_x32",
        why: "same layers with wake-ups amortised away: per-message TX/RX/CQ work is all that is left",
        cells: &["ops_per_s"],
        warmup_ops: 65_536,
        ladder_bytes: 64,
        ladder_verb: LadderVerb::SendBatch32,
        build: oneway::build_flood,
    },
    Spec {
        name: "bulk_wr_1MiB",
        why: "the paper's Write-Record verb; per-byte work (CRC, placement copy, fragmentation, validity map) dominates",
        cells: &["goodput_MBps"],
        warmup_ops: 64,
        ladder_bytes: BULK_DATAGRAM,
        ladder_verb: LadderVerb::WriteRecord,
        build: bulk_wr::build,
    },
    Spec {
        name: "bulk_read_1MiB",
        why: "reads beside writes: same tagged placement entered through Read request/response and the cc scoreboard",
        cells: &["goodput_MBps"],
        warmup_ops: 32,
        ladder_bytes: BULK_DATAGRAM,
        ladder_verb: LadderVerb::WriteRecord,
        build: bulk_read::build,
    },
    Spec {
        name: "rd_1KiB_loss1",
        why: "the only workload where RdConduit and iwarp-cc (RTO, SACK, retransmit) decide the result: 1 % loss",
        cells: MESSAGES_AND_LATENCY,
        warmup_ops: 2_000,
        ladder_bytes: 1024,
        ladder_verb: LadderVerb::Send,
        build: oneway::build_rd,
    },
    Spec {
        name: "rc_bw_64KiB",
        why: "the paper's RC baseline: MPA markers and StreamConduit segmentation/ACKs over the shared core RX/CQ code",
        cells: &["goodput_MBps"],
        warmup_ops: 256,
        ladder_bytes: BULK_DATAGRAM,
        ladder_verb: LadderVerb::Send,
        build: rc_bw::build,
    },
    Spec {
        name: "sip_1k",
        why: "the application path of Fig. 10/11: socket shim, per-call sockets, shard inbox, SIP codec, state per call",
        cells: &["ops_per_s", "op_p50_us", "op_p99_us", "mem_bytes_per_call"],
        warmup_ops: 2_000,
        ladder_bytes: 400,
        ladder_verb: LadderVerb::Send,
        build: sip::build,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// Large payloads are compared byte for byte on one message in this many
/// (and on the last); every message is checked for status, offset and
/// length.
const VERIFY_EVERY: u64 = 64;

/// When each message in flight was posted. Large payloads are shared
/// buffers and cannot carry a send time, and sender and receiver are
/// threads of one process, so the sender leaves the time here.
struct PostTimes(Vec<AtomicU64>);

impl PostTimes {
    /// Room for `window` messages in flight (twice that, so a slot is
    /// never rewritten before its message completed).
    fn new(window: u64) -> Self {
        Self((0..2 * window).map(|_| AtomicU64::new(0)).collect())
    }

    fn slot(&self, seq: u64) -> &AtomicU64 {
        &self.0[seq as usize % self.0.len()]
    }

    fn posted(&self, seq: u64) {
        self.slot(seq).store(now_ns(), Ordering::Release);
    }

    /// Nanoseconds since message `seq` was posted.
    fn since(&self, seq: u64, now: u64) -> u64 {
        now.saturating_sub(self.slot(seq).load(Ordering::Acquire))
    }
}

/// Device configuration of the serving side: library defaults plus a
/// memory registry, so `mem_bytes_per_call` reads the same way on every
/// workload.
fn serving_device(reg: &MemRegistry) -> DeviceConfig {
    DeviceConfig {
        mem: Some(reg.clone()),
        ..DeviceConfig::default()
    }
}

/// Drains a send CQ. Returns how many completions were not `Success`.
fn reap_sends(cq: &Cq, scratch: &mut [Cqe]) -> u64 {
    let mut bad = 0;
    loop {
        let n = cq.poll_into(scratch);
        bad += scratch[..n]
            .iter()
            .filter(|c| c.status != CqeStatus::Success)
            .count() as u64;
        if n < scratch.len() {
            return bad;
        }
    }
}

/// What a one-way sender reports: messages posted, send completions
/// that were not `Success`, and its spans.
type Sent = (u64, u64, Recorder);

/// Runs a receiver on a peer thread beside a sender on the calling
/// thread and folds both into one tally: everything the sender posted
/// was attempted, and whatever the receiver did not verify has failed.
fn run_one_way(
    receive: impl FnOnce() -> Result<Tally, String> + Send,
    send: impl FnOnce() -> Result<Sent, String>,
) -> Result<Tally, String> {
    let start_ns = now_ns();
    let (received, sent) = std::thread::scope(|s| {
        let receiver = s.spawn(receive);
        let sent = send();
        (receiver.join(), sent)
    });
    let (sent, send_errors, rec) = sent?;
    let mut tally = received.map_err(|_| "receiver thread panicked".to_owned())??;
    tally.start_ns = start_ns;
    tally.attempted = sent;
    tally.failed = (sent - tally.ops()).max(tally.failed + send_errors);
    tally.recorders.insert(0, rec);
    Ok(tally)
}

/// The sender half of a one-way workload: doorbells of `batch` messages
/// under the credit window until `limit`, reaping the send CQ after
/// each. `post` posts messages `seq .. seq + batch` and records its own
/// `core.qp.post` span; the caller sends the stop message afterwards.
fn send_windowed(
    credit: &Credit,
    send_cq: &Cq,
    (first_seq, batch): (u64, u64),
    limit: Limit,
    traced: bool,
    mut post: impl FnMut(&mut Recorder, u64) -> Result<(), String>,
) -> Result<Sent, String> {
    let mut rec = Recorder::new("main", traced);
    let mut scratch = vec![Cqe::default(); 64];
    let (mut sent, mut send_errors) = (0u64, 0u64);
    while !limit.reached(sent) {
        let seq = first_seq + sent;
        rec.open("op", seq);
        rec.open("bench.credit_wait", seq);
        let credited = credit.acquire(sent, batch);
        rec.close();
        if !credited {
            return Err(format!(
                "no credit for {OP_TIMEOUT:?} after {sent} messages"
            ));
        }
        post(&mut rec, seq)?;
        rec.open("core.cq.reap", seq);
        send_errors += reap_sends(send_cq, &mut scratch);
        rec.close();
        rec.close();
        sent += batch;
    }
    Ok((sent, send_errors, rec))
}
