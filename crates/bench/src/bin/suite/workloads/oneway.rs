//! `flood_64B_x32` and `rd_1KiB_loss1`: one-way send/recv under an
//! application-level credit window, one delivered message per operation.
//!
//! Both use threaded QPs with `QpConfig::default()`. The sender posts
//! doorbells of `batch` messages (`post_send_batch`, or `post_send` when
//! the doorbell is a single message), the receiver reaps with
//! `Cq::poll_into`, checks every payload for exactly-once in-order
//! delivery, re-posts with `post_recv_batch` and publishes how many it
//! consumed. Latency is post → delivery, from the send time each payload
//! carries.
//!
//! * flood: UD, 64 B, doorbells of 32, RQ 2 048, window 1 024, clean wire.
//! * rd: RD mode (`create_rd_qp`, `RdConfig::default()`), 1 KiB, window
//!   4, RQ 128, over `WireConfig::with_loss(0.01, LOSS_SEED)`. The window
//!   is 4 so that neither the median nor the p99 sits on the edge between
//!   messages that queued behind an RTO stall and messages that did not
//!   (README, "Two departures").

use bytes::Bytes;
use iwarp::wr::RecvWr;
use iwarp::{Access, Cq, Cqe, CqeStatus, Device, MemoryRegion, QpConfig, SendWr, UdQp};
use iwarp_common::memacct::MemRegistry;
use iwarp_telemetry::Telemetry;
use simnet::{Fabric, NodeId, WireConfig};

use super::{run_one_way, send_windowed, serving_device, Sent};
use crate::harness::{
    check_stamped, err, now_ns, payload_table, stamp, Credit, Limit, Rng, Tally, World, OP_TIMEOUT,
    STOP_LEN,
};
use crate::trace::Recorder;

const BODIES: usize = 256;

/// The loss pattern belongs to the wire, not to the run: a window
/// holds only a few hundred RTO stalls, and redrawing them moves `ops_per_s` by
/// several percent, which would be variance of the input, not of the
/// code. Payload bytes still come from `--seed`.
const LOSS_SEED: u64 = 0x1055_2011;

struct Shape {
    size: usize,
    batch: u64,
    window: u64,
    rq_depth: usize,
}

pub struct OneWay {
    shape: Shape,
    fabric: Fabric,
    qa: UdQp,
    qb: UdQp,
    sink: MemoryRegion,
    bodies: Vec<Bytes>,
    credit: Credit,
    next_seq: u64,
    mem: MemRegistry,
}

pub fn build_flood(seed: u64) -> Result<Box<dyn World>, String> {
    let shape = Shape {
        size: 64,
        batch: 32,
        window: 1024,
        rq_depth: 2048,
    };
    build(seed, shape, WireConfig::default(), false)
}

pub fn build_rd(seed: u64) -> Result<Box<dyn World>, String> {
    let shape = Shape {
        size: 1024,
        batch: 1,
        window: 4,
        rq_depth: 128,
    };
    build(seed, shape, WireConfig::with_loss(0.01, LOSS_SEED), true)
}

fn build(
    seed: u64,
    shape: Shape,
    wire: WireConfig,
    reliable: bool,
) -> Result<Box<dyn World>, String> {
    let fabric = Fabric::new(wire);
    let mem = MemRegistry::new();
    let dev_a = Device::new(&fabric, NodeId(0));
    let dev_b = Device::with_config(&fabric, NodeId(1), serving_device(&mem));
    let qp = |dev: &Device| {
        let (scq, rcq) = (Cq::new(4096), Cq::new(4096));
        if reliable {
            dev.create_rd_qp(None, &scq, &rcq, QpConfig::default())
        } else {
            dev.create_ud_qp(None, &scq, &rcq, QpConfig::default())
        }
        .map_err(err("create qp"))
    };
    let (qa, qb) = (qp(&dev_a)?, qp(&dev_b)?);
    let sink = dev_b.register(shape.rq_depth * shape.size, Access::Local);
    let world = OneWay {
        bodies: payload_table(&mut Rng::new(seed), BODIES, shape.size),
        credit: Credit::new(shape.window),
        shape,
        fabric,
        qa,
        qb,
        sink,
        next_seq: 0,
        mem,
    };
    let all: Vec<RecvWr> = (0..world.shape.rq_depth)
        .map(|slot| world.recv_wr(slot as u64))
        .collect();
    world
        .qb
        .post_recv_batch(&all)
        .map_err(err("post_recv_batch"))?;
    Ok(Box::new(world))
}

impl OneWay {
    fn recv_wr(&self, slot: u64) -> RecvWr {
        RecvWr {
            wr_id: slot,
            mr: self.sink.clone(),
            offset: slot * self.shape.size as u64,
            len: self.shape.size as u32,
        }
    }

    /// The receiver: runs until the stop message. Returns its tally
    /// (operations, failures, latencies) and recorder.
    fn receive(&self, first_seq: u64, traced: bool) -> Result<Tally, String> {
        let mut rec = Recorder::new("peer", traced);
        let mut tally = Tally::new(now_ns());
        tally.latency_ns.reserve(1 << 21);
        let cq = self.qb.recv_cq();
        let mut scratch = vec![Cqe::default(); 64];
        let mut reposts: Vec<RecvWr> = Vec::with_capacity(scratch.len());
        let mut buf = vec![0u8; self.shape.size];
        let mut expect = first_seq;
        let mut stop = false;
        while !stop {
            rec.open("core.cq.reap", expect);
            let mut n = cq.poll_into(&mut scratch);
            rec.close();
            if n == 0 {
                rec.open("core.cq.wait", expect);
                scratch[0] = cq
                    .poll_timeout(OP_TIMEOUT)
                    .map_err(err("receiver starved"))?;
                rec.close();
                n = 1;
            }
            let arrived = now_ns();
            rec.open("bench.verify", expect);
            let mut data = 0u64;
            for cqe in &scratch[..n] {
                reposts.push(self.recv_wr(cqe.wr_id));
                let len = cqe.byte_len as usize;
                if len == STOP_LEN {
                    stop = true;
                    continue;
                }
                data += 1;
                let off = cqe.wr_id * self.shape.size as u64;
                let len = len.min(buf.len());
                self.sink
                    .read_into(off, &mut buf[..len])
                    .map_err(err("read"))?;
                let body = &self.bodies[expect as usize % BODIES];
                match check_stamped(&buf[..len], body) {
                    Some((seq, sent_ns)) if seq == expect && cqe.status == CqeStatus::Success => {
                        tally.complete(arrived, arrived.saturating_sub(sent_ns), len as u64);
                        expect += 1;
                    }
                    // Wrong bytes, a gap, a duplicate or an error CQE:
                    // count it and resynchronise on what arrived.
                    other => {
                        tally.failed += 1;
                        expect = other.map_or(expect, |(seq, _)| seq) + 1;
                    }
                }
            }
            rec.close();
            rec.open("core.qp.post_recv", expect);
            self.qb
                .post_recv_batch(&reposts)
                .map_err(err("post_recv_batch"))?;
            rec.close();
            reposts.clear();
            self.credit.grant(data);
        }
        tally.close(self.credit.take_stalled_cpu_ns());
        tally.recorders.push(rec);
        Ok(tally)
    }

    /// The sender: doorbells until the limit, then the stop message.
    fn send(&self, first_seq: u64, limit: Limit, traced: bool) -> Result<Sent, String> {
        let dest = self.qb.dest();
        let batch = self.shape.batch;
        let stamped = |seq: u64| stamp(&self.bodies[seq as usize % BODIES], seq, now_ns());
        let mut wrs: Vec<SendWr> = Vec::with_capacity(batch as usize);
        let post = |rec: &mut Recorder, seq: u64| {
            if batch == 1 {
                let payload = stamped(seq);
                rec.open("core.qp.post", seq);
                self.qa
                    .post_send(seq, payload, dest)
                    .map_err(err("post_send"))?;
            } else {
                wrs.clear();
                wrs.extend((seq..seq + batch).map(|i| SendWr::new(i, stamped(i), dest)));
                rec.open("core.qp.post", seq);
                self.qa
                    .post_send_batch(&wrs)
                    .map_err(err("post_send_batch"))?;
            }
            rec.close();
            Ok(())
        };
        let sent = send_windowed(
            &self.credit,
            self.qa.send_cq(),
            (first_seq, batch),
            limit,
            traced,
            post,
        )?;
        self.qa
            .post_send(u64::MAX, &[0u8; STOP_LEN][..], dest)
            .map_err(err("stop"))?;
        Ok(sent)
    }
}

impl World for OneWay {
    fn run(&mut self, limit: Limit, traced: bool) -> Result<Tally, String> {
        let first_seq = self.next_seq;
        self.credit.reset();
        let tally = run_one_way(
            || self.receive(first_seq, traced),
            || self.send(first_seq, limit, traced),
        )?;
        self.next_seq += tally.attempted;
        Ok(tally)
    }

    fn telemetry(&self) -> Telemetry {
        self.fabric.telemetry().clone()
    }

    fn memory(&self) -> (MemRegistry, u64) {
        (self.mem.clone(), 1)
    }
}
