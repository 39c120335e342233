//! `pingpong_64B`: UD send/recv echo, 64 B, one in flight.
//!
//! Structural choices: two devices on one unshaped fabric, one UD QP
//! each with `QpConfig::default()` (threaded receive engines), both
//! sides block in `Cq::poll_timeout`. An operation is one round trip and
//! its latency is the whole round trip, not half of it.

use bytes::Bytes;
use iwarp::wr::RecvWr;
use iwarp::{Access, Cq, CqeStatus, Device, MemoryRegion, QpConfig, UdDest, UdQp};
use iwarp_common::memacct::MemRegistry;
use iwarp_telemetry::Telemetry;
use simnet::{Fabric, NodeId, WireConfig};

use super::serving_device;
use crate::harness::{
    check_stamped, err, now_ns, payload_table, stamp, Limit, Rng, Tally, World, OP_TIMEOUT,
    STOP_LEN,
};
use crate::trace::Recorder;

const SIZE: usize = 64;
const BODIES: usize = 256;

pub struct PingPong {
    fabric: Fabric,
    qa: UdQp,
    qb: UdQp,
    sink_a: MemoryRegion,
    sink_b: MemoryRegion,
    bodies: Vec<Bytes>,
    next_seq: u64,
    mem: MemRegistry,
}

pub fn build(seed: u64) -> Result<Box<dyn World>, String> {
    let fabric = Fabric::new(WireConfig::default());
    let mem = MemRegistry::new();
    let dev_a = Device::new(&fabric, NodeId(0));
    let dev_b = Device::with_config(&fabric, NodeId(1), serving_device(&mem));
    let qp = |dev: &Device| {
        dev.create_ud_qp(None, &Cq::new(64), &Cq::new(64), QpConfig::default())
            .map_err(err("create_ud_qp"))
    };
    let (qa, qb) = (qp(&dev_a)?, qp(&dev_b)?);
    let sink_b = dev_b.register(SIZE, Access::Local);
    // The echo side always has exactly one receive posted.
    qb.post_recv(RecvWr::whole(0, &sink_b))
        .map_err(err("post_recv"))?;
    Ok(Box::new(PingPong {
        qa,
        qb,
        sink_a: dev_a.register(SIZE, Access::Local),
        sink_b,
        bodies: payload_table(&mut Rng::new(seed), BODIES, SIZE),
        next_seq: 0,
        fabric,
        mem,
    }))
}

/// The peer: returns every message to its sender until the stop message.
fn echo(qb: &UdQp, sink: &MemoryRegion, back: UdDest, traced: bool) -> Result<Recorder, String> {
    let mut rec = Recorder::new("peer", traced);
    let mut buf = [0u8; SIZE];
    for n in 0u64.. {
        rec.open("peer.idle", n);
        let cqe = qb
            .recv_cq()
            .poll_timeout(OP_TIMEOUT)
            .map_err(err("echo wait"))?;
        rec.close();
        let len = cqe.byte_len as usize;
        sink.read_into(0, &mut buf[..len])
            .map_err(err("echo read"))?;
        rec.open("core.qp.post_recv", n);
        qb.post_recv(RecvWr::whole(n, sink))
            .map_err(err("echo post_recv"))?;
        rec.close();
        if len == STOP_LEN {
            break;
        }
        rec.open("core.qp.post", n);
        qb.post_send(n, &buf[..len], back)
            .map_err(err("echo post_send"))?;
        rec.close();
        rec.open("core.cq.reap", n);
        let _ = qb.send_cq().poll();
        rec.close();
    }
    Ok(rec)
}

impl World for PingPong {
    fn run(&mut self, limit: Limit, traced: bool) -> Result<Tally, String> {
        let (qa, qb) = (&self.qa, &self.qb);
        let (sink_a, sink_b) = (&self.sink_a, &self.sink_b);
        let (a_dest, b_dest) = (qa.dest(), qb.dest());
        let first_seq = self.next_seq;
        let mut rec = Recorder::new("main", traced);
        let mut buf = [0u8; SIZE];

        let (tally, peer) = std::thread::scope(|s| -> Result<_, String> {
            let peer = s.spawn(move || echo(qb, sink_b, a_dest, traced));
            let mut tally = Tally::new(now_ns());
            tally.latency_ns.reserve(1 << 20);
            let mut seq = first_seq;
            while !limit.reached(seq - first_seq) {
                let body = &self.bodies[seq as usize % BODIES];
                rec.open("op", seq);
                let t0 = now_ns();
                let payload = stamp(body, seq, t0);
                rec.open("core.qp.post_recv", seq);
                qa.post_recv(RecvWr::whole(seq, sink_a))
                    .map_err(err("post_recv"))?;
                rec.close();
                rec.open("core.qp.post", seq);
                qa.post_send(seq, payload, b_dest)
                    .map_err(err("post_send"))?;
                rec.close();
                rec.open("core.cq.wait", seq);
                let cqe = qa
                    .recv_cq()
                    .poll_timeout(OP_TIMEOUT)
                    .map_err(err("echo lost"))?;
                rec.close();
                rec.open("core.cq.reap", seq);
                let sent_ok = qa
                    .send_cq()
                    .poll()
                    .is_some_and(|c| c.status == CqeStatus::Success);
                rec.close();
                let t1 = now_ns();
                rec.open("bench.verify", seq);
                let len = (cqe.byte_len as usize).min(SIZE);
                sink_a.read_into(0, &mut buf[..len]).map_err(err("read"))?;
                let intact = cqe.status == CqeStatus::Success
                    && check_stamped(&buf[..len], body) == Some((seq, t0));
                rec.close();
                rec.close();
                tally.attempted += 1;
                if sent_ok && intact {
                    tally.complete(t1, t1 - t0, 2 * SIZE as u64);
                } else {
                    tally.failed += 1;
                }
                seq += 1;
            }
            tally.close(0);
            qa.post_send(seq, &[0u8; STOP_LEN][..], b_dest)
                .map_err(err("stop"))?;
            let _ = qa.send_cq().poll_timeout(OP_TIMEOUT);
            let peer = peer
                .join()
                .map_err(|_| "echo thread panicked".to_owned())??;
            Ok((tally, peer))
        })?;
        let mut tally = tally;
        self.next_seq += tally.attempted;
        tally.recorders = vec![rec, peer];
        Ok(tally)
    }

    fn telemetry(&self) -> Telemetry {
        self.fabric.telemetry().clone()
    }

    fn memory(&self) -> (MemRegistry, u64) {
        (self.mem.clone(), 1)
    }
}
