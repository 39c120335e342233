//! `rc_bw_64KiB`: one-way RC send/recv, 64 KiB messages, RQ 32
//! re-posted, credit window 8.
//!
//! `rc_listen`/`rc_connect` with `QpConfig::default()` and the device's
//! default stream and MPA settings. An operation is one delivered
//! message. Every completion is checked for status and length; 1 message
//! in 64 and the last are compared byte for byte (three patterns rotate,
//! so consecutive messages into one slot differ). Latency is post →
//! delivery.

use bytes::Bytes;
use iwarp::wr::RecvWr;
use iwarp::{Access, Cq, CqeStatus, Device, MemoryRegion, QpConfig, RcQp};
use iwarp_common::memacct::MemRegistry;
use iwarp_telemetry::Telemetry;
use simnet::{Addr, Fabric, NodeId, WireConfig};

use super::{run_one_way, send_windowed, serving_device, PostTimes, Sent, VERIFY_EVERY};
use crate::harness::{
    err, now_ns, payload_table, Credit, Limit, Rng, Tally, World, OP_TIMEOUT, STOP_LEN,
};
use crate::trace::Recorder;

const MSG: usize = 64 * 1024;
const RQ_DEPTH: u64 = 32;
const WINDOW: u64 = 8;
const PATTERNS: usize = 3;
const PORT: u16 = 4791;

pub struct RcBandwidth {
    fabric: Fabric,
    qa: RcQp,
    qb: RcQp,
    sink: MemoryRegion,
    patterns: Vec<Bytes>,
    credit: Credit,
    posted: PostTimes,
    next_seq: u64,
    mem: MemRegistry,
}

pub fn build(seed: u64) -> Result<Box<dyn World>, String> {
    let fabric = Fabric::new(WireConfig::default());
    let mem = MemRegistry::new();
    let dev_a = Device::new(&fabric, NodeId(0));
    let dev_b = Device::with_config(&fabric, NodeId(1), serving_device(&mem));
    let listener = dev_b.rc_listen(PORT).map_err(err("rc_listen"))?;
    let (qa, qb) = std::thread::scope(|s| {
        let accept = s.spawn(|| {
            listener.accept(
                OP_TIMEOUT,
                &Cq::new(256),
                &Cq::new(256),
                QpConfig::default(),
            )
        });
        let qa = dev_a.rc_connect(
            Addr::new(1, PORT),
            &Cq::new(256),
            &Cq::new(256),
            QpConfig::default(),
        );
        (qa, accept.join())
    });
    let qa = qa.map_err(err("rc_connect"))?;
    let qb = qb
        .map_err(|_| "accept thread panicked".to_owned())?
        .map_err(err("accept"))?;
    let world = RcBandwidth {
        sink: dev_b.register(RQ_DEPTH as usize * MSG, Access::Local),
        patterns: payload_table(&mut Rng::new(seed), PATTERNS, MSG),
        credit: Credit::new(WINDOW),
        posted: PostTimes::new(WINDOW),
        next_seq: 0,
        fabric,
        qa,
        qb,
        mem,
    };
    for slot in 0..RQ_DEPTH {
        world
            .qb
            .post_recv(world.recv_wr(slot))
            .map_err(err("post_recv"))?;
    }
    Ok(Box::new(world))
}

impl RcBandwidth {
    fn recv_wr(&self, slot: u64) -> RecvWr {
        RecvWr {
            wr_id: slot,
            mr: self.sink.clone(),
            offset: slot * MSG as u64,
            len: MSG as u32,
        }
    }

    fn receive(&self, first_seq: u64, traced: bool) -> Result<Tally, String> {
        let mut rec = Recorder::new("peer", traced);
        let mut tally = Tally::new(now_ns());
        let cq = self.qb.recv_cq();
        let mut scratch = vec![0u8; MSG];
        let mut seq = first_seq;
        // Slot of the last message that completed well but was not
        // compared yet.
        let mut unverified_last: Option<(u64, u64)> = None;
        let matches = |slot: u64, seq: u64, scratch: &mut [u8]| -> Result<bool, String> {
            self.sink
                .read_into(slot * MSG as u64, scratch)
                .map_err(err("read"))?;
            Ok(scratch[..] == self.patterns[seq as usize % PATTERNS][..])
        };
        loop {
            rec.open("core.cq.wait", seq);
            let cqe = cq
                .poll_timeout(OP_TIMEOUT)
                .map_err(err("receiver starved"))?;
            rec.close();
            let arrived = now_ns();
            if cqe.byte_len as usize == STOP_LEN {
                self.qb
                    .post_recv(self.recv_wr(cqe.wr_id))
                    .map_err(err("post_recv"))?;
                break;
            }
            rec.open("bench.verify", seq);
            let mut good = cqe.status == CqeStatus::Success && cqe.byte_len as usize == MSG;
            unverified_last = good.then_some((cqe.wr_id, seq));
            if good && seq.is_multiple_of(VERIFY_EVERY) {
                good = matches(cqe.wr_id, seq, &mut scratch)?;
                unverified_last = None;
            }
            rec.close();
            if good {
                tally.complete(arrived, self.posted.since(seq, arrived), MSG as u64);
            } else {
                tally.failed += 1;
            }
            seq += 1;
            // The slot goes back on the RQ before the credit is granted,
            // and the RQ is deeper than the window, so a message always
            // finds a posted receive.
            rec.open("core.qp.post_recv", seq);
            self.qb
                .post_recv(self.recv_wr(cqe.wr_id))
                .map_err(err("post_recv"))?;
            rec.close();
            self.credit.grant(1);
        }
        // The last message's slot is back on the RQ but nothing was sent
        // after the stop message, so it still holds that message.
        if let Some((slot, last)) = unverified_last {
            if !matches(slot, last, &mut scratch)? {
                tally.retract(1, MSG as u64);
            }
        }
        tally.close(self.credit.take_stalled_cpu_ns());
        tally.recorders.push(rec);
        Ok(tally)
    }

    fn send(&self, first_seq: u64, limit: Limit, traced: bool) -> Result<Sent, String> {
        let post = |rec: &mut Recorder, seq: u64| {
            let payload = self.patterns[seq as usize % PATTERNS].clone();
            self.posted.posted(seq);
            rec.open("core.qp.post", seq);
            self.qa.post_send(seq, payload).map_err(err("post_send"))?;
            rec.close();
            Ok(())
        };
        let sent = send_windowed(
            &self.credit,
            self.qa.send_cq(),
            (first_seq, 1),
            limit,
            traced,
            post,
        )?;
        self.qa
            .post_send(u64::MAX, &[0u8; STOP_LEN][..])
            .map_err(err("stop"))?;
        Ok(sent)
    }
}

impl World for RcBandwidth {
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
