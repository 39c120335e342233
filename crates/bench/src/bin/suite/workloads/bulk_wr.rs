//! `bulk_wr_1MiB`: one-way UD RDMA Write-Record, 1 MiB messages into a
//! `track_validity` region, window 4 on target completions.
//!
//! Threaded QPs with `QpConfig::default()`. An operation is one message
//! the target's CQ declares `Success`; `Partial` counts as a failure on
//! this clean wire. Every completion is checked for the expected offset
//! and length; 1 message in 64 and the last are compared byte for byte
//! against the seeded pattern. Five patterns rotate over four slots, so
//! a slot never receives the bytes it already holds. Latency is post →
//! target completion.

use bytes::Bytes;
use iwarp::{Access, Cq, CqeOpcode, CqeStatus, Device, MemoryRegion, QpConfig, UdQp};
use iwarp_common::memacct::MemRegistry;
use iwarp_telemetry::Telemetry;
use simnet::{Fabric, NodeId, WireConfig};

use super::{run_one_way, send_windowed, serving_device, PostTimes, Sent, VERIFY_EVERY};
use crate::harness::{
    err, now_ns, payload_table, Credit, Limit, Rng, Tally, World, OP_TIMEOUT, STOP_LEN,
};
use crate::trace::Recorder;

const MSG: usize = 1 << 20;
const WINDOW: u64 = 4;
const PATTERNS: usize = 5;

pub struct BulkWrite {
    fabric: Fabric,
    qa: UdQp,
    qb: UdQp,
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
    let qp = |dev: &Device| {
        dev.create_ud_qp(None, &Cq::new(256), &Cq::new(256), QpConfig::default())
            .map_err(err("create_ud_qp"))
    };
    // One slot per message in flight, plus a spare byte the stop message
    // lands in without touching a slot.
    let sink = dev_b.register(WINDOW as usize * MSG + STOP_LEN, Access::RemoteWrite);
    sink.track_validity();
    Ok(Box::new(BulkWrite {
        qa: qp(&dev_a)?,
        qb: qp(&dev_b)?,
        sink,
        patterns: payload_table(&mut Rng::new(seed), PATTERNS, MSG),
        credit: Credit::new(WINDOW),
        posted: PostTimes::new(WINDOW),
        next_seq: 0,
        fabric,
        mem,
    }))
}

impl BulkWrite {
    fn slot_offset(seq: u64) -> u64 {
        (seq % WINDOW) * MSG as u64
    }

    fn matches_pattern(&self, seq: u64, scratch: &mut [u8]) -> Result<bool, String> {
        self.sink
            .read_into(Self::slot_offset(seq), scratch)
            .map_err(err("read"))?;
        Ok(scratch[..] == self.patterns[seq as usize % PATTERNS][..])
    }

    fn receive(&self, first_seq: u64, traced: bool) -> Result<Tally, String> {
        let mut rec = Recorder::new("peer", traced);
        let mut tally = Tally::new(now_ns());
        let cq = self.qb.recv_cq();
        let mut scratch = vec![0u8; MSG];
        let mut seq = first_seq;
        // Last message that completed well but was not compared yet.
        let mut unverified_last: Option<u64> = None;
        loop {
            rec.open("core.cq.wait", seq);
            let cqe = cq
                .poll_timeout(OP_TIMEOUT)
                .map_err(err("receiver starved"))?;
            rec.close();
            let arrived = now_ns();
            let info = cqe
                .write_record
                .as_ref()
                .ok_or("completion without Write-Record info")?;
            if info.total_len as usize == STOP_LEN {
                break;
            }
            rec.open("bench.verify", seq);
            let mut good = cqe.opcode == CqeOpcode::WriteRecord
                && cqe.status == CqeStatus::Success
                && info.base_to == Self::slot_offset(seq)
                && info.total_len as usize == MSG;
            unverified_last = good.then_some(seq);
            if good && seq.is_multiple_of(VERIFY_EVERY) {
                good = self.matches_pattern(seq, &mut scratch)?;
                unverified_last = None;
            }
            rec.close();
            if good {
                tally.complete(arrived, self.posted.since(seq, arrived), MSG as u64);
            } else {
                tally.failed += 1;
            }
            seq += 1;
            self.credit.grant(1);
        }
        if let Some(last) = unverified_last {
            if !self.matches_pattern(last, &mut scratch)? {
                tally.retract(1, MSG as u64);
            }
        }
        tally.close(self.credit.take_stalled_cpu_ns());
        tally.recorders.push(rec);
        Ok(tally)
    }

    fn send(&self, first_seq: u64, limit: Limit, traced: bool) -> Result<Sent, String> {
        let dest = self.qb.dest();
        let stag = self.sink.stag();
        let post = |rec: &mut Recorder, seq: u64| {
            let payload = self.patterns[seq as usize % PATTERNS].clone();
            self.posted.posted(seq);
            rec.open("core.qp.post", seq);
            self.qa
                .post_write_record(seq, payload, dest, stag, Self::slot_offset(seq))
                .map_err(err("post_write_record"))?;
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
            .post_write_record(
                u64::MAX,
                &[0u8; STOP_LEN][..],
                dest,
                stag,
                WINDOW * MSG as u64,
            )
            .map_err(err("stop"))?;
        Ok(sent)
    }
}

impl World for BulkWrite {
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
