//! `bulk_read_1MiB`: `BulkRead` pulling a 16 MiB region in 1 MiB
//! batches, one thread driving both ends.
//!
//! Structural choices: poll-mode UD QPs (the one thread runs the
//! responder's and the requester's receive engines itself) and
//! `BulkReadConfig { batch_bytes: 1 MiB, ..default }`. The loop is that
//! of `BulkRead::run`, written out so each of its three calls can carry a
//! span. An operation is one 1 MiB batch; its latency runs from the
//! start of its transfer (when the window posts it) to the step that
//! reports it placed. Two source regions alternate, so every transfer
//! changes every byte of the sink; one batch per four transfers and the
//! last batch of the phase are compared byte for byte.

use std::time::Duration;

use iwarp::{Access, BulkRead, BulkReadConfig, Cq, Device, MemoryRegion, QpConfig, UdQp};
use iwarp_common::memacct::MemRegistry;
use iwarp_telemetry::Telemetry;
use simnet::{Fabric, NodeId, WireConfig};

use super::serving_device;
use crate::harness::{err, now_ns, Limit, Rng, Tally, World, OP_TIMEOUT};
use crate::trace::Recorder;

const BATCH: usize = 1 << 20;
const BATCHES: u64 = 16;
const REGION: usize = BATCH * BATCHES as usize;
/// Fragments ingested per `progress_burst` call (`BulkRead::run`'s value:
/// a 1 MiB response is ~730 MTU fragments).
const BURST: usize = 4096;

pub struct BulkReadWorld {
    fabric: Fabric,
    requester: UdQp,
    responder: UdQp,
    sources: [(MemoryRegion, Vec<u8>); 2],
    sink: MemoryRegion,
    transfers: u64,
    mem: MemRegistry,
}

pub fn build(seed: u64) -> Result<Box<dyn World>, String> {
    let fabric = Fabric::new(WireConfig::default());
    let mem = MemRegistry::new();
    let dev_req = Device::new(&fabric, NodeId(0));
    let dev_rsp = Device::with_config(&fabric, NodeId(1), serving_device(&mem));
    let cfg = QpConfig {
        poll_mode: true,
        ..QpConfig::default()
    };
    let qp = |dev: &Device| {
        dev.create_ud_qp(None, &Cq::new(256), &Cq::new(256), cfg.clone())
            .map_err(err("create_ud_qp"))
    };
    let mut rng = Rng::new(seed);
    let mut source = || {
        let data = rng.bytes(REGION);
        (dev_rsp.register_with(&data, Access::RemoteRead), data)
    };
    Ok(Box::new(BulkReadWorld {
        requester: qp(&dev_req)?,
        responder: qp(&dev_rsp)?,
        sources: [source(), source()],
        sink: dev_req.register(REGION, Access::Local),
        transfers: 0,
        fabric,
        mem,
    }))
}

impl World for BulkReadWorld {
    fn run(&mut self, limit: Limit, traced: bool) -> Result<Tally, String> {
        let mut rec = Recorder::new("main", traced);
        let mut tally = Tally::new(now_ns());
        let mut scratch = vec![0u8; BATCH];
        let cfg = BulkReadConfig {
            batch_bytes: BATCH as u32,
            ..BulkReadConfig::default()
        };
        let first_transfer = self.transfers;
        let mut last_good: Option<(usize, u64)> = None;
        while !limit.reached((self.transfers - first_transfer) * BATCHES) {
            let t = self.transfers;
            let which = (t % 2) as usize;
            let (source, expected) = &self.sources[which];
            let mut read = BulkRead::new(
                cfg.clone(),
                &self.sink,
                0,
                REGION as u64,
                self.responder.dest(),
                source.stag(),
                0,
            );
            let started = now_ns();
            let mut placed = 0u64;
            rec.open("op", t);
            loop {
                rec.open("core.read.responder", t);
                self.responder.progress_burst(BURST, Duration::ZERO);
                rec.close();
                rec.open("core.read.requester", t);
                self.requester
                    .progress_burst(BURST, Duration::from_micros(20));
                rec.close();
                rec.open("core.read.step", t);
                let now = Duration::from_nanos(now_ns() - started);
                let done = read
                    .step(&self.requester, now)
                    .map_err(err("BulkRead::step"))?;
                rec.close();
                let report = read.report();
                let seen = now_ns();
                for _ in placed..report.bytes / BATCH as u64 {
                    tally.complete(seen, seen - started, BATCH as u64);
                }
                placed = report.bytes / BATCH as u64;
                if done {
                    break;
                }
                if now > OP_TIMEOUT {
                    return Err(format!(
                        "transfer {t} stalled with {placed} of {BATCHES} batches"
                    ));
                }
            }
            rec.close();
            let report = read.report();
            tally.attempted += BATCHES;
            let mut good = !report.dead && report.bytes == REGION as u64;
            if good && t.is_multiple_of(4) {
                rec.open("bench.verify", t);
                let b = (t / 4 % BATCHES) as usize * BATCH;
                self.sink
                    .read_into(b as u64, &mut scratch)
                    .map_err(err("read"))?;
                good = scratch[..] == expected[b..b + BATCH];
                rec.close();
            }
            if good {
                last_good = Some((which, t));
            } else {
                // Whatever was counted as placed is taken back, and the
                // batches that never arrived failed too.
                tally.retract(placed, BATCH as u64);
                tally.failed += BATCHES - placed;
            }
            self.transfers += 1;
        }
        // The sink still holds the last transfer: compare its last batch.
        if let Some((which, _)) = last_good.filter(|(_, t)| t + 1 == self.transfers) {
            let b = REGION - BATCH;
            self.sink
                .read_into(b as u64, &mut scratch)
                .map_err(err("read"))?;
            if scratch[..] != self.sources[which].1[b..] {
                tally.retract(BATCHES, BATCH as u64);
            }
        }
        tally.close(0);
        tally.recorders.push(rec);
        Ok(tally)
    }

    fn telemetry(&self) -> Telemetry {
        self.fabric.telemetry().clone()
    }

    fn memory(&self) -> (MemRegistry, u64) {
        (self.mem.clone(), 1)
    }
}
