//! The per-layer ladder: one thread pushes a workload's datagram shape
//! through successively taller public APIs, each in a tight poll-mode
//! loop with no peer thread and no wake-up. A layer's own cost is its
//! rung minus the rung below it.
//!
//! ```text
//! socket.dgram   DgramSocket::send_to + recv_from      (two poll-mode stacks)
//! core.qp        post_recv + post_send + progress + poll  (two poll-mode UD QPs)
//! simnet.dgram   DgramConduit::send_sg + try_recv_sg_from
//! simnet.fabric  Endpoint::send_to + try_recv          (one call per MTU frame)
//! ```
//!
//! Beside the ladder stand the leaf kernels no rung isolates: CRC32C,
//! the buffer pool, and the SIP codec.

use std::hint::black_box;
use std::time::{Duration, Instant};

use bytes::Bytes;
use iwarp::wr::RecvWr;
use iwarp::{Access, Cq, Cqe, Device, DeviceConfig, QpConfig, SendWr};
use iwarp_apps::sip::codec::make_invite;
use iwarp_apps::sip::SipMessage;
use iwarp_common::crc32::crc32c;
use iwarp_common::pool::BufPool;
use iwarp_common::sg::SgBytes;
use iwarp_socket::{SocketConfig, SocketStack};
use simnet::{Addr, DgramConduit, Fabric, NodeId, WireConfig};

use crate::harness::{err, LadderVerb, Rng};

/// Payload of one wire frame on the fabric rung: what a 1 500-byte MTU
/// leaves a datagram fragment.
const FRAME_PAYLOAD: usize = 1472;

#[derive(Clone, Copy, Debug, Default)]
pub struct Ladder {
    pub crc32c_ns_per_kib: f64,
    pub pool_get_ns: f64,
    pub fabric_ns: f64,
    pub dgram_ns: f64,
    pub qp_ns: f64,
    pub qp_post_send_ns: f64,
    pub qp_post_recv_ns: f64,
    pub rx_progress_ns: f64,
    pub cq_poll_ns: f64,
    pub socket_ns: f64,
    pub sip_parse_ns: f64,
    pub sip_encode_ns: f64,
}

impl Ladder {
    /// Each rung contains the one below it, so its time may not be less.
    pub fn monotone(&self) -> Result<(), String> {
        let rungs = [
            ("socket.dgram", self.socket_ns),
            ("core.qp", self.qp_ns),
            ("simnet.dgram", self.dgram_ns),
            ("simnet.fabric", self.fabric_ns),
        ];
        for pair in rungs.windows(2) {
            if pair[0].1 < pair[1].1 {
                return Err(format!(
                    "ladder not monotone: {} {:.0} ns/msg < {} {:.0} ns/msg",
                    pair[0].0, pair[0].1, pair[1].0, pair[1].1
                ));
            }
        }
        Ok(())
    }
}

/// Repeats `body` for at least `min`, in blocks so the clock is read
/// rarely; returns nanoseconds per call.
fn time_loop(min: Duration, mut body: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    const BLOCK: u64 = 16;
    for _ in 0..BLOCK {
        body()?;
    }
    let start = Instant::now();
    let mut calls = 0u64;
    loop {
        for _ in 0..BLOCK {
            body()?;
        }
        calls += BLOCK;
        let elapsed = start.elapsed();
        if elapsed >= min {
            return Ok(elapsed.as_nanos() as f64 / calls as f64);
        }
    }
}

fn fabric_rung(payload: &Bytes, min: Duration) -> Result<f64, String> {
    let fabric = Fabric::new(WireConfig::default());
    let a = fabric.bind(Addr::new(0, 7000)).map_err(err("bind"))?;
    let b = fabric.bind(Addr::new(1, 7000)).map_err(err("bind"))?;
    let dst = Addr::new(1, 7000);
    time_loop(min, || {
        let mut off = 0;
        while off < payload.len() {
            let end = (off + FRAME_PAYLOAD).min(payload.len());
            a.send_to(dst, payload.slice(off..end))
                .map_err(err("send_to"))?;
            black_box(b.try_recv().map_err(err("try_recv"))?);
            off = end;
        }
        Ok(())
    })
}

fn dgram_rung(payload: &Bytes, min: Duration) -> Result<f64, String> {
    let fabric = Fabric::new(WireConfig::default());
    let a = DgramConduit::bind(&fabric, Addr::new(0, 7000)).map_err(err("bind"))?;
    let b = DgramConduit::bind(&fabric, Addr::new(1, 7000)).map_err(err("bind"))?;
    let dst = Addr::new(1, 7000);
    time_loop(min, || {
        a.send_sg(dst, SgBytes::from(payload.clone()))
            .map_err(err("send_sg"))?;
        black_box(b.try_recv_sg_from().map_err(err("try_recv_sg_from"))?);
        Ok(())
    })
}

/// Nanoseconds the QP rung spent inside each call, summed over
/// `doorbells` iterations.
#[derive(Default)]
struct QpParts {
    doorbells: u64,
    post_send: u64,
    post_recv: u64,
    progress: u64,
    poll: u64,
}

/// Runs `call`, adding its duration to `acc` when there is one.
fn timed<T>(acc: Option<&mut u64>, call: impl FnOnce() -> T) -> T {
    match acc {
        None => call(),
        Some(ns) => {
            let start = Instant::now();
            let out = call();
            *ns += start.elapsed().as_nanos() as u64;
            out
        }
    }
}

fn doorbell_size(verb: LadderVerb) -> usize {
    if verb == LadderVerb::SendBatch32 {
        32
    } else {
        1
    }
}

/// The QP rung; returns nanoseconds per message. With `parts` each call
/// is timed separately, which slows the loop by the clock reads, so the
/// rung itself is measured in a pass without.
fn qp_rung(
    payload: &Bytes,
    verb: LadderVerb,
    min: Duration,
    mut parts: Option<&mut QpParts>,
) -> Result<f64, String> {
    let fabric = Fabric::new(WireConfig::default());
    let dev_a = Device::new(&fabric, NodeId(0));
    let dev_b = Device::new(&fabric, NodeId(1));
    let cfg = QpConfig {
        poll_mode: true,
        ..QpConfig::default()
    };
    let qa = dev_a
        .create_ud_qp(None, &Cq::new(256), &Cq::new(256), cfg.clone())
        .map_err(err("create_ud_qp"))?;
    let qb = dev_b
        .create_ud_qp(None, &Cq::new(256), &Cq::new(256), cfg)
        .map_err(err("create_ud_qp"))?;
    let dest = qb.dest();
    let batch = doorbell_size(verb);
    let sink = dev_b.register(payload.len() * batch, Access::RemoteWrite);
    let recvs: Vec<RecvWr> = (0..batch)
        .map(|i| RecvWr {
            wr_id: i as u64,
            mr: sink.clone(),
            offset: (i * payload.len()) as u64,
            len: payload.len() as u32,
        })
        .collect();
    let sends: Vec<SendWr> = (0..batch)
        .map(|i| SendWr::new(i as u64, payload.clone(), dest))
        .collect();
    let mut scratch = vec![Cqe::default(); batch];
    let per_doorbell = time_loop(min, || {
        let mut p = parts.as_deref_mut();
        if let Some(p) = p.as_deref_mut() {
            p.doorbells += 1;
        }
        if verb != LadderVerb::WriteRecord {
            timed(p.as_deref_mut().map(|p| &mut p.post_recv), || {
                qb.post_recv_batch(&recvs)
            })
            .map_err(err("post_recv_batch"))?;
        }
        timed(p.as_deref_mut().map(|p| &mut p.post_send), || match verb {
            LadderVerb::Send => qa.post_send(0, payload.clone(), dest),
            LadderVerb::SendBatch32 => qa.post_send_batch(&sends),
            LadderVerb::WriteRecord => {
                qa.post_write_record(0, payload.clone(), dest, sink.stag(), 0)
            }
        })
        .map_err(err("post"))?;
        // The default receive path ingests one datagram per call
        // whatever the budget, so drive it until the doorbell is in.
        let mut delivered = 0;
        for _ in 0..batch {
            timed(p.as_deref_mut().map(|p| &mut p.progress), || {
                qb.progress_burst(batch - delivered, Duration::ZERO);
            });
            delivered += timed(p.as_deref_mut().map(|p| &mut p.poll), || {
                qb.recv_cq().poll_into(&mut scratch)
            });
            if delivered == batch {
                break;
            }
        }
        timed(p.map(|p| &mut p.poll), || {
            qa.send_cq().poll_into(&mut scratch)
        });
        if delivered != batch {
            return Err(format!(
                "ladder core.qp: {delivered} of {batch} messages delivered"
            ));
        }
        Ok(())
    })?;
    Ok(per_doorbell / batch as f64)
}

fn socket_rung(payload: &Bytes, min: Duration) -> Result<f64, String> {
    let fabric = Fabric::new(WireConfig::default());
    let cfg = SocketConfig {
        recv_slots: 8,
        slot_size: payload.len().max(2048),
        qp: QpConfig {
            poll_mode: true,
            ..QpConfig::default()
        },
        ..SocketConfig::default()
    };
    let stack = |node| {
        SocketStack::with_config(&fabric, NodeId(node), DeviceConfig::default(), cfg.clone())
    };
    let (stack_a, stack_b) = (stack(0), stack(1));
    let a = stack_a.dgram().map_err(err("dgram"))?;
    let b = stack_b.dgram_bound(7000).map_err(err("dgram_bound"))?;
    let dst = Addr::new(1, 7000);
    let mut buf = vec![0u8; payload.len()];
    time_loop(min, || {
        a.send_to(payload, dst).map_err(err("send_to"))?;
        let (n, _) = b
            .recv_from(&mut buf, Duration::from_secs(1))
            .map_err(err("recv_from"))?;
        black_box(n);
        Ok(())
    })
}

/// Runs every rung for `min` each with a `bytes`-long seeded payload.
pub fn run(bytes: usize, verb: LadderVerb, min: Duration, seed: u64) -> Result<Ladder, String> {
    let raw = Rng::new(seed).bytes(bytes);
    let payload = Bytes::from(raw.clone());
    let pool = BufPool::new();
    let invite = make_invite(
        "ladder-1@suite",
        "alice@client.example",
        "uas@server.example",
        1,
    );
    let wire = invite.encode();

    let mut parts = QpParts::default();
    qp_rung(&payload, verb, min, Some(&mut parts))?;
    let per_msg = |ns: u64| ns as f64 / (parts.doorbells * doorbell_size(verb) as u64) as f64;
    let ladder = Ladder {
        crc32c_ns_per_kib: time_loop(min, || {
            black_box(crc32c(black_box(&raw)));
            Ok(())
        })? * 1024.0
            / bytes as f64,
        pool_get_ns: time_loop(min, || {
            drop(black_box(pool.get(bytes)));
            Ok(())
        })?,
        fabric_ns: fabric_rung(&payload, min)?,
        dgram_ns: dgram_rung(&payload, min)?,
        qp_ns: qp_rung(&payload, verb, min, None)?,
        socket_ns: socket_rung(&payload, min)?,
        sip_parse_ns: time_loop(min, || {
            black_box(SipMessage::parse(black_box(&wire)).map_err(err("parse"))?);
            Ok(())
        })?,
        sip_encode_ns: time_loop(min, || {
            black_box(black_box(&invite).encode());
            Ok(())
        })?,
        qp_post_send_ns: per_msg(parts.post_send),
        qp_post_recv_ns: per_msg(parts.post_recv),
        rx_progress_ns: per_msg(parts.progress),
        cq_poll_ns: per_msg(parts.poll),
    };
    Ok(ladder)
}
