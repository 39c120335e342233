//! `sip_1k`: the socket shim and the SIP application with 1 024
//! established dialogs, churned round-robin by one client thread.
//!
//! Structural choices: the server stack runs one shard
//! (`ShardConfig::with_shards(1)`) with 8 receive slots of 2 KiB per
//! socket and a `MemRegistry` attached; the client stack is poll-mode
//! and drives its own receive engines. Per-call sockets on both sides
//! use `DgramProfile::compact()`. One operation is one churn cycle, five
//! messages: BYE → 200 on the oldest dialog, then INVITE → 200 → ACK on a
//! fresh Call-ID. Latency is INVITE → 200 only (the paper's Fig. 10).
//! Call-IDs and user names come from the seed; every reply is parsed and
//! checked for status and Call-ID.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;

use iwarp::{DeviceConfig, QpConfig, ShardConfig};
use iwarp_apps::sip::codec::{make_ack, make_bye, make_invite};
use iwarp_apps::sip::{SipMessage, SipServer, SipServerConfig};
use iwarp_common::memacct::MemRegistry;
use iwarp_socket::{DgramProfile, DgramSocket, SocketConfig, SocketStack};
use iwarp_telemetry::Telemetry;
use simnet::{Addr, Fabric, NodeId, WireConfig};

use super::serving_device;
use crate::harness::{err, now_ns, Limit, Rng, Tally, World, OP_TIMEOUT};
use crate::trace::Recorder;

pub const DIALOGS: usize = 1024;
const CALLEE: &str = "uas@server.example";

struct Leg {
    sock: DgramSocket,
    call_id: String,
    from: String,
    /// The server's per-call socket, learnt from the 200 to the INVITE.
    peer: Addr,
}

pub struct SipWorld {
    fabric: Fabric,
    server: SipServer,
    server_main: Addr,
    client: SocketStack,
    legs: VecDeque<Leg>,
    rng: Rng,
    calls_made: u64,
    mem: MemRegistry,
}

pub fn build(seed: u64) -> Result<Box<dyn World>, String> {
    let fabric = Fabric::new(WireConfig::default());
    let mem = MemRegistry::new();
    let sockets = SocketConfig {
        recv_slots: 8,
        slot_size: 2048,
        ..SocketConfig::default()
    };
    let server_stack = SocketStack::with_config(
        &fabric,
        NodeId(1),
        DeviceConfig {
            shard: ShardConfig::with_shards(1),
            ..serving_device(&mem)
        },
        sockets.clone(),
    );
    let client = SocketStack::with_config(
        &fabric,
        NodeId(0),
        DeviceConfig::default(),
        SocketConfig {
            qp: QpConfig {
                poll_mode: true,
                ..QpConfig::default()
            },
            ..sockets
        },
    );
    let server_cfg = SipServerConfig::default();
    let server_main = Addr::new(1, server_cfg.port);
    let mut world = SipWorld {
        server: SipServer::spawn(server_stack, server_cfg).map_err(err("SipServer::spawn"))?,
        server_main,
        client,
        legs: VecDeque::with_capacity(DIALOGS),
        rng: Rng::new(seed),
        calls_made: 0,
        fabric,
        mem,
    };
    let mut rec = Recorder::new("main", false);
    for _ in 0..DIALOGS {
        let (leg, invite, _) = world.establish(&mut rec)?;
        if !invite.ok {
            return Err("a dialog failed to establish during set-up".into());
        }
        world.legs.push_back(leg);
    }
    Ok(Box::new(world))
}

/// Waits for one message on `sock`; returns it parsed, with its source.
fn recv_sip(
    sock: &DgramSocket,
    rec: &mut Recorder,
    op: u64,
) -> Result<(SipMessage, usize, Addr), String> {
    let mut buf = [0u8; 2048];
    rec.open("socket.dgram.recv_wait", op);
    let got = sock.recv_from(&mut buf, OP_TIMEOUT);
    rec.close();
    let (n, src) = got.map_err(err("no SIP reply"))?;
    rec.open("apps.sip.parse", op);
    let msg = SipMessage::parse(&buf[..n]);
    rec.close();
    Ok((msg.map_err(err("SIP reply does not parse"))?, n, src))
}

fn send_sip(
    sock: &DgramSocket,
    msg: &SipMessage,
    to: Addr,
    rec: &mut Recorder,
    op: u64,
) -> Result<usize, String> {
    rec.open("apps.sip.encode", op);
    let wire = msg.encode();
    rec.close();
    rec.open("socket.dgram.send_to", op);
    let sent = sock.send_to(&wire, to);
    rec.close();
    sent.map_err(err("send_to"))?;
    Ok(wire.len())
}

/// What one half of a cycle moved and whether its reply was a 200 for
/// the right Call-ID.
struct Exchange {
    ok: bool,
    bytes: usize,
}

fn answers(reply: &SipMessage, call_id: &str) -> bool {
    reply.status() == Some(200) && reply.call_id() == Some(call_id)
}

impl SipWorld {
    /// INVITE → 200 → ACK on a fresh Call-ID. Returns the established
    /// leg, what the exchange moved, and the INVITE → 200 time.
    fn establish(&mut self, rec: &mut Recorder) -> Result<(Leg, Exchange, u64), String> {
        let n = self.calls_made;
        self.calls_made += 1;
        let call_id = format!("{:016x}-{n}@suite", self.rng.next_u64());
        let from = format!("u{:08x}@client.example", self.rng.next_u64() as u32);
        let sock = self
            .client
            .dgram_with(DgramProfile::compact())
            .map_err(err("client socket"))?;
        let invite = make_invite(&call_id, &from, CALLEE, 1);
        let t0 = now_ns();
        let mut bytes = send_sip(&sock, &invite, self.server_main, rec, n)?;
        let (reply, len, peer) = recv_sip(&sock, rec, n)?;
        let rtt = now_ns() - t0;
        bytes += len;
        let ok = answers(&reply, &call_id);
        bytes += send_sip(&sock, &make_ack(&call_id, &from, CALLEE, 1), peer, rec, n)?;
        Ok((
            Leg {
                sock,
                call_id,
                from,
                peer,
            },
            Exchange { ok, bytes },
            rtt,
        ))
    }

    /// BYE → 200 on `leg`, then the leg's socket closes.
    fn tear_down(leg: Leg, rec: &mut Recorder, op: u64) -> Result<Exchange, String> {
        let bye = make_bye(&leg.call_id, &leg.from, CALLEE, 2);
        let mut bytes = send_sip(&leg.sock, &bye, leg.peer, rec, op)?;
        let (reply, len, _) = recv_sip(&leg.sock, rec, op)?;
        bytes += len;
        let ok = answers(&reply, &leg.call_id);
        Ok(Exchange { ok, bytes })
    }
}

impl World for SipWorld {
    fn run(&mut self, limit: Limit, traced: bool) -> Result<Tally, String> {
        let mut rec = Recorder::new("main", traced);
        let mut tally = Tally::new(now_ns());
        let parse_errors_before = self.server.stats().parse_errors.load(Ordering::Relaxed);
        while !limit.reached(tally.attempted) {
            let op = tally.attempted;
            rec.open("op", op);
            let oldest = self.legs.pop_front().ok_or("no dialog to tear down")?;
            let bye = Self::tear_down(oldest, &mut rec, op)?;
            let (leg, invite, rtt) = self.establish(&mut rec)?;
            self.legs.push_back(leg);
            rec.close();
            tally.attempted += 1;
            if bye.ok && invite.ok {
                tally.complete(now_ns(), rtt, (bye.bytes + invite.bytes) as u64);
            } else {
                tally.failed += 1;
            }
        }
        let stats = self.server.stats();
        let parse_errors = stats.parse_errors.load(Ordering::Relaxed);
        if parse_errors != parse_errors_before {
            return Err(format!(
                "server failed to parse {} messages",
                parse_errors - parse_errors_before
            ));
        }
        if self.legs.len() != DIALOGS {
            return Err(format!(
                "{} dialogs held, expected {DIALOGS}",
                self.legs.len()
            ));
        }
        tally.close(0);
        tally.recorders.push(rec);
        Ok(tally)
    }

    fn telemetry(&self) -> Telemetry {
        self.fabric.telemetry().clone()
    }

    fn memory(&self) -> (MemRegistry, u64) {
        (self.mem.clone(), DIALOGS as u64)
    }
}
