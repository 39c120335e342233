//! The waiter drives: a thread waiting in `Cq::poll_timeout` on the
//! receive CQ of a threaded UD or RD QP runs that QP's receive engine
//! itself, and the QP's engine thread (`iwarp-dgqp-<qpn>`) is only the
//! fallback for arrivals no waiter takes and, on RD, for retransmission
//! timers that fall due while nobody is inside a call.
//!
//! Each test has its own fabric, so the fabric-wide counters
//! `core.rx.waiter_steps` and `core.rx.fallback_drains` say who drove the
//! one receiving QP.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use iwarp::wr::RecvWr;
use iwarp::{
    Access, Cq, CqeOpcode, CqeStatus, Device, DeviceConfig, MemoryRegion, QpConfig, RdQp,
    ShardConfig, UdQp,
};
use simnet::{Fabric, FaultPlan, NodeId, PartitionWindow, WireConfig};

const TIMEOUT: Duration = Duration::from_secs(5);

fn counter(fab: &Fabric, name: &str) -> u64 {
    fab.telemetry().snapshot().get(name).unwrap_or(0)
}

fn waiter_steps(fab: &Fabric) -> u64 {
    counter(fab, "core.rx.waiter_steps")
}

fn fallback_drains(fab: &Fabric) -> u64 {
    counter(fab, "core.rx.fallback_drains")
}

/// A threaded UD QP with its own send and receive CQs.
fn ud_qp(dev: &Device, recv_cq: &Cq) -> UdQp {
    dev.create_ud_qp(None, &Cq::new(1 << 14), recv_cq, QpConfig::default())
        .unwrap()
}

/// A threaded RD QP with its own send and receive CQs.
fn rd_qp(dev: &Device, recv_cq: &Cq) -> RdQp {
    dev.create_rd_qp(None, &Cq::new(1 << 14), recv_cq, QpConfig::default())
        .unwrap()
}

/// A fabric that drops the first wire packet of every link and nothing
/// else: an RD sender's first message is lost, and only its
/// retransmission timer can bring it back.
fn first_packet_lost() -> Fabric {
    let fab = Fabric::loopback();
    let mut plan = FaultPlan::quiet(1);
    plan.partitions.push(PartitionWindow { start: 0, end: 1 });
    fab.install_fault_plan(plan);
    fab
}

/// Posts `n` receives of `slot` bytes each, receive `i` at `i * slot`.
fn post_slots(qp: &UdQp, mr: &MemoryRegion, n: usize, slot: usize) {
    let wrs: Vec<RecvWr> = (0..n)
        .map(|i| RecvWr {
            wr_id: i as u64,
            mr: mr.clone(),
            offset: (i * slot) as u64,
            len: slot as u32,
        })
        .collect();
    qp.post_recv_batch(&wrs).unwrap();
}

/// Polls without ever running the engine (no timed wait) until an entry
/// arrives or `within` elapses.
fn poll_idle(cq: &Cq, within: Duration) -> Option<iwarp::Cqe> {
    let start = Instant::now();
    while start.elapsed() < within {
        if let Some(cqe) = cq.poll() {
            return Some(cqe);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    None
}

/// Sends one datagram to `qb` while a thread waits on `recv_cq`, after
/// giving the waiter time to park, and returns what the waiter got.
fn send_to_a_parked_waiter(qa: &UdQp, qb: &UdQp, recv_cq: &Cq, wr_id: u64) -> iwarp::Cqe {
    std::thread::scope(|s| {
        let waiter = s.spawn(|| recv_cq.poll_timeout(TIMEOUT).unwrap());
        std::thread::sleep(Duration::from_millis(20));
        qa.post_send(wr_id, &wr_id.to_le_bytes()[..], qb.dest())
            .unwrap();
        waiter.join().unwrap()
    })
}

/// Rounds a parked waiter gets to take a datagram itself. The fallback's
/// tick may take one first (a waiter woken late on a loaded host), so
/// the tests ask for at least one of several.
const ROUNDS: u64 = 8;

#[test]
fn a_blocked_waiter_runs_the_engine_and_receives() {
    let fab = Fabric::loopback();
    let (a, b) = (Device::new(&fab, NodeId(0)), Device::new(&fab, NodeId(1)));
    let b_recv = Cq::new(64);
    let qa = ud_qp(&a, &Cq::new(64));
    let qb = ud_qp(&b, &b_recv);
    let sink = b.register(ROUNDS as usize * 64, Access::Local);
    post_slots(&qb, &sink, ROUNDS as usize, 64);

    for i in 0..ROUNDS {
        let cqe = send_to_a_parked_waiter(&qa, &qb, &b_recv, i);
        assert_eq!(cqe.status, CqeStatus::Success);
        assert_eq!(cqe.wr_id, i);
        assert_eq!(sink.read_vec(i * 64, 8).unwrap(), i.to_le_bytes());
        if waiter_steps(&fab) > 0 {
            return;
        }
    }
    panic!("no datagram was taken by the thread waiting on the CQ");
}

#[test]
fn a_write_record_lands_at_a_target_inside_no_call() {
    let fab = Fabric::loopback();
    let (a, b) = (Device::new(&fab, NodeId(0)), Device::new(&fab, NodeId(1)));
    let b_recv = Cq::new(64);
    let qa = ud_qp(&a, &Cq::new(64));
    let qb = ud_qp(&b, &b_recv);
    let sink = b.register(4096, Access::RemoteWrite);
    let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();

    qa.post_write_record(7, data.clone(), qb.dest(), sink.stag(), 96)
        .unwrap();
    // Nobody at the target waits: only the fallback can place this.
    let cqe = poll_idle(&b_recv, TIMEOUT).expect("the Write-Record never completed");
    assert_eq!(cqe.opcode, CqeOpcode::WriteRecord);
    assert_eq!(cqe.status, CqeStatus::Success);
    assert_eq!(sink.read_vec(96, data.len()).unwrap(), data);
    assert!(fallback_drains(&fab) > 0);
    assert_eq!(waiter_steps(&fab), 0);
}

#[test]
fn a_datagram_after_a_timed_out_wait_is_not_stranded() {
    let fab = Fabric::loopback();
    let (a, b) = (Device::new(&fab, NodeId(0)), Device::new(&fab, NodeId(1)));
    let b_recv = Cq::new(64);
    let qa = ud_qp(&a, &Cq::new(64));
    let qb = ud_qp(&b, &b_recv);
    let slots = ROUNDS as usize + 1;
    let sink = b.register(slots * 64, Access::Local);
    post_slots(&qb, &sink, slots, 64);

    // The owner drives (a datagram sent once it parked)...
    let mut next = 0;
    while waiter_steps(&fab) == 0 {
        assert!(
            next < ROUNDS,
            "no datagram was taken by the thread waiting on the CQ"
        );
        assert_eq!(send_to_a_parked_waiter(&qa, &qb, &b_recv, next).wr_id, next);
        next += 1;
    }
    // ...then waits once more and gives up...
    assert!(b_recv.poll_timeout(Duration::from_millis(20)).is_err());
    // ...and the next datagram lands with no owner coming back and no
    // arrival after it: the fallback's tick must take it.
    let drains = fallback_drains(&fab);
    qa.post_send(next, &b"second"[..], qb.dest()).unwrap();
    let cqe = poll_idle(&b_recv, TIMEOUT).expect("the datagram was stranded in the ring");
    assert_eq!(cqe.wr_id, next);
    assert_eq!(sink.read_vec(next * 64, 6).unwrap(), b"second");
    assert!(fallback_drains(&fab) > drains);
}

#[test]
fn two_waiters_on_one_cq_see_every_message_once_in_order() {
    const N: usize = 10_000;
    const SLOT: usize = 8;
    let fab = Fabric::loopback();
    let (a, b) = (Device::new(&fab, NodeId(0)), Device::new(&fab, NodeId(1)));
    let b_recv = Cq::new(N);
    let qa = ud_qp(&a, &Cq::new(N));
    let qb = ud_qp(&b, &b_recv);
    let sink = b.register(N * SLOT, Access::Local);
    post_slots(&qb, &sink, N, SLOT);

    let seen = AtomicUsize::new(0);
    let waiter = || {
        let mut got = Vec::new();
        let start = Instant::now();
        while seen.load(Ordering::SeqCst) < N && start.elapsed() < Duration::from_secs(60) {
            if let Ok(cqe) = b_recv.poll_timeout(Duration::from_millis(50)) {
                assert_eq!(cqe.status, CqeStatus::Success);
                let mut seq = [0u8; SLOT];
                sink.read_into(cqe.wr_id * SLOT as u64, &mut seq).unwrap();
                got.push((cqe.wr_id, u64::from_le_bytes(seq)));
                seen.fetch_add(1, Ordering::SeqCst);
            }
        }
        got
    };
    let (one, two) = std::thread::scope(|s| {
        let one = s.spawn(waiter);
        let two = s.spawn(waiter);
        for i in 0..N as u64 {
            qa.post_send(i, &i.to_le_bytes()[..], qb.dest()).unwrap();
            if i % 64 == 63 {
                while qa.send_cq().poll().is_some() {}
            }
        }
        (one.join().unwrap(), two.join().unwrap())
    });
    for got in [&one, &two] {
        assert!(
            got.windows(2).all(|w| w[0].0 < w[1].0),
            "one waiter saw completions out of order"
        );
        assert!(
            got.iter().all(|(wr_id, seq)| wr_id == seq),
            "a receive holds another message's bytes"
        );
    }
    let mut all: Vec<u64> = one.iter().chain(&two).map(|(wr_id, _)| *wr_id).collect();
    all.sort_unstable();
    assert_eq!(
        all,
        (0..N as u64).collect::<Vec<_>>(),
        "lost or repeated messages"
    );
    assert!(waiter_steps(&fab) > 0);
}

#[test]
fn a_cq_shared_by_two_qps_still_delivers_both() {
    let fab = Fabric::loopback();
    let (a, b) = (Device::new(&fab, NodeId(0)), Device::new(&fab, NodeId(1)));
    let shared = Cq::new(64);
    let qa = ud_qp(&a, &Cq::new(64));
    let qb1 = ud_qp(&b, &shared);
    let qb2 = ud_qp(&b, &shared);
    let sink = b.register(2 * 64, Access::Local);
    qb1.post_recv(RecvWr::whole(1, &sink)).unwrap();
    let second = b.register(64, Access::Local);
    qb2.post_recv(RecvWr::whole(2, &second)).unwrap();

    std::thread::scope(|s| {
        let waiter = s.spawn(|| {
            let mut ids: Vec<u64> = (0..2)
                .map(|_| shared.poll_timeout(TIMEOUT).unwrap().wr_id)
                .collect();
            ids.sort_unstable();
            ids
        });
        std::thread::sleep(Duration::from_millis(20));
        qa.post_send(10, &b"to one"[..], qb1.dest()).unwrap();
        qa.post_send(20, &b"to two"[..], qb2.dest()).unwrap();
        assert_eq!(waiter.join().unwrap(), [1, 2]);
    });
    assert_eq!(sink.read_vec(0, 6).unwrap(), b"to one");
    assert_eq!(second.read_vec(0, 6).unwrap(), b"to two");
    // A shared CQ is waited on as before: only the fallbacks drove.
    assert_eq!(waiter_steps(&fab), 0);
    assert!(fallback_drains(&fab) > 0);
}

#[test]
fn dropping_a_qp_under_its_waiter_returns_the_waiter_and_flushes() {
    const POSTED: usize = 4096;
    let fab = Fabric::loopback();
    let (a, b) = (Device::new(&fab, NodeId(0)), Device::new(&fab, NodeId(1)));
    let b_recv = Cq::new(POSTED);
    let qa = ud_qp(&a, &Cq::new(1 << 14));
    let qb = ud_qp(&b, &b_recv);
    let sink = b.register(POSTED * 8, Access::Local);
    post_slots(&qb, &sink, POSTED, 8);
    let dest = qb.dest();
    let stop = AtomicUsize::new(0);

    let (flushed, done) = std::thread::scope(|s| {
        // The waiter drives the stream until its QP is gone.
        let waiter = s.spawn(|| {
            let mut flushed = 0;
            loop {
                match b_recv.poll_timeout(Duration::from_millis(500)) {
                    Ok(cqe) if cqe.status == CqeStatus::Flushed => flushed += 1,
                    Ok(cqe) => assert_eq!(cqe.status, CqeStatus::Success),
                    Err(_) => return flushed,
                }
            }
        });
        // Half the posted receives at most, so some are left to flush.
        let sender = s.spawn(|| {
            let mut i = 0u64;
            while stop.load(Ordering::SeqCst) == 0 && i < POSTED as u64 / 2 {
                let _ = qa.post_send(i, &i.to_le_bytes()[..], dest);
                while qa.send_cq().poll().is_some() {}
                i += 1;
                if i.is_multiple_of(32) {
                    std::thread::yield_now();
                }
            }
        });
        std::thread::sleep(Duration::from_millis(30));
        // Drop on a detached thread so that a hang fails the test
        // instead of blocking it forever.
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            drop(qb);
            tx.send(()).unwrap();
        });
        let done = rx.recv_timeout(Duration::from_secs(5)).is_ok();
        stop.store(1, Ordering::SeqCst);
        sender.join().unwrap();
        (waiter.join().unwrap(), done)
    });
    assert!(
        done,
        "dropping the QP did not return (its engine thread never ended)"
    );
    assert!(
        flushed > 0,
        "the posted receives were not flushed to the waiter"
    );
    assert!(waiter_steps(&fab) > 0);
}

#[test]
fn a_waiter_parked_on_an_rd_qp_takes_its_messages() {
    let fab = Fabric::loopback();
    let (a, b) = (Device::new(&fab, NodeId(0)), Device::new(&fab, NodeId(1)));
    let b_recv = Cq::new(64);
    let qa = rd_qp(&a, &Cq::new(64));
    let qb = rd_qp(&b, &b_recv);
    let sink = b.register(ROUNDS as usize * 64, Access::Local);
    post_slots(&qb, &sink, ROUNDS as usize, 64);

    for i in 0..ROUNDS {
        let cqe = send_to_a_parked_waiter(&qa, &qb, &b_recv, i);
        assert_eq!(cqe.status, CqeStatus::Success);
        assert_eq!(cqe.wr_id, i);
        assert_eq!(sink.read_vec(i * 64, 8).unwrap(), i.to_le_bytes());
        if waiter_steps(&fab) > 0 {
            return;
        }
    }
    panic!("no RD message was taken by the thread waiting on the CQ");
}

#[test]
fn an_rd_sender_inside_no_call_recovers_a_loss_through_its_fallback() {
    let fab = first_packet_lost();
    let (a, b) = (Device::new(&fab, NodeId(0)), Device::new(&fab, NodeId(1)));
    let b_recv = Cq::new(64);
    let qa = rd_qp(&a, &Cq::new(64));
    let qb = rd_qp(&b, &b_recv);
    let sink = b.register(64, Access::Local);
    post_slots(&qb, &sink, 1, 64);

    // The send is lost, and the sender makes no call after it (no
    // `flush`, no wait on its CQs): only its fallback's retransmission
    // timer can deliver it.
    qa.post_send(1, &b"lost once"[..], qb.dest()).unwrap();
    let cqe = b_recv
        .poll_timeout(TIMEOUT)
        .expect("the lost message was never retransmitted");
    assert_eq!(cqe.status, CqeStatus::Success);
    assert_eq!(sink.read_vec(0, 9).unwrap(), b"lost once");
    assert!(counter(&fab, "simnet.rdgram.retransmits") >= 1);
}

#[test]
fn two_rd_qps_that_wait_on_their_receive_cqs_exchange_without_a_stall() {
    const N: u64 = 10_000;
    const SLOT: usize = 8;
    /// Messages a side may send beyond what its peer has received.
    const CREDIT: u64 = 16;
    let fab = Fabric::new(WireConfig::with_loss(0.01, 4711));
    let devs = [Device::new(&fab, NodeId(0)), Device::new(&fab, NodeId(1))];
    let cqs = [Cq::new(N as usize), Cq::new(N as usize)];
    let qps = [rd_qp(&devs[0], &cqs[0]), rd_qp(&devs[1], &cqs[1])];
    let sinks = devs
        .each_ref()
        .map(|dev| dev.register(N as usize * SLOT, Access::Local));
    for (qp, sink) in qps.iter().zip(&sinks) {
        post_slots(qp, sink, N as usize, SLOT);
    }
    // What each side has received so far: its peer's send credit.
    let got = [AtomicU64::new(0), AtomicU64::new(0)];
    let deadline = Instant::now() + Duration::from_secs(60);

    std::thread::scope(|s| {
        for me in 0..2 {
            let (qp, cq, sink) = (&qps[me], &cqs[me], &sinks[me]);
            let (peer, got) = (qps[1 - me].dest(), &got);
            s.spawn(move || {
                let (mut sent, mut taken) = (0u64, 0u64);
                while sent < N || taken < N {
                    let (s_at, t_at) = (sent, taken);
                    assert!(
                        Instant::now() < deadline,
                        "side {me} stalled: sent {s_at}, received {t_at} of {N}"
                    );
                    if sent < N && sent < got[1 - me].load(Ordering::SeqCst) + CREDIT {
                        qp.post_send(sent, &sent.to_le_bytes()[..], peer).unwrap();
                        while qp.send_cq().poll().is_some() {}
                        sent += 1;
                        continue;
                    }
                    if taken == N {
                        // Everything received, sends left: wait for
                        // credit inside no call on the QP, so the
                        // acknowledgements of this side's sends are the
                        // fallback's to take.
                        std::thread::yield_now();
                        continue;
                    }
                    let Ok(cqe) = cq.poll_timeout(Duration::from_millis(1)) else {
                        continue;
                    };
                    assert_eq!(cqe.status, CqeStatus::Success);
                    assert_eq!(cqe.wr_id, taken, "side {me} out of order");
                    let mut seq = [0u8; SLOT];
                    sink.read_into(taken * SLOT as u64, &mut seq).unwrap();
                    assert_eq!(u64::from_le_bytes(seq), taken, "side {me} misplaced");
                    taken += 1;
                    got[me].store(taken, Ordering::SeqCst);
                }
            });
        }
    });
    assert!(waiter_steps(&fab) > 0);
    assert!(counter(&fab, "simnet.rdgram.retransmits") > 0);
}

#[test]
fn an_rd_qp_on_a_sharded_device_still_recovers_a_loss() {
    let fab = first_packet_lost();
    let cfg = DeviceConfig {
        shard: ShardConfig::with_shards(1),
        ..DeviceConfig::default()
    };
    let a = Device::with_config(&fab, NodeId(0), cfg);
    let b = Device::new(&fab, NodeId(1));
    let b_recv = Cq::new(64);
    let qa = rd_qp(&a, &Cq::new(64));
    let qb = rd_qp(&b, &b_recv);
    let sink = b.register(64, Access::Local);
    post_slots(&qb, &sink, 1, 64);

    // A shard would drain the sender's arrivals but never fire its timer.
    qa.post_send(1, &b"lost once"[..], qb.dest()).unwrap();
    let cqe = b_recv
        .poll_timeout(TIMEOUT)
        .expect("the lost message was never retransmitted");
    assert_eq!(cqe.status, CqeStatus::Success);
    assert_eq!(sink.read_vec(0, 9).unwrap(), b"lost once");
    assert!(a.sharded() && !qa.is_sharded());
}

#[test]
fn dropping_an_rd_qp_under_its_waiter_returns_the_waiter() {
    const POSTED: usize = 4096;
    let fab = Fabric::loopback();
    let (a, b) = (Device::new(&fab, NodeId(0)), Device::new(&fab, NodeId(1)));
    let b_recv = Cq::new(POSTED);
    let qa = rd_qp(&a, &Cq::new(1 << 14));
    let qb = rd_qp(&b, &b_recv);
    let sink = b.register(POSTED * 8, Access::Local);
    post_slots(&qb, &sink, POSTED, 8);
    let dest = qb.dest();
    let stop = AtomicUsize::new(0);

    let (flushed, done) = std::thread::scope(|s| {
        let waiter = s.spawn(|| {
            let mut flushed = 0;
            loop {
                match b_recv.poll_timeout(Duration::from_millis(500)) {
                    Ok(cqe) if cqe.status == CqeStatus::Flushed => flushed += 1,
                    Ok(cqe) => assert_eq!(cqe.status, CqeStatus::Success),
                    Err(_) => return flushed,
                }
            }
        });
        // Half the posted receives at most, so some are left to flush.
        // Once the QP is gone its peer's sends stay unacknowledged, and
        // the sender stops.
        let sender = s.spawn(|| {
            let mut i = 0u64;
            while stop.load(Ordering::SeqCst) == 0 && i < POSTED as u64 / 2 {
                let _ = qa.post_send(i, &i.to_le_bytes()[..], dest);
                while qa.send_cq().poll().is_some() {}
                i += 1;
                if i.is_multiple_of(32) {
                    std::thread::yield_now();
                }
            }
        });
        std::thread::sleep(Duration::from_millis(30));
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            drop(qb);
            tx.send(()).unwrap();
        });
        let done = rx.recv_timeout(Duration::from_secs(5)).is_ok();
        stop.store(1, Ordering::SeqCst);
        sender.join().unwrap();
        (waiter.join().unwrap(), done)
    });
    assert!(
        done,
        "dropping the QP did not return (its engine thread never ended)"
    );
    assert!(
        flushed > 0,
        "the posted receives were not flushed to the waiter"
    );
    assert!(waiter_steps(&fab) > 0);
}
