//! Verbs-level micro-benchmarks: latency and bandwidth for the four
//! methods of the paper's Figs. 5–8, plus RD mode and the UD RDMA Read
//! extension.
//!
//! Latency is half the ping-pong round-trip (the paper's convention);
//! bandwidth is unidirectional with back-to-back messages ("one side is
//! sending back-to-back messages of the same size to the other side",
//! §VI.A.1), measured at the receiver so that loss sweeps report delivered
//! goodput.

use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use simnet::{Fabric, LossModel, NodeId, WireConfig};

use iwarp::wr::RecvWr;
use iwarp::{Access, Cq, CqeOpcode, CqeStatus, Device, QpConfig};
use iwarp_common::stats::Summary;
use iwarp_telemetry::Snapshot;

// Each measurement builds (and drops) its own fabric, so the per-fabric
// telemetry would vanish with it. The accumulator keeps a running merge
// that `figures --telemetry` drains after each figure.
static TEL_ACC: Mutex<Option<Snapshot>> = Mutex::new(None);

/// Folds `snap` into the process-wide telemetry accumulator (summing
/// counters shared across fabrics).
pub fn absorb_snapshot(snap: Snapshot) {
    let mut acc = TEL_ACC.lock().unwrap();
    match acc.as_mut() {
        Some(existing) => existing.merge(&snap),
        None => *acc = Some(snap),
    }
}

/// Takes the accumulated telemetry, leaving the accumulator empty.
pub fn drain_snapshot() -> Option<Snapshot> {
    TEL_ACC.lock().unwrap().take()
}

/// Which verbs data path to measure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// Two-sided send/recv over unreliable datagrams.
    UdSendRecv,
    /// One-sided RDMA Write-Record over unreliable datagrams.
    UdWriteRecord,
    /// Two-sided send/recv over the reliable connection (baseline).
    RcSendRecv,
    /// One-sided RDMA Write over the reliable connection, with the
    /// send/recv notification the standard requires (paper Fig. 3 top).
    RcRdmaWrite,
    /// Two-sided send/recv over reliable datagrams (RD mode).
    RdSendRecv,
    /// RDMA Read over unreliable datagrams (paper future-work extension).
    UdRead,
}

impl Method {
    /// All methods in the paper's Fig. 5/6 order.
    pub const FIG56: [Method; 4] = [
        Method::UdSendRecv,
        Method::UdWriteRecord,
        Method::RcSendRecv,
        Method::RcRdmaWrite,
    ];

    /// Display label matching the paper's legends.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Method::UdSendRecv => "UD Send/Recv",
            Method::UdWriteRecord => "UD RDMA Write-Record",
            Method::RcSendRecv => "RC Send/Recv",
            Method::RcRdmaWrite => "RC RDMA Write",
            Method::RdSendRecv => "RD Send/Recv",
            Method::UdRead => "UD RDMA Read",
        }
    }
}

/// Which wire model to run over.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FabricKind {
    /// Unpaced, zero-latency wire: isolates stack processing costs.
    Fast,
    /// The paper's testbed model: 10 Gbit/s, 1500 B MTU, 5 µs latency.
    TenGbe,
    /// 10GbE with Bernoulli packet loss at the given rate.
    TenGbeLoss(f64),
    /// Unpaced wire with Bernoulli loss (fast loss sweeps).
    FastLoss(f64),
}

impl FabricKind {
    /// Materializes the wire configuration (fixed seed per kind).
    #[must_use]
    pub fn config(self) -> WireConfig {
        match self {
            FabricKind::Fast => WireConfig::default(),
            FabricKind::TenGbe => WireConfig::ten_gbe(),
            FabricKind::TenGbeLoss(rate) => WireConfig {
                loss: LossModel::bernoulli(rate),
                seed: 0x5EED + (rate * 1e6) as u64,
                ..WireConfig::ten_gbe()
            },
            FabricKind::FastLoss(rate) => WireConfig {
                loss: LossModel::bernoulli(rate),
                seed: 0x5EED + (rate * 1e6) as u64,
                ..WireConfig::default()
            },
        }
    }
}

const POLL: Duration = Duration::from_secs(10);

fn qp_cfg() -> QpConfig {
    QpConfig {
        recv_ttl: Duration::from_millis(100),
        record_ttl: Duration::from_millis(100),
        read_ttl: Duration::from_millis(200),
        ..QpConfig::default()
    }
}

fn payload(size: usize) -> Bytes {
    Bytes::from((0..size).map(|i| (i % 251) as u8).collect::<Vec<u8>>())
}

/// Measures one-way latency (µs) for `method` at `size` bytes:
/// `warmup` unmeasured rounds, then `iters` measured ping-pongs.
///
/// Both peers run pinned to core 0, as the suite runs its workloads:
/// unpinned, host load decides the small-message rows. The pin is set on
/// a scoped thread whose children inherit it, so the caller stays
/// unpinned.
pub fn latency(
    kind: FabricKind,
    method: Method,
    size: usize,
    warmup: usize,
    iters: usize,
) -> Summary {
    std::thread::scope(|s| {
        s.spawn(|| {
            let _pinned = iwarp_common::affinity::pin_to_core(0);
            measure_latency(kind, method, size, warmup, iters)
        })
        .join()
        .expect("latency thread")
    })
}

fn measure_latency(
    kind: FabricKind,
    method: Method,
    size: usize,
    warmup: usize,
    iters: usize,
) -> Summary {
    let fabric = Fabric::new(kind.config());
    let dev_a = Device::new(&fabric, NodeId(0));
    let dev_b = Device::new(&fabric, NodeId(1));
    let total = warmup + iters;
    let summary = match method {
        Method::UdSendRecv => latency_dgram(&dev_a, &dev_b, size, warmup, iters, false, false),
        Method::RdSendRecv => latency_dgram(&dev_a, &dev_b, size, warmup, iters, false, true),
        Method::UdWriteRecord => latency_dgram(&dev_a, &dev_b, size, warmup, iters, true, false),
        Method::RcSendRecv => latency_rc_sendrecv(&dev_a, &dev_b, size, warmup, iters),
        Method::RcRdmaWrite => latency_rc_write(&dev_a, &dev_b, size, warmup, iters),
        Method::UdRead => latency_ud_read(&dev_a, &dev_b, size, warmup, iters, total),
    };
    absorb_snapshot(fabric.telemetry().snapshot());
    summary
}

fn latency_dgram(
    dev_a: &Device,
    dev_b: &Device,
    size: usize,
    warmup: usize,
    iters: usize,
    write_record: bool,
    rd: bool,
) -> Summary {
    let total = warmup + iters;
    let mk = |dev: &Device, scq: &Cq, rcq: &Cq| {
        if rd {
            dev.create_rd_qp(None, scq, rcq, qp_cfg()).expect("qp")
        } else {
            dev.create_ud_qp(None, scq, rcq, qp_cfg()).expect("qp")
        }
    };
    let (a_s, a_r) = (Cq::new(64), Cq::new(64));
    let (b_s, b_r) = (Cq::new(64), Cq::new(64));
    let qa = mk(dev_a, &a_s, &a_r);
    let qb = mk(dev_b, &b_s, &b_r);
    let a_dest = qa.dest();
    let b_dest = qb.dest();
    let a_sink = dev_a.register(size.max(1), Access::RemoteWrite);
    let b_sink = dev_b.register(size.max(1), Access::RemoteWrite);
    let data = payload(size);
    let (ready_tx, ready_rx) = mpsc::channel::<()>();

    std::thread::scope(|s| {
        // Echo server.
        let data_b = data.clone();
        let b_sink2 = b_sink.clone();
        s.spawn(move || {
            if !write_record {
                qb.post_recv(RecvWr::whole(0, &b_sink2)).expect("post");
                qb.post_recv(RecvWr::whole(1, &b_sink2)).expect("post");
            }
            ready_tx.send(()).expect("ready");
            for _ in 0..total {
                let cqe = qb.recv_cq().poll_timeout(POLL).expect("server poll");
                if write_record {
                    qb.post_write_record(0, data_b.clone(), a_dest, a_sink.stag(), 0)
                        .expect("echo");
                } else {
                    qb.post_recv(RecvWr::whole(cqe.wr_id, &b_sink2))
                        .expect("repost");
                    qb.post_send(0, data_b.clone(), a_dest).expect("echo");
                }
                while qb.send_cq().poll().is_some() {}
            }
        });

        let client_sink = dev_a.register(size.max(1), Access::Local);
        if !write_record {
            qa.post_recv(RecvWr::whole(0, &client_sink)).expect("post");
            qa.post_recv(RecvWr::whole(1, &client_sink)).expect("post");
        }
        ready_rx.recv_timeout(POLL).expect("server ready");
        let mut out = Summary::new();
        for i in 0..total {
            let t0 = Instant::now();
            if write_record {
                qa.post_write_record(0, data.clone(), b_dest, b_sink.stag(), 0)
                    .expect("send");
            } else {
                qa.post_send(0, data.clone(), b_dest).expect("send");
            }
            let cqe = qa.recv_cq().poll_timeout(POLL).expect("client poll");
            let rtt = t0.elapsed();
            if !write_record {
                qa.post_recv(RecvWr::whole(cqe.wr_id, &client_sink))
                    .expect("repost");
            }
            while qa.send_cq().poll().is_some() {}
            if i >= warmup {
                out.push(rtt.as_secs_f64() * 1e6 / 2.0);
            }
        }
        out
    })
}

fn latency_rc_sendrecv(
    dev_a: &Device,
    dev_b: &Device,
    size: usize,
    warmup: usize,
    iters: usize,
) -> Summary {
    let total = warmup + iters;
    let (a_s, a_r) = (Cq::new(64), Cq::new(64));
    let (b_s, b_r) = (Cq::new(64), Cq::new(64));
    let listener = dev_b.rc_listen(4900).expect("listen");
    std::thread::scope(|s| {
        let srv = s.spawn(move || {
            let qb = listener.accept(POLL, &b_s, &b_r, qp_cfg()).expect("accept");
            let sink = dev_b.register(size.max(1), Access::Local);
            let data = payload(size);
            qb.post_recv(RecvWr::whole(0, &sink)).expect("post");
            qb.post_recv(RecvWr::whole(1, &sink)).expect("post");
            for _ in 0..total {
                let cqe = qb.recv_cq().poll_timeout(POLL).expect("server poll");
                qb.post_recv(RecvWr::whole(cqe.wr_id, &sink))
                    .expect("repost");
                qb.post_send(0, data.clone()).expect("echo");
                while qb.send_cq().poll().is_some() {}
            }
            qb
        });
        let qa = dev_a
            .rc_connect(simnet::Addr::new(1, 4900), &a_s, &a_r, qp_cfg())
            .expect("connect");
        let sink = dev_a.register(size.max(1), Access::Local);
        let data = payload(size);
        qa.post_recv(RecvWr::whole(0, &sink)).expect("post");
        qa.post_recv(RecvWr::whole(1, &sink)).expect("post");
        let mut out = Summary::new();
        for i in 0..total {
            let t0 = Instant::now();
            qa.post_send(0, data.clone()).expect("send");
            let cqe = qa.recv_cq().poll_timeout(POLL).expect("client poll");
            let rtt = t0.elapsed();
            qa.post_recv(RecvWr::whole(cqe.wr_id, &sink))
                .expect("repost");
            while qa.send_cq().poll().is_some() {}
            if i >= warmup {
                out.push(rtt.as_secs_f64() * 1e6 / 2.0);
            }
        }
        drop(srv.join().expect("server"));
        out
    })
}

fn latency_rc_write(
    dev_a: &Device,
    dev_b: &Device,
    size: usize,
    warmup: usize,
    iters: usize,
) -> Summary {
    let total = warmup + iters;
    let (a_s, a_r) = (Cq::new(64), Cq::new(64));
    let (b_s, b_r) = (Cq::new(64), Cq::new(64));
    let listener = dev_b.rc_listen(4901).expect("listen");
    // Both sides expose a remote-writable sink; STags travel via channel
    // (the application-level buffer advertisement).
    let (stag_tx, stag_rx) = mpsc::channel::<u32>();
    let a_sink = dev_a.register(size.max(1), Access::RemoteWrite);
    let a_stag = a_sink.stag();
    std::thread::scope(|s| {
        let srv = s.spawn(move || {
            let qb = listener.accept(POLL, &b_s, &b_r, qp_cfg()).expect("accept");
            let b_sink = dev_b.register(size.max(1), Access::RemoteWrite);
            stag_tx.send(b_sink.stag()).expect("stag");
            let notify_sink = dev_b.register(1, Access::Local);
            let data = payload(size);
            qb.post_recv(RecvWr::whole(0, &notify_sink)).expect("post");
            qb.post_recv(RecvWr::whole(1, &notify_sink)).expect("post");
            for _ in 0..total {
                // Wait for the notification that the write landed.
                let cqe = qb.recv_cq().poll_timeout(POLL).expect("server poll");
                qb.post_recv(RecvWr::whole(cqe.wr_id, &notify_sink))
                    .expect("repost");
                // Echo: RDMA Write back + notify.
                qb.post_rdma_write(0, data.clone(), a_stag, 0)
                    .expect("write");
                qb.post_send(0, Bytes::from_static(b"!")).expect("notify");
                while qb.send_cq().poll().is_some() {}
            }
            qb
        });
        let qa = dev_a
            .rc_connect(simnet::Addr::new(1, 4901), &a_s, &a_r, qp_cfg())
            .expect("connect");
        let b_stag = stag_rx.recv_timeout(POLL).expect("stag");
        let notify_sink = dev_a.register(1, Access::Local);
        let data = payload(size);
        qa.post_recv(RecvWr::whole(0, &notify_sink)).expect("post");
        qa.post_recv(RecvWr::whole(1, &notify_sink)).expect("post");
        let mut out = Summary::new();
        for i in 0..total {
            let t0 = Instant::now();
            qa.post_rdma_write(0, data.clone(), b_stag, 0)
                .expect("write");
            qa.post_send(0, Bytes::from_static(b"!")).expect("notify");
            let cqe = qa.recv_cq().poll_timeout(POLL).expect("client poll");
            let rtt = t0.elapsed();
            qa.post_recv(RecvWr::whole(cqe.wr_id, &notify_sink))
                .expect("repost");
            while qa.send_cq().poll().is_some() {}
            if i >= warmup {
                out.push(rtt.as_secs_f64() * 1e6 / 2.0);
            }
        }
        drop(srv.join().expect("server"));
        out
    })
}

fn latency_ud_read(
    dev_a: &Device,
    dev_b: &Device,
    size: usize,
    warmup: usize,
    iters: usize,
    _total: usize,
) -> Summary {
    let (a_s, a_r) = (Cq::new(64), Cq::new(64));
    let (b_s, b_r) = (Cq::new(64), Cq::new(64));
    let qa = dev_a.create_ud_qp(None, &a_s, &a_r, qp_cfg()).expect("qp");
    let qb = dev_b.create_ud_qp(None, &b_s, &b_r, qp_cfg()).expect("qp");
    let remote = dev_b.register_with(&payload(size.max(1)), Access::RemoteRead);
    let sink = dev_a.register(size.max(1), Access::Local);
    let mut out = Summary::new();
    for i in 0..warmup + iters {
        let t0 = Instant::now();
        qa.post_read(0, &sink, 0, size.max(1) as u32, qb.dest(), remote.stag(), 0)
            .expect("read");
        qa.recv_cq().poll_timeout(POLL).expect("read cqe");
        let rtt = t0.elapsed();
        if i >= warmup {
            // A read is inherently round-trip; report it whole.
            out.push(rtt.as_secs_f64() * 1e6);
        }
    }
    drop(qb);
    out
}

/// What a bandwidth run measured.
#[derive(Clone, Copy, Debug)]
pub struct BwResult {
    /// Delivered goodput in MB/s (10^6 bytes).
    pub mbps: f64,
    /// Messages sent.
    pub sent: usize,
    /// Messages delivered whole (or declared, for Write-Record).
    pub delivered: usize,
    /// Valid bytes delivered (counts partial placement for Write-Record).
    pub delivered_bytes: u64,
}

/// Picks the per-size message count: ≈32 MiB of traffic, clamped.
#[must_use]
pub fn default_burst(size: usize) -> usize {
    (32 * 1024 * 1024 / size.max(1)).clamp(16, 512)
}

/// Measures unidirectional bandwidth for `method` at `size` bytes with a
/// burst of `n` back-to-back messages.
pub fn bandwidth(kind: FabricKind, method: Method, size: usize, n: usize) -> BwResult {
    bandwidth_with_config(kind.config(), method, size, n)
}

/// [`bandwidth`] over an arbitrary wire configuration (custom loss
/// models, MTUs, seeds).
pub fn bandwidth_with_config(cfg: WireConfig, method: Method, size: usize, n: usize) -> BwResult {
    let fabric = Fabric::new(cfg);
    let dev_a = Device::new(&fabric, NodeId(0));
    let dev_b = Device::new(&fabric, NodeId(1));
    let result = match method {
        Method::UdSendRecv => bw_dgram(&dev_a, &dev_b, size, n, false, false),
        Method::RdSendRecv => bw_dgram(&dev_a, &dev_b, size, n, false, true),
        Method::UdWriteRecord => bw_dgram(&dev_a, &dev_b, size, n, true, false),
        Method::RcSendRecv => bw_rc_sendrecv(&dev_a, &dev_b, size, n),
        Method::RcRdmaWrite => bw_rc_write(&dev_a, &dev_b, size, n),
        Method::UdRead => bw_ud_read(&dev_a, &dev_b, size, n),
    };
    absorb_snapshot(fabric.telemetry().snapshot());
    result
}

/// Receiver-side tally: waits for up to `n` terminal completions, ending
/// after `quiet` without progress. The clock runs from `start` — captured
/// by the sender immediately before its first post — to the last
/// completion, so the measurement covers the full transfer pipeline.
/// Returns (delivered, bytes, elapsed).
fn drain_completions(
    cq: &Cq,
    n: usize,
    start_rx: &mpsc::Receiver<Instant>,
    quiet: Duration,
    write_record: bool,
) -> (usize, u64, Duration) {
    let mut delivered = 0usize;
    let mut bytes = 0u64;
    let mut last = None;
    let mut terminal = 0usize;
    while terminal < n {
        match cq.poll_timeout(quiet) {
            Ok(cqe) => {
                last = Some(Instant::now());
                terminal += 1;
                match cqe.status {
                    CqeStatus::Success => {
                        delivered += 1;
                        bytes += u64::from(cqe.byte_len);
                    }
                    CqeStatus::Partial if write_record => {
                        // Partial placement still delivers valid bytes —
                        // the Fig. 8 advantage.
                        delivered += 1;
                        bytes += u64::from(cqe.byte_len);
                    }
                    _ => {}
                }
            }
            Err(_) => break, // quiet period: missing messages never arrive
        }
    }
    let start = start_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("sender start timestamp");
    let elapsed = match last {
        Some(l) if l > start => l - start,
        _ => Duration::from_micros(1),
    };
    (delivered, bytes, elapsed)
}

fn mbps(bytes: u64, elapsed: Duration) -> f64 {
    if elapsed.is_zero() {
        return 0.0;
    }
    bytes as f64 / 1e6 / elapsed.as_secs_f64()
}

fn bw_dgram(
    dev_a: &Device,
    dev_b: &Device,
    size: usize,
    n: usize,
    write_record: bool,
    rd: bool,
) -> BwResult {
    let (a_s, a_r) = (Cq::new(n + 64), Cq::new(n + 64));
    let (b_s, b_r) = (Cq::new(n + 64), Cq::new(n + 64));
    let mk = |dev: &Device, scq: &Cq, rcq: &Cq| {
        if rd {
            dev.create_rd_qp(None, scq, rcq, qp_cfg()).expect("qp")
        } else {
            dev.create_ud_qp(None, scq, rcq, qp_cfg()).expect("qp")
        }
    };
    let qa = mk(dev_a, &a_s, &a_r);
    let qb = mk(dev_b, &b_s, &b_r);
    let b_dest = qb.dest();
    let sink = dev_b.register(size.max(1), Access::RemoteWrite);
    let data = payload(size);
    let (ready_tx, ready_rx) = mpsc::channel::<()>();
    let (start_tx, start_rx) = mpsc::channel::<Instant>();

    std::thread::scope(|s| {
        let qb_ref = &qb;
        let sink_ref = &sink;
        let counter = s.spawn(move || {
            if !write_record {
                for i in 0..n {
                    qb_ref
                        .post_recv(RecvWr::whole(i as u64, sink_ref))
                        .expect("prepost");
                }
            }
            ready_tx.send(()).expect("ready");
            drain_completions(
                qb_ref.recv_cq(),
                n,
                &start_rx,
                Duration::from_millis(400),
                write_record,
            )
        });
        ready_rx.recv_timeout(POLL).expect("server ready");
        start_tx.send(Instant::now()).expect("start");
        for _ in 0..n {
            if write_record {
                qa.post_write_record(0, data.clone(), b_dest, sink.stag(), 0)
                    .expect("post");
            } else {
                qa.post_send(0, data.clone(), b_dest).expect("post");
            }
            while qa.send_cq().poll().is_some() {}
        }
        let (delivered, bytes, elapsed) = counter.join().expect("counter");
        BwResult {
            mbps: mbps(bytes, elapsed),
            sent: n,
            delivered,
            delivered_bytes: bytes,
        }
    })
}

fn bw_rc_sendrecv(dev_a: &Device, dev_b: &Device, size: usize, n: usize) -> BwResult {
    let (a_s, a_r) = (Cq::new(n + 64), Cq::new(n + 64));
    let (b_s, b_r) = (Cq::new(n + 64), Cq::new(n + 64));
    let listener = dev_b.rc_listen(4902).expect("listen");
    let (ready_tx, ready_rx) = mpsc::channel::<()>();
    let (start_tx, start_rx) = mpsc::channel::<Instant>();
    std::thread::scope(|s| {
        let counter = s.spawn(move || {
            let qb = listener.accept(POLL, &b_s, &b_r, qp_cfg()).expect("accept");
            let sink = dev_b.register(size.max(1), Access::Local);
            for i in 0..n {
                qb.post_recv(RecvWr::whole(i as u64, &sink))
                    .expect("prepost");
            }
            ready_tx.send(()).expect("ready");
            let out = drain_completions(qb.recv_cq(), n, &start_rx, Duration::from_secs(2), false);
            (out, qb)
        });
        let qa = dev_a
            .rc_connect(simnet::Addr::new(1, 4902), &a_s, &a_r, qp_cfg())
            .expect("connect");
        ready_rx.recv_timeout(POLL).expect("server ready");
        start_tx.send(Instant::now()).expect("start");
        let data = payload(size);
        for _ in 0..n {
            qa.post_send(0, data.clone()).expect("post");
            while qa.send_cq().poll().is_some() {}
        }
        let ((delivered, bytes, elapsed), qb) = counter.join().expect("counter");
        drop(qb);
        BwResult {
            mbps: mbps(bytes, elapsed),
            sent: n,
            delivered,
            delivered_bytes: bytes,
        }
    })
}

fn bw_rc_write(dev_a: &Device, dev_b: &Device, size: usize, n: usize) -> BwResult {
    let (a_s, a_r) = (Cq::new(n + 64), Cq::new(n + 64));
    let (b_s, b_r) = (Cq::new(n + 64), Cq::new(n + 64));
    let listener = dev_b.rc_listen(4903).expect("listen");
    let (stag_tx, stag_rx) = mpsc::channel::<u32>();
    std::thread::scope(|s| {
        let echo = s.spawn(move || {
            let qb = listener.accept(POLL, &b_s, &b_r, qp_cfg()).expect("accept");
            let sink = dev_b.register(size.max(1), Access::RemoteWrite);
            stag_tx.send(sink.stag()).expect("stag");
            let notify_sink = dev_b.register(1, Access::Local);
            qb.post_recv(RecvWr::whole(0, &notify_sink)).expect("post");
            // The final notify arrives strictly after every write placed
            // (stream ordering); reply so the sender can stop its clock.
            qb.recv_cq().poll_timeout(POLL).expect("notify");
            qb.post_send(0, Bytes::from_static(b"!")).expect("reply");
            while qb.send_cq().poll().is_some() {}
            qb
        });
        let qa = dev_a
            .rc_connect(simnet::Addr::new(1, 4903), &a_s, &a_r, qp_cfg())
            .expect("connect");
        let stag = stag_rx.recv_timeout(POLL).expect("stag");
        let reply_sink = dev_a.register(1, Access::Local);
        qa.post_recv(RecvWr::whole(0, &reply_sink)).expect("post");
        let data = payload(size);
        let t0 = Instant::now();
        for _ in 0..n {
            qa.post_rdma_write(0, data.clone(), stag, 0).expect("post");
            while qa.send_cq().poll().is_some() {}
        }
        qa.post_send(0, Bytes::from_static(b"!")).expect("notify");
        qa.recv_cq().poll_timeout(POLL).expect("reply");
        let elapsed = t0.elapsed();
        drop(echo.join().expect("echo"));
        let bytes = (n * size) as u64;
        BwResult {
            mbps: mbps(bytes, elapsed),
            sent: n,
            delivered: n,
            delivered_bytes: bytes,
        }
    })
}

fn bw_ud_read(dev_a: &Device, dev_b: &Device, size: usize, n: usize) -> BwResult {
    let (a_s, a_r) = (Cq::new(n + 64), Cq::new(n + 64));
    let (b_s, b_r) = (Cq::new(n + 64), Cq::new(n + 64));
    let qa = dev_a.create_ud_qp(None, &a_s, &a_r, qp_cfg()).expect("qp");
    let qb = dev_b.create_ud_qp(None, &b_s, &b_r, qp_cfg()).expect("qp");
    let remote = dev_b.register_with(&payload(size.max(1)), Access::RemoteRead);
    let sink = dev_a.register(size.max(1), Access::Local);
    let t0 = Instant::now();
    // Pipeline reads with a modest window to bound reassembly state.
    let window = 8usize.min(n);
    let mut issued = 0usize;
    let mut done = 0usize;
    let mut delivered = 0usize;
    let mut bytes = 0u64;
    while done < n {
        while issued < n && issued - done < window {
            qa.post_read(
                issued as u64,
                &sink,
                0,
                size.max(1) as u32,
                qb.dest(),
                remote.stag(),
                0,
            )
            .expect("read");
            issued += 1;
        }
        match qa.recv_cq().poll_timeout(Duration::from_millis(500)) {
            Ok(cqe) => {
                done += 1;
                if cqe.opcode == CqeOpcode::RdmaRead && cqe.status == CqeStatus::Success {
                    delivered += 1;
                    bytes += u64::from(cqe.byte_len);
                }
            }
            Err(_) => break,
        }
    }
    let elapsed = t0.elapsed();
    drop(qb);
    BwResult {
        mbps: mbps(bytes, elapsed),
        sent: n,
        delivered,
        delivered_bytes: bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_all_methods_smoke() {
        for method in [
            Method::UdSendRecv,
            Method::UdWriteRecord,
            Method::RcSendRecv,
            Method::RcRdmaWrite,
            Method::RdSendRecv,
            Method::UdRead,
        ] {
            let s = latency(FabricKind::Fast, method, 64, 2, 5);
            assert_eq!(s.len(), 5, "{method:?}");
            assert!(s.median() > 0.0, "{method:?}");
        }
    }

    #[test]
    fn bandwidth_all_methods_smoke() {
        for method in [
            Method::UdSendRecv,
            Method::UdWriteRecord,
            Method::RcSendRecv,
            Method::RcRdmaWrite,
            Method::RdSendRecv,
            Method::UdRead,
        ] {
            let r = bandwidth(FabricKind::Fast, method, 4096, 32);
            assert_eq!(r.sent, 32, "{method:?}");
            assert!(r.delivered > 0, "{method:?}");
            assert!(r.mbps > 0.0, "{method:?}");
        }
    }

    #[test]
    fn lossless_bandwidth_delivers_everything() {
        let r = bandwidth(FabricKind::Fast, Method::UdSendRecv, 16 * 1024, 32);
        assert_eq!(r.delivered, 32);
        assert_eq!(r.delivered_bytes, 32 * 16 * 1024);
    }

    #[test]
    fn loss_reduces_udp_goodput() {
        // 256 KiB messages at 2% wire loss: most messages lose a datagram.
        let clean = bandwidth(FabricKind::Fast, Method::UdSendRecv, 256 * 1024, 24);
        let lossy = bandwidth(
            FabricKind::FastLoss(0.02),
            Method::UdSendRecv,
            256 * 1024,
            24,
        );
        assert!(lossy.delivered < clean.delivered);
    }

    #[test]
    fn write_record_partial_beats_sendrecv_under_loss_large_msgs() {
        // The Fig. 8 claim: for multi-datagram messages under loss,
        // Write-Record's partial placement salvages bytes that send/recv
        // must discard.
        let size = 512 * 1024;
        let sr = bandwidth(FabricKind::FastLoss(0.01), Method::UdSendRecv, size, 24);
        let wr = bandwidth(FabricKind::FastLoss(0.01), Method::UdWriteRecord, size, 24);
        assert!(
            wr.delivered_bytes > sr.delivered_bytes,
            "WR {} vs SR {}",
            wr.delivered_bytes,
            sr.delivered_bytes
        );
    }

    #[test]
    fn default_burst_clamps() {
        assert_eq!(default_burst(1), 512);
        assert_eq!(default_burst(1024 * 1024), 32);
        assert_eq!(default_burst(16 * 1024 * 1024), 16);
    }
}
