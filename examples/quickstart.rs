//! Quickstart: the datagram-iWARP API in five minutes.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Walks through the paper's core ideas end to end:
//! 1. two-sided send/recv over an unreliable-datagram (UD) queue pair,
//!    with the source address reported in the completion;
//! 2. **RDMA Write-Record** — the paper's one-sided write whose completion
//!    is logged at the *target*, no posted receive required;
//! 3. partial placement under packet loss, read back via the validity map;
//! 4. the reliable-connection (RC) baseline for comparison.

use std::time::Duration;

use datagram_iwarp::net::{Addr, Fabric, LossModel, NodeId, WireConfig};
use datagram_iwarp::verbs::wr::RecvWr;
use datagram_iwarp::verbs::{Access, Cq, CqeStatus, Device, QpConfig};

const TIMEOUT: Duration = Duration::from_secs(5);

fn main() {
    // ------------------------------------------------------------------
    // Substrate: an in-memory Ethernet fabric. Two "machines" attach.
    // ------------------------------------------------------------------
    let fabric = Fabric::loopback();
    let client_dev = Device::new(&fabric, NodeId(0));
    let server_dev = Device::new(&fabric, NodeId(1));

    // ------------------------------------------------------------------
    // 1. UD send/recv: connectionless two-sided messaging.
    // ------------------------------------------------------------------
    let (c_send, c_recv) = (Cq::new(64), Cq::new(64));
    let (s_send, s_recv) = (Cq::new(64), Cq::new(64));
    let client = client_dev
        .create_ud_qp(None, &c_send, &c_recv, QpConfig::default())
        .expect("client QP");
    let server = server_dev
        .create_ud_qp(Some(7000), &s_send, &s_recv, QpConfig::default())
        .expect("server QP");

    // The server posts a receive buffer, the client sends to the server's
    // (address, QP) — no connection anywhere.
    let sink = server_dev.register(4096, Access::Local);
    server
        .post_recv(RecvWr::whole(1, &sink))
        .expect("post recv");
    client
        .post_send(2, &b"hello over unreliable datagrams"[..], server.dest())
        .expect("post send");

    let cqe = s_recv.poll_timeout(TIMEOUT).expect("recv completion");
    let src = cqe.src.expect("datagram completions carry the source");
    println!(
        "UD send/recv: {} bytes from {} (QP {}): {:?}",
        cqe.byte_len,
        src.addr,
        src.qpn,
        String::from_utf8_lossy(&sink.read_vec(0, cqe.byte_len as usize).unwrap())
    );

    // ------------------------------------------------------------------
    // 2. RDMA Write-Record: one-sided, target-logged.
    // ------------------------------------------------------------------
    // The target registers a remote-writable region and advertises
    // (stag, offset) — here simply shared in-process.
    let window = server_dev.register(1 << 20, Access::RemoteWrite);
    client
        .post_write_record(
            3,
            &b"placed directly into registered memory"[..],
            server.dest(),
            window.stag(),
            128,
        )
        .expect("write-record");

    // No receive was posted: the completion is unsolicited at the target.
    let cqe = s_recv
        .poll_timeout(TIMEOUT)
        .expect("write-record completion");
    let info = cqe.write_record.expect("write-record info");
    println!(
        "Write-Record: {} valid bytes at sink offset {}, complete = {}",
        info.valid_bytes(),
        info.base_to,
        info.is_complete()
    );

    // ------------------------------------------------------------------
    // 3. Partial placement under loss: the validity map in action.
    // ------------------------------------------------------------------
    let lossy = Fabric::new(WireConfig {
        loss: LossModel::bernoulli(0.02),
        seed: 7,
        ..WireConfig::default()
    });
    let lc_dev = Device::new(&lossy, NodeId(0));
    let ls_dev = Device::new(&lossy, NodeId(1));
    let (lc_s, lc_r) = (Cq::new(64), Cq::new(64));
    let (ls_s, ls_r) = (Cq::new(64), Cq::new(64));
    let lc = lc_dev
        .create_ud_qp(None, &lc_s, &lc_r, QpConfig::default())
        .unwrap();
    let ls = ls_dev
        .create_ud_qp(None, &ls_s, &ls_r, QpConfig::default())
        .unwrap();
    let big_sink = ls_dev.register(1 << 20, Access::RemoteWrite);

    // A 1 MiB message = sixteen 64 KiB datagrams; at 2% wire loss some
    // datagrams usually vanish, and the completion declares what survived.
    let big = vec![0xEDu8; 1 << 20];
    for attempt in 0..20 {
        lc.post_write_record(4, big.clone(), ls.dest(), big_sink.stag(), 0)
            .expect("large write-record");
        match ls_r.poll_timeout(Duration::from_secs(2)) {
            Ok(cqe) => {
                let info = cqe.write_record.expect("info");
                match cqe.status {
                    CqeStatus::Success => {
                        println!("lossy fabric, attempt {attempt}: whole 1 MiB arrived");
                    }
                    CqeStatus::Partial => {
                        let gaps = info.validity.gaps(u64::from(info.total_len));
                        println!(
                            "lossy fabric, attempt {attempt}: partial placement — {} of {} bytes valid, {} gap(s); first gap [{}, {})",
                            info.valid_bytes(),
                            info.total_len,
                            gaps.len(),
                            gaps[0].start,
                            gaps[0].end
                        );
                        break;
                    }
                    other => println!("unexpected status {other:?}"),
                }
            }
            Err(_) => {
                // The final datagram was lost: the whole message is gone
                // (paper §VI.A.2) — the record table reaps it silently.
                println!("lossy fabric, attempt {attempt}: final segment lost, no completion");
            }
        }
    }

    // ------------------------------------------------------------------
    // 4. The RC baseline: connection + MPA negotiation, then send/recv.
    // ------------------------------------------------------------------
    let listener = server_dev.rc_listen(7001).expect("listen");
    let rc_pair = std::thread::scope(|s| {
        let srv = s.spawn(|| {
            listener
                .accept(TIMEOUT, &s_send, &s_recv, QpConfig::default())
                .expect("accept")
        });
        let rc_client = client_dev
            .rc_connect(Addr::new(1, 7001), &c_send, &c_recv, QpConfig::default())
            .expect("connect");
        (rc_client, srv.join().expect("server"))
    });
    let (rc_client, rc_server) = rc_pair;
    let rc_sink = server_dev.register(4096, Access::Local);
    rc_server
        .post_recv(RecvWr::whole(9, &rc_sink))
        .expect("post");
    rc_client
        .post_send(10, &b"same verbs, reliable connection"[..])
        .expect("send");
    let cqe = s_recv.poll_timeout(TIMEOUT).expect("rc recv");
    println!(
        "RC send/recv (QP {} ↔ QP {}): {} bytes over the MPA-framed stream",
        rc_client.qpn(),
        rc_server.qpn(),
        cqe.byte_len
    );

    println!("\nquickstart complete — see examples/media_streaming.rs next");
}
