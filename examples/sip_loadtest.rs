//! SIP server load test (the paper's SIPp experiment, Figs. 10–11).
//!
//! ```text
//! cargo run --release --example sip_loadtest [-- <concurrent-calls>]
//! ```
//!
//! Spawns a SIP UAS over each transport, establishes N concurrent calls
//! with a SipStone-style load generator, and reports the INVITE→200
//! response time plus the server's instrumented memory at peak — the two
//! quantities behind the paper's "43.1% faster, 24.1% less memory" claims.

use std::time::Duration;

use datagram_iwarp::apps::sip::load::run_sip_load_with_peak_sample;
use datagram_iwarp::apps::sip::{SipLoadConfig, SipServer, SipServerConfig, SipTransport};
use datagram_iwarp::common::memacct::MemRegistry;
use datagram_iwarp::net::{Addr, Fabric, NodeId};
use datagram_iwarp::sockets::{SocketConfig, SocketStack};

fn stacks(fab: &Fabric, reg: MemRegistry) -> (SocketStack, SocketStack) {
    // Poll-mode everything: thousands of calls cost memory, not threads.
    let sock = SocketConfig {
        recv_slots: 8,
        slot_size: 2048,
        qp: datagram_iwarp::verbs::QpConfig {
            poll_mode: true,
            ..datagram_iwarp::verbs::QpConfig::default()
        },
        ..SocketConfig::default()
    };
    let stream = datagram_iwarp::net::stream::StreamConfig {
        snd_buf: 3072,
        rcv_buf: 3072,
        ..datagram_iwarp::net::stream::StreamConfig::default()
    };
    let server = SocketStack::with_config(
        fab,
        NodeId(1),
        datagram_iwarp::verbs::DeviceConfig {
            mem: Some(reg),
            stream: stream.clone(),
            ..datagram_iwarp::verbs::DeviceConfig::default()
        },
        sock.clone(),
    );
    let client = SocketStack::with_config(
        fab,
        NodeId(0),
        datagram_iwarp::verbs::DeviceConfig {
            stream,
            ..datagram_iwarp::verbs::DeviceConfig::default()
        },
        sock,
    );
    (server, client)
}

fn main() {
    let calls: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("calls must be a number"))
        .unwrap_or(500);
    println!("SipStone load: {calls} concurrent calls per transport\n");

    let mut memory = Vec::new();
    for (transport, port) in [(SipTransport::Ud, 5060u16), (SipTransport::Rc, 5061)] {
        let fab = Fabric::loopback();
        let reg = MemRegistry::new();
        let (server_stack, client_stack) = stacks(&fab, reg.clone());
        let server = SipServer::spawn(
            server_stack,
            SipServerConfig {
                transport,
                port,
                call_state_bytes: 1024,
            },
        )
        .expect("spawn server");

        let reg2 = reg.clone();
        let report = run_sip_load_with_peak_sample(
            &client_stack,
            &SipLoadConfig {
                calls,
                transport,
                server_addr: Addr::new(1, port),
                timeout: Duration::from_secs(30),
                call_state_bytes: 1024,
            },
            || {
                (
                    reg2.total_current(),
                    reg2.snapshot()
                        .into_iter()
                        .map(|(c, cur, _)| (c, cur))
                        .collect(),
                )
            },
        )
        .expect("load run");
        server.stop().expect("server stop");

        println!(
            "{transport:?}: {} calls, INVITE→200 median {:.0} µs (p95 {:.0} µs)",
            report.calls_established,
            report.response_us.median(),
            report.response_us.percentile(95.0),
        );
        println!(
            "  server memory at peak: {} KiB",
            report.server_mem_bytes >> 10
        );
        for (cat, bytes) in &report.server_mem_by_category {
            println!("    {cat:<16} {:>10} KiB", bytes >> 10);
        }
        memory.push(report.server_mem_bytes as f64);
        println!();
    }

    let improvement = 100.0 * (1.0 - memory[0] / memory[1]);
    println!(
        "UD server memory is {improvement:.1}% below RC at {calls} concurrent calls \
         (paper: 24.1% at 10000 calls)"
    );
}
