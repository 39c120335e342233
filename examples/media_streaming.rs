//! Media streaming over the iWARP socket interface (the paper's VLC
//! experiment, Fig. 9).
//!
//! ```text
//! cargo run --release --example media_streaming
//! ```
//!
//! Streams the same media object three ways and compares the initial
//! buffering time the viewer experiences:
//!   * UDP-style over UD send/recv through the socket shim,
//!   * UDP-style over one-sided RDMA Write-Record through the shim,
//!   * HTTP/1.0 over the RC (TCP-like) stream — VLC's connection mode.

use datagram_iwarp::apps::media::{run_http_session, run_udp_session, MediaConfig};
use datagram_iwarp::net::{Fabric, NodeId, WireConfig};
use datagram_iwarp::sockets::{DgramMode, SocketConfig, SocketStack};

fn sock_cfg(mode: DgramMode) -> SocketConfig {
    SocketConfig {
        mode,
        recv_slots: 256,
        slot_size: 2048,
        ..SocketConfig::default()
    }
}

fn main() {
    let cfg = MediaConfig {
        chunk_size: 1316, // 7 MPEG-TS packets: the classic media datagram
        total_bytes: 4 << 20,
        bitrate_bps: 0, // stream as fast as the transport allows
        prebuffer_bytes: 512 * 1024,
        idle_timeout: std::time::Duration::from_millis(500),
    };
    println!(
        "streaming {} MiB, prebuffer target {} KiB, chunk {} B\n",
        cfg.total_bytes >> 20,
        cfg.prebuffer_bytes >> 10,
        cfg.chunk_size
    );

    let mut results = Vec::new();
    for (label, mode) in [
        ("UD send/recv", DgramMode::SendRecv),
        ("UD Write-Record", DgramMode::WriteRecord),
    ] {
        let fabric = Fabric::new(WireConfig::ten_gbe());
        let server =
            SocketStack::with_config(&fabric, NodeId(0), Default::default(), sock_cfg(mode));
        let client =
            SocketStack::with_config(&fabric, NodeId(1), Default::default(), sock_cfg(mode));
        let m = run_udp_session(&server, &client, &cfg).expect("udp session");
        println!(
            "{label:>18}: buffered in {:>7.1} ms, goodput {:>6.1} MB/s, lost {} of {} chunks",
            m.prebuffer_time.as_secs_f64() * 1e3,
            m.goodput_mbps(),
            m.chunks_lost,
            m.chunks_received + m.chunks_lost,
        );
        results.push((label, m.prebuffer_time));
    }

    let fabric = Fabric::new(WireConfig::ten_gbe());
    let server = SocketStack::with_config(
        &fabric,
        NodeId(0),
        Default::default(),
        sock_cfg(DgramMode::SendRecv),
    );
    let client = SocketStack::with_config(
        &fabric,
        NodeId(1),
        Default::default(),
        sock_cfg(DgramMode::SendRecv),
    );
    let m = run_http_session(&server, &client, 8080, &cfg).expect("http session");
    println!(
        "{:>18}: buffered in {:>7.1} ms, goodput {:>6.1} MB/s (reliable: nothing lost)",
        "RC (HTTP)",
        m.prebuffer_time.as_secs_f64() * 1e3,
        m.goodput_mbps(),
    );

    let best_ud = results
        .iter()
        .map(|(_, t)| *t)
        .min()
        .expect("two UD results");
    let saved = 100.0 * (1.0 - best_ud.as_secs_f64() / m.prebuffer_time.as_secs_f64());
    println!(
        "\nUD buffering is {saved:.1}% faster than RC/HTTP (paper reports 74.1% on their testbed)"
    );
}
