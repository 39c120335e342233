//! Media streaming workload (the paper's VLC experiment, §VI.B.1).
//!
//! A server streams a media object to one client; the client reports the
//! **initial buffering time** — how long until `prebuffer_bytes` of media
//! are locally buffered and playback could start — plus total transfer
//! statistics. Three transports reproduce the paper's comparisons:
//!
//! * [`run_udp_session`] — UDP-style streaming through the iWARP socket
//!   shim over a **UD QP** (send/recv or Write-Record, per the stack's
//!   [`iwarp_socket::DgramMode`]);
//! * [`run_http_session`] — VLC's RC-compatible mode: an HTTP/1.0 GET over
//!   a **stream socket** (RC QP), headers included, which is how the paper
//!   compares UD against a connection-oriented transport;
//! * [`run_native_udp_session`] — the same flow over the raw datagram
//!   conduit with *no iWARP stack at all*, the baseline for the ~2 %
//!   shim-overhead measurement (§VI.B.2).

use std::time::{Duration, Instant};

use bytes::{BufMut, Bytes, BytesMut};
use simnet::{Addr, Fabric, NodeId};

use iwarp::{IwarpError, IwarpResult};
use iwarp_socket::SocketStack;

/// Streaming workload parameters.
#[derive(Clone, Debug)]
pub struct MediaConfig {
    /// Media payload bytes per chunk (1316 ≈ 7 TS packets, the classic
    /// RTP-over-UDP media datagram).
    pub chunk_size: usize,
    /// Total media bytes to stream.
    pub total_bytes: usize,
    /// Server pacing in bits/s of media payload; 0 streams flat out.
    pub bitrate_bps: u64,
    /// Client buffering target before "playback" starts.
    pub prebuffer_bytes: usize,
    /// Client idle timeout that ends the session (datagram modes).
    pub idle_timeout: Duration,
}

impl Default for MediaConfig {
    fn default() -> Self {
        Self {
            chunk_size: 1316,
            total_bytes: 2 * 1024 * 1024,
            bitrate_bps: 0,
            prebuffer_bytes: 256 * 1024,
            idle_timeout: Duration::from_millis(500),
        }
    }
}

/// What the client observed.
#[derive(Clone, Debug)]
pub struct MediaMetrics {
    /// Time from the play request until `prebuffer_bytes` were buffered —
    /// the paper's Fig. 9 metric.
    pub prebuffer_time: Duration,
    /// Time from the play request until the stream ended.
    pub total_time: Duration,
    /// Media bytes received.
    pub bytes_received: usize,
    /// Chunks received.
    pub chunks_received: u64,
    /// Chunks missing (sequence gaps — loss on datagram transports).
    pub chunks_lost: u64,
}

impl MediaMetrics {
    /// Application-level goodput in MB/s over the full session.
    #[must_use]
    pub fn goodput_mbps(&self) -> f64 {
        if self.total_time.as_secs_f64() == 0.0 {
            return 0.0;
        }
        self.bytes_received as f64 / 1e6 / self.total_time.as_secs_f64()
    }
}

/// Chunk wire format: seq(8) + flags(1) + payload. Flag bit 0 marks the
/// final chunk of the stream.
const CHUNK_HEADER: usize = 9;
const FLAG_END: u8 = 0x01;

fn make_chunk(seq: u64, len: usize, last: bool) -> Bytes {
    let mut b = BytesMut::with_capacity(CHUNK_HEADER + len);
    b.put_u64(seq);
    b.put_u8(if last { FLAG_END } else { 0 });
    // Deterministic payload so tests can verify integrity.
    b.extend((0..len).map(|i| (seq as usize + i) as u8));
    b.freeze()
}

fn parse_chunk(raw: &[u8]) -> Option<(u64, bool, &[u8])> {
    if raw.len() < CHUNK_HEADER {
        return None;
    }
    let seq = u64::from_be_bytes(raw[..8].try_into().ok()?);
    let last = raw[8] & FLAG_END != 0;
    Some((seq, last, &raw[CHUNK_HEADER..]))
}

/// Paces the sender to `bitrate_bps` of media payload.
struct Pacer {
    start: Instant,
    sent_bytes: u64,
    bitrate_bps: u64,
}

impl Pacer {
    fn new(bitrate_bps: u64) -> Self {
        Self {
            start: Instant::now(),
            sent_bytes: 0,
            bitrate_bps,
        }
    }

    fn sent(&mut self, bytes: usize) {
        self.sent_bytes += bytes as u64;
        if self.bitrate_bps == 0 {
            return;
        }
        let due = Duration::from_secs_f64(self.sent_bytes as f64 * 8.0 / self.bitrate_bps as f64);
        let elapsed = self.start.elapsed();
        if due > elapsed {
            std::thread::sleep(due - elapsed);
        }
    }
}

fn chunk_plan(cfg: &MediaConfig) -> Vec<(u64, usize, bool)> {
    let n_chunks = cfg.total_bytes.div_ceil(cfg.chunk_size.max(1));
    (0..n_chunks)
        .map(|i| {
            let len = cfg.chunk_size.min(cfg.total_bytes - i * cfg.chunk_size);
            (i as u64, len, i + 1 == n_chunks)
        })
        .collect()
}

/// Client-side accounting shared by all transports.
struct ClientTally {
    started: Instant,
    prebuffer_at: Option<Instant>,
    last_chunk_at: Option<Instant>,
    bytes: usize,
    chunks: u64,
    max_seq: Option<u64>,
    done: bool,
}

impl ClientTally {
    fn new() -> Self {
        Self {
            started: Instant::now(),
            prebuffer_at: None,
            last_chunk_at: None,
            bytes: 0,
            chunks: 0,
            max_seq: None,
            done: false,
        }
    }

    fn on_chunk(&mut self, cfg: &MediaConfig, seq: u64, last: bool, payload_len: usize) {
        self.bytes += payload_len;
        self.chunks += 1;
        self.last_chunk_at = Some(Instant::now());
        self.max_seq = Some(self.max_seq.map_or(seq, |m| m.max(seq)));
        if self.prebuffer_at.is_none() && self.bytes >= cfg.prebuffer_bytes.min(cfg.total_bytes) {
            self.prebuffer_at = Some(Instant::now());
        }
        if last {
            self.done = true;
        }
    }

    fn finish(self) -> MediaMetrics {
        // End the session clock at the last media byte, not at the idle
        // timeout that detected the stream went quiet.
        let total_time = self
            .last_chunk_at
            .map_or_else(|| self.started.elapsed(), |t| t - self.started);
        MediaMetrics {
            prebuffer_time: self.prebuffer_at.map_or(total_time, |t| t - self.started),
            total_time,
            bytes_received: self.bytes,
            chunks_received: self.chunks,
            chunks_lost: self
                .max_seq
                .map_or(0, |m| (m + 1).saturating_sub(self.chunks)),
        }
    }
}

/// Runs one UDP-mode streaming session through the iWARP socket shim.
/// The socket stacks choose the datagram data path
/// ([`iwarp_socket::DgramMode`]);
/// `chunk_size` must fit the stacks' receive slots.
pub fn run_udp_session(
    server_stack: &SocketStack,
    client_stack: &SocketStack,
    cfg: &MediaConfig,
) -> IwarpResult<MediaMetrics> {
    assert!(
        cfg.chunk_size + CHUNK_HEADER <= server_stack.config().slot_size,
        "chunk must fit a receive slot"
    );
    let server = server_stack.dgram()?;
    let client = client_stack.dgram()?;
    let server_addr = server.local_addr();

    std::thread::scope(|s| {
        let srv = s.spawn(move || -> IwarpResult<()> {
            // Wait for the PLAY request, then stream.
            let mut buf = [0u8; 64];
            let (_, viewer) = server.recv_from(&mut buf, Duration::from_secs(10))?;
            let mut pacer = Pacer::new(cfg.bitrate_bps);
            for (seq, len, last) in chunk_plan(cfg) {
                let chunk = make_chunk(seq, len, last);
                if last {
                    // The end marker is precious on a lossy transport:
                    // send it a few times (cheap application-level FEC).
                    for _ in 0..3 {
                        server.send_to(&chunk, viewer)?;
                    }
                } else {
                    server.send_to(&chunk, viewer)?;
                }
                pacer.sent(len);
            }
            Ok(())
        });

        client.send_to(b"PLAY", server_addr)?;
        let mut tally = ClientTally::new();
        let mut buf = vec![0u8; cfg.chunk_size + CHUNK_HEADER];
        while !tally.done {
            match client.recv_from(&mut buf, cfg.idle_timeout) {
                Ok((n, _)) => {
                    if let Some((seq, last, payload)) = parse_chunk(&buf[..n]) {
                        tally.on_chunk(cfg, seq, last, payload.len());
                    }
                }
                Err(IwarpError::PollTimeout) => break, // stream went quiet
                Err(e) => return Err(e),
            }
        }
        srv.join().expect("server thread")?;
        Ok(tally.finish())
    })
}

/// Runs one HTTP-over-RC streaming session (the paper's VLC "RC
/// compatible mode ... HTTP-based").
pub fn run_http_session(
    server_stack: &SocketStack,
    client_stack: &SocketStack,
    port: u16,
    cfg: &MediaConfig,
) -> IwarpResult<MediaMetrics> {
    let listener = server_stack.listen(port)?;
    let server_node_addr = Addr {
        node: server_stack.device().node(),
        port,
    };

    std::thread::scope(|s| {
        let srv = s.spawn(move || -> IwarpResult<()> {
            let conn = listener.accept(Duration::from_secs(10))?;
            // Read the request up to the blank line.
            let mut req = Vec::new();
            let mut byte = [0u8; 1];
            while !req.ends_with(b"\r\n\r\n") && req.len() < 4096 {
                conn.recv_exact(&mut byte, Duration::from_secs(10))?;
                req.push(byte[0]);
            }
            let header = format!(
                "HTTP/1.0 200 OK\r\nServer: iwarp-media\r\nContent-Type: video/mp2t\r\nContent-Length: {}\r\n\r\n",
                cfg.total_bytes + chunk_plan(cfg).len() * CHUNK_HEADER
            );
            conn.send(header.as_bytes())?;
            let mut pacer = Pacer::new(cfg.bitrate_bps);
            for (seq, len, last) in chunk_plan(cfg) {
                conn.send(&make_chunk(seq, len, last))?;
                pacer.sent(len);
            }
            Ok(())
        });

        let conn = client_stack.connect(server_node_addr)?;
        conn.send(b"GET /stream HTTP/1.0\r\nHost: media\r\nUser-Agent: iwarp-vlc\r\n\r\n")?;
        let mut tally = ClientTally::new();

        // Read the response headers.
        let mut hdr = Vec::new();
        let mut byte = [0u8; 1];
        while !hdr.ends_with(b"\r\n\r\n") && hdr.len() < 4096 {
            conn.recv_exact(&mut byte, Duration::from_secs(10))?;
            hdr.push(byte[0]);
        }
        // Stream the body chunk by chunk (framing is self-describing:
        // fixed header then chunk_size payload, smaller final chunk).
        for (seq, len, last) in chunk_plan(cfg) {
            let mut chunk = vec![0u8; CHUNK_HEADER + len];
            conn.recv_exact(&mut chunk, Duration::from_secs(30))?;
            let (got_seq, got_last, payload) = parse_chunk(&chunk).ok_or(IwarpError::Net(
                simnet::NetError::Protocol("bad media chunk"),
            ))?;
            debug_assert_eq!(got_seq, seq);
            debug_assert_eq!(got_last, last);
            tally.on_chunk(cfg, got_seq, got_last, payload.len());
        }
        srv.join().expect("server thread")?;
        Ok(tally.finish())
    })
}

/// Runs one UDP streaming session over the **raw datagram conduit** — the
/// native-UDP baseline with no iWARP processing, used to quantify the
/// socket-shim overhead (paper reports ≈ 2 %).
pub fn run_native_udp_session(fabric: &Fabric, cfg: &MediaConfig) -> IwarpResult<MediaMetrics> {
    let server = simnet::DgramConduit::bind_ephemeral(fabric, NodeId(0))?;
    let client = simnet::DgramConduit::bind_ephemeral(fabric, NodeId(1))?;
    let server_addr = server.local_addr();

    std::thread::scope(|s| {
        let srv = s.spawn(move || -> IwarpResult<()> {
            let (viewer, _) = server.recv_from(Some(Duration::from_secs(10)))?;
            let mut pacer = Pacer::new(cfg.bitrate_bps);
            for (seq, len, last) in chunk_plan(cfg) {
                let chunk = make_chunk(seq, len, last);
                let copies = if last { 3 } else { 1 };
                for _ in 0..copies {
                    server.send_to(viewer, chunk.clone())?;
                }
                pacer.sent(len);
            }
            Ok(())
        });

        client.send_to(server_addr, Bytes::from_static(b"PLAY"))?;
        let mut tally = ClientTally::new();
        while !tally.done {
            match client.recv_from(Some(cfg.idle_timeout)) {
                Ok((_, data)) => {
                    if let Some((seq, last, payload)) = parse_chunk(&data) {
                        tally.on_chunk(cfg, seq, last, payload.len());
                    }
                }
                Err(simnet::NetError::Timeout) => break,
                Err(e) => return Err(IwarpError::Net(e)),
            }
        }
        srv.join().expect("server thread")?;
        Ok(tally.finish())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use iwarp_socket::{DgramMode, SocketConfig};

    fn small_cfg() -> MediaConfig {
        MediaConfig {
            chunk_size: 1316,
            total_bytes: 200 * 1024,
            // Pace at 200 Mbit/s so the single-core test scheduler can
            // drain the receiver (an unpaced blast overruns the socket's
            // slot pool — correct UDP behaviour, separate test below).
            bitrate_bps: 200_000_000,
            prebuffer_bytes: 64 * 1024,
            idle_timeout: Duration::from_millis(300),
        }
    }

    /// Socket pool deep enough to hold the whole test object, mirroring a
    /// kernel UDP receive buffer (~212 KB) relative to message size.
    fn media_sock_cfg(mode: DgramMode) -> SocketConfig {
        SocketConfig {
            mode,
            recv_slots: 256,
            slot_size: 2048,
            ..SocketConfig::default()
        }
    }

    #[test]
    fn chunk_roundtrip() {
        let c = make_chunk(7, 100, true);
        let (seq, last, payload) = parse_chunk(&c).unwrap();
        assert_eq!(seq, 7);
        assert!(last);
        assert_eq!(payload.len(), 100);
        assert!(parse_chunk(&c[..4]).is_none());
    }

    #[test]
    fn chunk_plan_covers_exactly() {
        let cfg = MediaConfig {
            chunk_size: 1000,
            total_bytes: 2500,
            ..small_cfg()
        };
        let plan = chunk_plan(&cfg);
        assert_eq!(plan.len(), 3);
        assert_eq!(plan[2], (2, 500, true));
        let total: usize = plan.iter().map(|(_, l, _)| l).sum();
        assert_eq!(total, 2500);
    }

    #[test]
    fn udp_session_lossless() {
        let fab = Fabric::loopback();
        let sc = media_sock_cfg(DgramMode::SendRecv);
        let sa = SocketStack::with_config(&fab, NodeId(0), Default::default(), sc.clone());
        let sb = SocketStack::with_config(&fab, NodeId(1), Default::default(), sc);
        let cfg = small_cfg();
        let m = run_udp_session(&sa, &sb, &cfg).unwrap();
        assert_eq!(m.bytes_received, cfg.total_bytes);
        assert_eq!(m.chunks_lost, 0);
        assert!(m.prebuffer_time <= m.total_time);
    }

    #[test]
    fn udp_session_write_record_mode() {
        let fab = Fabric::loopback();
        let cfg_sock = media_sock_cfg(DgramMode::WriteRecord);
        let sa = SocketStack::with_config(&fab, NodeId(0), Default::default(), cfg_sock.clone());
        let sb = SocketStack::with_config(&fab, NodeId(1), Default::default(), cfg_sock);
        let cfg = small_cfg();
        let m = run_udp_session(&sa, &sb, &cfg).unwrap();
        assert_eq!(m.bytes_received, cfg.total_bytes);
        assert_eq!(m.chunks_lost, 0);
    }

    #[test]
    fn http_session_delivers_everything() {
        let fab = Fabric::loopback();
        let sa = SocketStack::new(&fab, NodeId(0));
        let sb = SocketStack::new(&fab, NodeId(1));
        let cfg = small_cfg();
        let m = run_http_session(&sa, &sb, 8080, &cfg).unwrap();
        assert_eq!(m.bytes_received, cfg.total_bytes);
        assert_eq!(m.chunks_lost, 0);
    }

    #[test]
    fn native_udp_baseline() {
        let fab = Fabric::loopback();
        let cfg = small_cfg();
        let m = run_native_udp_session(&fab, &cfg).unwrap();
        assert_eq!(m.bytes_received, cfg.total_bytes);
    }

    #[test]
    fn unpaced_blast_overruns_receiver_like_udp() {
        // No pacing, small socket pool: the receiver must lose chunks —
        // the kernel-UDP overrun behaviour (not an error in the stack).
        let fab = Fabric::loopback();
        let sa = SocketStack::new(&fab, NodeId(0));
        let sb = SocketStack::new(&fab, NodeId(1));
        let cfg = MediaConfig {
            bitrate_bps: 0,
            ..small_cfg()
        };
        let m = run_udp_session(&sa, &sb, &cfg).unwrap();
        assert!(m.bytes_received <= cfg.total_bytes);
    }

    #[test]
    fn udp_session_survives_loss() {
        let fab = simnet::Fabric::new(simnet::wire::WireConfig::with_loss(0.01, 3));
        let sc = media_sock_cfg(DgramMode::SendRecv);
        let sa = SocketStack::with_config(&fab, NodeId(0), Default::default(), sc.clone());
        let sb = SocketStack::with_config(&fab, NodeId(1), Default::default(), sc);
        let cfg = small_cfg();
        let m = run_udp_session(&sa, &sb, &cfg).unwrap();
        // Some chunks may vanish, but the session must complete and count
        // the losses consistently.
        assert!(m.chunks_received > 0);
        assert!(m.bytes_received <= cfg.total_bytes);
        let expected_chunks = cfg.total_bytes.div_ceil(cfg.chunk_size) as u64;
        assert!(m.chunks_received + m.chunks_lost <= expected_chunks);
    }

    #[test]
    fn paced_stream_respects_bitrate() {
        let fab = Fabric::loopback();
        let cfg = MediaConfig {
            chunk_size: 1000,
            total_bytes: 50_000,
            bitrate_bps: 4_000_000, // 50k bytes at 4 Mbit/s ⇒ ≥ 100 ms
            prebuffer_bytes: 10_000,
            idle_timeout: Duration::from_secs(1),
        };
        let t0 = Instant::now();
        let m = run_native_udp_session(&fab, &cfg).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(90), "pacing ignored");
        assert_eq!(m.bytes_received, cfg.total_bytes);
        // Prebuffer fill is paced too, so it must take a measurable time.
        assert!(m.prebuffer_time >= Duration::from_millis(15));
    }
}
