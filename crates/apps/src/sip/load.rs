//! SipStone-style load generator (the paper's client side).
//!
//! Establishes `calls` concurrent SIP dialogs against a
//! [`super::server::SipServer`],
//! measuring per-call INVITE→200 response time (Fig. 10) and sampling the
//! instrumented memory registries while every call is active (Fig. 11),
//! then tears everything down with BYEs.

use std::time::{Duration, Instant};

use iwarp::{IwarpError, IwarpResult};
use iwarp_common::stats::Summary;
use iwarp_socket::{DgramProfile, DgramSocket, SocketStack, StreamSocket};
use simnet::Addr;

use super::codec::{make_ack, make_bye, make_invite, SipMessage};
use super::server::SipTransport;

/// Load-run parameters.
#[derive(Clone, Debug)]
pub struct SipLoadConfig {
    /// Concurrent calls to establish and hold.
    pub calls: usize,
    /// Transport to exercise.
    pub transport: SipTransport,
    /// Server's main port.
    pub server_addr: Addr,
    /// Per-request timeout.
    pub timeout: Duration,
    /// Client-side per-call bookkeeping bytes (mirrors the server's).
    pub call_state_bytes: u64,
}

impl Default for SipLoadConfig {
    fn default() -> Self {
        Self {
            calls: 100,
            transport: SipTransport::Ud,
            server_addr: Addr::new(1, 5060),
            timeout: Duration::from_secs(5),
            call_state_bytes: 1024,
        }
    }
}

/// What a load run observed.
#[derive(Clone, Debug)]
pub struct SipLoadReport {
    /// Calls successfully established (INVITE answered and ACKed).
    pub calls_established: usize,
    /// INVITE→200 response times, microseconds.
    pub response_us: Summary,
    /// Server-side instrumented memory (bytes) while all calls were live.
    pub server_mem_bytes: u64,
    /// Client-side instrumented memory (bytes) at the same moment.
    pub client_mem_bytes: u64,
    /// Per-category server memory rows `(category, bytes)` at peak.
    pub server_mem_by_category: Vec<(&'static str, u64)>,
}

enum CallLeg {
    Ud {
        sock: DgramSocket,
        /// The server's per-call socket (learned from the 200 OK source).
        dialog_peer: Addr,
    },
    Rc {
        sock: StreamSocket,
        rxbuf: Vec<u8>,
    },
}

impl CallLeg {
    fn send(&mut self, msg: &SipMessage) -> IwarpResult<()> {
        match self {
            CallLeg::Ud { sock, dialog_peer } => sock.send_to(&msg.encode(), *dialog_peer),
            CallLeg::Rc { sock, .. } => sock.send(&msg.encode()),
        }
    }

    fn recv(&mut self, timeout: Duration) -> IwarpResult<SipMessage> {
        let deadline = Instant::now() + timeout;
        match self {
            CallLeg::Ud { sock, dialog_peer } => {
                // Stack buffer: compact client legs cap datagrams at 1 KiB.
                let mut buf = [0u8; 2048];
                let (n, src) = sock.recv_from(&mut buf, timeout)?;
                // In-dialog responses may come from the server's per-call
                // socket; adopt it as the dialog peer.
                *dialog_peer = src;
                SipMessage::parse(&buf[..n])
                    .map_err(|_| IwarpError::Net(simnet::NetError::Protocol("bad SIP reply")))
            }
            CallLeg::Rc { sock, rxbuf } => loop {
                match SipMessage::parse_prefix(rxbuf) {
                    Ok((msg, used)) => {
                        rxbuf.drain(..used);
                        return Ok(msg);
                    }
                    Err(e) if SipMessage::is_incomplete(&e) => {
                        let now = Instant::now();
                        if now >= deadline {
                            return Err(IwarpError::PollTimeout);
                        }
                        let mut buf = [0u8; 2048];
                        let n = sock.recv(&mut buf, deadline - now)?;
                        rxbuf.extend_from_slice(&buf[..n]);
                    }
                    Err(_) => {
                        return Err(IwarpError::Net(simnet::NetError::Protocol("bad SIP reply")))
                    }
                }
            },
        }
    }
}

/// Runs one SipStone load: establish `cfg.calls` dialogs, measure
/// response times, tear down. The matching
/// [`SipServer`](super::server::SipServer) must already be running on
/// `cfg.server_addr` with the same transport.
pub fn run_sip_load(client_stack: &SocketStack, cfg: &SipLoadConfig) -> IwarpResult<SipLoadReport> {
    run_sip_load_with_peak_sample(client_stack, cfg, || (0, Vec::new()))
}

/// Like [`run_sip_load`] but holds all calls established while `sample`
/// runs — use the closure to read the *server's* memory registry at peak
/// concurrency (the Fig. 11 measurement point).
pub fn run_sip_load_with_peak_sample<F>(
    client_stack: &SocketStack,
    cfg: &SipLoadConfig,
    mut sample: F,
) -> IwarpResult<SipLoadReport>
where
    F: FnMut() -> (u64, Vec<(&'static str, u64)>),
{
    let mut legs: Vec<CallLeg> = Vec::with_capacity(cfg.calls);
    let mut call_scopes = Vec::with_capacity(cfg.calls);
    let mut response_us = Summary::new();

    for i in 0..cfg.calls {
        let call_id = format!("call-{i}@loadgen");
        let from = format!("sipp-{i}@client.example");
        let to = "uas@server.example";
        let invite = make_invite(&call_id, &from, to, 1);

        let mut leg = match cfg.transport {
            // Client legs only ever receive body-less responses (≤ ~400 B),
            // so they take the compact receive profile like the server's
            // per-call sockets — per-call bytes on *both* ends are what the
            // Fig. 11 whole-application comparison counts.
            SipTransport::Ud => CallLeg::Ud {
                sock: client_stack.dgram_with(DgramProfile::compact())?,
                dialog_peer: cfg.server_addr,
            },
            SipTransport::Rc => CallLeg::Rc {
                sock: client_stack.connect(cfg.server_addr)?,
                rxbuf: Vec::new(),
            },
        };

        let t0 = Instant::now();
        leg.send(&invite)?;
        let reply = leg.recv(cfg.timeout)?;
        let rt = t0.elapsed();
        if reply.status() != Some(200) {
            return Err(IwarpError::Net(simnet::NetError::Protocol(
                "INVITE not answered with 200",
            )));
        }
        response_us.push(rt.as_secs_f64() * 1e6);
        leg.send(&make_ack(&call_id, &from, to, 1))?;
        if let Some(reg) = client_stack.device().mem() {
            call_scopes.push(reg.track("sip_call", cfg.call_state_bytes));
        }
        legs.push(leg);
    }

    let (server_mem_bytes, server_mem_by_category) = sample();
    let client_mem_bytes = client_stack
        .device()
        .mem()
        .map_or(0, iwarp_common::memacct::MemRegistry::total_current);

    for (i, leg) in legs.iter_mut().enumerate() {
        let call_id = format!("call-{i}@loadgen");
        let from = format!("sipp-{i}@client.example");
        leg.send(&make_bye(&call_id, &from, "uas@server.example", 2))?;
        let reply = leg.recv(cfg.timeout)?;
        if reply.status() != Some(200) {
            return Err(IwarpError::Net(simnet::NetError::Protocol(
                "BYE not answered with 200",
            )));
        }
    }
    drop(call_scopes);

    Ok(SipLoadReport {
        calls_established: cfg.calls,
        response_us,
        server_mem_bytes,
        client_mem_bytes,
        server_mem_by_category,
    })
}
