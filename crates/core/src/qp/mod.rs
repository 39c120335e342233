//! Queue pairs: the verbs-level objects applications talk to.
//!
//! Three flavours, per the paper's design space:
//!
//! * [`RcQp`] — standard reliable-connection iWARP over the TCP-like
//!   stream LLP with MPA framing (the baseline);
//! * [`UdQp`] — datagram-iWARP over unreliable datagrams, with
//!   send/recv, **RDMA Write-Record** and the UD RDMA Read extension;
//! * [`RdQp`] — datagram-iWARP over the reliable-datagram LLP.
//!
//! UD and RD share one engine ([`DatagramQp`]); they differ only in the
//! conduit underneath — exactly the paper's framing, where the same
//! datagram-iWARP design runs over "both unreliable and reliable datagram
//! transports" (§IV.B).
//!
//! ## Threading model
//!
//! This is a *software* iWARP stack, like the paper's proof of concept:
//! posting a send performs RDMAP/DDP processing inline in the caller
//! (completing "at the moment that the last bit of the message is passed
//! to the transport layer", §IV.B.3), while a per-QP RX engine thread
//! plays the role of the RNIC's receive-side DMA engine.

pub(crate) mod dgram;
pub(crate) mod rc;
pub(crate) mod rx;

pub use dgram::{DatagramQp, QpStats};
pub use rc::{RcListener, RcQp};

use std::time::Duration;

/// A datagram QP over the *unreliable* datagram LLP (UDP analog).
pub type UdQp = DatagramQp;

/// A datagram QP over the *reliable* datagram LLP ("RD mode").
pub type RdQp = DatagramQp;

/// Queue-pair configuration knobs.
#[derive(Clone, Debug)]
pub struct QpConfig {
    /// Largest message the QP will segment and send.
    pub max_msg_size: usize,
    /// How long a partially received untagged message may wait for its
    /// missing segments before the posted receive is recovered with an
    /// [`crate::cq::CqeStatus::Expired`] completion.
    pub recv_ttl: Duration,
    /// How long a Write-Record message missing its final segment is
    /// remembered before the record is reaped (no completion).
    pub record_ttl: Duration,
    /// How long a pending RDMA Read waits for its response.
    pub read_ttl: Duration,
    /// Poll mode: no per-QP RX engine thread is spawned; receive-side
    /// protocol processing runs inside [`DatagramQp::progress`] /
    /// [`RcQp::progress`] calls (typically driven by the socket shim's
    /// receive path). This is how one process scales to tens of thousands
    /// of QPs for the paper's memory experiment.
    pub poll_mode: bool,
}

impl Default for QpConfig {
    fn default() -> Self {
        Self {
            max_msg_size: 16 * 1024 * 1024,
            recv_ttl: Duration::from_millis(500),
            record_ttl: Duration::from_millis(500),
            read_ttl: Duration::from_millis(500),
            poll_mode: false,
        }
    }
}
