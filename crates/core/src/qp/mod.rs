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

/// Whether a datapath moves one packet per call or a burst per call.
///
/// The burst datapath amortizes per-packet costs — fabric lock rounds,
/// telemetry read-modify-writes, CQ lock/notify pairs — across a vector
/// of packets, while preserving per-packet loss/fault semantics
/// byte-for-byte (see DESIGN.md "Burst datapath" for the RNG draw-order
/// contract).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BurstPath {
    /// One packet per fabric transmit, one CQE per reap, one notify per
    /// completion. The reference implementation and the default.
    #[default]
    PerPacket,
    /// Vectors of packets per fabric lock round, batched verbs, and one
    /// notify per completion burst. Wire bytes are identical under a
    /// fixed seed.
    Burst,
}

impl BurstPath {
    /// Parses the `--burst-path` CLI spelling.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "per-packet" => Some(Self::PerPacket),
            "burst" => Some(Self::Burst),
            _ => None,
        }
    }
}

impl std::fmt::Display for BurstPath {
    /// The `--burst-path` CLI spelling.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(match self {
            Self::PerPacket => "per-packet",
            Self::Burst => "burst",
        })
    }
}

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
    /// Whether batch verbs and the RX engine move one packet per call
    /// ([`BurstPath::PerPacket`], the reference behaviour) or batch
    /// vectors of packets per fabric/CQ lock round
    /// ([`BurstPath::Burst`]). Wire bytes are identical under a fixed
    /// seed either way.
    pub burst_path: BurstPath,
}

impl Default for QpConfig {
    fn default() -> Self {
        Self {
            max_msg_size: 16 * 1024 * 1024,
            recv_ttl: Duration::from_millis(500),
            record_ttl: Duration::from_millis(500),
            read_ttl: Duration::from_millis(500),
            poll_mode: false,
            burst_path: BurstPath::PerPacket,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_path_parse_roundtrip() {
        for path in [BurstPath::PerPacket, BurstPath::Burst] {
            assert_eq!(BurstPath::parse(&path.to_string()), Some(path));
        }
        assert_eq!(BurstPath::Burst.to_string(), "burst");
        assert_eq!(BurstPath::parse("batched"), None);
    }
}
