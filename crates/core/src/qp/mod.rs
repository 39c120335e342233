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
//! to the transport layer", §IV.B.3). The receive engine plays the role
//! of the RNIC's receive-side DMA engine, and who runs it depends on the
//! QP:
//!
//! * **Threaded UD and RD: the waiter drives.** A thread blocked in
//!   [`Cq::poll_timeout`](crate::cq::Cq::poll_timeout) on the QP's
//!   receive CQ runs the engine itself, one batch drain of the datagrams
//!   already delivered, when that CQ completes this QP's receives only.
//!   The timed CQ poll the paper makes the datagram waiter's primitive
//!   (§IV.B.1) is then also where receive processing happens; on RD each
//!   take is a zero-wait drive step of the reliable-datagram protocol,
//!   which ACKs and fires due timers too. The QP's `iwarp-dgqp-<qpn>`
//!   thread is the fallback: the conduit's arrival notifier wakes it for
//!   an arrival no waiter will take, and its 5 ms tick bounds how long an
//!   arrival left for a returning owner can wait. On RD it also parks no
//!   longer than the earliest retransmission deadline (at least 200 µs)
//!   and runs one drive step when a timer is due, and an arrival while a
//!   timer is armed wakes it at once, so a sender that is inside no call
//!   still recovers its losses. A one-sided target that is inside no call
//!   still places and responds.
//! * **Threaded RC:** a per-QP engine thread blocks in the stream and
//!   drives the reliable protocol.
//! * **Sharded UD:** a device shard worker drains the QP. RD QPs never
//!   go to the shards, which do not run RD's timers.
//! * **Poll mode:** the caller's `progress` calls are the engine.
//!
//! In every mode at most one thread runs a QP's engine at a time.

pub(crate) mod dgram;
pub(crate) mod gate;
pub(crate) mod rc;
pub(crate) mod rx;
pub(crate) mod tx;

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
    /// of QPs for the paper's memory experiment. A poll-mode QP's CQ
    /// waiters never run its engine: only `progress` does, which keeps
    /// seeded replays deterministic.
    ///
    /// When `false`, an unsharded UD QP and every RD QP are driven by the
    /// threads waiting in
    /// [`Cq::poll_timeout`](crate::cq::Cq::poll_timeout) on the receive
    /// CQ, with the QP's `iwarp-dgqp-<qpn>` thread as the fallback for
    /// arrivals no waiter takes and RD's retransmission timers (see the
    /// module docs); an RC QP runs a per-QP engine thread, and a sharded
    /// device's UD QPs its shards.
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
