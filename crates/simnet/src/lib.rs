//! `simnet` — the network substrate underneath the datagram-iWARP stack.
//!
//! The paper evaluates a *software* iWARP implementation running over the
//! Linux kernel's UDP and TCP stacks on 10-Gigabit Ethernet. This crate
//! rebuilds that substrate from scratch so the protocol work above it is
//! exercised end-to-end without real NICs:
//!
//! * [`wire`]/[`fabric`] — an in-memory Ethernet-like switch. Endpoints
//!   bind addresses and exchange *wire packets* of at most one MTU. The
//!   fabric applies a configurable [`loss`] model, propagation delay and
//!   (optionally) link-rate pacing per packet, standing in for the paper's
//!   NetEffect 10GbE cards, Fujitsu switch and `tc`-based loss injection.
//! * [`dgram`] — [`dgram::DgramConduit`], a UDP-equivalent datagram service:
//!   datagrams up to 64 KiB, IP-style fragmentation into MTU wire packets
//!   with *all-or-nothing* reassembly. Losing any fragment loses the whole
//!   datagram, reproducing the loss-amplification cliff the paper observes
//!   at the 64 KiB datagram boundary (Figs. 7 and 8).
//! * [`stream`] — [`stream::StreamConduit`], a TCP-equivalent reliable byte
//!   stream built from scratch: three-way handshake, sequence numbers,
//!   cumulative ACKs, retransmission timeouts, fast retransmit, sliding
//!   window flow control, and socket-buffer copies on both sides. RC iWARP
//!   runs over this, so connection state and stream overheads are *real
//!   measured state*, not a model.
//! * [`rdgram`] — [`rdgram::RdConduit`], a reliable-datagram service
//!   (per-peer sequencing, ACK/retransmit, message boundaries) — the "RD"
//!   LLP the paper's design section calls for.
//!
//! All randomness is seeded; a given fabric seed reproduces the same loss
//! pattern byte-for-byte.

#![warn(missing_docs)]

pub mod chaos;
pub mod dgram;
mod drive;
pub mod error;
pub mod fabric;
pub mod loss;
pub mod rdgram;
pub mod ring;
pub mod stream;
pub mod wire;

pub use chaos::{ChaosSnapshot, FaultEvent, FaultKind, FaultPlan, PartitionWindow};
pub use dgram::DgramConduit;
pub use error::{NetError, NetResult};
pub use fabric::{Fabric, RxNotify};
pub use iwarp_cc::CcAlgo;
pub use loss::LossModel;
pub use rdgram::RdConduit;
pub use stream::{StreamConduit, StreamListener};
pub use wire::{Addr, NodeId, WireConfig};
