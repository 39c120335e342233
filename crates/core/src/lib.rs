//! `iwarp` — a software datagram-iWARP stack with RDMA Write-Record.
//!
//! This crate is the primary contribution of the reproduced paper,
//! *RDMA Capable iWARP over Datagrams* (Grant, Rashti, Afsahi, Balaji —
//! IPDPS 2011): an iWARP protocol stack extended beyond the
//! reliable-connection-only standard to unreliable (UD) and reliable (RD)
//! datagram transports, including **RDMA Write-Record** — the first
//! one-sided RDMA Write defined over unreliable datagrams.
//!
//! ## Layering
//!
//! ```text
//!        verbs (Queue Pairs, Completion Queues, Work Requests)   [qp, cq, wr]
//!        RDMAP  (send / RDMA write / write-record / RDMA read)   [hdr, qp]
//!        DDP    (direct data placement, segmentation, CRC32)     [hdr, qp, wr_record]
//!        MPA    (markers + FPDU framing — RC/stream path ONLY)   [mpa]
//!   LLP: stream (TCP-like)  |  datagram (UDP-like)  |  reliable dgram
//!        -- provided by the `simnet` crate --
//! ```
//!
//! The datagram path **bypasses MPA entirely** — datagrams preserve message
//! boundaries, so no markers are needed (paper §IV.B item 5) — and instead
//! carries a mandatory CRC32 on every DDP segment (item 6).
//!
//! ## The three queue-pair flavours
//!
//! * [`qp::RcQp`] — the standard reliable-connection iWARP over the
//!   TCP-like stream conduit with real MPA framing/markers: the baseline
//!   every figure compares against.
//! * [`qp::UdQp`] — datagram-iWARP: connectionless send/recv with source
//!   addressing, plus **RDMA Write-Record** with partial placement and
//!   validity-map completions.
//! * [`qp::RdQp`] — datagram-iWARP over the reliable-datagram LLP
//!   (the paper's "RD mode").
//!
//! See `examples/quickstart.rs` at the workspace root for a tour.

#![warn(missing_docs)]

pub mod buf;
pub mod chan;
pub mod cm;
pub mod cq;
pub mod device;
pub mod error;
pub mod hdr;
pub mod mpa;
pub mod qp;
pub mod read;
pub mod shard;
pub mod signal;
pub mod wr;
pub mod wr_record;

pub use buf::{Access, MemoryRegion, MrTable};
pub use chan::CompletionChannel;
pub use cq::{Cq, Cqe, CqeOpcode, CqeStatus};
pub use device::{Device, DeviceConfig};
pub use shard::{ShardConfig, ShardMap};
pub use error::{IwarpError, IwarpResult};
pub use qp::{QpConfig, RcListener, RcQp, RdQp, UdQp};
pub use read::{BulkRead, BulkReadConfig, BulkReadReport, SignalInterval};
pub use signal::place_signals;
pub use wr::{SendWr, UdDest};
pub use wr_record::WriteRecordInfo;
