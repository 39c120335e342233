//! `datagram-iwarp` — umbrella crate for the datagram-iWARP workspace.
//!
//! A from-scratch Rust reproduction of *RDMA Capable iWARP over Datagrams*
//! (Grant, Rashti, Afsahi, Balaji — IPDPS 2011): a software iWARP stack
//! extended to unreliable (UD) and reliable (RD) datagram transports, the
//! **RDMA Write-Record** one-sided operation, an SDP-like socket shim, the
//! paper's evaluation applications, and a simulated Ethernet substrate.
//!
//! This crate re-exports the workspace members under one roof:
//!
//! * [`common`] — CRC32C, validity maps, memory accounting, stats;
//! * [`net`] — the simulated fabric and transport conduits;
//! * [`verbs`] — the iWARP stack itself (devices, QPs, CQs, MRs);
//! * [`sockets`] — the socket interface over UD/RC queue pairs;
//! * [`apps`] — the media-streaming and SIP evaluation workloads;
//! * [`cc`] — the shared loss-recovery engine and pluggable congestion
//!   controllers driving the reliable conduits;
//! * [`telemetry`] — stack-wide counters, histograms, and packet tracing
//!   (reach it from a running stack via `fabric.telemetry()`);
//! * [`chaos`] — the seeded fault adversary, cross-layer invariant
//!   oracle, and replayable chaos harness (see `chaos --replay`).
//!
//! Start with `examples/quickstart.rs`, then see DESIGN.md for the system
//! inventory and EXPERIMENTS.md for the figure-by-figure reproduction.

pub use iwarp as verbs;
pub use iwarp_apps as apps;
pub use iwarp_cc as cc;
pub use iwarp_chaos as chaos;
pub use iwarp_common as common;
pub use iwarp_socket as sockets;
pub use iwarp_telemetry as telemetry;
pub use simnet as net;
