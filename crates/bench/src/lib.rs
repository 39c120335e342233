//! `iwarp-bench` — the measurement harness behind every figure and table
//! of the paper's evaluation (Section VI).
//!
//! [`verbs`] implements the micro-benchmarks: ping-pong latency and
//! unidirectional bandwidth for the four methods the paper compares
//! (UD send/recv, UD RDMA Write-Record, RC send/recv, RC RDMA Write),
//! plus the loss-sweep variants. The `figures` binary sweeps these over
//! the paper's parameter grids and prints/records each figure's series.
//!
//! The other bins share no code with this library: `suite` is the
//! repository's benchmark (`BENCHMARK.json`), and `chaos`, `replog` and
//! `scale` drive the fault, agreement and memory-ramp oracles.

#![warn(missing_docs)]

pub mod verbs;

pub use verbs::{bandwidth, latency, BwResult, FabricKind, Method};
