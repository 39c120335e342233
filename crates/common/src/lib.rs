//! Shared utilities for the datagram-iWARP workspace.
//!
//! This crate hosts the small, dependency-light building blocks that every
//! other crate in the workspace leans on:
//!
//! * [`crc32`] — a from-scratch CRC32C (Castagnoli) implementation.
//!   Datagram-iWARP *mandates* CRC32 on every message (paper §IV.B item 6),
//!   and the DDP layer uses it to validate individual datagrams.
//! * [`validity`] — the interval-set "validity map" used by RDMA
//!   Write-Record to record which byte ranges of a tagged buffer hold valid
//!   data after (possibly partial) placement.
//! * [`memacct`] — instrumented memory accounting. The SIP memory-scaling
//!   experiment (paper Fig. 11) compares whole-stack per-client state; every
//!   connection, QP and conduit reports its footprint here.
//! * [`rng`] — seeded deterministic RNG construction so loss injection and
//!   workloads are reproducible.
//! * [`stats`] — tiny summary-statistics helpers shared by the benchmark
//!   harness and application measurements.
//! * [`pool`] — a sharded buffer pool for the zero-copy datapath (header
//!   buffers, reassembly buffers, rx staging) with hit/miss/recycle stats.
//! * [`slab`] — typed slab/arena allocators (stable keys, generation-checked
//!   handles, free-list reuse, `memacct` hookup) that per-call / per-QP
//!   state compacts onto, so the Fig. 11 memory-scaling axis can be pushed
//!   to ~100k concurrent calls.
//! * [`sg`] — [`sg::SgBytes`], the scatter-gather byte list that lets wire
//!   packets chain a pooled header in front of caller-owned payload slices
//!   without copying either.
//! * [`affinity`] — best-effort CPU pinning for shard/bench worker
//!   threads (raw `sched_setaffinity`, no-op off Linux) plus the
//!   `host_cpus` probe benchmark JSON records.

#![warn(missing_docs)]

pub mod affinity;
pub mod crc32;
pub mod memacct;
pub mod pool;
pub mod rng;
pub mod sg;
pub mod slab;
pub mod stats;
pub mod validity;
