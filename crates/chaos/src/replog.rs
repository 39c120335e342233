//! The replicated-log agreement oracle (PR 9).
//!
//! [`run_replog_plan`] drives one [`iwarp_apps::replog::Cluster`] on a
//! fresh fabric with a seeded [`FaultPlan`] installed, then checks the
//! recorded [`History`] against the agreement invariants:
//!
//! 1. **commit-agreement** — all `Committed` events for one log index
//!    agree on `(entry_term, seq, crc, len, kind)`.
//! 2. **applied-sequential** — every replica applies indices 1, 2, 3, …
//!    with no gap and no duplicate.
//! 3. **applied-divergence / applied-uncommitted** — every applied entry
//!    matches the committed tuple for its index, and no replica applies
//!    an index that was never committed.
//! 4. **convergence / committed-durability / client-acks** — the run
//!    converges within its tick budget, every replica ends having
//!    applied the whole committed prefix, and every client entry was
//!    committed exactly as acked.
//! 5. **lease-exclusivity** — leader-lease intervals from different
//!    replicas never overlap (no two simultaneous leaders per the
//!    oracle clock).
//! 6. **commit-provenance** — every committed client entry matches a
//!    `Proposed` event `(index, term, seq, crc)`: nothing enters the
//!    committed log that a leader did not accept from the client.
//! 7. **payload-integrity** — the committed CRC equals the CRC of the
//!    canonical client payload for that sequence number: corrupted or
//!    torn records can never commit.
//!
//! Like the main harness, everything is deterministic per seed: the
//! cluster runs poll-mode QPs on a synthetic tick clock over a
//! latency-free fabric, so `replog --replay <seed>` reproduces a failure
//! byte-for-byte, fault trace included.

use std::collections::{BTreeMap, BTreeSet};

use iwarp_apps::replog::{
    client_payload, Cluster, Event, History, PlantedBug, PublishPath, RecordKind, ReplogConfig,
    RunOutcome, PAYLOAD_AREA,
};
use iwarp_common::crc32::crc32c;
use iwarp_common::rng::derive_seed;
use simnet::{Fabric, FaultEvent, FaultPlan, WireConfig};

use crate::invariants::Violation;

fn violation(invariant: &'static str, detail: String) -> Violation {
    Violation { invariant, detail }
}

/// Knobs for one replog plan run.
#[derive(Clone, Debug)]
pub struct ReplogOpts {
    /// Client entries the run must commit.
    pub entries: usize,
    /// Client payload bytes per entry.
    pub payload: usize,
    /// Tick budget before the run counts as unconverged.
    pub ticks: u64,
    /// Planted protocol bug (oracle-sensitivity runs).
    pub bug: PlantedBug,
}

impl Default for ReplogOpts {
    fn default() -> Self {
        Self {
            entries: 16,
            payload: 1000,
            ticks: 60_000,
            bug: PlantedBug::None,
        }
    }
}

/// Report for one replog plan.
#[derive(Clone, Debug)]
pub struct ReplogReport {
    /// The plan seed (replay key).
    pub seed: u64,
    /// The derived fault adversary.
    pub plan: FaultPlan,
    /// The derived workload configuration.
    pub cfg: ReplogConfig,
    /// Invariant violations (empty = the run passed).
    pub violations: Vec<Violation>,
    /// Fault trace (deterministic per seed: synthetic tick clock).
    pub fault_trace: Vec<FaultEvent>,
    /// Run outcome (history, convergence, commit stats).
    pub outcome: RunOutcome,
}

impl ReplogReport {
    /// True when every invariant held.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Renders failure evidence: seed, violations, and the fault trace
    /// needed to replay.
    #[must_use]
    pub fn render_failure(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        if self.ok() {
            let _ = writeln!(s, "replog plan report — seed {}", self.seed);
        } else {
            let _ = writeln!(
                s,
                "replog plan FAILED — replay with: replog --replay {:#x}",
                self.seed
            );
        }
        let _ = writeln!(s, "plan: {:?}", self.plan);
        let _ = writeln!(
            s,
            "cfg: path {:?}, freeze {:?}, bug {:?}, {} entries",
            self.cfg.path, self.cfg.freeze, self.cfg.bug, self.cfg.entries
        );
        let _ = writeln!(
            s,
            "outcome: converged {}, {} ticks, max commit {}, {} elections, {} events, {} leases",
            self.outcome.converged,
            self.outcome.ticks,
            self.outcome.max_commit,
            self.outcome.elections,
            self.outcome.history.events.len(),
            self.outcome.history.leases.len()
        );
        let _ = writeln!(
            s,
            "traffic: {} publishes, {} hole-refetch transfers",
            self.outcome.publishes, self.outcome.refetch_transfers
        );
        for v in &self.violations {
            let _ = writeln!(s, "  {v}");
        }
        let _ = writeln!(s, "fault trace ({} events):", self.fault_trace.len());
        for e in &self.fault_trace {
            let _ = writeln!(s, "  {e}");
        }
        s
    }
}

/// Derives the workload for a plan seed: the publish path alternates by
/// seed parity (both paths face the sweep's adversaries) and half the
/// plans freeze the leaseholder mid-run to force a fail-over.
#[must_use]
pub fn replog_cfg_for_seed(seed: u64, opts: &ReplogOpts) -> ReplogConfig {
    let path = if seed & 1 == 0 {
        PublishPath::WriteRecord
    } else {
        PublishPath::TwoSided
    };
    let freeze = if seed & 2 != 0 {
        let at = 150 + derive_seed(seed, 0xF2EE) % 400;
        let len = 400 + derive_seed(seed, 0xF2EF) % 400;
        Some((at, len))
    } else {
        None
    };
    ReplogConfig {
        entries: opts.entries,
        payload: opts.payload,
        max_log: opts.entries * 2 + 32,
        path,
        seed,
        ticks: opts.ticks,
        freeze,
        bug: opts.bug,
        ..ReplogConfig::default()
    }
}

/// Runs one replog plan: fresh fabric, seeded adversary, full run, all
/// invariant checks.
#[must_use]
pub fn run_replog_plan(seed: u64, opts: &ReplogOpts) -> ReplogReport {
    let fab = Fabric::new(WireConfig::default());
    let plan = FaultPlan::from_seed(derive_seed(seed, 0x9E10));
    fab.install_fault_plan(plan.clone());
    let cfg = replog_cfg_for_seed(seed, opts);
    let mut cluster = Cluster::new(&fab, cfg.clone());
    let outcome = cluster.run();
    drop(cluster);
    fab.chaos_flush();
    let fault_trace = fab.fault_trace();
    let violations = check_replog(&outcome, &cfg);
    ReplogReport {
        seed,
        plan,
        cfg,
        violations,
        fault_trace,
        outcome,
    }
}

/// Runs `n` consecutive replog plans derived from `master`.
#[must_use]
pub fn run_replog_sweep(master: u64, n: usize, opts: &ReplogOpts) -> Vec<ReplogReport> {
    (0..n)
        .map(|i| run_replog_plan(derive_seed(master, i as u64), opts))
        .collect()
}

/// Checks the agreement invariants over a finished run's history.
#[must_use]
pub fn check_replog(out: &RunOutcome, cfg: &ReplogConfig) -> Vec<Violation> {
    let mut v = Vec::new();
    let h: &History = &out.history;

    // 1. commit-agreement, building the canonical committed log.
    let mut committed: BTreeMap<u64, (u64, u64, u32, u32, RecordKind)> = BTreeMap::new();
    let mut proposed: BTreeSet<(u64, u64, u64, u32)> = BTreeSet::new();
    for e in &h.events {
        match *e {
            Event::Proposed {
                seq,
                index,
                term,
                crc,
                ..
            } => {
                proposed.insert((index, term, seq, crc));
            }
            Event::Committed {
                index,
                term,
                seq,
                crc,
                len,
                kind,
                ..
            } => {
                let tuple = (term, seq, crc, len, kind);
                match committed.get(&index) {
                    Some(prev) if *prev != tuple => v.push(violation(
                        "commit-agreement",
                        format!("index {index} committed as {prev:?} and {tuple:?}"),
                    )),
                    Some(_) => {}
                    None => {
                        committed.insert(index, tuple);
                    }
                }
            }
            Event::Applied { .. } => {}
        }
    }

    // 2 + 3. per-replica apply order and agreement with the committed log.
    // (index, term, seq, crc, kind) per applied entry, in apply order.
    type AppliedEntry = (u64, u64, u64, u32, RecordKind);
    let nreplicas = iwarp_apps::replog::N_REPLICAS;
    let mut applied: Vec<Vec<AppliedEntry>> = vec![Vec::new(); nreplicas];
    for e in &h.events {
        if let Event::Applied {
            replica,
            index,
            term,
            seq,
            crc,
            kind,
            ..
        } = *e
        {
            applied[replica].push((index, term, seq, crc, kind));
        }
    }
    for (r, log) in applied.iter().enumerate() {
        for (i, &(index, term, seq, crc, kind)) in log.iter().enumerate() {
            let expect = i as u64 + 1;
            if index != expect {
                v.push(violation(
                    "applied-sequential",
                    format!("replica {r} applied index {index} at position {expect}"),
                ));
                break;
            }
            match committed.get(&index) {
                Some(&(cterm, cseq, ccrc, _clen, ckind)) => {
                    if (term, seq, crc, kind) != (cterm, cseq, ccrc, ckind) {
                        v.push(violation(
                            "applied-divergence",
                            format!(
                                "replica {r} applied index {index} as (term {term}, seq {seq}, \
                                 crc {crc:#010x}, {kind:?}) but it committed as (term {cterm}, \
                                 seq {cseq}, crc {ccrc:#010x}, {ckind:?})"
                            ),
                        ));
                    }
                }
                None => v.push(violation(
                    "applied-uncommitted",
                    format!("replica {r} applied index {index} which never committed"),
                )),
            }
        }
    }

    // 4. convergence, durability, and client acks.
    if !out.converged {
        let client_committed = committed
            .values()
            .filter(|(_, seq, _, _, kind)| *kind == RecordKind::Client && *seq != 0)
            .count();
        v.push(violation(
            "convergence",
            format!(
                "run did not converge in {} ticks ({client_committed}/{} client entries \
                 committed, {} elections)",
                out.ticks, cfg.entries, out.elections
            ),
        ));
    } else {
        let mc = committed.keys().next_back().copied().unwrap_or(0);
        for (r, log) in applied.iter().enumerate() {
            if (log.len() as u64) < mc {
                v.push(violation(
                    "committed-durability",
                    format!(
                        "replica {r} ended at applied {} < max committed {mc}",
                        log.len()
                    ),
                ));
            }
        }
        let mut seqs: BTreeSet<u64> = BTreeSet::new();
        for &(_, seq, _, _, kind) in committed.values() {
            if kind == RecordKind::Client {
                seqs.insert(seq);
            }
        }
        let want: BTreeSet<u64> = (1..=cfg.entries as u64).collect();
        if !want.is_subset(&seqs) {
            let missing: Vec<u64> = want.difference(&seqs).copied().collect();
            v.push(violation(
                "client-acks",
                format!("converged run is missing committed client seqs {missing:?}"),
            ));
        }
    }

    // 5. lease exclusivity across replicas.
    for (i, a) in h.leases.iter().enumerate() {
        for b in h.leases.iter().skip(i + 1) {
            if a.replica != b.replica && a.start < b.end && b.start < a.end {
                v.push(violation(
                    "lease-exclusivity",
                    format!("overlapping leader leases: {a:?} vs {b:?}"),
                ));
            }
        }
    }

    // 6. committed client entries must trace back to a proposal.
    for (&index, &(term, seq, crc, _len, kind)) in &committed {
        if kind == RecordKind::Client && !proposed.contains(&(index, term, seq, crc)) {
            v.push(violation(
                "commit-provenance",
                format!(
                    "committed client entry (index {index}, term {term}, seq {seq}, \
                     crc {crc:#010x}) matches no Proposed event"
                ),
            ));
        }
    }

    // 7. committed payloads must be byte-identical to what the client sent.
    for &(_, seq, crc, len, kind) in committed.values() {
        if kind != RecordKind::Client {
            continue;
        }
        let payload = client_payload(cfg.seed, seq, cfg.payload.max(8));
        let mut area = vec![0u8; PAYLOAD_AREA];
        area[..payload.len()].copy_from_slice(&payload);
        let want = crc32c(&area);
        if crc != want || len as usize != payload.len() {
            v.push(violation(
                "payload-integrity",
                format!(
                    "committed seq {seq} has crc {crc:#010x} len {len}, canonical payload \
                     has crc {want:#010x} len {}",
                    payload.len()
                ),
            ));
        }
    }

    v
}
