//! Tier-1 gate for the PR 9 replicated-log workload (`iwarp_apps::replog`
//! checked by `iwarp_chaos::replog`).
//!
//! Two claims:
//!
//! 1. Under a sweep of seeded fault adversaries (drop bursts, duplication,
//!    reordering, corruption, truncation, partitions) across both publish
//!    paths and leader-freeze fail-overs, every agreement invariant holds
//!    and every run converges.
//! 2. The oracle has teeth: the planted ack-before-placement bug (a
//!    follower acknowledging the leader's high-water mark before its
//!    records actually landed) is caught, with a replayable seed in the
//!    failure rendering.

use iwarp_apps::replog::PlantedBug;
use iwarp_chaos::replog::{run_replog_plan, run_replog_sweep, ReplogOpts};
use iwarp_common::rng::derive_seed;

const MASTER: u64 = 0x51EE_D009;

#[test]
fn seeded_sweep_holds_agreement_invariants() {
    let opts = ReplogOpts {
        entries: 12,
        ..ReplogOpts::default()
    };
    let reports = run_replog_sweep(MASTER, 8, &opts);
    for rep in &reports {
        assert!(rep.ok(), "{}", rep.render_failure());
        assert!(rep.outcome.converged, "{}", rep.render_failure());
    }
    // The sweep must actually cover both publish paths and at least one
    // freeze fail-over (cfg derivation is seed-driven).
    use iwarp_apps::replog::PublishPath;
    assert!(reports
        .iter()
        .any(|r| r.cfg.path == PublishPath::WriteRecord));
    assert!(reports.iter().any(|r| r.cfg.path == PublishPath::TwoSided));
    assert!(reports.iter().any(|r| r.cfg.freeze.is_some()));
}

#[test]
fn planted_ack_before_placement_is_caught() {
    let opts = ReplogOpts {
        entries: 12,
        bug: PlantedBug::AckBeforePlacement,
        ..ReplogOpts::default()
    };
    let mut caught = false;
    for i in 0..6u64 {
        let rep = run_replog_plan(derive_seed(MASTER, 0x600 + i), &opts);
        if !rep.ok() {
            let render = rep.render_failure();
            assert!(
                render.contains("--replay"),
                "failure rendering must carry the replay seed:\n{render}"
            );
            caught = true;
            break;
        }
    }
    assert!(
        caught,
        "planted ack-before-placement bug escaped the oracle"
    );
}
