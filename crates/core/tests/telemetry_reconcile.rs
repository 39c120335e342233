//! Write-Record accounting reconciliation under seeded loss.
//!
//! Runs a lossy UD Write-Record workload and checks that the telemetry
//! counters agree with what the application observes on its completion
//! queue: every `Partial` CQE is one `core.qp.wr_record.partial_placements`
//! tick, every Write-Record CQE one `core.qp.wr_record.completions` tick,
//! and every record still awaiting its lost final segment is eventually one
//! `core.qp.wr_record.stale_gc_reaped` tick. Deterministic: fixed seed,
//! fixed traffic.

use std::time::Duration;

use iwarp::{Access, Cq, CqeOpcode, CqeStatus, Device, QpConfig};
use simnet::{Fabric, NodeId, WireConfig};

fn pattern(n: usize) -> Vec<u8> {
    (0..n).map(|i| (i % 251) as u8).collect()
}

#[test]
fn write_record_counters_reconcile_with_validity_maps() {
    // 5% i.i.d. loss, fixed seed: the exact same drops every run.
    let fab = Fabric::new(WireConfig::with_loss(0.05, 4242));
    let a = Device::new(&fab, NodeId(0));
    let b = Device::new(&fab, NodeId(1));
    let (a_send, a_recv) = (Cq::new(1024), Cq::new(1024));
    let (b_send, b_recv) = (Cq::new(1024), Cq::new(1024));
    let cfg = QpConfig {
        record_ttl: Duration::from_millis(200),
        ..QpConfig::default()
    };
    let qa = a.create_ud_qp(None, &a_send, &a_recv, cfg.clone()).unwrap();
    let qb = b.create_ud_qp(None, &b_send, &b_recv, cfg).unwrap();

    // Multi-segment messages (4 × 64 KiB DDP segments): loss can strike
    // before the final segment (→ Partial CQE) or the final segment itself
    // (→ no CQE, record reaped on TTL).
    let data = pattern(256 * 1024);
    let sink = b.register(256 * 1024, Access::RemoteWrite);
    let attempts = 40u64;
    for i in 0..attempts {
        qa.post_write_record(i, data.clone(), qb.dest(), sink.stag(), 0)
            .unwrap();
    }
    while a_send.poll().is_some() {}

    let mut success = 0u64;
    let mut partial = 0u64;
    let mut valid_bytes_seen = 0u64;
    while let Ok(cqe) = b_recv.poll_timeout(Duration::from_millis(500)) {
        assert_eq!(cqe.opcode, CqeOpcode::WriteRecord);
        let info = cqe.write_record.expect("write-record info");
        match cqe.status {
            CqeStatus::Success => {
                assert!(info.is_complete());
                success += 1;
            }
            CqeStatus::Partial => {
                assert!(!info.is_complete());
                partial += 1;
            }
            other => panic!("unexpected status {other:?}"),
        }
        // The CQE's byte_len restates the validity map's coverage.
        assert_eq!(u64::from(cqe.byte_len), info.valid_bytes());
        valid_bytes_seen += info.valid_bytes();
    }
    assert!(
        success + partial > 0,
        "no completions at all under 5% loss (seed drift?)"
    );
    assert!(partial > 0, "expected partial placements at 5% loss");
    assert!(valid_bytes_seen > 0);

    // Records whose final segment was lost are still pending; wait out the
    // TTL so the receive engine's sweep reaps every one of them.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let pending_before = qb.records_pending() as u64;
    while qb.records_pending() > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
    }
    assert_eq!(qb.records_pending(), 0, "stale records never reaped");

    let snap = fab.telemetry().snapshot();
    let tel_partial = snap
        .get("core.qp.wr_record.partial_placements")
        .unwrap_or(0);
    let tel_completions = snap.get("core.qp.wr_record.completions").unwrap_or(0);
    let tel_reaped = snap.get("core.qp.wr_record.stale_gc_reaped").unwrap_or(0);

    // Telemetry must restate exactly what the CQ delivered.
    assert_eq!(tel_partial, partial, "partial_placements vs Partial CQEs");
    assert_eq!(
        tel_completions,
        success + partial,
        "wr_record.completions vs Write-Record CQEs"
    );
    // Everything that was pending after the drain got reaped (no record
    // leaks, no double-reaps).
    assert!(
        tel_reaped >= pending_before,
        "reaped fewer than were pending"
    );
    // Every message is accounted for at most once: completed or reaped;
    // the remainder lost every segment on the wire.
    assert!(
        tel_completions + tel_reaped <= attempts,
        "a message completed AND was reaped"
    );

    // The CQ-layer counters saw the same partials (only Write-Record
    // traffic can produce Partial status in this run).
    assert_eq!(snap.get("core.cq.cqe_partial").unwrap_or(0), partial);
}
