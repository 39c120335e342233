//! The cross-layer protocol-invariant oracle.
//!
//! Pure check functions over fabric statistics, completion streams, and
//! registered-memory contents. Each returns the list of [`Violation`]s it
//! found (empty = the invariant holds), so a harness can aggregate every
//! verdict for one run and print them against the fault trace that
//! produced them.

use std::collections::HashMap;
use std::fmt;

use iwarp::{Cqe, CqeOpcode, CqeStatus, MemoryRegion};
use simnet::Fabric;

/// One invariant violation: which invariant, and what was observed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Short stable name of the violated invariant.
    pub invariant: &'static str,
    /// Human-readable description of the observation.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.invariant, self.detail)
    }
}

fn violation(invariant: &'static str, detail: String) -> Violation {
    Violation { invariant, detail }
}

/// **Packet conservation.** Every packet handed to the fabric must be
/// accounted for exactly once:
/// `tx + duplicated = delivered + dropped_loss + dropped_unreachable +
/// chaos_swallowed + in_flight + chaos_held`.
/// Call after `Fabric::chaos_flush` (and after draining receivers) so
/// `chaos_held` and `in_flight` are zero on latency-free fabrics.
#[must_use]
pub fn check_conservation(fab: &Fabric) -> Vec<Violation> {
    let tel = fab.telemetry().simnet();
    let tx = tel.fabric_tx_packets.get();
    let delivered = tel.fabric_delivered.get();
    let loss = tel.fabric_dropped_loss.get();
    let unreachable = tel.fabric_dropped_unreachable.get();
    let chaos = fab.chaos_stats().unwrap_or_default();
    let lhs = tx + chaos.duplicated;
    let rhs = delivered
        + loss
        + unreachable
        + chaos.swallowed()
        + fab.in_flight() as u64
        + fab.chaos_held();
    if lhs != rhs {
        return vec![violation(
            "packet-conservation",
            format!(
                "tx({tx}) + duplicated({}) != delivered({delivered}) + loss({loss}) \
                 + unreachable({unreachable}) + chaos_swallowed({}) + in_flight({}) \
                 + chaos_held({})",
                chaos.duplicated,
                chaos.swallowed(),
                fab.in_flight(),
                fab.chaos_held(),
            ),
        )];
    }
    Vec::new()
}

/// Expected contents of one tagged-write window: what the sender wrote
/// where, so Write-Record completions can be reconciled byte-for-byte.
pub struct WriteWindow {
    /// Sink-region STag the sender targeted.
    pub stag: u32,
    /// Tagged offset of the window's first byte.
    pub base_to: u64,
    /// Exact bytes the sender posted.
    pub data: Vec<u8>,
}

/// **Write-Record validity-map ↔ CQE reconciliation.** For every
/// target-side Write-Record completion:
/// * it names a window the sender actually wrote (stag + base_to);
/// * `total_len` matches the sender's message length;
/// * `byte_len` equals the validity map's `valid_bytes()`;
/// * every run lies inside `[0, total_len)`... and its bytes in the sink
///   equal the sender's bytes at those offsets (placement correctness);
/// * `Success` status if and only if the map covers the whole message,
///   `Partial` otherwise.
#[must_use]
pub fn check_write_record_cqes(
    cqes: &[Cqe],
    windows: &[WriteWindow],
    sink: &MemoryRegion,
) -> Vec<Violation> {
    let mut out = Vec::new();
    for cqe in cqes {
        if cqe.opcode != CqeOpcode::WriteRecord {
            continue;
        }
        let Some(info) = &cqe.write_record else {
            out.push(violation(
                "wr-reconciliation",
                format!(
                    "WriteRecord CQE without validity info (wr_id={})",
                    cqe.wr_id
                ),
            ));
            continue;
        };
        let Some(win) = windows
            .iter()
            .find(|w| w.stag == info.stag && w.base_to == info.base_to)
        else {
            out.push(violation(
                "wr-reconciliation",
                format!(
                    "completion names unwritten window stag={} base_to={}",
                    info.stag, info.base_to
                ),
            ));
            continue;
        };
        if info.total_len as usize != win.data.len() {
            out.push(violation(
                "wr-reconciliation",
                format!(
                    "total_len {} != sender length {} at base_to={}",
                    info.total_len,
                    win.data.len(),
                    info.base_to
                ),
            ));
            continue;
        }
        if u64::from(cqe.byte_len) != info.valid_bytes() {
            out.push(violation(
                "wr-reconciliation",
                format!(
                    "byte_len {} != validity map's valid_bytes {} at base_to={}",
                    cqe.byte_len,
                    info.valid_bytes(),
                    info.base_to
                ),
            ));
        }
        let complete = info.is_complete();
        match cqe.status {
            CqeStatus::Success if !complete => out.push(violation(
                "wr-reconciliation",
                format!(
                    "Success with incomplete validity map at base_to={}",
                    info.base_to
                ),
            )),
            CqeStatus::Partial if complete => out.push(violation(
                "wr-reconciliation",
                format!("Partial with full validity map at base_to={}", info.base_to),
            )),
            CqeStatus::Success | CqeStatus::Partial => {}
            other => out.push(violation(
                "wr-reconciliation",
                format!("unexpected status {other:?} at base_to={}", info.base_to),
            )),
        }
        for run in info.validity.runs() {
            if run.end > u64::from(info.total_len) || run.start >= run.end {
                out.push(violation(
                    "wr-reconciliation",
                    format!(
                        "run [{}, {}) outside message [0, {}) at base_to={}",
                        run.start, run.end, info.total_len, info.base_to
                    ),
                ));
                continue;
            }
            let (s, e) = (run.start as usize, run.end as usize);
            match sink.read_vec(win.base_to + run.start, e - s) {
                Ok(placed) => {
                    if placed != win.data[s..e] {
                        out.push(violation(
                            "wr-placement",
                            format!(
                                "validity run [{s}, {e}) at base_to={} does not match \
                                 sender bytes",
                                win.base_to
                            ),
                        ));
                    }
                }
                Err(e) => out.push(violation(
                    "mr-bounds",
                    format!("validity run reaches outside the sink region: {e:?}"),
                )),
            }
        }
    }
    out
}

/// **No placement outside claimed ranges.** Every byte of `region` must
/// be either its setup-time sentinel or the exact byte the sender wrote
/// at that offset; guard areas (no window) must still be all-sentinel.
/// This catches placement escaping MR windows, header-corruption-driven
/// mis-placement, and corrupt duplicates clobbering validated data.
#[must_use]
pub fn check_window_contents(
    region: &MemoryRegion,
    windows: &[WriteWindow],
    sentinel: u8,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let len = region.len();
    let actual = region
        .read_vec(0, len)
        .expect("whole-region read is in bounds");
    // Expected image: sentinel everywhere, overwritten per-window with
    // "sender byte OR sentinel" (placement-on-arrival means a window byte
    // may legitimately still be sentinel if its segment never arrived).
    let mut owner: Vec<Option<(usize, u8)>> = vec![None; len];
    for (wi, w) in windows.iter().enumerate() {
        let base = usize::try_from(w.base_to).expect("window fits the region");
        for (k, &b) in w.data.iter().enumerate() {
            owner[base + k] = Some((wi, b));
        }
    }
    let mut reported = 0;
    for (off, &got) in actual.iter().enumerate() {
        let ok = match owner[off] {
            Some((_, sender_byte)) => got == sender_byte || got == sentinel,
            None => got == sentinel,
        };
        if !ok {
            reported += 1;
            if reported <= 5 {
                out.push(violation(
                    if owner[off].is_some() {
                        "wr-placement"
                    } else {
                        "guard-zone"
                    },
                    format!(
                        "offset {off}: found {got:#04x}, expected {} (sentinel {sentinel:#04x})",
                        match owner[off] {
                            Some((wi, b)) => format!("window {wi} byte {b:#04x}"),
                            None => "untouched guard".to_string(),
                        }
                    ),
                ));
            }
        }
    }
    if reported > 5 {
        out.push(violation(
            "wr-placement",
            format!("... and {} more corrupted bytes", reported - 5),
        ));
    }
    out
}

/// **CQ completion uniqueness and ordering.**
/// * Receive side: every consumed `wr_id` was actually posted and
///   completes at most once (duplicate delivery may consume *another*
///   posted receive, never re-complete the same one).
/// * Send side: completions appear in exactly posted order (datagram
///   sends complete synchronously at post), all successful.
#[must_use]
pub fn check_cq_discipline(
    recv_cqes: &[Cqe],
    posted_recv_ids: &[u64],
    send_cqes: &[Cqe],
    posted_send_ids: &[u64],
) -> Vec<Violation> {
    let mut out = Vec::new();
    let posted: std::collections::HashSet<u64> = posted_recv_ids.iter().copied().collect();
    let mut seen: HashMap<u64, u32> = HashMap::new();
    for cqe in recv_cqes {
        if cqe.opcode == CqeOpcode::WriteRecord {
            // Unsolicited target-side completions consume no posted WR.
            continue;
        }
        if !posted.contains(&cqe.wr_id) {
            out.push(violation(
                "cq-uniqueness",
                format!("completion for never-posted recv wr_id={}", cqe.wr_id),
            ));
            continue;
        }
        let n = seen.entry(cqe.wr_id).or_insert(0);
        *n += 1;
        if *n == 2 {
            out.push(violation(
                "cq-uniqueness",
                format!("recv wr_id={} completed more than once", cqe.wr_id),
            ));
        }
    }
    let got: Vec<u64> = send_cqes.iter().map(|c| c.wr_id).collect();
    if got != posted_send_ids {
        out.push(violation(
            "cq-order",
            format!("send completions {got:?} != posted order {posted_send_ids:?}"),
        ));
    }
    for cqe in send_cqes {
        if cqe.status != CqeStatus::Success {
            out.push(violation(
                "cq-order",
                format!(
                    "send wr_id={} completed with {:?} (datagram sends cannot fail in flight)",
                    cqe.wr_id, cqe.status
                ),
            ));
        }
    }
    out
}

/// **Socket-shim datagram boundary preservation.** Every datagram the
/// receiver surfaces must be byte-identical to *some* sent datagram:
/// loss and duplication are allowed, splits/merges/corruption are not.
#[must_use]
pub fn check_datagram_boundaries(sent: &[Vec<u8>], received: &[Vec<u8>]) -> Vec<Violation> {
    let mut out = Vec::new();
    let sent_set: std::collections::HashSet<&[u8]> = sent.iter().map(Vec::as_slice).collect();
    for (i, r) in received.iter().enumerate() {
        if !sent_set.contains(r.as_slice()) {
            out.push(violation(
                "dgram-boundary",
                format!(
                    "received datagram #{i} ({} bytes) matches no sent datagram \
                     (split, merge, or corruption leaked through)",
                    r.len()
                ),
            ));
        }
    }
    out
}

/// One standalone one-sided read posted for terminal-state
/// reconciliation (see [`check_read_reconciliation`]).
pub struct PostedRead {
    /// The work-request id the read was posted under.
    pub wr_id: u64,
    /// Posted with a completion requested (`post_read`) or silent on
    /// success (`post_read_unsignaled`).
    pub signaled: bool,
    /// Requested read length.
    pub len: u32,
}

/// **Read validity ↔ completion reconciliation.** Every posted
/// one-sided read reaches *exactly one* terminal state:
/// * a signaled read surfaces one `RdmaRead` CQE — `Success` with
///   `byte_len` equal to the requested length (the validity map covered
///   the whole read) or `Expired` (the TTL fired first) — and is never
///   silently retired;
/// * an unsignaled read is either silently retired (success) or
///   surfaces an `Expired` CQE — suppression is success-only, errors
///   always complete;
/// * no completion or retirement names a read that was never posted,
///   and none happens twice.
#[must_use]
pub fn check_read_reconciliation(
    posted: &[PostedRead],
    cqes: &[Cqe],
    retired: &[u64],
) -> Vec<Violation> {
    let mut out = Vec::new();
    let by_id: HashMap<u64, &PostedRead> = posted.iter().map(|p| (p.wr_id, p)).collect();
    let mut terminals: HashMap<u64, u32> = HashMap::new();
    for cqe in cqes {
        if cqe.opcode != CqeOpcode::RdmaRead {
            out.push(violation(
                "read-reconciliation",
                format!("unexpected {:?} on the read CQ", cqe.opcode),
            ));
            continue;
        }
        let Some(p) = by_id.get(&cqe.wr_id) else {
            out.push(violation(
                "read-reconciliation",
                format!("completion for never-posted read wr_id={}", cqe.wr_id),
            ));
            continue;
        };
        match cqe.status {
            CqeStatus::Success => {
                if !p.signaled {
                    out.push(violation(
                        "read-reconciliation",
                        format!("unsignaled read wr_id={} surfaced a Success CQE", cqe.wr_id),
                    ));
                }
                if cqe.byte_len != p.len {
                    out.push(violation(
                        "read-reconciliation",
                        format!(
                            "read wr_id={} Success with byte_len {} != requested {}",
                            cqe.wr_id, cqe.byte_len, p.len
                        ),
                    ));
                }
            }
            CqeStatus::Expired => {}
            other => out.push(violation(
                "read-reconciliation",
                format!("read wr_id={} completed with {other:?}", cqe.wr_id),
            )),
        }
        *terminals.entry(cqe.wr_id).or_insert(0) += 1;
    }
    for id in retired {
        match by_id.get(id) {
            None => out.push(violation(
                "read-reconciliation",
                format!("retirement for never-posted read wr_id={id}"),
            )),
            Some(p) if p.signaled => out.push(violation(
                "read-reconciliation",
                format!("signaled read wr_id={id} was silently retired"),
            )),
            Some(_) => {}
        }
        *terminals.entry(*id).or_insert(0) += 1;
    }
    for p in posted {
        match terminals.get(&p.wr_id).copied().unwrap_or(0) {
            0 => out.push(violation(
                "read-reconciliation",
                format!(
                    "read wr_id={} reached no terminal state (lost without an Expired CQE)",
                    p.wr_id
                ),
            )),
            1 => {}
            n => out.push(violation(
                "read-reconciliation",
                format!("read wr_id={} reached {n} terminal states", p.wr_id),
            )),
        }
    }
    out
}

/// **Receive-buffer accounting.** Work requests never leak: every posted
/// receive is either consumed by a completion, expired, or still posted.
#[must_use]
pub fn check_recv_accounting(
    posted: usize,
    completed: usize,
    still_posted: usize,
) -> Vec<Violation> {
    if completed + still_posted != posted {
        return vec![violation(
            "recv-accounting",
            format!(
                "posted({posted}) != completed-or-expired({completed}) + still-posted({still_posted})"
            ),
        )];
    }
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;
    use iwarp::{Access, MrTable};

    fn mk_region(len: usize, sentinel: u8) -> MemoryRegion {
        let t = MrTable::new();
        let mr = t.register(len, Access::RemoteWrite);
        mr.fill(sentinel);
        mr
    }

    #[test]
    fn untouched_guards_pass() {
        let mr = mk_region(256, 0xA5);
        let w = WriteWindow {
            stag: mr.stag(),
            base_to: 64,
            data: vec![1, 2, 3, 4],
        };
        mr.write(64, &[1, 2, 3, 4]).unwrap();
        assert!(check_window_contents(&mr, &[w], 0xA5).is_empty());
    }

    #[test]
    fn planted_guard_poke_is_caught() {
        // The mutation check the harness relies on: a single stray byte
        // outside every window must surface as a guard-zone violation.
        let mr = mk_region(256, 0xA5);
        let w = WriteWindow {
            stag: mr.stag(),
            base_to: 0,
            data: vec![9; 16],
        };
        mr.write(0, &[9; 16]).unwrap();
        mr.write(200, &[0xEE]).unwrap(); // the planted placement bug
        let v = check_window_contents(&mr, &[w], 0xA5);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "guard-zone");
    }

    #[test]
    fn planted_wrong_byte_inside_window_is_caught() {
        let mr = mk_region(64, 0xA5);
        let w = WriteWindow {
            stag: mr.stag(),
            base_to: 0,
            data: vec![7; 32],
        };
        mr.write(0, &[7; 32]).unwrap();
        mr.write(10, &[8]).unwrap(); // placed a byte the sender never sent
        let v = check_window_contents(&mr, &[w], 0xA5);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "wr-placement");
    }

    #[test]
    fn duplicate_recv_completion_is_caught() {
        let cqe = Cqe {
            wr_id: 5,
            opcode: CqeOpcode::Recv,
            status: CqeStatus::Success,
            byte_len: 10,
            src: None,
            write_record: None,
            imm: None,
            solicited: false,
        };
        let v = check_cq_discipline(&[cqe.clone(), cqe], &[5], &[], &[]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "cq-uniqueness");
    }

    #[test]
    fn merged_datagram_is_caught() {
        let sent = vec![vec![1, 2], vec![3, 4]];
        let received = vec![vec![1, 2], vec![1, 2, 3, 4]];
        let v = check_datagram_boundaries(&sent, &received);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "dgram-boundary");
    }

    #[test]
    fn duplicated_datagram_is_allowed() {
        let sent = vec![vec![1, 2]];
        let received = vec![vec![1, 2], vec![1, 2]];
        assert!(check_datagram_boundaries(&sent, &received).is_empty());
    }

    fn read_cqe(wr_id: u64, status: CqeStatus, byte_len: u32) -> Cqe {
        Cqe {
            wr_id,
            opcode: CqeOpcode::RdmaRead,
            status,
            byte_len,
            src: None,
            write_record: None,
            imm: None,
            solicited: false,
        }
    }

    #[test]
    fn read_terminals_reconcile() {
        let posted = [
            PostedRead {
                wr_id: 1,
                signaled: true,
                len: 100,
            },
            PostedRead {
                wr_id: 2,
                signaled: false,
                len: 100,
            },
            PostedRead {
                wr_id: 3,
                signaled: false,
                len: 100,
            },
        ];
        // Signaled success, silent retirement, unsignaled expiry: clean.
        let cqes = [
            read_cqe(1, CqeStatus::Success, 100),
            read_cqe(3, CqeStatus::Expired, 0),
        ];
        assert!(check_read_reconciliation(&posted, &cqes, &[2]).is_empty());
    }

    #[test]
    fn silently_lost_read_is_caught() {
        let posted = [PostedRead {
            wr_id: 7,
            signaled: true,
            len: 64,
        }];
        let v = check_read_reconciliation(&posted, &[], &[]);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("no terminal state"));
    }

    #[test]
    fn double_terminal_read_is_caught() {
        let posted = [PostedRead {
            wr_id: 7,
            signaled: false,
            len: 64,
        }];
        // Retired AND expired: the engine resolved one read twice.
        let v = check_read_reconciliation(&posted, &[read_cqe(7, CqeStatus::Expired, 0)], &[7]);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("2 terminal states"));
    }

    #[test]
    fn unsignaled_success_cqe_is_caught() {
        // An unsignaled read must retire silently, not complete.
        let posted = [PostedRead {
            wr_id: 9,
            signaled: false,
            len: 64,
        }];
        let v = check_read_reconciliation(&posted, &[read_cqe(9, CqeStatus::Success, 64)], &[]);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("Success CQE"));
    }

    #[test]
    fn short_success_read_is_caught() {
        let posted = [PostedRead {
            wr_id: 4,
            signaled: true,
            len: 100,
        }];
        let v = check_read_reconciliation(&posted, &[read_cqe(4, CqeStatus::Success, 60)], &[]);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("byte_len 60"));
    }
}
