//! The stack's metrics as typed blocks: one struct per domain, built once
//! inside each [`Telemetry`](crate::Telemetry), one line per metric.
//!
//! Every metric name is written once, in the table below. A field's name
//! is its metric's name after the domain, dots as underscores
//! (`simnet.fabric.tx_packets` is `simnet().fabric_tx_packets`); the one
//! name outside its domain's prefix, `pool.bytes_copied`, is
//! `simnet().bytes_copied`. Instrumented code keeps the `Telemetry` clone
//! it already holds and bumps a field in place, so nothing resolves a
//! name at run time and a block holds its cells inline. A snapshot walks
//! the same table, so it lists every declared metric, zeros included.

use crate::{Counter, Histogram};

/// Declares each domain's block struct, `Telemetry`'s accessor for it,
/// and the snapshot walk over its fields.
macro_rules! blocks {
    ($(
        $(#[$bmeta:meta])*
        $domain:ident: $block:ident {
            $( $(#[$fmeta:meta])* $field:ident: $ty:ident = $name:literal, )*
        }
    )*) => {
        $(
            $(#[$bmeta])*
            #[derive(Debug, Default)]
            pub struct $block {
                $(
                    #[doc = concat!("`", $name, "`.")]
                    $(#[$fmeta])*
                    pub $field: $ty,
                )*
            }

            impl $block {
                fn export(&self, out: &mut Vec<(String, u64)>) {
                    $( self.$field.export($name, out); )*
                }
            }
        )*

        /// One of each block: the metrics of one telemetry domain.
        #[derive(Default)]
        pub(crate) struct Blocks {
            $( $domain: $block, )*
        }

        impl Blocks {
            /// Appends every declared metric to `out`, in table order.
            pub(crate) fn export(&self, out: &mut Vec<(String, u64)>) {
                $( self.$domain.export(out); )*
            }
        }

        impl crate::Telemetry {
            $(
                #[doc = concat!("This domain's `", stringify!($domain), "` metrics.")]
                #[inline]
                #[must_use]
                pub fn $domain(&self) -> &$block {
                    &self.inner.blocks.$domain
                }
            )*
        }

        /// Every declared `(name, metric type)`, in table order.
        #[cfg(test)]
        pub(crate) const DECLARED: &[(&str, &str)] = &[
            $( $( ($name, stringify!($ty)), )* )*
        ];
    };
}

blocks! {
    /// `simnet.*`: the wire and the three conduits, plus the shared
    /// `pool.bytes_copied`.
    simnet: SimnetMetrics {
        fabric_tx_packets: Counter = "simnet.fabric.tx_packets",
        fabric_tx_bytes: Counter = "simnet.fabric.tx_bytes",
        fabric_delivered: Counter = "simnet.fabric.delivered",
        fabric_dropped_loss: Counter = "simnet.fabric.dropped_loss",
        fabric_dropped_unreachable: Counter = "simnet.fabric.dropped_unreachable",
        fabric_pkts_dropped: Counter = "simnet.fabric.pkts_dropped",
        fabric_pkt_bytes: Histogram = "simnet.fabric.pkt_bytes",
        /// Packets enqueued onto per-link delivery rings (fast path + spill).
        fabric_ring_enqueues: Counter = "simnet.fabric.ring_enqueues",
        /// Times a producer found a link's lock-free ring full and the packet
        /// took the mutex-guarded overflow spill instead.
        fabric_ring_full_retries: Counter = "simnet.fabric.ring_full_retries",
        /// Ring + spill occupancy observed at each enqueue.
        fabric_ring_occupancy: Histogram = "simnet.fabric.ring_occupancy",

        dgram_tx_datagrams: Counter = "simnet.dgram.tx_datagrams",
        dgram_tx_fragments: Counter = "simnet.dgram.tx_fragments",
        dgram_rx_datagrams: Counter = "simnet.dgram.rx_datagrams",
        dgram_partials_expired: Counter = "simnet.dgram.partials_expired",
        /// Payload bytes memcpy'd on eliminable datapath copies: datagram
        /// reassembly fills and flattens, and RD's flatten in the core. The
        /// mandatory placement copy into a registered region is not counted.
        bytes_copied: Counter = "pool.bytes_copied",
        dgram_msg_bytes: Histogram = "simnet.dgram.msg_bytes",

        rdgram_tx_msgs: Counter = "simnet.rdgram.tx_msgs",
        rdgram_rx_msgs: Counter = "simnet.rdgram.rx_msgs",
        rdgram_retransmits: Counter = "simnet.rdgram.retransmits",
        rdgram_acks_tx: Counter = "simnet.rdgram.acks_tx",

        /// Every segment handed to the fabric, retransmissions included.
        stream_tx_segments: Counter = "simnet.stream.tx_segments",
        /// Pure acknowledgements among them (SACK-bearing ones included).
        stream_acks_tx: Counter = "simnet.stream.acks_tx",
        stream_retransmits: Counter = "simnet.stream.retransmits",
        stream_fast_retransmits: Counter = "simnet.stream.fast_retransmits",
        stream_rto_retransmits: Counter = "simnet.stream.rto_retransmits",
        stream_zero_window_probes: Counter = "simnet.stream.zero_window_probes",
    }

    /// `core.*`: the verbs engine's receive, send, completion, MPA,
    /// channel and shard paths. Every QP, CQ and channel of a fabric
    /// counts into the same cells.
    core: CoreMetrics {
        rx_segments: Counter = "core.rx.segments",
        rx_messages: Counter = "core.rx.messages",
        rx_crc_errors: Counter = "core.rx.crc_errors",
        rx_malformed: Counter = "core.rx.malformed",
        rx_dropped_no_rq: Counter = "core.rx.dropped_no_rq",
        rx_recovery_expired: Counter = "core.rx.recovery_expired",
        rx_read_expired: Counter = "core.rx.read_expired",
        rx_access_violations: Counter = "core.rx.access_violations",
        rx_read_denied: Counter = "core.rx.read_denied",
        qp_wr_record_partial_placements: Counter = "core.qp.wr_record.partial_placements",
        qp_wr_record_completions: Counter = "core.qp.wr_record.completions",
        qp_wr_record_stale_gc_reaped: Counter = "core.qp.wr_record.stale_gc_reaped",
        rx_msg_bytes: Histogram = "core.rx.msg_bytes",

        qp_tx_msgs: Counter = "core.qp.tx_msgs",
        qp_tx_segments: Counter = "core.qp.tx_segments",
        /// Fabric bursts issued by UD transmits: one per (verb call or read
        /// response, destination), so `tx_msgs / tx_bursts` is the achieved
        /// send-side batching factor (1 when every send is a single
        /// `post_send`).
        qp_tx_bursts: Counter = "core.qp.tx_bursts",
        qp_msg_size_tx: Histogram = "core.qp.msg_size_tx",

        mpa_markers_tx: Counter = "core.mpa.markers_tx",

        cq_cqes: Counter = "core.cq.cqes",
        cq_cqe_success: Counter = "core.cq.cqe_success",
        cq_cqe_partial: Counter = "core.cq.cqe_partial",
        cq_cqe_expired: Counter = "core.cq.cqe_expired",
        cq_cqe_recv_too_small: Counter = "core.cq.cqe_recv_too_small",
        cq_cqe_flushed: Counter = "core.cq.cqe_flushed",
        cq_cqe_error: Counter = "core.cq.cqe_error",
        cq_overflows: Counter = "core.cq.overflows",
        cq_unsignaled_retired: Counter = "core.cq.unsignaled_retired",
        cq_poll_wait_nanos: Histogram = "core.cq.poll_wait_nanos",

        chan_notifies: Counter = "core.chan.notifies",
        chan_coalesced: Counter = "core.chan.coalesced",
        chan_wakeups: Counter = "core.chan.wakeups",
        chan_timeouts: Counter = "core.chan.timeouts",

        shard_wakeups: Counter = "core.shard.wakeups",
        shard_batches: Counter = "core.shard.batches",
        shard_requeues: Counter = "core.shard.requeues",
        shard_expiry_sweeps: Counter = "core.shard.expiry_sweeps",
        shard_registered: Counter = "core.shard.registered",
    }

    /// `cc.*`: the recovery engine both reliable conduits share.
    cc: CcMetrics {
        cwnd: Histogram = "cc.cwnd",
        ssthresh: Histogram = "cc.ssthresh",
        srtt_us: Histogram = "cc.srtt_us",
        rto_us: Histogram = "cc.rto_us",
        retransmits: Counter = "cc.retransmits",
        fast_retransmits: Counter = "cc.fast_retransmits",
        rto_retransmits: Counter = "cc.rto_retransmits",
        rto_fired: Counter = "cc.rto_fired",
        spurious_rto: Counter = "cc.spurious_rto",
        sack_gaps: Counter = "cc.sack_gaps",
        resets: Counter = "cc.resets",
    }

    /// `socket.*`: the socket shim's datagram and stream sockets.
    socket: SocketMetrics {
        dgram_tx_msgs: Counter = "socket.dgram.tx_msgs",
        dgram_rx_msgs: Counter = "socket.dgram.rx_msgs",
        dgram_ring_sends: Counter = "socket.dgram.ring_sends",
        dgram_fallback_sends: Counter = "socket.dgram.fallback_sends",
        dgram_partial_messages: Counter = "socket.dgram.partial_messages",
        dgram_oversized_dropped: Counter = "socket.dgram.oversized_dropped",
        dgram_expired: Counter = "socket.dgram.expired",

        stream_tx_bytes: Counter = "socket.stream.tx_bytes",
        stream_rx_bytes: Counter = "socket.stream.rx_bytes",
        stream_tx_chunks: Counter = "socket.stream.tx_chunks",
    }

    /// `app.*`: the replicated-log workload.
    app: AppMetrics {
        replog_proposals: Counter = "app.replog.proposals",
        replog_publishes: Counter = "app.replog.publishes",
        replog_commits: Counter = "app.replog.commits",
        replog_applies: Counter = "app.replog.applies",
        replog_elections: Counter = "app.replog.elections",
        replog_leaders: Counter = "app.replog.leaders",
        replog_heartbeats: Counter = "app.replog.heartbeats",
        replog_acks: Counter = "app.replog.acks",
        replog_lease_renewals: Counter = "app.replog.lease_renewals",
        replog_refetch_transfers: Counter = "app.replog.refetch_transfers",
        replog_refetch_bytes: Counter = "app.replog.refetch_bytes",
        replog_step_downs: Counter = "app.replog.step_downs",
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::DECLARED;
    use crate::Telemetry;

    #[test]
    fn no_name_is_declared_twice() {
        let mut seen = HashSet::new();
        for (name, _) in DECLARED {
            assert!(seen.insert(*name), "{name} is declared twice");
        }
        assert_eq!(DECLARED.len(), 96);
    }

    #[test]
    fn fresh_snapshot_lists_exactly_the_declared_names_at_zero() {
        let mut want: Vec<String> = Vec::new();
        for (name, ty) in DECLARED {
            if *ty == "Histogram" {
                want.push(format!("{name}.count"));
                want.push(format!("{name}.sum"));
            } else {
                want.push((*name).to_owned());
            }
        }
        want.sort();
        let snap = Telemetry::new().snapshot();
        let got: Vec<String> = snap.entries().iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(got, want);
        assert!(snap.entries().iter().all(|(_, v)| *v == 0));
    }

    #[test]
    fn readme_documents_every_declared_prefix() {
        let readme = include_str!("../../../README.md");
        let start = readme
            .find("## Observability")
            .expect("README has an Observability section");
        let section = &readme[start..];
        let section = &section[..section[3..].find("\n## ").map_or(section.len(), |i| i + 3)];
        for (name, _) in DECLARED {
            let (prefix, leaf) = name.rsplit_once('.').expect("dotted name");
            let row = format!("`{prefix}.*`");
            let line = section
                .lines()
                .find(|l| l.starts_with('|') && l.contains(&row))
                .unwrap_or_else(|| panic!("README Observability has no {row} row for {name}"));
            assert!(
                line.contains(&format!("`{leaf}`")),
                "README's {row} row does not name `{leaf}` ({name})"
            );
        }
    }
}
