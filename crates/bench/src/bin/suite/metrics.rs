//! The metric catalogue: every name BENCHMARK.json lists, with its unit,
//! its good direction, and how it is worked out.
//!
//! End-to-end metrics come from the untraced pass. Per-layer metrics
//! come from the traced pass and have three sources: the ladder, driver
//! spans, and the change in the fabric's `Telemetry::snapshot()` over
//! the measured window divided by the operations it covered. A metric
//! that does not apply to a workload (no RD conduit, no socket) reads 0
//! there, which is itself a check: `simnet.stream.retransmits.per_op`
//! must be 0 on a clean wire.

use iwarp_telemetry::Snapshot;

use crate::harness::Tally;
use crate::ladder::Ladder;
use crate::stats::{median, per_op, require_samples, summarize_latency, LatencySummary};
use crate::trace::total_across;

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub struct EndToEndDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
}

const fn e2e(name: &'static str, unit: &'static str, lower_is_better: bool) -> EndToEndDef {
    EndToEndDef {
        name,
        unit,
        lower_is_better,
    }
}

/// Relative bounds live in BENCHMARK.json, which `--compare` reads.
pub const END_TO_END: [EndToEndDef; 7] = [
    e2e("setup_s", "s", true),
    e2e("ops_per_s", "1/s", false),
    e2e("goodput_MBps", "MB/s", false),
    e2e("op_p50_us", "us", true),
    e2e("op_p99_us", "us", true),
    e2e("cpu_us_per_op", "us", true),
    e2e("mem_bytes_per_call", "B", true),
];

/// `fail_frac` is judged by `--compare` against this absolute rise: its
/// good value is 0, so a share of the parent's median bounds nothing
/// (and BENCHMARK.json, whose bounds are shares, lists it per-layer).
pub const FAIL_FRAC: EndToEndDef = e2e("fail_frac", "frac", true);
pub const FAIL_FRAC_BOUND: f64 = 0.001;

/// What the untraced pass measured, beyond the tally.
pub struct Measured {
    /// Median set-up time of this run.
    pub setup_s: f64,
    /// Serving-side tracked bytes and the calls they serve.
    pub mem_bytes: u64,
    pub calls: u64,
}

/// `[ops_per_s, goodput_MBps, cpu_us_per_op]` over the whole window,
/// first operation posted to last operation verified. `None` when no
/// operation completed.
pub fn window_rates(tally: &Tally) -> Option<[f64; 3]> {
    let cpu_us_per_op = per_op(tally.cpu_ns as f64 / 1e3, tally.ops())?;
    let secs = (tally.end_ns - tally.start_ns) as f64 / 1e9;
    Some([
        tally.ops() as f64 / secs,
        tally.payload_bytes as f64 / secs / 1e6,
        cpu_us_per_op,
    ])
}

/// The end-to-end metrics, in catalogue order, and the number of latency
/// samples they rest on: rates and CPU time over all the measured time,
/// each latency percentile as the median over the rounds of the round's
/// percentile (a disturbance of the host that lasts a second or two
/// spoils the rounds it covers, not the run). Fails when a round completed
/// no operation or holds too few samples for a p99.
pub fn end_to_end(
    tally: &Tally,
    m: &Measured,
    min_samples: usize,
) -> Result<(Vec<Metric>, usize), String> {
    let mut rounds = Vec::new();
    for samples in tally.rounds() {
        require_samples(samples.len(), min_samples)?;
        rounds.extend(summarize_latency(&mut samples.to_vec()));
    }
    let over_rounds =
        |pick: fn(&LatencySummary) -> f64| median(&rounds.iter().map(pick).collect::<Vec<_>>());
    let [ops_per_s, goodput, cpu] = window_rates(tally).ok_or("no operation completed")?;
    let values = [
        m.setup_s,
        ops_per_s,
        goodput,
        over_rounds(|l| l.p50) / 1e3,
        over_rounds(|l| l.p99) / 1e3,
        cpu,
        m.mem_bytes as f64 / m.calls as f64,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(d, value)| Metric {
            name: d.name,
            value,
            unit: d.unit,
        })
        .collect();
    Ok((metrics, tally.latency_ns.len()))
}

/// Everything a per-layer metric may be computed from.
pub struct LayerInputs<'a> {
    pub tally: &'a Tally,
    /// Telemetry change over each round's traced window.
    pub deltas: &'a [Snapshot],
    pub ladder: &'a Ladder,
    pub snapshot_us: f64,
    /// 1 − traced / untraced operations per second.
    pub trace_overhead_frac: f64,
    pub tracked_bytes: u64,
    pub rss_bytes: Option<u64>,
}

impl LayerInputs<'_> {
    fn count(&self, name: &str) -> f64 {
        self.deltas
            .iter()
            .map(|d| d.get(name).unwrap_or(0) as f64)
            .sum()
    }

    fn ops(&self) -> f64 {
        self.tally.ops().max(1) as f64
    }

    fn span_ns(&self, name: &str) -> f64 {
        total_across(&self.tally.recorders, name).total_ns as f64
    }
}

enum Source {
    Ladder(fn(&Ladder) -> f64),
    /// Counter change per operation.
    PerOp(&'static str),
    /// Counter change per verified payload byte.
    PerPayloadByte(&'static str),
    /// Mean of a histogram over the window.
    HistMean(&'static str),
    /// Driver-span time per operation.
    SpanPerOp(&'static str),
    /// Driver-span time per MiB of payload.
    SpanPerMiB(&'static str),
    Custom(fn(&LayerInputs) -> f64),
}

pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    source: Source,
}

const fn lower(name: &'static str, unit: &'static str, source: Source) -> LayerDef {
    LayerDef {
        name,
        unit,
        lower_is_better: true,
        source,
    }
}

const fn higher(name: &'static str, unit: &'static str, source: Source) -> LayerDef {
    LayerDef {
        name,
        unit,
        lower_is_better: false,
        source,
    }
}

fn frac(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

use Source::{Custom, HistMean, PerOp, PerPayloadByte, SpanPerMiB, SpanPerOp};

pub const PER_LAYER: [LayerDef; 60] = [
    // common
    lower(
        "common.crc32c.ns_per_KiB",
        "ns",
        Source::Ladder(|l| l.crc32c_ns_per_kib),
    ),
    lower(
        "common.pool.get.ns",
        "ns",
        Source::Ladder(|l| l.pool_get_ns),
    ),
    lower(
        "pool.bytes_copied.per_payload_byte",
        "B/B",
        PerPayloadByte("pool.bytes_copied"),
    ),
    higher(
        "pool.hit_frac",
        "frac",
        Custom(|i| {
            frac(
                i.count("pool.hits"),
                i.count("pool.hits") + i.count("pool.misses"),
            )
        }),
    ),
    lower("pool.misses.per_op", "1/op", PerOp("pool.misses")),
    higher(
        "common.slab.reuse_frac",
        "frac",
        Custom(|i| frac(i.count("mem.slab.reuses"), i.count("mem.slab.allocs"))),
    ),
    higher(
        "common.memacct.tracked_frac_of_rss",
        "frac",
        Custom(|i| {
            i.rss_bytes
                .map_or(0.0, |rss| frac(i.tracked_bytes as f64, rss as f64))
        }),
    ),
    // simnet
    lower(
        "simnet.fabric.ns_per_msg",
        "ns",
        Source::Ladder(|l| l.fabric_ns),
    ),
    lower(
        "simnet.dgram.ns_per_msg",
        "ns",
        Source::Ladder(|l| l.dgram_ns),
    ),
    lower(
        "simnet.fabric.tx_packets.per_op",
        "1/op",
        PerOp("simnet.fabric.tx_packets"),
    ),
    lower(
        "simnet.dgram.tx_fragments.per_op",
        "1/op",
        PerOp("simnet.dgram.tx_fragments"),
    ),
    lower(
        "simnet.fabric.wire_bytes_per_payload_byte",
        "B/B",
        PerPayloadByte("simnet.fabric.tx_bytes"),
    ),
    lower(
        "simnet.fabric.ring_full_retries.per_op",
        "1/op",
        PerOp("simnet.fabric.ring_full_retries"),
    ),
    lower(
        "simnet.fabric.ring_occupancy.mean",
        "pkts",
        HistMean("simnet.fabric.ring_occupancy"),
    ),
    lower(
        "simnet.fabric.dropped_loss.per_op",
        "1/op",
        PerOp("simnet.fabric.dropped_loss"),
    ),
    lower(
        "simnet.rdgram.retransmits.per_op",
        "1/op",
        PerOp("simnet.rdgram.retransmits"),
    ),
    lower(
        "simnet.rdgram.acks_tx.per_op",
        "1/op",
        PerOp("simnet.rdgram.acks_tx"),
    ),
    lower(
        "simnet.stream.retransmits.per_op",
        "1/op",
        PerOp("simnet.stream.retransmits"),
    ),
    // cc
    lower("cc.retransmits.per_op", "1/op", PerOp("cc.retransmits")),
    lower("cc.rto_fired.per_op", "1/op", PerOp("cc.rto_fired")),
    lower(
        "cc.fast_retransmits.per_op",
        "1/op",
        PerOp("cc.fast_retransmits"),
    ),
    lower("cc.spurious_rto.per_op", "1/op", PerOp("cc.spurious_rto")),
    lower("cc.rto_us.mean", "us", HistMean("cc.rto_us")),
    higher("cc.cwnd.mean", "units", HistMean("cc.cwnd")),
    higher(
        "cc.useful_tx_frac",
        "frac",
        Custom(|i| {
            let again = i.count("simnet.rdgram.retransmits") + i.count("simnet.stream.retransmits");
            frac(i.ops(), i.ops() + again)
        }),
    ),
    // core: ladder
    lower("core.qp.ns_per_msg", "ns", Source::Ladder(|l| l.qp_ns)),
    lower(
        "core.qp.post_send.ns",
        "ns",
        Source::Ladder(|l| l.qp_post_send_ns),
    ),
    lower(
        "core.qp.post_recv.ns",
        "ns",
        Source::Ladder(|l| l.qp_post_recv_ns),
    ),
    lower(
        "core.rx.progress.ns",
        "ns",
        Source::Ladder(|l| l.rx_progress_ns),
    ),
    lower("core.cq.poll.ns", "ns", Source::Ladder(|l| l.cq_poll_ns)),
    // core: driver spans
    lower("core.qp.post.ns", "ns", SpanPerOp("core.qp.post")),
    lower("core.cq.wait.ns", "ns", SpanPerOp("core.cq.wait")),
    lower("core.cq.reap.ns", "ns", SpanPerOp("core.cq.reap")),
    lower(
        "core.read.responder.ns_per_MiB",
        "ns",
        SpanPerMiB("core.read.responder"),
    ),
    lower(
        "core.read.requester.ns_per_MiB",
        "ns",
        SpanPerMiB("core.read.requester"),
    ),
    lower(
        "core.read.step.ns_per_MiB",
        "ns",
        SpanPerMiB("core.read.step"),
    ),
    // core: counters
    lower(
        "core.cq.unsignaled_retired.per_op",
        "1/op",
        PerOp("core.cq.unsignaled_retired"),
    ),
    lower(
        "core.qp.tx_segments.per_op",
        "1/op",
        PerOp("core.qp.tx_segments"),
    ),
    lower(
        "core.qp.tx_bursts.per_op",
        "1/op",
        PerOp("core.qp.tx_bursts"),
    ),
    lower("core.cq.cqes.per_op", "1/op", PerOp("core.cq.cqes")),
    lower(
        "core.rx.dropped_no_rq.per_op",
        "1/op",
        PerOp("core.rx.dropped_no_rq"),
    ),
    lower(
        "core.cq.overflows.per_op",
        "1/op",
        PerOp("core.cq.overflows"),
    ),
    lower(
        "core.rx.recovery_expired.per_op",
        "1/op",
        PerOp("core.rx.recovery_expired"),
    ),
    lower(
        "core.qp.wr_record.partial_placements.per_op",
        "1/op",
        PerOp("core.qp.wr_record.partial_placements"),
    ),
    lower(
        "core.chan.wakeups.per_op",
        "1/op",
        PerOp("core.chan.wakeups"),
    ),
    higher(
        "core.chan.coalesced.per_op",
        "1/op",
        PerOp("core.chan.coalesced"),
    ),
    lower(
        "core.shard.wakeups.per_op",
        "1/op",
        PerOp("core.shard.wakeups"),
    ),
    lower(
        "core.shard.batches.per_op",
        "1/op",
        PerOp("core.shard.batches"),
    ),
    // socket
    lower(
        "socket.dgram.ns_per_msg",
        "ns",
        Source::Ladder(|l| l.socket_ns),
    ),
    lower(
        "socket.dgram.send_to.ns",
        "ns",
        SpanPerOp("socket.dgram.send_to"),
    ),
    lower(
        "socket.dgram.recv_wait.ns",
        "ns",
        SpanPerOp("socket.dgram.recv_wait"),
    ),
    lower(
        "socket.dgram.fallback_sends.per_op",
        "1/op",
        PerOp("socket.dgram.fallback_sends"),
    ),
    lower(
        "socket.dgram.expired.per_op",
        "1/op",
        PerOp("socket.dgram.expired"),
    ),
    // apps
    lower(
        "apps.sip.parse.ns",
        "ns",
        Source::Ladder(|l| l.sip_parse_ns),
    ),
    lower(
        "apps.sip.encode.ns",
        "ns",
        Source::Ladder(|l| l.sip_encode_ns),
    ),
    // the measurement itself
    lower("telemetry.snapshot.us", "us", Custom(|i| i.snapshot_us)),
    lower(
        "bench.trace_overhead_frac",
        "frac",
        Custom(|i| i.trace_overhead_frac),
    ),
    higher(
        "bench.spans_recorded",
        "count",
        Custom(|i| {
            i.tally
                .recorders
                .iter()
                .map(|r| r.spans().len())
                .sum::<usize>() as f64
        }),
    ),
    lower("bench.credit_wait.ns", "ns", SpanPerOp("bench.credit_wait")),
    lower(
        "fail_frac",
        "frac",
        Custom(|i| frac(i.tally.failed as f64, i.tally.attempted as f64)),
    ),
];

pub fn per_layer(i: &LayerInputs) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|d| {
            let value = match d.source {
                Source::Ladder(pick) => pick(i.ladder),
                PerOp(counter) => i.count(counter) / i.ops(),
                PerPayloadByte(counter) => frac(i.count(counter), i.tally.payload_bytes as f64),
                HistMean(hist) => frac(
                    i.count(&format!("{hist}.sum")),
                    i.count(&format!("{hist}.count")),
                ),
                SpanPerOp(span) => i.span_ns(span) / i.ops(),
                SpanPerMiB(span) => frac(
                    i.span_ns(span),
                    i.tally.payload_bytes as f64 / (1 << 20) as f64,
                ),
                Custom(f) => f(i),
            };
            Metric {
                name: d.name,
                value,
                unit: d.unit,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Recorder;

    /// A whole-window tally: `ops` operations over 2 s, latencies of
    /// 1 µs, 2 µs, …, and 3 s of CPU.
    fn tally(ops: u64, bytes: u64) -> Tally {
        let mut t = Tally::new(0);
        t.attempted = ops;
        t.payload_bytes = bytes;
        t.end_ns = 2_000_000_000;
        t.cpu_ns = 3_000_000_000;
        t.latency_ns = (1..=ops).map(|n| n * 1000).collect();
        t
    }

    fn value(metrics: &[Metric], name: &str) -> f64 {
        metrics.iter().find(|m| m.name == name).unwrap().value
    }

    #[test]
    fn end_to_end_normalises_per_operation() {
        let t = tally(1000, 64_000_000);
        let m = Measured {
            setup_s: 0.25,
            mem_bytes: 4096,
            calls: 4,
        };
        let (metrics, samples) = end_to_end(&t, &m, 1000).unwrap();
        assert_eq!(value(&metrics, "ops_per_s"), 500.0);
        assert_eq!(value(&metrics, "goodput_MBps"), 32.0);
        assert_eq!(value(&metrics, "cpu_us_per_op"), 3000.0);
        assert_eq!(value(&metrics, "op_p50_us"), 500.0);
        assert_eq!(value(&metrics, "op_p99_us"), 990.0);
        assert_eq!(value(&metrics, "mem_bytes_per_call"), 1024.0);
        assert_eq!(value(&metrics, "setup_s"), 0.25);
        assert_eq!(samples, 1000);
        assert_eq!(metrics.len(), END_TO_END.len());
    }

    #[test]
    fn rounds_add_up_and_latency_is_their_median() {
        let m = Measured {
            setup_s: 0.25,
            mem_bytes: 4096,
            calls: 4,
        };
        let mut all = Tally::new(0);
        for scale in [1, 3, 2] {
            let mut round = tally(1000, 64_000_000);
            round.latency_ns.iter_mut().for_each(|l| *l *= scale);
            all.absorb(round);
        }
        let (metrics, samples) = end_to_end(&all, &m, 1000).unwrap();
        assert_eq!(samples, 3000);
        assert_eq!(value(&metrics, "ops_per_s"), 500.0);
        assert_eq!(value(&metrics, "goodput_MBps"), 32.0);
        assert_eq!(value(&metrics, "cpu_us_per_op"), 3000.0);
        assert_eq!(value(&metrics, "op_p50_us"), 1000.0);
        assert_eq!(value(&metrics, "op_p99_us"), 1980.0);
        // One thin round is enough to refuse the p99.
        all.absorb(tally(999, 1));
        assert!(end_to_end(&all, &m, 1000).is_err());
    }

    #[test]
    fn too_few_samples_or_no_operations_fail_the_run() {
        let m = Measured {
            setup_s: 0.1,
            mem_bytes: 1,
            calls: 1,
        };
        assert!(end_to_end(&tally(999, 1), &m, 1000).is_err());
        assert!(end_to_end(&tally(0, 0), &m, 0).is_err());
    }

    #[test]
    fn span_time_is_divided_by_operations() {
        let mut t = tally(4, 4 << 20);
        let mut rec = Recorder::new("main", true);
        for op in 0..4 {
            rec.open_at("core.qp.post", op, op * 100);
            rec.close_at(op * 100 + 30);
            rec.open_at("core.read.step", op, op * 100 + 40);
            rec.close_at(op * 100 + 50);
        }
        t.recorders.push(rec);
        let ladder = Ladder::default();
        let inputs = LayerInputs {
            tally: &t,
            deltas: &[],
            ladder: &ladder,
            snapshot_us: 0.0,
            trace_overhead_frac: 0.0,
            tracked_bytes: 0,
            rss_bytes: None,
        };
        let layers = per_layer(&inputs);
        assert_eq!(value(&layers, "core.qp.post.ns"), 30.0);
        assert_eq!(value(&layers, "core.read.step.ns_per_MiB"), 10.0);
        assert_eq!(value(&layers, "bench.spans_recorded"), 8.0);
        assert_eq!(value(&layers, "core.cq.wait.ns"), 0.0);
        assert_eq!(value(&layers, "common.memacct.tracked_frac_of_rss"), 0.0);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        names.extend(PER_LAYER.iter().map(|d| d.name));
        for n in &names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
