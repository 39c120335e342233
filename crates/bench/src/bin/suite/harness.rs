//! What every workload shares: the clock, process CPU time, seeded
//! payloads, the credit window between a sender and its receiver, and the
//! tally a measured phase hands back.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use bytes::Bytes;
use iwarp_common::memacct::MemRegistry;
use iwarp_telemetry::Telemetry;

use crate::trace::Recorder;

/// Nanoseconds since the first call in this process. Both threads of a
/// workload read the same clock, so a time written by the sender can be
/// subtracted by the receiver.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// CPU time the whole process has used, in nanoseconds.
///
/// `/proc/self/stat` counts in 10 ms ticks, which is 2 % of the CPU a
/// timer-bound workload uses in one window; the per-thread `schedstat`
/// files count in nanoseconds, so their sum over the live threads is
/// read first and the tick counter is the fallback.
pub fn cpu_ns() -> u64 {
    let from_schedstat = || -> Option<u64> {
        let mut sum = 0u64;
        for entry in std::fs::read_dir("/proc/self/task").ok()? {
            let path = entry.ok()?.path().join("schedstat");
            // A thread may exit between the listing and the read.
            let Ok(text) = std::fs::read_to_string(path) else {
                continue;
            };
            sum += text.split_whitespace().next()?.parse::<u64>().ok()?;
        }
        (sum > 0).then_some(sum)
    };
    let from_stat = || -> Option<u64> {
        let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
        // utime and stime are fields 14 and 15; comm may hold spaces, so
        // count from the closing parenthesis.
        let fields: Vec<&str> = stat.rsplit(')').next()?.split_whitespace().collect();
        let ticks = fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?;
        Some(ticks * 10_000_000)
    };
    from_schedstat().or_else(from_stat).unwrap_or(0)
}

/// SplitMix64: the suite's only source of input bytes.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }

    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut v = vec![0u8; len];
        self.fill(&mut v);
        v
    }
}

/// `count` seeded payload bodies of `len` bytes. Operation `i` sends
/// body `i % count`; small payloads additionally carry their sequence
/// number and send time in the first 16 bytes (see [`stamp`]).
pub fn payload_table(rng: &mut Rng, count: usize, len: usize) -> Vec<Bytes> {
    (0..count).map(|_| Bytes::from(rng.bytes(len))).collect()
}

/// Bytes of a small payload taken by the sequence number and send time.
pub const STAMP_LEN: usize = 16;

/// A fresh payload: `body` with `seq` and `sent_ns` written over its
/// first [`STAMP_LEN`] bytes.
pub fn stamp(body: &[u8], seq: u64, sent_ns: u64) -> Bytes {
    let mut v = body.to_vec();
    v[..8].copy_from_slice(&seq.to_le_bytes());
    v[8..STAMP_LEN].copy_from_slice(&sent_ns.to_le_bytes());
    Bytes::from(v)
}

/// Reads back what [`stamp`] wrote and checks the rest against `body`.
/// Returns `(seq, sent_ns)` when the payload is intact.
pub fn check_stamped(got: &[u8], body: &[u8]) -> Option<(u64, u64)> {
    if got.len() != body.len() || got[STAMP_LEN..] != body[STAMP_LEN..] {
        return None;
    }
    let seq = u64::from_le_bytes(got[..8].try_into().ok()?);
    let sent_ns = u64::from_le_bytes(got[8..STAMP_LEN].try_into().ok()?);
    Some((seq, sent_ns))
}

/// A one-byte message ends a phase: the peer thread leaves its loop when
/// it sees one, after everything sent before it (all paths used here
/// deliver in order).
pub const STOP_LEN: usize = 1;

/// How long any single wait may last before the operation counts as
/// failed. Nothing in a healthy run comes near it.
pub const OP_TIMEOUT: Duration = Duration::from_secs(2);

/// CPU time the calling thread has used, in nanoseconds; 0 where the
/// kernel does not keep `schedstat`. `sched_yield` brings the figure up
/// to date, so a thread that reads it between yields reads it exactly.
fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|text| text.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Yields without credit before a wait counts as a stall.
const STALL_YIELDS: u32 = 64;

/// Application-level flow control: the sender may run `window` messages
/// ahead of what the receiver has consumed. An out-of-credit sender calls
/// `yield_now`: on the one core everything shares, that hands the
/// processor to whichever stack thread has work. A wait that is still
/// without credit after [`STALL_YIELDS`] yields is a stall (nothing else
/// is runnable: the stack is waiting for a timer). The sender goes on
/// yielding through it, so the core never goes idle and whatever ends the
/// stall runs on a warm virtual CPU; the CPU time its own thread burns
/// from there on is kept apart ([`Credit::take_stalled_cpu_ns`]) and taken
/// out of `cpu_us_per_op`. Sleeping through stalls instead left the
/// virtual CPU idle four fifths of the time on the timer-bound workload,
/// and how fast an idle one wakes is the host's mood: median latency and
/// CPU per message moved together between 20 and 30 µs and 32 and 50 µs
/// from one 2 s round to the next.
pub struct Credit {
    window: u64,
    consumed: AtomicU64,
    stalled_cpu_ns: AtomicU64,
}

impl Credit {
    pub fn new(window: u64) -> Self {
        Self {
            window,
            consumed: AtomicU64::new(0),
            stalled_cpu_ns: AtomicU64::new(0),
        }
    }

    /// Receiver side: `n` more messages consumed.
    pub fn grant(&self, n: u64) {
        self.consumed.fetch_add(n, Ordering::Release);
    }

    /// Sender side: waits until `want` more messages fit in the window
    /// given `sent` so far. Returns `false` if no credit arrived within
    /// [`OP_TIMEOUT`].
    pub fn acquire(&self, sent: u64, want: u64) -> bool {
        let fits = || sent + want - self.consumed.load(Ordering::Acquire) <= self.window;
        if fits() {
            return true;
        }
        let deadline = Instant::now() + OP_TIMEOUT;
        let mut yields = 0u32;
        let mut stalled_at = None;
        while !fits() {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::yield_now();
            yields = yields.saturating_add(1);
            if yields == STALL_YIELDS {
                stalled_at = Some(thread_cpu_ns());
            }
        }
        if let Some(since) = stalled_at {
            self.stalled_cpu_ns
                .fetch_add(thread_cpu_ns().saturating_sub(since), Ordering::Relaxed);
        }
        true
    }

    /// CPU time the sender has spent yielding through stalls since the
    /// last call; the caller takes it out of the phase's CPU time.
    pub fn take_stalled_cpu_ns(&self) -> u64 {
        self.stalled_cpu_ns.swap(0, Ordering::Relaxed)
    }

    /// Between phases, once the receiver has drained.
    pub fn reset(&self) {
        self.consumed.store(0, Ordering::Release);
        self.stalled_cpu_ns.store(0, Ordering::Relaxed);
    }
}

/// `map_err` adapter: names the call that failed.
pub fn err<E: std::fmt::Debug>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e:?}")
}

/// When a phase ends.
#[derive(Clone, Copy, Debug)]
pub enum Limit {
    /// After this many operations (warm-up: CPU work, not a sleep).
    Ops(u64),
    /// When [`now_ns`] passes this value (the measured window).
    Until(u64),
}

impl Limit {
    pub fn reached(self, ops_started: u64) -> bool {
        match self {
            Limit::Ops(n) => ops_started >= n,
            Limit::Until(deadline) => now_ns() >= deadline,
        }
    }
}

/// What one phase of a workload did.
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Payload bytes of the completed operations.
    pub payload_bytes: u64,
    /// Phase start … last operation completed.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Latency of each completed, verified operation, in completion
    /// order.
    pub latency_ns: Vec<u64>,
    /// Where the samples of each absorbed phase end in `latency_ns`.
    round_ends: Vec<usize>,
    /// Process CPU time when the phase started, and over the phase once
    /// [`Tally::close`] has run.
    cpu_start_ns: u64,
    pub cpu_ns: u64,
    pub recorders: Vec<Recorder>,
}

impl Tally {
    pub fn new(start_ns: u64) -> Self {
        Self {
            attempted: 0,
            failed: 0,
            payload_bytes: 0,
            start_ns,
            end_ns: start_ns,
            latency_ns: Vec::new(),
            round_ends: Vec::new(),
            cpu_start_ns: cpu_ns(),
            cpu_ns: 0,
            recorders: Vec::new(),
        }
    }

    /// Records one verified operation of `bytes` payload that completed
    /// at `done_ns`.
    pub fn complete(&mut self, done_ns: u64, latency_ns: u64, bytes: u64) {
        self.payload_bytes += bytes;
        self.end_ns = done_ns;
        self.latency_ns.push(latency_ns);
    }

    /// Takes back the last `count` operations of `bytes` each: a later
    /// check found their bytes wrong.
    pub fn retract(&mut self, count: u64, bytes: u64) {
        let count = count.min(self.ops());
        self.failed += count;
        self.payload_bytes -= count * bytes;
        self.latency_ns
            .truncate(self.latency_ns.len() - count as usize);
    }

    /// Ends the phase. Called while the workload's threads are still
    /// alive: the CPU time of a thread that has exited is no longer
    /// listed under `/proc/self/task`. `stalled_cpu_ns` is CPU time a
    /// sender burnt yielding through stalls, which is not the stack's.
    pub fn close(&mut self, stalled_cpu_ns: u64) {
        self.cpu_ns = cpu_ns().saturating_sub(self.cpu_start_ns + stalled_cpu_ns);
    }

    /// Folds in the same phase run on another world: counts, bytes, CPU
    /// time, samples and spans add up, and so does the time measured
    /// (`end_ns` moves on by the other phase's length).
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.payload_bytes += other.payload_bytes;
        self.end_ns += other.end_ns - other.start_ns;
        self.latency_ns.extend(other.latency_ns);
        self.round_ends.push(self.latency_ns.len());
        self.cpu_ns += other.cpu_ns;
        self.recorders.extend(other.recorders);
    }

    /// The latency samples round by round: one slice per absorbed phase,
    /// or everything as one round when nothing was absorbed.
    pub fn rounds(&self) -> Vec<&[u64]> {
        if self.round_ends.is_empty() {
            return vec![&self.latency_ns];
        }
        let mut start = 0;
        self.round_ends
            .iter()
            .map(|&end| {
                let round = &self.latency_ns[start..end];
                start = end;
                round
            })
            .collect()
    }

    /// Operations completed and verified.
    pub fn ops(&self) -> u64 {
        self.latency_ns.len() as u64
    }
}

/// A built and warmed workload instance.
pub trait World {
    /// Runs one phase. `traced` turns the span recorders on.
    fn run(&mut self, limit: Limit, traced: bool) -> Result<Tally, String>;
    /// The fabric's telemetry domain (every layer reports into it).
    fn telemetry(&self) -> Telemetry;
    /// Serving-side memory registry and the number of calls (dialogs,
    /// connections or queue pairs) it serves.
    fn memory(&self) -> (MemRegistry, u64);
}

/// Datagram shape and verb the per-layer ladder pushes for a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LadderVerb {
    Send,
    SendBatch32,
    WriteRecord,
}

pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    /// The end-to-end metrics that say something about this workload,
    /// beside the three every workload reports ([`Spec::reports`]).
    pub cells: &'static [&'static str],
    pub warmup_ops: u64,
    pub ladder_bytes: usize,
    pub ladder_verb: LadderVerb,
    pub build: fn(seed: u64) -> Result<Box<dyn World>, String>,
}

impl Spec {
    /// Whether `metric` is printed, written and judged by `--compare`
    /// for this workload. The other cells exist (the driver's result
    /// line carries every end-to-end metric) but measure the harness:
    /// latency on a one-way workload is queueing under the credit
    /// window, goodput at 64 B is `ops_per_s` again.
    pub fn reports(&self, metric: &str) -> bool {
        ["setup_s", "cpu_us_per_op", "fail_frac"].contains(&metric) || self.cells.contains(&metric)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_payloads() {
        let a = payload_table(&mut Rng::new(9), 3, 64);
        let b = payload_table(&mut Rng::new(9), 3, 64);
        let c = payload_table(&mut Rng::new(10), 3, 64);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a[0], a[1]);
    }

    #[test]
    fn a_corrupted_payload_fails_the_check() {
        let body = Rng::new(1).bytes(64);
        let sent = stamp(&body, 42, 1234);
        assert_eq!(check_stamped(&sent, &body), Some((42, 1234)));
        let mut wrong = sent.to_vec();
        wrong[40] ^= 1;
        assert_eq!(check_stamped(&wrong, &body), None);
        assert_eq!(check_stamped(&sent[..63], &body), None);
    }

    #[test]
    fn credit_blocks_until_granted() {
        let credit = Credit::new(4);
        assert!(credit.acquire(0, 4));
        std::thread::scope(|s| {
            s.spawn(|| credit.grant(2));
            assert!(credit.acquire(4, 2));
        });
        assert!(credit.acquire(4, 2));
    }
}
