//! [`CompletionChannel`] edge cases: the races and lifetimes an
//! epoll-style wait object must survive — wake-vs-timeout, notification
//! before subscription, teardown under a parked waiter — plus a procfs
//! proof that `wait_any` parks rather than spins.

use std::time::{Duration, Instant};

use iwarp::cq::{Cqe, CqeOpcode, CqeStatus};
use iwarp::{CompletionChannel, Cq};

/// Minimal CQE for exercising the subscription plumbing.
fn test_cqe(wr_id: u64) -> Cqe {
    Cqe {
        wr_id,
        opcode: CqeOpcode::Recv,
        status: CqeStatus::Success,
        byte_len: 0,
        src: None,
        write_record: None,
        imm: None,
        solicited: false,
    }
}

/// CPU time consumed by the calling thread so far, per
/// `/proc/thread-self/stat` fields 14+15 (utime+stime, clock ticks).
#[cfg(target_os = "linux")]
fn thread_cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").expect("procfs thread stat");
    let rest = stat.rsplit(')').next().unwrap_or(&stat);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields[11].parse().expect("utime");
    let stime: u64 = fields[12].parse().expect("stime");
    utime + stime
}

/// Wake-vs-timeout race: hammer short `wait_any` deadlines against a
/// notifier firing at unsynchronized moments. Whatever interleaving
/// occurs, each notified token must be retrievable exactly once — a
/// notify landing in the sliver between timeout expiry and waiter
/// wakeup must not be lost.
#[test]
fn notify_racing_timeout_never_loses_a_token() {
    let chan = CompletionChannel::new();
    const TOKENS: u64 = 400;

    let notifier = {
        let chan = chan.clone();
        std::thread::spawn(move || {
            for t in 0..TOKENS {
                chan.notify(t);
                if t % 7 == 0 {
                    std::thread::yield_now();
                } else if t % 13 == 0 {
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        })
    };

    let mut seen = vec![0u32; TOKENS as usize];
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut got = 0u64;
    while got < TOKENS {
        assert!(
            Instant::now() < deadline,
            "lost tokens: {got}/{TOKENS} after 10s"
        );
        // Deliberately tiny timeout so expiry and notify collide often.
        for t in chan.wait_any(Duration::from_micros(500)) {
            seen[t as usize] += 1;
            got += 1;
        }
    }
    notifier.join().unwrap();
    for (t, n) in seen.iter().enumerate() {
        assert_eq!(*n, 1, "token {t} delivered {n} times");
    }
    assert!(chan.wait_any(Duration::from_millis(10)).is_empty());
}

/// Readiness is edge-style and coalesced: notifying the same token many
/// times before anyone waits yields it once, and it re-arms after
/// collection.
#[test]
fn repeat_notifies_coalesce_and_rearm() {
    let chan = CompletionChannel::new();
    for _ in 0..64 {
        chan.notify(9);
    }
    assert_eq!(chan.wait_any(Duration::from_millis(100)), vec![9]);
    assert!(chan.try_wait().is_empty(), "token not consumed");
    chan.notify(9);
    assert_eq!(chan.try_wait(), vec![9], "token did not re-arm");
}

/// Subscribe-after-completion: a CQ that already holds CQEs must notify
/// the channel at `attach_channel` time, not only on the next push —
/// otherwise a waiter parks forever on work that already exists.
#[test]
fn attaching_to_nonempty_cq_notifies_immediately() {
    let cq = Cq::new(8);
    cq.push(test_cqe(1));
    cq.push(test_cqe(2));
    let chan = CompletionChannel::new();
    cq.attach_channel(&chan, 77);
    assert_eq!(
        chan.wait_any(Duration::from_millis(100)),
        vec![77],
        "pre-existing completions were not surfaced on subscribe"
    );
}

/// An empty CQ at attach time must NOT produce a phantom wakeup.
#[test]
fn attaching_to_empty_cq_stays_quiet() {
    let cq = Cq::new(8);
    let chan = CompletionChannel::new();
    cq.attach_channel(&chan, 78);
    assert!(chan.try_wait().is_empty(), "phantom readiness on attach");
    cq.push(test_cqe(3));
    assert_eq!(chan.wait_any(Duration::from_millis(100)), vec![78]);
}

/// Drop-while-waiting: dropping the producer-side clone (and its CQ)
/// while another thread is parked must leave the waiter to time out
/// cleanly — no deadlock, no panic, no poisoned lock.
#[test]
fn dropping_producers_while_parked_times_out_cleanly() {
    let chan = CompletionChannel::new();
    let waiter = {
        let chan = chan.clone();
        std::thread::spawn(move || chan.wait_any(Duration::from_millis(300)))
    };
    std::thread::sleep(Duration::from_millis(50));
    {
        let cq = Cq::new(4);
        cq.attach_channel(&chan, 5);
        drop(cq); // producer gone while the waiter is parked
    }
    drop(chan);
    let got = waiter.join().expect("waiter panicked");
    assert!(got.is_empty(), "no token was ever published, got {got:?}");
}

/// A detached CQ must stop notifying its old channel.
#[test]
fn detach_stops_notifications() {
    let cq = Cq::new(8);
    let chan = CompletionChannel::new();
    cq.attach_channel(&chan, 11);
    cq.detach_channel();
    cq.push(test_cqe(4));
    assert!(
        chan.wait_any(Duration::from_millis(50)).is_empty(),
        "detached CQ still notifies"
    );
}

/// The event path's whole reason to exist: a parked `wait_any` must cost
/// (near-)zero CPU. A busy-poll over ~500 ms burns ~50 ticks at 100 Hz;
/// a condvar park registers 0. Allow 2 for scheduler noise.
#[cfg(target_os = "linux")]
#[test]
fn wait_any_parks_instead_of_spinning() {
    let chan = CompletionChannel::new();
    // Warm-up outside the measured window.
    assert!(chan.try_wait().is_empty());

    let before = thread_cpu_ticks();
    let start = Instant::now();
    let got = chan.wait_any(Duration::from_millis(500));
    let wall = start.elapsed();
    let burned = thread_cpu_ticks() - before;

    assert!(got.is_empty());
    assert!(
        wall >= Duration::from_millis(450),
        "returned early: {wall:?}"
    );
    assert!(
        burned <= 2,
        "idle wait_any burned {burned} CPU ticks over {wall:?} — event path is busy-polling"
    );
}
