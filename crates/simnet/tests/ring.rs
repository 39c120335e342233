//! Tests for the `simnet::ring` primitive underneath the per-link
//! fabric: property tests over random producer/consumer interleavings
//! (no loss, no duplication, FIFO per producer) plus directed edge cases
//! for full/empty/wraparound/drop-while-nonempty behaviour.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use simnet::ring::{Deadline, Mpsc, PopError, PushOutcome, RingChannel};

// ---------------------------------------------------------------------
// Property tests: single-threaded model checks over proptest-chosen
// op schedules (push/pop interleavings), so failures shrink and replay.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// MPSC: values from several producers interleaved in any order are
    /// each delivered exactly once, FIFO per producer.
    #[test]
    fn mpsc_fifo_per_producer(cap in 2usize..16,
                              schedule in proptest::collection::vec(0u8..4, 1..200)) {
        let q = Mpsc::<(u8, u32)>::new(cap);
        let mut seqs = [0u32; 3];
        let mut in_flight: VecDeque<(u8, u32)> = VecDeque::new();
        let mut delivered: Vec<(u8, u32)> = Vec::new();
        for slot in schedule {
            if slot < 3 {
                let p = slot;
                match q.try_push((p, seqs[p as usize])) {
                    Ok(()) => {
                        in_flight.push_back((p, seqs[p as usize]));
                        seqs[p as usize] += 1;
                    }
                    Err(v) => prop_assert_eq!(v, (p, seqs[p as usize])),
                }
            } else if let Some(v) = q.try_pop() {
                prop_assert_eq!(Some(v), in_flight.pop_front());
                delivered.push(v);
            }
        }
        while let Some(v) = q.try_pop() {
            prop_assert_eq!(Some(v), in_flight.pop_front());
            delivered.push(v);
        }
        prop_assert!(in_flight.is_empty());
        // FIFO per producer: each producer's delivered sequence is 0..n.
        for p in 0u8..3 {
            let seq: Vec<u32> = delivered.iter().filter(|(q, _)| *q == p).map(|(_, s)| *s).collect();
            prop_assert_eq!(&seq, &(0..seqs[p as usize]).collect::<Vec<_>>());
        }
    }

    /// RingChannel: the spill path is invisible to consumers — any
    /// push/pop interleaving (including ones that overflow the ring many
    /// times over) delivers the exact pushed sequence.
    #[test]
    fn ring_channel_spill_matches_queue_model(cap in 1usize..8,
                                              ops in proptest::collection::vec(any::<bool>(), 1..300)) {
        let ch = RingChannel::<u32>::new(cap);
        let mut model: VecDeque<u32> = VecDeque::new();
        let mut next = 0u32;
        let mut spilled = false;
        for push in ops {
            if push {
                match ch.push(next).expect("channel open") {
                    PushOutcome::Ring => {}
                    PushOutcome::Spilled => spilled = true,
                }
                model.push_back(next);
                next += 1;
            } else {
                prop_assert_eq!(ch.try_pop(), model.pop_front());
            }
            prop_assert_eq!(ch.len(), model.len());
        }
        while let Some(v) = ch.try_pop() {
            prop_assert_eq!(Some(v), model.pop_front());
        }
        prop_assert!(model.is_empty());
        prop_assert!(ch.is_empty());
        // With ≤ 8 ring slots and up to 300 pushes most runs spill; the
        // flag is only read to keep the variable honest.
        let _ = spilled;
    }

    /// RingChannel batch ops: `push_batch` interleaved with the
    /// single-value calls delivers exactly the pushed sequence — the
    /// one-lock-round amortizer changes cost, never contents or order.
    #[test]
    fn ring_channel_batch_ops_match_queue_model(cap in 1usize..8,
                                                ops in proptest::collection::vec(any::<u8>(), 1..200)) {
        let ch = RingChannel::<u32>::new(cap);
        let mut model: VecDeque<u32> = VecDeque::new();
        let mut next = 0u32;
        for op in ops {
            match op % 3 {
                0 => {
                    ch.push(next).expect("channel open");
                    model.push_back(next);
                    next += 1;
                }
                1 => {
                    let n = usize::from(op / 4) % 7;
                    let mut batch: VecDeque<u32> = (next..next + n as u32).collect();
                    let (ringed, spilled) =
                        ch.push_batch(&mut batch).expect("channel open");
                    prop_assert!(batch.is_empty());
                    prop_assert_eq!(ringed + spilled, n);
                    model.extend(next..next + n as u32);
                    next += n as u32;
                }
                _ => prop_assert_eq!(ch.try_pop(), model.pop_front()),
            }
            prop_assert_eq!(ch.len(), model.len());
        }
        while let Some(v) = ch.try_pop() {
            prop_assert_eq!(Some(v), model.pop_front());
        }
        prop_assert!(model.is_empty());
        prop_assert!(ch.is_empty());
    }
}

// ---------------------------------------------------------------------
// Threaded stress: real concurrency on top of the model checks above.
// ---------------------------------------------------------------------

/// Four real producers into one RingChannel (the fan-in shape every
/// fabric link has): nothing lost, nothing duplicated, FIFO per producer,
/// even with a 4-slot ring forcing heavy spill.
#[test]
fn ring_channel_threaded_fan_in() {
    const PRODUCERS: u64 = 4;
    const PER: u64 = 5_000;
    let ch = Arc::new(RingChannel::<u64>::new(4));
    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let ch = Arc::clone(&ch);
            std::thread::spawn(move || {
                for i in 0..PER {
                    ch.push(p << 32 | i).expect("open");
                }
            })
        })
        .collect();
    let mut next = [0u64; PRODUCERS as usize];
    let mut total = 0u64;
    while total < PRODUCERS * PER {
        let v = ch
            .pop_wait(&mut Deadline::After(Duration::from_secs(10)))
            .expect("producers still running");
        let (p, i) = ((v >> 32) as usize, v & 0xFFFF_FFFF);
        assert_eq!(i, next[p], "producer {p} out of order");
        next[p] += 1;
        total += 1;
    }
    for h in producers {
        h.join().unwrap();
    }
    assert!(ch.is_empty());
    assert_eq!(next, [PER; PRODUCERS as usize]);
}

// ---------------------------------------------------------------------
// Directed edge cases.
// ---------------------------------------------------------------------

/// Full/empty transitions at the exact capacity boundary, repeated so the
/// indices wrap the ring several times.
#[test]
fn mpsc_full_empty_wraparound() {
    let q = Mpsc::<u32>::new(4); // rounds to 4 slots
    let cap = q.capacity();
    for round in 0..10u32 {
        assert!(q.is_empty());
        for i in 0..cap as u32 {
            q.try_push(round * 100 + i).expect("space");
        }
        assert_eq!(q.len(), cap);
        assert!(q.try_push(999).is_err(), "push into full ring must fail");
        for i in 0..cap as u32 {
            assert_eq!(q.try_pop(), Some(round * 100 + i));
        }
        assert_eq!(q.try_pop(), None);
    }
}

/// Dropping a non-empty ring drops every queued value exactly once —
/// no leak, no double drop.
#[test]
fn drop_while_nonempty_drops_each_value_once() {
    struct Token(Arc<AtomicUsize>);
    impl Drop for Token {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }
    let drops = Arc::new(AtomicUsize::new(0));

    // RingChannel with values in both the ring and the overflow spill.
    let ch = RingChannel::<Token>::new(2);
    let mut saw_spill = false;
    for _ in 0..10 {
        if ch.push(Token(Arc::clone(&drops))).map_err(|_| ()).unwrap() == PushOutcome::Spilled {
            saw_spill = true;
        }
    }
    assert!(saw_spill, "2-slot ring must spill under 10 pushes");
    drop(ch.try_pop()); // 1 drop
    drop(ch);
    assert_eq!(drops.load(Ordering::SeqCst), 10);
}

/// Close semantics: producers see `Err` after close, consumers drain what
/// was queued and then get `Closed` (never `Timeout`).
#[test]
fn close_drains_then_reports_closed() {
    let ch = RingChannel::<u32>::new(4);
    ch.push(1).unwrap();
    ch.push(2).unwrap();
    ch.close();
    assert!(ch.is_closed());
    let rejected = ch.push(3).unwrap_err();
    assert_eq!(rejected.0, 3);
    assert_eq!(
        ch.pop_wait(&mut Deadline::After(Duration::from_millis(5))),
        Ok(1)
    );
    assert_eq!(ch.try_pop(), Some(2));
    assert_eq!(
        ch.pop_wait(&mut Deadline::After(Duration::from_millis(5))),
        Err(PopError::Closed)
    );
    assert_eq!(ch.pop_wait(&mut Deadline::Never), Err(PopError::Closed));
}

/// A consumer parked in `pop_wait(Never)` is woken by close and by data.
#[test]
fn pop_wait_unblocks_on_close_and_data() {
    let ch = Arc::new(RingChannel::<u32>::new(4));
    // Data wakes a parked popper.
    let c = Arc::clone(&ch);
    let h = std::thread::spawn(move || c.pop_wait(&mut Deadline::Never));
    std::thread::sleep(Duration::from_millis(20));
    ch.push(7).unwrap();
    assert_eq!(h.join().unwrap(), Ok(7));
    // Close wakes a parked popper.
    let c = Arc::clone(&ch);
    let h = std::thread::spawn(move || c.pop_wait(&mut Deadline::Never));
    std::thread::sleep(Duration::from_millis(20));
    ch.close();
    assert_eq!(h.join().unwrap(), Err(PopError::Closed));
}

// ---------------------------------------------------------------------
// Wake cost.
// ---------------------------------------------------------------------

/// Context switches the calling thread has taken so far, voluntary plus
/// involuntary; `None` where `/proc/thread-self/status` does not report
/// them.
fn ctxt_switches() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/thread-self/status").ok()?;
    let counts: Vec<u64> = status
        .lines()
        .filter_map(|l| {
            l.strip_prefix("voluntary_ctxt_switches:")
                .or_else(|| l.strip_prefix("nonvoluntary_ctxt_switches:"))
        })
        .filter_map(|v| v.trim().parse().ok())
        .collect();
    (counts.len() == 2).then(|| counts.iter().sum())
}

/// A blocking hand-off between two threads sharing one core costs one
/// context switch: the waker releases the gate before it notifies, so the
/// woken consumer never blocks again on a lock its waker still holds.
/// Notifying under the gate measured 2.97 switches per hand-off.
#[test]
fn one_core_hand_off_costs_one_context_switch() {
    const ROUND_TRIPS: u64 = 20_000;
    if ctxt_switches().is_none() {
        eprintln!("skipped: /proc/thread-self/status reports no context switches");
        return;
    }
    let (ping, pong) = (RingChannel::<u64>::new(8), RingChannel::<u64>::new(8));
    let pinned = AtomicUsize::new(0);
    let start = std::sync::Barrier::new(2);
    // Each side pins itself to CPU 0, then counts its own switches over
    // the run; `None` when either side could not pin.
    let side = |first: bool| -> Option<u64> {
        if iwarp_common::affinity::pin_to_core(0) {
            pinned.fetch_add(1, Ordering::SeqCst);
        }
        start.wait();
        if pinned.load(Ordering::SeqCst) < 2 {
            return None;
        }
        let before = ctxt_switches()?;
        for i in 0..ROUND_TRIPS {
            if first {
                ping.push(i).unwrap();
                assert_eq!(pong.pop_wait(&mut Deadline::Never), Ok(i));
            } else {
                let v = ping.pop_wait(&mut Deadline::Never).unwrap();
                pong.push(v).unwrap();
            }
        }
        Some(ctxt_switches()? - before)
    };
    let t0 = std::time::Instant::now();
    let (a, b) = std::thread::scope(|s| {
        let echo = s.spawn(|| side(false));
        let a = side(true);
        (a, echo.join().unwrap())
    });
    let round_trip_us = t0.elapsed().as_secs_f64() * 1e6 / ROUND_TRIPS as f64;
    let (Some(a), Some(b)) = (a, b) else {
        eprintln!("skipped: could not pin both threads to CPU 0");
        return;
    };
    let per_hand_off = (a + b) as f64 / (2 * ROUND_TRIPS) as f64;
    eprintln!(
        "{per_hand_off:.2} context switches per hand-off, {round_trip_us:.1} us per round trip"
    );
    assert!(
        per_hand_off <= 1.5,
        "{per_hand_off:.2} context switches per hand-off (want <= 1.5): \
         is a waker notifying while it holds the lock its wakee needs?"
    );
}
