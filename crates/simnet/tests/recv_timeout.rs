//! Regression guard: a timed-out [`Endpoint::recv`] must *park* the
//! calling thread (condvar wait in the channel shim), not busy-poll.
//! A busy-polling wait path would burn a full core per idle QP and
//! invalidate every latency/CPU figure the bench harness produces.
//!
//! [`Endpoint::recv`]: simnet::Endpoint (via `Fabric::bind`)

use std::time::{Duration, Instant};

use simnet::ring::Deadline;
use simnet::{Addr, Fabric, NetError};

/// CPU time consumed by the calling thread so far, per
/// `/proc/thread-self/stat` fields 14+15 (utime+stime, clock ticks).
#[cfg(target_os = "linux")]
fn thread_cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").expect("procfs thread stat");
    // Field 2 (comm) may contain spaces/parens; everything after the
    // *last* ')' is fields 3+ in order.
    let rest = stat.rsplit(')').next().unwrap_or(&stat);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // Fields 14/15 overall (utime/stime) are at 11/12 after the comm.
    let utime: u64 = fields[11].parse().expect("utime");
    let stime: u64 = fields[12].parse().expect("stime");
    utime + stime
}

/// A 50 ms timed-out recv must cost (near-)zero CPU: the thread parks
/// on a condvar until the deadline. Allow a few scheduler ticks of
/// slack — a busy-poll would burn ~5 ticks at 100 Hz (the full 50 ms).
#[test]
fn timed_out_recv_parks_instead_of_spinning() {
    let fab = Fabric::loopback();
    let ep = fab.bind(Addr::new(0, 9000)).unwrap();

    // Warm up lazily-initialised state outside the measured window.
    assert!(matches!(ep.try_recv(), Err(NetError::Timeout)));

    #[cfg(target_os = "linux")]
    {
        let before = thread_cpu_ticks();
        let start = Instant::now();
        let r = ep.recv(&mut Deadline::After(Duration::from_millis(50)));
        let wall = start.elapsed();
        let burned = thread_cpu_ticks() - before;
        assert!(matches!(r, Err(NetError::Timeout)), "got {r:?}");
        assert!(
            wall >= Duration::from_millis(45),
            "recv returned early: {wall:?}"
        );
        // utime+stime are in ticks (usually 10 ms each). A parked wait
        // registers 0; a 50 ms spin registers ~5. Allow 2 for noise.
        assert!(
            burned <= 2,
            "timed-out recv burned {burned} CPU ticks over {wall:?} — wait path is busy-polling"
        );
    }

    // Portable fallback: at minimum the wait must observe the timeout
    // (a spin loop with no sleep would too, so the Linux branch above is
    // the real guard).
    #[cfg(not(target_os = "linux"))]
    {
        let start = Instant::now();
        let r = ep.recv(&mut Deadline::After(Duration::from_millis(50)));
        assert!(matches!(r, Err(NetError::Timeout)), "got {r:?}");
        assert!(start.elapsed() >= Duration::from_millis(45));
    }
}

/// The parked wait still wakes promptly when a packet arrives — parking
/// must not trade CPU for latency.
#[test]
fn parked_recv_wakes_on_arrival() {
    let fab = Fabric::loopback();
    let ep = fab.bind(Addr::new(0, 9001)).unwrap();
    let tx = fab.bind(Addr::new(1, 9001)).unwrap();

    std::thread::scope(|s| {
        let h = s.spawn(|| {
            let start = Instant::now();
            let pkt = ep
                .recv(&mut Deadline::After(Duration::from_secs(5)))
                .unwrap();
            (start.elapsed(), pkt)
        });
        std::thread::sleep(Duration::from_millis(20));
        tx.send_to(ep.local_addr(), bytes::Bytes::from_static(b"wake"))
            .unwrap();
        let (waited, pkt) = h.join().unwrap();
        assert_eq!(pkt.contiguous().as_ref(), b"wake");
        assert!(
            waited < Duration::from_secs(1),
            "recv overslept after arrival: {waited:?}"
        );
    });
}
