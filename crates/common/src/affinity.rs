//! Best-effort CPU affinity for datapath worker threads.
//!
//! Shard RX engines (and benchmark workers) can pin themselves to a core
//! so that multi-core scaling numbers measure the architecture rather
//! than the scheduler's placement luck. The workspace vendors no FFI
//! crate, so the Linux `sched_setaffinity` syscall is issued directly via
//! inline assembly on x86_64/aarch64; everywhere else pinning is a
//! documented no-op and [`pin_to_core`] reports `false` so callers (and
//! benchmark JSON) stay honest about whether pinning actually happened.

/// Number of logical CPUs available to this process (≥ 1). The value the
/// benchmark bins record as `host_cpus` so scaling ratios are always
/// interpretable.
#[must_use]
pub fn host_cpus() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Pins the *calling thread* to `core` (modulo [`host_cpus`]). Returns
/// `true` only when the kernel accepted the new mask; `false` on
/// unsupported platforms or syscall failure — callers must treat pinning
/// as advisory.
#[must_use]
pub fn pin_to_core(core: usize) -> bool {
    let cpus = host_cpus();
    set_affinity(core % cpus)
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
fn set_affinity(core: usize) -> bool {
    // cpu_set_t is 1024 bits; bit N = CPU N allowed.
    let mut mask = [0u64; 16];
    if core >= 1024 {
        return false;
    }
    mask[core / 64] = 1u64 << (core % 64);
    // sched_setaffinity(pid = 0 → calling thread, sizeof(mask), &mask).
    let ret: isize;
    #[cfg(target_arch = "x86_64")]
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") 203isize => ret, // __NR_sched_setaffinity
            in("rdi") 0usize,
            in("rsi") core::mem::size_of_val(&mask),
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    #[cfg(target_arch = "aarch64")]
    unsafe {
        let x0: isize;
        std::arch::asm!(
            "svc 0",
            in("x8") 122isize, // __NR_sched_setaffinity
            inlateout("x0") 0isize => x0,
            in("x1") core::mem::size_of_val(&mask),
            in("x2") mask.as_ptr(),
            options(nostack),
        );
        ret = x0;
    }
    ret == 0
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
fn set_affinity(_core: usize) -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_cpus_is_positive() {
        assert!(host_cpus() >= 1);
    }

    #[test]
    fn pin_is_advisory_and_does_not_panic() {
        // On Linux this should succeed for core 0; elsewhere it must
        // return false rather than fault. Either way the thread keeps
        // running.
        let ok = pin_to_core(0);
        if cfg!(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        )) {
            assert!(ok, "pinning to core 0 should succeed on Linux");
        } else {
            assert!(!ok);
        }
        // Out-of-range cores wrap modulo host_cpus instead of failing.
        assert_eq!(pin_to_core(host_cpus() * 7), ok);
    }
}
