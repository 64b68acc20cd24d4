//! What the generator needs to know about the box it runs on: core count,
//! load, process CPU time and peak memory.

use std::sync::OnceLock;
use std::time::Duration;

/// Cores available to this process when it first asked — before any
/// [`pin_to_one_cpu`], which `main` guarantees by asking at start-up.
pub fn nproc() -> usize {
    static NPROC: OnceLock<usize> = OnceLock::new();
    *NPROC.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// The 1-minute load average, or 0.0 where `/proc/loadavg` is unreadable.
pub fn loadavg1() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0)
}

/// `VmHWM` of this process in MB (peak resident set), 0.0 if unreadable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words in a Linux `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;

/// Confine the calling thread, and every thread started from it afterwards,
/// to the first CPU it is currently allowed on. Returns that CPU, or `None`
/// if the kernel refused (the run then goes ahead unpinned).
///
/// Every measured run does this first. Client, gateway and sites are one
/// process passing each request through half a dozen threads; on a 2-vCPU
/// guest, whether the kernel wakes the next hop on the same core or the
/// other one changes a round trip threefold, and where the hypervisor has
/// put the two vCPUs that quarter of an hour moves a two-client workload by
/// a third (`windows_hot`: 2 150–3 700 q/s unpinned, 4 250–4 480 q/s on one
/// CPU, same binary, same hour). On one CPU those choices do not exist, so
/// the time measured is the program's own instructions — at the price that
/// parallel speed-up is not measured here.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; CPU_SET_WORDS];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of exactly `bytes` bytes, the size
    // passed; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = mask.iter().position(|w| *w != 0)?;
    let bit = mask[word].trailing_zeros() as usize;
    let mut one = [0u64; CPU_SET_WORDS];
    one[word] = 1 << bit;
    // SAFETY: `one` is a readable buffer of exactly `bytes` bytes naming one
    // CPU the thread was already allowed on.
    (unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } == 0).then_some(word * 64 + bit)
}

/// `CLOCK_PROCESS_CPUTIME_ID` and `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// User + system CPU time consumed by every thread of this process. Client,
/// gateway and sites share the process, so a delta of this over a window is
/// whole-system CPU for the queries in it.
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// User + system CPU time consumed by the calling thread.
pub fn thread_cpu() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

fn cpu_clock(clock_id: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit fields
    // on every 64-bit Linux target) that outlives the call; the clock id is
    // one of the two constants above, which the kernel defines.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    if rc != 0 {
        return Duration::ZERO;
    }
    Duration::new(
        ts.tv_sec.max(0) as u64,
        ts.tv_nsec.clamp(0, 999_999_999) as u32,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = process_cpu();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu() > before);
    }

    #[test]
    fn host_probes_return_sane_values() {
        assert!(nproc() >= 1);
        assert!(loadavg1() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
