//! The closed-loop load generator and the end-to-end metrics it yields.
//!
//! Callers of this system are analysis tools that wait for each reply, so
//! the loop is closed: every client thread sends its next operation only
//! after the previous one returned and was verified.
//!
//! The box this runs on is a small shared guest: other tenants slow its
//! CPUs for a second or a minute at a time, and all they can do to a timing
//! is make it worse. So the measured window is cut into slices of at least
//! [`SLICE_OPS`] operations, the slices are ranked by throughput, and every
//! timing metric is taken over the operations of the *quiet third* — the
//! third of the slices that ran fastest — pooled. It is the reasoning by
//! which a timing loop reports its minimum, with enough samples kept that a
//! 95th percentile still has dozens beyond it. A change to the program
//! moves every slice and so moves the quiet third; a neighbour's burst
//! moves only the slices it lands on, and those are left out.

use crate::host;
use crate::spans;
use crate::stats::{percentile, percentile_unchecked};
use crate::workloads::{Fixture, OpGen, Workload};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Operations a measured window must complete for its tail percentiles to
/// mean anything (waived by `--smoke`).
pub const SAMPLE_FLOOR: usize = 1500;

/// How often the sampler reads process CPU and wire bytes. Slices are whole
/// numbers of ticks.
const TICK: Duration = Duration::from_millis(250);

/// Operations a slice must hold: 250 leaves twelve samples beyond its p95.
const SLICE_OPS: usize = 250;

/// One finished operation, kept small: the sample log is the benchmark's
/// own memory and `peak_rss_mb` should be the program's.
struct Sample {
    /// Latency in nanoseconds, saturating at 4.29 s.
    latency_ns: u32,
    /// Tick of the window it finished in; `u16::MAX` outside the window.
    tick: u16,
    ok: bool,
}

struct Boundary {
    at_ns: u64,
    cpu: Duration,
    wire_bytes: u64,
}

/// End-to-end numbers of one measured window.
#[derive(Debug, Clone)]
pub struct WindowReport {
    pub seconds: f64,
    pub slices: usize,
    /// Slices the timing metrics were taken over, and the operations in them.
    pub quiet_slices: usize,
    pub quiet_ops: usize,
    pub attempted: u64,
    pub failed: u64,
    /// First few failures, each with the operation that produced it.
    pub failures: Vec<String>,
    pub throughput_qps: f64,
    pub latency_p50_ms: f64,
    pub latency_p95_ms: f64,
    /// Ungated tail: pooled over the whole window, reported even when fewer
    /// than ten samples lie beyond it.
    pub latency_p99_ms: f64,
    pub cpu_ms_per_query: f64,
    /// Process CPU over the whole window, in seconds.
    pub cpu_s: f64,
    pub wire_bytes_per_query: f64,
    /// False when the quiet third held too few operations for ten samples
    /// to lie beyond its p95 (smoke runs).
    pub tail_ok: bool,
    /// Share of the window the clients spent checking answers instead of
    /// waiting on the system — the closed loop's only idle time.
    pub verify_share: f64,
    pub rows_verified: u64,
    /// Verified operations per second in each slice, in time order — how
    /// steady the box was while the window ran.
    pub slice_qps: Vec<f64>,
    /// `VmHWM` when the window closed, before any analysis allocated.
    pub peak_rss_mb: f64,
}

fn wire_bytes(fixture: &Fixture) -> u64 {
    let (sent, received) = fixture.client.payload_bytes();
    sent + received
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Group ticks into slices of at least `floor` operations each, front to
/// back; a thin remainder joins the last slice. Returns the tick index each
/// slice ends at (exclusive); one slice when the whole window is thin.
pub fn slice_ends(ops_per_tick: &[usize], floor: usize) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut held = 0;
    for (tick, ops) in ops_per_tick.iter().enumerate() {
        held += ops;
        if held >= floor {
            ends.push(tick + 1);
            held = 0;
        }
    }
    match ends.last_mut() {
        Some(last) => *last = ops_per_tick.len(),
        None => ends.push(ops_per_tick.len()),
    }
    ends
}

/// The `ceil(n / 3)` slices with the highest throughput, as indices.
pub fn quiet_third(slice_qps: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..slice_qps.len()).collect();
    order.sort_by(|a, b| slice_qps[*b].total_cmp(&slice_qps[*a]));
    order.truncate(slice_qps.len().div_ceil(3));
    order
}

/// Samples per chunk of the log: growing by chunks, not by doubling, keeps
/// the log's own peak memory at what it holds.
const LOG_CHUNK: usize = 1 << 16;

/// Drive the closed-loop client against `fixture` for `duration`.
///
/// One client: a run is pinned to one CPU, where a second client could only
/// queue behind the first (two gave the same throughput, twice the latency,
/// and a median that moved by a third with the order the kernel happened to
/// run them in).
pub fn run_window(
    fixture: &Fixture,
    gen: &mut OpGen,
    duration: Duration,
    traced: bool,
) -> WindowReport {
    let ticks = (duration.as_secs_f64() / TICK.as_secs_f64())
        .ceil()
        .max(1.0) as usize;
    let tick_ns = duration.as_nanos() as u64 / ticks as u64;
    let stop = AtomicBool::new(false);
    let mut boundaries = Vec::with_capacity(ticks + 1);
    let started = Instant::now();
    let window_start = spans::now_ns();
    let (log, failures, rows_verified, verify_ns) = std::thread::scope(|scope| {
        let stop = &stop;
        let client = scope.spawn(move || {
            let mut log: Vec<Vec<Sample>> = vec![Vec::with_capacity(LOG_CHUNK)];
            let mut failures = Vec::new();
            let (mut rows, mut verify_ns) = (0u64, 0u64);
            while !stop.load(Ordering::Relaxed) {
                let op = fixture.next_op(gen);
                let query_id = if traced { spans::next_id() } else { 0 };
                let outcome = fixture.run_op(&op, query_id);
                let verified = spans::now_ns();
                match &outcome.verdict {
                    Ok(n) => rows += n,
                    Err(why) if failures.len() < 8 => {
                        failures.push(format!("{}: {why}", op.describe()));
                    }
                    Err(_) => {}
                }
                // Ticks are laid on the nominal grid; the sampler wakes
                // within microseconds of it.
                let tick = (outcome.finished_ns - window_start) / tick_ns;
                verify_ns += verified - outcome.finished_ns;
                if log.last().is_some_and(|chunk| chunk.len() == LOG_CHUNK) {
                    log.push(Vec::with_capacity(LOG_CHUNK));
                }
                log.last_mut().expect("log has a chunk").push(Sample {
                    latency_ns: u32::try_from(outcome.finished_ns - outcome.started_ns)
                        .unwrap_or(u32::MAX),
                    tick: if tick < ticks as u64 {
                        tick as u16
                    } else {
                        u16::MAX
                    },
                    ok: outcome.verdict.is_ok(),
                });
            }
            (log, failures, rows, verify_ns)
        });
        // This thread is the sampler: it wakes at each tick to read process
        // CPU and wire bytes, then stops the client.
        let mark = |boundaries: &mut Vec<Boundary>| {
            boundaries.push(Boundary {
                at_ns: spans::now_ns(),
                cpu: host::process_cpu(),
                wire_bytes: wire_bytes(fixture),
            });
        };
        mark(&mut boundaries);
        for k in 1..=ticks {
            let due = Duration::from_nanos(tick_ns * k as u64);
            if let Some(wait) = due.checked_sub(started.elapsed()) {
                std::thread::sleep(wait);
            }
            mark(&mut boundaries);
        }
        stop.store(true, Ordering::Relaxed);
        client.join().expect("client thread panicked")
    });
    let peak_rss_mb = host::peak_rss_mb();

    let in_window = || log.iter().flatten().filter(|s| s.tick != u16::MAX);
    let mut ops_per_tick = vec![0usize; ticks];
    for s in in_window() {
        ops_per_tick[s.tick as usize] += 1;
    }
    let ends = slice_ends(&ops_per_tick, SLICE_OPS);
    let slices = ends.len();
    let slice_of = |tick: u16| ends.partition_point(|end| *end <= tick as usize);
    let mut slice_lat: Vec<Vec<u64>> = vec![Vec::new(); slices];
    let mut slice_ok = vec![0u64; slices];
    for s in in_window() {
        let k = slice_of(s.tick);
        slice_lat[k].push(u64::from(s.latency_ns));
        slice_ok[k] += u64::from(s.ok);
    }
    let attempted: usize = slice_lat.iter().map(Vec::len).sum();
    let ok: u64 = slice_ok.iter().sum();

    // Slice k runs from boundary `from(k)` to boundary `ends[k]`.
    let from = |k: usize| if k == 0 { 0 } else { ends[k - 1] };
    let secs = |k: usize| (boundaries[ends[k]].at_ns - boundaries[from(k)].at_ns) as f64 / 1e9;
    let cpu = |k: usize| (boundaries[ends[k]].cpu - boundaries[from(k)].cpu).as_secs_f64();
    let slice_qps: Vec<f64> = (0..slices).map(|k| slice_ok[k] as f64 / secs(k)).collect();

    let quiet = quiet_third(&slice_qps);
    let quiet_ops: usize = quiet.iter().map(|k| slice_lat[*k].len()).sum();
    let quiet_ok: u64 = quiet.iter().map(|k| slice_ok[*k]).sum();
    let quiet_secs: f64 = quiet.iter().map(|k| secs(*k)).sum();
    let quiet_cpu: f64 = quiet.iter().map(|k| cpu(*k)).sum();
    let mut quiet_lat: Vec<u64> = quiet.iter().flat_map(|k| &slice_lat[*k]).copied().collect();
    quiet_lat.sort_unstable();
    let mut all_lat: Vec<u64> = slice_lat.into_iter().flatten().collect();
    all_lat.sort_unstable();
    let at = |sorted: &[u64], p: f64| percentile_unchecked(sorted, p).map_or(f64::NAN, ms);
    let window_ns = boundaries[ticks].at_ns - boundaries[0].at_ns;

    WindowReport {
        seconds: window_ns as f64 / 1e9,
        slices,
        quiet_slices: quiet.len(),
        quiet_ops,
        attempted: attempted as u64,
        failed: attempted as u64 - ok,
        failures,
        throughput_qps: quiet_ok as f64 / quiet_secs,
        latency_p50_ms: at(&quiet_lat, 0.50),
        latency_p95_ms: at(&quiet_lat, 0.95),
        latency_p99_ms: at(&all_lat, 0.99),
        cpu_ms_per_query: quiet_cpu * 1e3 / quiet_ops.max(1) as f64,
        cpu_s: (boundaries[ticks].cpu - boundaries[0].cpu).as_secs_f64(),
        // Bytes per query do not depend on how busy the box is.
        wire_bytes_per_query: (boundaries[ticks].wire_bytes - boundaries[0].wire_bytes) as f64
            / attempted.max(1) as f64,
        tail_ok: percentile(&quiet_lat, 0.95).is_some(),
        verify_share: verify_ns as f64 / (window_ns as f64).max(1.0),
        rows_verified,
        slice_qps,
        peak_rss_mb,
    }
}

/// Deploy the workload `repeats` times, timing each; the last deployment is
/// kept for the run. `setup_s` is the fastest deployment, which leaves out
/// the first one's first-use costs (page faults, lazy statics) and a
/// neighbour's bursts. The count is fixed, not fitted to a time budget: how
/// often the process has built and dropped the stores decides how fragmented
/// its heap is, and so its peak memory.
pub fn timed_setup(
    workload: Workload,
    out_dir: &Path,
    traced: bool,
    repeats: usize,
) -> (Fixture, f64, Vec<f64>) {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..repeats.max(1) {
        drop(kept.take());
        let started = Instant::now();
        let fixture = Fixture::deploy(workload, out_dir, traced);
        times.push(started.elapsed().as_secs_f64());
        kept = Some(fixture);
    }
    let fixture = kept.expect("at least one deployment");
    let setup_s = times.iter().copied().fold(f64::INFINITY, f64::min);
    (fixture, setup_s, times)
}

/// How a run's seconds are split and repeated.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub setups: usize,
    pub warmup: Duration,
    pub window: Duration,
    /// Smoke runs waive the sample floor.
    pub smoke: bool,
}

impl Schedule {
    /// `seconds` of measured window after a 3 s warm-up (caches primed,
    /// stubs bound, negotiation settled) and five timed set-ups.
    pub fn full(seconds: u64) -> Schedule {
        Schedule {
            setups: 5,
            warmup: Duration::from_secs(3),
            window: Duration::from_secs(seconds),
            smoke: false,
        }
    }

    /// One short window: validates the harness, not the system.
    pub fn smoke() -> Schedule {
        Schedule {
            setups: 1,
            warmup: Duration::from_millis(300),
            window: Duration::from_secs(1),
            smoke: true,
        }
    }
}

/// Everything one untraced run of one workload produced.
pub struct RunReport {
    pub workload: Workload,
    pub seed: u64,
    pub pinned_cpu: Option<usize>,
    pub setup_s: f64,
    pub setup_times: Vec<f64>,
    pub window: WindowReport,
    pub loadavg_start: f64,
    pub loadavg_end: f64,
    pub noisy: bool,
    pub sequence_hash: u64,
}

/// The untraced run: set up, warm up, measure.
pub fn run_untraced(
    workload: Workload,
    seed: u64,
    schedule: Schedule,
    out_dir: &Path,
) -> RunReport {
    let loadavg_start = host::loadavg1();
    let pinned_cpu = host::pin_to_one_cpu();
    let (fixture, setup_s, setup_times) = timed_setup(workload, out_dir, false, schedule.setups);
    let mut gen = fixture.op_gen(seed);
    let sequence_hash = fixture.sequence_hash(seed, 256);
    run_window(&fixture, &mut gen, schedule.warmup, false);
    let window = run_window(&fixture, &mut gen, schedule.window, false);
    drop(fixture);
    RunReport {
        workload,
        seed,
        pinned_cpu,
        setup_s,
        setup_times,
        window,
        loadavg_start,
        loadavg_end: host::loadavg1(),
        noisy: loadavg_start > host::nproc() as f64,
        sequence_hash,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_hold_the_floor_and_cover_every_tick() {
        // 100 operations a tick, floor 250: three ticks a slice, and the
        // thin remainder joins the last slice.
        assert_eq!(slice_ends(&[100; 10], 250), vec![3, 6, 10]);
        // A window too thin to slice is one slice.
        assert_eq!(slice_ends(&[10; 4], 250), vec![4]);
        // Busy ticks stand alone; an idle stretch is absorbed.
        assert_eq!(slice_ends(&[300, 0, 0, 300, 300], 250), vec![1, 4, 5]);
        assert_eq!(slice_ends(&[], 250), vec![0]);
    }

    #[test]
    fn the_quiet_third_is_the_fastest_third() {
        assert_eq!(quiet_third(&[10.0, 30.0, 20.0, 5.0, 25.0, 1.0]), vec![1, 4]);
        // Rounded up, and never empty.
        assert_eq!(quiet_third(&[10.0, 30.0, 20.0, 5.0]), vec![1, 2]);
        assert_eq!(quiet_third(&[7.0]), vec![0]);
        assert!(quiet_third(&[]).is_empty());
    }
}
