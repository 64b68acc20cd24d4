//! The scatter executor: a bounded worker pool plus per-site concurrency
//! permits.
//!
//! The pool bounds the gateway's total parallelism (each in-flight upstream
//! call still occupies a gateway thread for its blocking exchange). The
//! [`SiteLimiter`] additionally bounds how many upstream calls may target
//! one *site* at once. Since the containers moved to a readiness-driven
//! event loop, a burst no longer threatens a container's accept queue —
//! extra connections just park cheaply on its poller — but the per-site cap
//! still matters for a different resource: a site's `workers` handler
//! threads. Fanning more concurrent calls at a site than it has handler
//! threads only deepens its dispatch queue and inflates tail latency, so
//! the limiter keeps the gateway's fan-in near each site's service rate and
//! a slow site from monopolizing the pool.

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::thread::JoinHandle;
use std::time::Instant;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size pool of worker threads draining a shared job queue.
pub struct WorkerPool {
    tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn `workers` threads (at least one).
    pub fn new(workers: usize) -> WorkerPool {
        let (tx, rx): (Sender<Job>, Receiver<Job>) = unbounded();
        let workers = (0..workers.max(1))
            .map(|i| {
                let rx = rx.clone();
                std::thread::Builder::new()
                    .name(format!("gateway-worker-{i}"))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            job();
                        }
                    })
                    .expect("spawn gateway worker")
            })
            .collect();
        WorkerPool {
            tx: Some(tx),
            workers,
        }
    }

    /// Queue a job; it runs on the next free worker.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        if let Some(tx) = &self.tx {
            // Send fails only after shutdown, when the job is moot anyway.
            let _ = tx.send(Box::new(job));
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channel lets each worker drain remaining jobs and exit.
        self.tx.take();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

struct Gate {
    count: StdMutex<usize>,
    cv: Condvar,
}

/// Per-site concurrency permits: at most `limit` in-flight upstream calls
/// per site label.
pub struct SiteLimiter {
    limit: usize,
    gates: Mutex<HashMap<String, Arc<Gate>>>,
}

impl SiteLimiter {
    /// A limiter granting up to `limit` concurrent permits per site.
    pub fn new(limit: usize) -> Arc<SiteLimiter> {
        Arc::new(SiteLimiter {
            limit: limit.max(1),
            gates: Mutex::new(HashMap::new()),
        })
    }

    /// Wait until a permit for `site` is free, giving up once `deadline`
    /// passes: a call whose budget is already gone must not queue behind a
    /// slow site's permits only to fail after acquiring one. `None` waits
    /// indefinitely. The permit is released when the returned guard drops.
    pub fn acquire_until(&self, site: &str, deadline: Option<Instant>) -> Option<Permit> {
        let gate = {
            let mut gates = self.gates.lock();
            Arc::clone(gates.entry(site.to_owned()).or_insert_with(|| {
                Arc::new(Gate {
                    count: StdMutex::new(0),
                    cv: Condvar::new(),
                })
            }))
        };
        {
            let mut count = gate.count.lock().unwrap_or_else(|e| e.into_inner());
            while *count >= self.limit {
                match deadline {
                    None => count = gate.cv.wait(count).unwrap_or_else(|e| e.into_inner()),
                    Some(d) => {
                        let now = Instant::now();
                        if now >= d {
                            return None;
                        }
                        count = gate
                            .cv
                            .wait_timeout(count, d - now)
                            .unwrap_or_else(|e| e.into_inner())
                            .0;
                    }
                }
            }
            *count += 1;
        }
        Some(Permit { gate })
    }

    /// Permits currently held for `site`.
    pub fn in_use(&self, site: &str) -> usize {
        self.gates
            .lock()
            .get(site)
            .map(|g| *g.count.lock().unwrap_or_else(|e| e.into_inner()))
            .unwrap_or(0)
    }
}

/// An RAII site permit.
pub struct Permit {
    gate: Arc<Gate>,
}

impl Drop for Permit {
    fn drop(&mut self) {
        let mut count = self.gate.count.lock().unwrap_or_else(|e| e.into_inner());
        *count = count.saturating_sub(1);
        self.gate.cv.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn pool_runs_all_jobs() {
        let pool = WorkerPool::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..64 {
            let counter = Arc::clone(&counter);
            pool.submit(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool); // joins workers after the queue drains
        assert_eq!(counter.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn limiter_bounds_per_site_concurrency() {
        let limiter = SiteLimiter::new(2);
        let peak = Arc::new(AtomicUsize::new(0));
        let current = Arc::new(AtomicUsize::new(0));
        let pool = WorkerPool::new(8);
        for _ in 0..16 {
            let limiter = Arc::clone(&limiter);
            let peak = Arc::clone(&peak);
            let current = Arc::clone(&current);
            pool.submit(move || {
                let _permit = limiter.acquire_until("siteA", None);
                let now = current.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(5));
                current.fetch_sub(1, Ordering::SeqCst);
            });
        }
        drop(pool);
        assert!(
            peak.load(Ordering::SeqCst) <= 2,
            "peak {} > limit",
            peak.load(Ordering::SeqCst)
        );
        assert_eq!(limiter.in_use("siteA"), 0);
    }

    #[test]
    fn acquire_until_gives_up_at_the_deadline() {
        let limiter = SiteLimiter::new(1);
        let held = limiter.acquire_until("s", None);
        let started = std::time::Instant::now();
        let late = limiter.acquire_until("s", Some(started + Duration::from_millis(30)));
        assert!(late.is_none(), "saturated site must time out");
        assert!(started.elapsed() >= Duration::from_millis(25));
        drop(held);
        // With the permit free again, even an already-expired deadline
        // acquires immediately (no wait needed, so no timeout fires).
        assert!(limiter.acquire_until("s", Some(started)).is_some());
    }

    #[test]
    fn limiter_is_per_site() {
        let limiter = SiteLimiter::new(1);
        let _a = limiter.acquire_until("a", None);
        // A different site's permit must not block even while `a` is held.
        let _b = limiter.acquire_until("b", None);
        assert_eq!(limiter.in_use("a"), 1);
        assert_eq!(limiter.in_use("b"), 1);
    }
}
