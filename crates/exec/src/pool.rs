//! A small std-only work-stealing thread pool.
//!
//! Jobs are distributed round-robin onto per-worker deques; a worker pops
//! its own deque from the front and, when empty, steals from the *back* of
//! its siblings' deques — the classic Chase–Lev discipline, implemented
//! with mutex-guarded `VecDeque`s (this build environment has no crossbeam;
//! join execution dominates the lock cost by orders of magnitude).
//!
//! The pool is deliberately minimal: `spawn` and `Drop` (graceful
//! shutdown), plus the panic containment every result-reporting job wraps
//! its work in. Batch orchestration, result collection, and statistics
//! live in [`crate::Executor`].

use fdjoin_core::JoinError;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send>;

/// Run one execution on a worker, turning a panic inside it (a registered
/// UDF, say) into the typed error its handle reports. Spans opened inside
/// `work` close as the unwind drops them.
pub(crate) fn contain_panic<T>(
    work: impl FnOnce() -> Result<T, JoinError>,
) -> Result<T, JoinError> {
    catch_unwind(AssertUnwindSafe(work)).unwrap_or_else(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(ToString::to_string)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        Err(JoinError::WorkerPanicked(message))
    })
}

/// What a handle reports for an execution whose job ended without sending
/// a result (it panicked outside [`contain_panic`]).
pub(crate) fn unreported() -> JoinError {
    JoinError::WorkerPanicked("the job ended without reporting a result".to_string())
}

pub(crate) struct Pool {
    inner: Arc<PoolInner>,
    workers: Vec<JoinHandle<()>>,
}

struct PoolInner {
    /// One deque per worker; `spawn` round-robins pushes across them.
    queues: Vec<Mutex<VecDeque<Job>>>,
    /// Condvar pair for idle workers. The timeout on waits makes a missed
    /// notification cost latency, never liveness.
    gate: Mutex<()>,
    available: Condvar,
    pending: AtomicUsize,
    shutdown: AtomicBool,
    rr: AtomicUsize,
}

impl Pool {
    pub fn new(threads: usize) -> Pool {
        let threads = threads.max(1);
        let inner = Arc::new(PoolInner {
            queues: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            gate: Mutex::new(()),
            available: Condvar::new(),
            pending: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            rr: AtomicUsize::new(0),
        });
        let workers = (0..threads)
            .map(|me| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("fdjoin-exec-{me}"))
                    .spawn(move || worker_loop(&inner, me))
                    .expect("spawn worker thread")
            })
            .collect();
        Pool { inner, workers }
    }

    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    pub fn spawn(&self, job: Job) {
        let n = self.inner.queues.len();
        let slot = self.inner.rr.fetch_add(1, Ordering::Relaxed) % n;
        // Increment `pending` before the job is visible: a worker that pops
        // it immediately must never drive the counter below zero.
        self.inner.pending.fetch_add(1, Ordering::Release);
        self.inner.queues[slot].lock().unwrap().push_back(job);
        // One job, one wakeup. The gate lock makes this race-free against
        // a worker's pending-check-then-wait (see `worker_loop`); a woken
        // worker finds the job wherever it landed by stealing.
        let _g = self.inner.gate.lock().unwrap();
        self.inner.available.notify_one();
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        {
            let _g = self.inner.gate.lock().unwrap();
            self.inner.available.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(inner: &PoolInner, me: usize) {
    loop {
        if let Some(job) = find_job(inner, me) {
            // A panicking job must not kill the worker — the pool would
            // silently shrink for every later batch. Batch and stream jobs
            // report their own panics ([`contain_panic`]); anything that
            // still unwinds to here surfaces to the submitter as the job's
            // result channel going dead.
            let _ = catch_unwind(AssertUnwindSafe(job));
            continue;
        }
        if inner.shutdown.load(Ordering::Acquire) {
            return;
        }
        // Race-free sleep: `pending` is re-checked under the gate lock, and
        // `spawn` increments it before notifying under that same lock — a
        // job published after the check is seen either by the check or by
        // the notification, so an idle pool parks with no polling.
        let guard = inner.gate.lock().unwrap();
        if inner.pending.load(Ordering::Acquire) == 0 && !inner.shutdown.load(Ordering::Acquire) {
            drop(inner.available.wait(guard).unwrap());
        }
    }
}

fn find_job(inner: &PoolInner, me: usize) -> Option<Job> {
    let n = inner.queues.len();
    // Own deque first (front), then steal from siblings (back).
    if let Some(job) = inner.queues[me].lock().unwrap().pop_front() {
        inner.pending.fetch_sub(1, Ordering::AcqRel);
        return Some(job);
    }
    for k in 1..n {
        let victim = (me + k) % n;
        if let Some(job) = inner.queues[victim].lock().unwrap().pop_back() {
            inner.pending.fetch_sub(1, Ordering::AcqRel);
            return Some(job);
        }
    }
    None
}
