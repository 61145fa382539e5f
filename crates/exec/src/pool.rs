//! A small std-only thread pool: one FIFO job queue shared by every worker.
//!
//! `spawn` sends a job down one `mpsc` channel; an idle worker takes the
//! next job off the shared `Receiver`, which sits behind one mutex held only
//! while receiving, so jobs start in submission order (join execution
//! dominates the lock cost by orders of magnitude). Dropping the pool drops
//! the sender: the workers drain the jobs already queued, see the channel
//! close, and are joined.
//!
//! Every job reports through a [`JobHandle`]: [`crate::Executor::spawn`]
//! runs it under [`contain_panic`] and sends the outcome down the handle's
//! own channel.

use fdjoin_core::JoinError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send>;

/// Run one job, turning a panic inside it (a registered UDF, say) into the
/// typed error its handle reports. Spans opened inside `work` close as the
/// unwind drops them.
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

/// An in-flight pool job: what [`Executor::spawn`](crate::Executor::spawn),
/// [`Executor::submit_stream`](crate::Executor::submit_stream) and
/// `fdjoin_delta`'s `submit_deltas` return.
pub struct JobHandle<T> {
    rx: Receiver<Result<T, JoinError>>,
}

impl<T> JobHandle<T> {
    /// A handle and the sender its job reports through. One result, one
    /// slot: the job's single send never blocks.
    pub(crate) fn channel() -> (SyncSender<Result<T, JoinError>>, JobHandle<T>) {
        let (tx, rx) = sync_channel(1);
        (tx, JobHandle { rx })
    }

    /// A handle whose job is already decided, with no pool slot spent.
    pub(crate) fn ready(result: Result<T, JoinError>) -> JobHandle<T> {
        let (tx, handle) = JobHandle::channel();
        // The receiver is alive in `handle`, so the send cannot fail.
        let _ = tx.send(result);
        handle
    }

    /// Block until the job ends. A job that panicked on its worker reports
    /// [`JoinError::WorkerPanicked`] with the panic's message; one that
    /// ended without reporting at all reports it with a generic message.
    pub fn wait(self) -> Result<T, JoinError> {
        self.rx.recv().unwrap_or_else(|_| {
            Err(JoinError::WorkerPanicked(
                "the job ended without reporting a result".to_string(),
            ))
        })
    }
}

pub(crate) struct Pool {
    /// `None` only while dropping: closing the queue stops the workers.
    queue: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl Pool {
    pub fn new(threads: usize) -> Pool {
        let (queue, jobs) = channel::<Job>();
        let jobs = Arc::new(Mutex::new(jobs));
        let workers = (0..threads.max(1))
            .map(|me| {
                let jobs = jobs.clone();
                std::thread::Builder::new()
                    .name(format!("fdjoin-exec-{me}"))
                    .spawn(move || worker_loop(&jobs))
                    .expect("spawn worker thread")
            })
            .collect();
        Pool {
            queue: Some(queue),
            workers,
        }
    }

    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Queue one job. A job that cannot be queued is dropped, and with it
    /// the sender its handle waits on.
    pub fn spawn(&self, job: Job) {
        if let Some(queue) = &self.queue {
            let _ = queue.send(job);
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        drop(self.queue.take());
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(jobs: &Mutex<Receiver<Job>>) {
    loop {
        // The guard is a temporary of this statement, so the lock is
        // released before the job runs (a `while let` would hold it through
        // the body). No job runs under it, so it is never poisoned.
        let next = jobs.lock().expect("job queue lock poisoned").recv();
        let Ok(job) = next else { return };
        // A panicking job must not kill the worker — the pool would
        // silently shrink for every later submission. `Executor::spawn`
        // already contains a job's own panic; this catches what is left
        // (a panicking drop of its result, say).
        let _ = catch_unwind(AssertUnwindSafe(job));
    }
}
