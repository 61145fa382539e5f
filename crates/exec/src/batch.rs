//! Fanned-out execution of prepared queries on the [`Executor`]'s pool.
//!
//! [`Executor::submit`] enqueues one job per database on a persistent
//! thread pool and returns a [`BatchHandle`] to wait on, so a serving loop
//! can keep admitting batches while earlier ones run. The handle returns
//! per-database [`JoinResult`]s **in database order** plus aggregate
//! [`BatchStats`]. Results are bit-identical to a serial `execute` loop:
//! executions share only the prepared query's plan caches, whose contents
//! do not depend on scheduling.

use crate::pool::{contain_panic, JobHandle, Pool};
use fdjoin_core::{ExecOptions, JoinError, JoinResult, PreparedQuery};
use fdjoin_obs::{Observer, Span, SpanKind};
use fdjoin_storage::Database;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Aggregate counters for one batch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Databases executed.
    pub databases: usize,
    /// Executions that returned `Ok`.
    pub succeeded: usize,
    /// Executions that returned `Err`.
    pub failed: usize,
    /// Total output tuples across successful executions.
    pub output_tuples: u64,
    /// Total deterministic work (`Stats::work`) across successes.
    pub work: u64,
    /// Wall-clock time from submission to the last result.
    pub wall: Duration,
}

impl BatchStats {
    /// Databases served per wall-clock second.
    pub fn throughput(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.databases as f64 / secs
        } else {
            f64::INFINITY
        }
    }
}

impl std::fmt::Display for BatchStats {
    /// One line: sizes, outcome split, totals, wall time.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "databases={} ok={} err={} output={} work={} wall={:.3}ms",
            self.databases,
            self.succeeded,
            self.failed,
            self.output_tuples,
            self.work,
            self.wall.as_secs_f64() * 1e3,
        )
    }
}

/// Per-database results (in input order) plus aggregate statistics.
#[derive(Clone, Debug)]
pub struct BatchResult {
    /// `results[i]` is the outcome for `dbs[i]`.
    pub results: Vec<Result<JoinResult, JoinError>>,
    /// Aggregate counters.
    pub stats: BatchStats,
}

impl BatchResult {
    fn collect(results: Vec<Result<JoinResult, JoinError>>, wall: Duration) -> BatchResult {
        let mut stats = BatchStats {
            databases: results.len(),
            wall,
            ..BatchStats::default()
        };
        for r in &results {
            match r {
                Ok(jr) => {
                    stats.succeeded += 1;
                    stats.output_tuples += jr.output.len() as u64;
                    stats.work += jr.stats.work();
                }
                Err(_) => stats.failed += 1,
            }
        }
        BatchResult { results, stats }
    }
}

/// A persistent thread pool with one FIFO job queue that fans prepared
/// queries across databases.
///
/// ```
/// use fdjoin_core::{Engine, ExecOptions};
/// use fdjoin_exec::Executor;
/// use std::sync::Arc;
///
/// let q = fdjoin_query::examples::triangle();
/// let prepared = Arc::new(Engine::new().prepare(&q));
/// let dbs = Arc::new(vec![fdjoin_storage::Database::new(); 0]);
/// let exec = Executor::new();
/// let batch = exec.submit(&prepared, &dbs, &ExecOptions::new()).wait();
/// assert_eq!(batch.stats.databases, 0);
/// ```
pub struct Executor {
    pool: Pool,
    obs: Observer,
}

impl Executor {
    /// A pool with one worker per available core.
    pub fn new() -> Executor {
        Executor::with_threads(default_threads())
    }

    /// A pool with exactly `threads` workers (minimum 1).
    pub fn with_threads(threads: usize) -> Executor {
        Executor {
            pool: Pool::new(threads),
            obs: Observer::disabled(),
        }
    }

    /// Attach an observer: every submission from now on is traced as one
    /// `submit` span whose `batch` children run on the pool workers. For a
    /// coherent tree across layers, attach *the same* observer (clones
    /// share one recorder) to the `Engine` that prepared the queries; when
    /// no observer is attached here, submissions fall back to the prepared
    /// query's own ([`fdjoin_core::PreparedQuery::observer`]), so wiring
    /// the engine alone is enough.
    pub fn observe(mut self, obs: Observer) -> Executor {
        self.obs = obs;
        self
    }

    /// The executor's own observer (disabled unless [`Executor::observe`]d).
    pub fn observer(&self) -> &Observer {
        &self.obs
    }

    /// The observer submissions of `prepared` trace through: this
    /// executor's own when attached, else the prepared query's.
    pub(crate) fn span_observer<'a>(&'a self, prepared: &'a PreparedQuery) -> &'a Observer {
        if self.obs.is_enabled() {
            &self.obs
        } else {
            prepared.observer()
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Run one job on the pool and return a handle to its result. This is
    /// the raw admission primitive behind every pool workload: batches,
    /// streams, and `fdjoin_delta`'s update streams (one job per view, so
    /// its batches stay ordered while distinct views absorb updates
    /// concurrently). Jobs start in submission order. A job that panics
    /// (a registered UDF, say) reports [`JoinError::WorkerPanicked`] with
    /// the panic's message in its handle, and the pool keeps serving.
    pub fn spawn<T: Send + 'static>(
        &self,
        job: impl FnOnce() -> Result<T, JoinError> + Send + 'static,
    ) -> JobHandle<T> {
        let (tx, handle) = JobHandle::channel();
        self.pool.spawn(Box::new(move || {
            let _ = tx.send(contain_panic(job));
        }));
        handle
    }

    /// Fan `prepared` across `dbs` on the pool; returns immediately with a
    /// handle. The `Arc`s are cloned into the jobs, so the caller may drop
    /// its references while the batch runs.
    pub fn submit(
        &self,
        prepared: &Arc<PreparedQuery>,
        dbs: &Arc<Vec<Database>>,
        opts: &ExecOptions,
    ) -> BatchHandle {
        self.submit_inner(prepared, dbs, opts, None)
    }

    /// [`submit`](Executor::submit) with estimate-driven admission
    /// control: each database is first checked against the
    /// [`Admission`](crate::Admission) cap, and over-budget executions
    /// fail fast in the handle with `JoinError::Budget` — the estimate is
    /// the only work they cost.
    pub fn submit_with_admission(
        &self,
        prepared: &Arc<PreparedQuery>,
        dbs: &Arc<Vec<Database>>,
        opts: &ExecOptions,
        admission: &crate::Admission,
    ) -> BatchHandle {
        self.submit_inner(prepared, dbs, opts, Some(admission.clone()))
    }

    fn submit_inner(
        &self,
        prepared: &Arc<PreparedQuery>,
        dbs: &Arc<Vec<Database>>,
        opts: &ExecOptions,
        admission: Option<crate::Admission>,
    ) -> BatchHandle {
        let started = Instant::now();
        let obs = self.span_observer(prepared).clone();
        // The submit span stays open in the handle until `wait` has
        // collected every result, so it closes after all `batch` children.
        // Detached: `wait` may run on a different thread than `submit`.
        let mut span = obs.span_detached(SpanKind::Submit, batch_label(prepared));
        span.field("databases", dbs.len());
        let parent = span.id();
        let jobs = (0..dbs.len())
            .map(|i| {
                let prepared = prepared.clone();
                let dbs = dbs.clone();
                let opts = opts.clone();
                let admission = admission.clone();
                let obs = obs.clone();
                self.spawn(move || {
                    // Explicit parenting: the job runs on a pool worker whose
                    // thread stack knows nothing of the submitting thread.
                    let mut job_span =
                        obs.span_with_parent(SpanKind::Batch, batch_label(&prepared), parent);
                    job_span.field("db_index", i);
                    let r = match &admission {
                        Some(a) => a
                            .check(&prepared, &dbs[i])
                            .and_then(|()| prepared.execute(&dbs[i], &opts)),
                        None => prepared.execute(&dbs[i], &opts),
                    };
                    match &r {
                        Ok(jr) => job_span.field("rows", jr.output.len()),
                        Err(e) => job_span.field("error", e.to_string()),
                    }
                    job_span.finish();
                    r
                })
            })
            .collect();
        BatchHandle {
            jobs,
            started,
            span: Some(span),
        }
    }
}

/// The span label for one batched query: its atom names in body order.
fn batch_label(prepared: &PreparedQuery) -> String {
    let names: Vec<&str> = prepared
        .query()
        .atoms()
        .iter()
        .map(|a| a.name.as_str())
        .collect();
    names.join("⋈")
}

impl Default for Executor {
    fn default() -> Self {
        Executor::new()
    }
}

/// An in-flight batch submitted to an [`Executor`].
pub struct BatchHandle {
    /// One job per database, in database order.
    jobs: Vec<JobHandle<JoinResult>>,
    started: Instant,
    /// The batch's `submit` span, held open until [`BatchHandle::wait`]
    /// has collected every child result.
    span: Option<Span>,
}

impl BatchHandle {
    /// Number of databases in the batch.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the batch was empty on submission.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Block until every database has been executed. An execution that
    /// panicked on its worker reports [`JoinError::WorkerPanicked`] in its
    /// slot; the others are unaffected.
    pub fn wait(self) -> BatchResult {
        let results = self.jobs.into_iter().map(JobHandle::wait).collect();
        let batch = BatchResult::collect(results, self.started.elapsed());
        if let Some(mut span) = self.span {
            span.field("succeeded", batch.stats.succeeded);
            span.field("failed", batch.stats.failed);
            span.field("output_tuples", batch.stats.output_tuples);
            span.field("work", batch.stats.work);
            span.finish();
        }
        batch
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}
