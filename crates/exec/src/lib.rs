//! `fdjoin_exec` — the concurrent serving layer over the `fdjoin` engine.
//!
//! The paper (Abo Khamis–Ngo–Suciu, PODS 2016) splits query evaluation into
//! a data-independent *planning* phase (lattice presentation, chain/LLP
//! bounds, SM/CSM proof sequences) and a data-dependent *execution* phase.
//! `fdjoin_core` exploits the split per query; this crate exploits it at
//! serving scale, with two cooperating pieces:
//!
//! 1. **Cross-query plan cache** ([`PlanCache`], re-exported from
//!    `fdjoin_core` where it integrates with `Engine::prepare`): plans are
//!    keyed by *lattice-presentation isomorphism* using the canonical
//!    fingerprints of `fdjoin_lattice::canonical_fingerprint`, so preparing
//!    a query that is structurally isomorphic to one served before — any
//!    variable/atom renaming — rehydrates its chain, LLP, SM-proof, and
//!    CSM plans instead of recomputing them. Hits, misses, and evictions
//!    are observable via [`PlanCacheStats`] and per-query
//!    [`PrepStats`](fdjoin_core::PrepStats).
//!
//! 2. **Concurrent execution driver**: [`Executor::submit`] fans one
//!    `PreparedQuery` across many `Arc`-shared databases on a std-only
//!    thread pool with one FIFO job queue and returns a [`BatchHandle`] whose
//!    [`wait`](BatchHandle::wait) yields per-database
//!    [`JoinResult`](fdjoin_core::JoinResult)s plus aggregate
//!    [`BatchStats`] (throughput, totals).
//!
//! 3. **Budgeted streaming service** ([`Executor::submit_stream`]): serves
//!    a query through an `fdjoin_stream::ResultStream` cursor instead of a
//!    materializing run, delivering rows until a [`StreamBudget`] stops it
//!    — wall-clock deadline or row cap. Because the cursor
//!    suspends as plain snapshots over the engine-wide trie cache,
//!    abandoning a stream mid-flight discards nothing expensive: prepared
//!    plans and cached trie indexes survive for the next submission.
//!    Estimate-driven **admission control** guards both entry points:
//!    [`StreamBudget::admit_below`] and [`Admission`] (for
//!    [`Executor::submit_with_admission`] batches) reject executions whose
//!    [`PreparedQuery::estimate`](fdjoin_core::PreparedQuery::estimate)
//!    exceeds a `log₂` cap with `JoinError::Budget` — before any cursor,
//!    trie, or pool slot is spent.
//!
//! The raw admission primitive, [`Executor::spawn`], is public so other
//! serving drivers can schedule non-batch workloads on the same pool;
//! `fdjoin_delta` uses it to stream incremental update batches into
//! materialized views. Every pool job reports through one [`JobHandle`],
//! whose [`wait`](JobHandle::wait) turns a panic on the worker into
//! [`JoinError::WorkerPanicked`](fdjoin_core::JoinError::WorkerPanicked)
//! with the panic's own message.
//!
//! Serving results are *auditable*: every per-database
//! [`JoinResult`](fdjoin_core::JoinResult) in a [`BatchResult`] carries
//! the planner's [`AutoDecision`](fdjoin_core::AutoDecision) — the
//! worst-case bounds it compared plus, when the data-dependent tie-break
//! was consulted, the measured branch estimates (two databases with the
//! same size profile can correctly resolve to different algorithms). A
//! serving layer can also read
//! [`PreparedQuery::estimate`](fdjoin_core::PreparedQuery::estimate)
//! directly, e.g. for admission control, without executing anything.
//!
//! Prepare once, execute everywhere:
//!
//! ```
//! use fdjoin_core::{Engine, ExecOptions, PlanCache};
//! use fdjoin_exec::Executor;
//! use fdjoin_storage::{Database, Relation};
//! use std::sync::Arc;
//!
//! let cache = Arc::new(PlanCache::new());
//! let engine = Engine::with_plan_cache(cache.clone());
//! let prepared = Arc::new(engine.prepare(&fdjoin_query::examples::triangle()));
//!
//! let mk = |k: u64| {
//!     let mut db = Database::new();
//!     db.insert("R", Relation::from_rows(vec![0, 1], [[k, 2]]));
//!     db.insert("S", Relation::from_rows(vec![1, 2], [[2, 3]]));
//!     db.insert("T", Relation::from_rows(vec![2, 0], [[3, k]]));
//!     db
//! };
//! let dbs: Arc<Vec<Database>> = Arc::new((0..4).map(mk).collect());
//! let exec = Executor::with_threads(2);
//! let batch = exec.submit(&prepared, &dbs, &ExecOptions::new()).wait();
//! assert_eq!(batch.stats.succeeded, 4);
//! // One size profile: planned once, reused for every database.
//! assert_eq!(prepared.prep_stats().chain_searches, 1);
//! ```

#![forbid(unsafe_code)]

mod batch;
mod pool;
mod streaming;

pub use batch::{BatchHandle, BatchResult, BatchStats, Executor};
pub use pool::JobHandle;
pub use streaming::{Admission, StreamBudget, StreamEnd, StreamOutcome};
// The cache types live in `fdjoin_core` (they are wired into
// `Engine::prepare` and relabel crate-private plan structures); this crate
// is their serving-layer home.
pub use fdjoin_core::{PlanCache, PlanCacheStats};
