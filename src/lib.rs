//! # fdjoin — Computing Join Queries with Functional Dependencies
//!
//! A from-scratch reproduction of Abo Khamis, Ngo & Suciu,
//! *"Computing Join Queries with Functional Dependencies"* (PODS 2016,
//! arXiv:1604.00111): worst-case-optimal join processing whose runtime is
//! governed by the **GLVV entropy bound** rather than the FD-oblivious AGM
//! bound.
//!
//! For the system-level view — the crate map, the data flow from lattice
//! presentations through bounds, plans, the cross-query `PlanCache`, the
//! serving layer, and incremental deltas, and where the data-dependent
//! cost model sits in the planning pipeline — see
//! [`ARCHITECTURE.md`](https://github.com/fdjoin/fdjoin/blob/main/ARCHITECTURE.md)
//! at the repository root.
//!
//! ## Quick start
//!
//! The front door is [`core::Engine`]: one entry point over all six join
//! algorithms, with a bound-driven auto-planner choosing among them the way
//! the paper's theorems dictate (chain bound tight ⇒ Chain Algorithm; good
//! SM-proof sequence ⇒ SMA; otherwise CSMA).
//!
//! ```
//! use fdjoin::core::{Engine, ExecOptions};
//! use fdjoin::query::Query;
//! use fdjoin::storage::{Database, Relation};
//!
//! // The triangle query R(x,y) ⋈ S(y,z) ⋈ T(z,x).
//! let mut b = Query::builder();
//! let (x, y, z) = (b.var("x"), b.var("y"), b.var("z"));
//! b.atom("R", &[x, y]).atom("S", &[y, z]).atom("T", &[z, x]);
//! let q = b.build();
//!
//! let mut db = Database::new();
//! db.insert("R", Relation::from_rows(vec![0, 1], [[1, 2]]));
//! db.insert("S", Relation::from_rows(vec![1, 2], [[2, 3]]));
//! db.insert("T", Relation::from_rows(vec![2, 0], [[3, 1]]));
//!
//! let out = Engine::new().execute(&q, &db, &ExecOptions::new()).unwrap();
//! assert_eq!(out.output.len(), 1);
//! println!("ran {}, bound 2^{:?}", out.algorithm_used, out.predicted_log_bound);
//! ```
//!
//! For repeated executions, prepare once — the lattice presentation, chain
//! search, LLP solve, proof sequences, *and* the trie indexes every probe
//! runs through are computed once per size profile / relation version and
//! cached:
//!
//! ```
//! # use fdjoin::core::{Engine, ExecOptions};
//! # use fdjoin::storage::{Database, Relation};
//! # let q = fdjoin::query::examples::triangle();
//! # let mut db = Database::new();
//! # db.insert("R", Relation::from_rows(vec![0, 1], [[1, 2]]));
//! # db.insert("S", Relation::from_rows(vec![1, 2], [[2, 3]]));
//! # db.insert("T", Relation::from_rows(vec![2, 0], [[3, 1]]));
//! let prepared = Engine::new().prepare(&q);
//! let first = prepared.execute(&db, &ExecOptions::new()).unwrap();
//! let planning_after_first = prepared.prep_stats();
//! let second = prepared.execute(&db, &ExecOptions::new()).unwrap();
//! assert_eq!(first.output, second.output);
//! let window = prepared.prep_stats().since(&planning_after_first);
//! assert_eq!(window.solves(), 0); // plans reused
//! assert_eq!(window.index_builds, 0); // trie indexes reused
//! assert!(window.index_hits > 0);
//! ```
//!
//! Explicit algorithms, degree bounds, atom orders and parallelism all go
//! through [`core::ExecOptions`]; every run returns the
//! same [`core::JoinResult`] and fails with the same [`core::JoinError`].
//!
//! Auto-selection is not only bound-driven but *data*-driven: storage
//! measures exact per-prefix degree/skew statistics
//! ([`storage::RelationStats`]) and [`core::cost`] turns them into branch
//! estimates that break ties the worst-case bounds cannot — two databases
//! with identical size profiles can (correctly) run different algorithms,
//! with the decision recorded in [`core::AutoDecision`]. See
//! `examples/cost_model.rs` and `tests/cost_model.rs`.
//!
//! For serving workloads, [`exec`] adds concurrent execution on a
//! persistent pool ([`exec::Executor::submit`] fans one prepared query
//! across many databases) and a cross-query plan cache keyed by
//! lattice-presentation isomorphism
//! ([`core::PlanCache`] via [`core::Engine::with_plan_cache`]); see
//! `examples/serving.rs`.
//!
//! ## Streaming enumeration
//!
//! When the consumer wants the first rows — or just a count, an existence
//! check, or a page — materializing the whole join is wasted work.
//! [`stream`] enumerates answers on demand: [`stream::ResultStream`] is a
//! cursor over the same cached trie indexes the batch algorithms probe,
//! suspending between rows as plain per-depth snapshots. `limit`/`offset`/
//! `exists`/`count` prune the enumeration (strictly less
//! [`core::Stats::deterministic`] work than a full run), checkpoints make
//! a pagination cursor that survives the stream — and is rejected as stale
//! if the underlying data changed. The delay between rows is whatever the
//! descent spends reaching the next answer, which depends on the data; no
//! constant-delay bound is promised. The serving layer wraps this as
//! [`exec::Executor::submit_stream`] with deadline/row budgets
//! ([`exec::StreamBudget`]) and estimate-driven admission control; see
//! `examples/streaming.rs`.
//!
//! ## Incremental maintenance
//!
//! When relations change by small deltas, [`delta`] maintains a
//! materialized answer instead of re-executing: [`delta::DeltaBatch`]
//! carries per-relation inserts/deletes, [`delta::MaterializedView`]
//! materializes a prepared query over a database and absorbs batches with
//! `apply_delta`, and [`delta::DeltaStats`] makes the saved work
//! observable — see `examples/incremental.rs` and `tests/differential.rs`.
//!
//! ```
//! use fdjoin::core::Engine;
//! use fdjoin::delta::{DeltaBatch, DeltaOptions, MaterializedView};
//! use fdjoin::storage::{Database, Relation};
//! use std::sync::Arc;
//!
//! let q = fdjoin::query::examples::triangle();
//! let mut db = Database::new();
//! let edges: Vec<[u64; 2]> = (0..20).map(|k| [k, k + 1]).collect();
//! db.insert("R", Relation::from_rows(vec![0, 1], edges.clone()));
//! db.insert("S", Relation::from_rows(vec![1, 2], edges.clone()));
//! db.insert("T", Relation::from_rows(vec![2, 0], edges));
//!
//! let prepared = Arc::new(Engine::new().prepare(&q));
//! let mut view =
//!     MaterializedView::materialize(Arc::clone(&prepared), db, DeltaOptions::new()).unwrap();
//!
//! // One inserted edge closes the triangle 1-2-3: a delta join against
//! // the current S and T, not a recompute of the whole join.
//! let stats = view
//!     .apply_delta(&DeltaBatch::new().insert("T", [3, 1]))
//!     .unwrap();
//! assert!(view.output().contains_row(&[1, 2, 3]));
//! assert_eq!(stats.full_recomputes, 0);
//! assert_eq!(stats.delta_joins, 1);
//! ```
//!
//! ## Observability
//!
//! [`obs`] is the self-contained (std-only, dependency-free) tracing
//! layer the whole serving stack emits through. One [`obs::Observer`]
//! handle — attached with [`core::Engine::observe`] and carried by every
//! `PreparedQuery` it prepares — turns on structured spans (`prepare`,
//! `index_build`, `solve`, `batch`/`submit`, `stream_advance`,
//! `delta_apply`, parent-linked across the worker pool), each carrying
//! its request's own counters: a `solve` span holds the work, rows,
//! predicted bound and estimate of one execution. Disabled — the
//! default — every emit point is one branch. EXPLAIN / EXPLAIN ANALYZE
//! render the planner's view and a traced execution without any observer
//! at all:
//!
//! ```
//! use fdjoin::core::Engine;
//! use fdjoin::storage::{Database, Relation};
//!
//! let q = fdjoin::query::examples::triangle();
//! let mut db = Database::new();
//! db.insert("R", Relation::from_rows(vec![0, 1], [[1, 2], [2, 3]]));
//! db.insert("S", Relation::from_rows(vec![1, 2], [[2, 3], [3, 1]]));
//! db.insert("T", Relation::from_rows(vec![2, 0], [[3, 1], [1, 2]]));
//!
//! let prepared = Engine::new().prepare(&q);
//! let plan = prepared.explain(&db).unwrap();
//! let text = plan.to_string();
//! assert!(text.contains("EXPLAIN"));
//! assert!(text.contains("bounds(log2):"));
//! assert!(text.contains("auto:"));
//!
//! // ANALYZE runs the query once under a private trace and appends the
//! // observed algorithm, counters, and span tree.
//! let analyzed = prepared.explain_analyze(&db).unwrap();
//! let report = analyzed.to_string();
//! assert!(report.contains("ANALYZE"));
//! assert!(report.contains("solve"));
//! ```
//!
//! See `examples/observability.rs` for the full span-tree export loop
//! and ARCHITECTURE.md § Observability for the span taxonomy, span
//! fields, and the EXPLAIN grammar.
//!
//! ## Crate map
//!
//! | Module | Contents |
//! |--------|----------|
//! | [`bigint`] | exact big integers & rationals |
//! | [`lp`] | exact two-phase simplex with duals |
//! | [`lattice`] | closed-set lattices, Möbius, normality, canonical fingerprints |
//! | [`storage`] | relations, indexes, UDFs |
//! | [`query`] | queries, FDs, hypergraphs, lattice presentations |
//! | [`bounds`] | AGM / GLVV / chain / SM / CLLP bounds and proof objects |
//! | [`core`] | the `Engine` + Chain Algorithm, SMA, CSMA, and baselines |
//! | [`core::engine`] | `Engine`, `PreparedQuery`, `Algorithm`, `ExecOptions`, `JoinResult`, `JoinError` |
//! | [`core::cost`] | data-dependent branch estimates from measured degree/skew statistics |
//! | [`stream`] | cursor-based result streaming, pruned aggregates, pagination checkpoints |
//! | [`exec`] | serving layer: batch/concurrent drivers, budgeted streaming, shared plan cache |
//! | [`delta`] | incremental maintenance: delta batches, materialized views, delta stats |
//! | [`obs`] | observability: structured spans, JSONL and text-tree export, JSON-lines validator |
//! | [`instances`] | worst-case and random instance generators |

#![forbid(unsafe_code)]

pub use fdjoin_bigint as bigint;
pub use fdjoin_bounds as bounds;
pub use fdjoin_core as core;
pub use fdjoin_delta as delta;
pub use fdjoin_exec as exec;
pub use fdjoin_instances as instances;
pub use fdjoin_lattice as lattice;
pub use fdjoin_lp as lp;
pub use fdjoin_obs as obs;
pub use fdjoin_query as query;
pub use fdjoin_storage as storage;
pub use fdjoin_stream as stream;
