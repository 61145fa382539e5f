//! `fdjoin_delta` — incremental maintenance of materialized join results.
//!
//! The paper's planning artifacts (lattice presentation, chain/LLP bounds,
//! SM/CSM proof sequences) depend only on query *shape* and relation
//! *sizes* — never on which tuples are present. So when a relation changes
//! by a small delta, nothing about the prepared query needs to be redone:
//! the lattice presentation and canonical fingerprint computed at
//! `Engine::prepare` time stay valid, the shared
//! [`PlanCache`](fdjoin_core::PlanCache) entry stays resident, and only a
//! *delta join* — the changed tuples against the other relations' current
//! versions — has to run. This crate packages that observation:
//!
//! - [`DeltaBatch`]: per-relation tuple inserts and deletes (deletes apply
//!   first; a row deleted and inserted in one batch is present after);
//! - [`MaterializedView`]: a [`PreparedQuery`](fdjoin_core::PreparedQuery)
//!   plus its database and materialized output, maintained in place by
//!   [`MaterializedView::apply_delta`];
//! - [`ApplyDelta`]: the extension trait putting `materialize` /
//!   `apply_delta` on `PreparedQuery` itself;
//! - [`DeltaStats`]: deterministic maintenance counters (tuples touched,
//!   delta joins run, plans reused vs. newly solved, full-recompute
//!   fallbacks) so the incremental-vs-recompute tradeoff is *observable*,
//!   not just asserted;
//! - serving-layer wiring: [`SubmitDeltas`] streams ordered batches into a
//!   view on an [`Executor`](fdjoin_exec::Executor) (batches stay
//!   sequential per view, distinct views absorb updates concurrently), and
//!   [`apply_delta_batch`] fans one batch across many views on scoped
//!   work-stealing workers — the delta analogue of
//!   [`ExecuteBatch`](fdjoin_exec::ExecuteBatch).
//!
//! # The delta rule
//!
//! For a full conjunctive query (output over *all* variables, no
//! self-joins) a tuple `t` is in the answer iff every atom's projection of
//! `t` is present in that atom's relation and the FDs/UDFs are consistent
//! — membership is per-tuple checkable. `apply_delta` normalises the batch
//! per relation into its net inserts `Δ⁺` (rows not stored yet) and net
//! deletes `Δ⁻` (stored rows the batch does not re-insert), then:
//!
//! 1. **apply once**: every named relation absorbs its `Δ⁺`/`Δ⁻` in one
//!    [`Relation::apply_delta`](fdjoin_storage::Relation::apply_delta),
//!    which costs the delta, not the relation, and carries the relation's
//!    statistics and trie indexes to the new version;
//! 2. **Δ⁺ joins on the final versions**, one per updated query relation in
//!    name order: the relation is swapped for just its `Δ⁺`, the prepared
//!    query executes against that substituted database — every *other*
//!    relation at its final version — and the final version is swapped
//!    back. Every new answer uses some inserted row, so the pass of that
//!    row's relation produces it; an answer using inserts of several
//!    relations comes out of several passes, and the union is
//!    sort-deduplicated;
//! 3. **revalidation against `Δ⁻`**: every old answer's projections were
//!    all present before the batch, so it survives iff none of them is in
//!    its relation's `Δ⁻` — a lookup in the batch, not in the relation. The
//!    survivors plus the `Δ⁺` joins' outputs are the new answer.
//!
//! Each `Δ⁺` join runs through the same `PreparedQuery`, so its
//! per-size-profile plan caches and the cross-query `PlanCache` absorb the
//! planning: a stream of same-shaped deltas plans once and then replays
//! cached plans ([`DeltaStats::plans_reused`]). When a batch is too large
//! a fraction of the database ([`DeltaOptions::max_delta_fraction`]), the
//! view falls back to one full recompute instead — still from the same
//! prepared query, with zero re-preparation.
//!
//! # Delta-specialized plans
//!
//! A 1-tuple delta rarely wants the view's full plan: a chain climb or an
//! SMA/CSMA partitioning pass inspects the base relations wholesale, while
//! the delta's few tuples could seed a tiny left-deep join. Each `Δ⁺`
//! join therefore consults the data-dependent cost model
//! (`fdjoin_core::cost::delta_plan`, priced from the measured
//! [`RelationStats`](fdjoin_storage::RelationStats)): when the Δ-first
//! branch estimate beats a scan of the base relations, the pass runs a
//! Δ-first binary plan instead — visible in
//! [`DeltaStats::specialized_deltas`] and
//! [`MaterializedView::delta_algorithms`]. Only views whose
//! [`DeltaOptions::exec`] options are plain `Auto` with the cost tie-break
//! on specialize; explicitly pinned algorithms are always honored, and
//! answers never depend on the choice (the differential harness runs with
//! specialization enabled).
//!
//! Deltas must preserve the query's FDs (as all storage mutations must);
//! deleting rows always does, and inserts from the same data-generating
//! process as the base instance do.
//!
//! ```
//! use fdjoin_core::Engine;
//! use fdjoin_delta::{ApplyDelta, DeltaBatch, DeltaOptions};
//! use fdjoin_storage::{Database, Relation};
//! use std::sync::Arc;
//!
//! let q = fdjoin_query::examples::triangle();
//! let mut db = Database::new();
//! db.insert("R", Relation::from_rows(vec![0, 1], [[1, 2]]));
//! db.insert("S", Relation::from_rows(vec![1, 2], [[2, 3]]));
//! db.insert("T", Relation::from_rows(vec![2, 0], [[3, 1]]));
//!
//! let prepared = Arc::new(Engine::new().prepare(&q));
//! // The toy database is 3 tuples, so allow deltas up to its full size;
//! // at realistic scale the default 25% threshold is the right guard.
//! let opts = DeltaOptions::new().max_delta_fraction(1.0);
//! let mut view = prepared.materialize(db, opts).unwrap();
//! assert_eq!(view.output().len(), 1);
//!
//! // Close a second triangle with two inserted edges.
//! let delta = DeltaBatch::new()
//!     .insert("R", [1, 5])
//!     .insert("S", [5, 3]);
//! let stats = view.apply_delta(&delta).unwrap();
//! assert_eq!(view.output().len(), 2);
//! assert!(view.output().contains_row(&[1, 5, 3]));
//! assert_eq!(stats.delta_joins, 2, "one delta join per updated relation");
//! assert_eq!(stats.full_recomputes, 0, "maintained, not recomputed");
//! ```

#![forbid(unsafe_code)]

mod batch;
mod stats;
mod stream;
mod view;

pub use batch::{DeltaBatch, RelationDelta};
pub use stats::DeltaStats;
pub use stream::{apply_delta_batch, DeltaStreamHandle, SubmitDeltas};
pub use view::{ApplyDelta, DeltaOptions, MaterializedView};
