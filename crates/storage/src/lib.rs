//! Relational storage engine for `fdjoin`.
//!
//! Everything the paper's algorithms execute against lives here:
//!
//! - [`Relation`]: sorted row-major relations whose column order doubles as
//!   a trie index (prefix ranges via binary search), with projection,
//!   semijoin, degree counting, and partitioning primitives — order-aware
//!   (sortedness tracked per append and per [`Relation::concat`] seam, so
//!   rows produced in order are never sorted again), versioned, with
//!   delta-sized tuple deltas ([`Relation::apply_delta`]: binary-searched
//!   splices that carry statistics and tries to the next version) for
//!   incremental maintenance;
//! - [`RelationStats`]: exact per-prefix degree/branch/skew statistics
//!   ([`Relation::stats`]), computed on first request per content snapshot
//!   and carried across deltas, feeding the data-dependent cost model in
//!   `fdjoin_core::cost`;
//! - [`TrieIndex`] / [`Probe`] / [`IndexSet`]: the shared access-path
//!   layer — cached per-`(relation, column order)` trie indexes navigated
//!   by a zero-allocation narrowing cursor ([`Probe`] = an index plus a
//!   plain [`ProbeSnapshot`] position, the one cursor representation),
//!   keyed by content version so repeated executions, batches, and delta
//!   joins reuse them (the private `trie`, `cursor` and `cache` modules
//!   hold the layout, the cursor and the cache); a [`Finger`] is the one
//!   keyed lookup into such a trie, resumed from the last key's path
//!   instead of the root;
//! - [`UdfRegistry`]: user-defined functions backing unguarded FDs
//!   (Sec. 1.1 of the paper);
//! - [`Database`]: a named collection of relation instances.
//!
//! Values are plain `u64`s; the algorithms in `fdjoin-core` never allocate
//! per tuple — all per-tuple work is binary searches and slice writes into
//! reused buffers, per the perf-book guidance.

#![forbid(unsafe_code)]

mod cache;
mod cursor;
mod database;
mod finger;
mod relation;
mod stats;
mod trie;
mod udf;

pub use cache::{IndexKey, IndexKind, IndexSet, IndexSetStats};
pub use cursor::{Probe, ProbeSnapshot};
pub use database::{Database, MissingRelation};
pub use finger::{Finger, Found};
pub use relation::{DeltaApplied, Relation};
pub use stats::RelationStats;
pub use trie::{RowWalk, TrieIndex};
pub use udf::{UdfFn, UdfRegistry};

/// The value type stored in relations.
pub type Value = u64;
