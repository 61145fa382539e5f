//! The unified execution engine — the crate's front door.
//!
//! The paper's central message is that the *choice* of join algorithm is
//! itself bound-driven: the Chain Algorithm is optimal exactly when the
//! chain bound is tight (distributive lattices, Cor. 5.15, or condition
//! (15)), SMA needs a good SM-proof sequence (Def. 5.26), and CSMA covers
//! the general GLVV/CLLP case. This module packages that decision procedure
//! behind one API:
//!
//! - [`Algorithm`]: which algorithm to run ([`Algorithm::Auto`] lets the
//!   planner decide and records its choice — and *why* — as an
//!   [`AutoDecision`] on the result);
//! - [`ExecOptions`]: builder-style per-run options, absorbing the old
//!   per-algorithm option structs (degree bounds, FD-binding, variable and
//!   atom orders, chain overrides);
//! - [`JoinResult`] / [`JoinError`]: one result and one error type shared
//!   by every algorithm;
//! - [`Engine::prepare`] / [`PreparedQuery`]: split the data-independent
//!   preprocessing (lattice presentation; per-size-profile chain search,
//!   LLP solve, proof-sequence construction) from execution, so repeated
//!   executions reuse the plans. [`PreparedQuery::prep_stats`] counts the
//!   preparation work actually performed, making the reuse observable.
//! - [`PlanCache`]: an engine-level cache shared *across queries*, keyed by
//!   lattice-presentation isomorphism (canonical fingerprints). Attach one
//!   with [`Engine::with_plan_cache`] and preparing a query isomorphic to a
//!   previously served one rehydrates its chain/LLP/SM/CSM plans instead of
//!   recomputing them.
//!
//! Plan lookup is lock-striped end to end: each [`PreparedQuery`] keeps its
//! per-size-profile plans in sharded reader–writer maps, so concurrent
//! `execute` calls (e.g. `fdjoin_exec`'s batch driver) do not serialize on
//! the read path.
//!
//! Layout: `options.rs` holds the request/result vocabulary; `plan.rs`
//! the Auto rules (`choose`), the one plan key (`PlanKey`: a size profile
//! plus anything the caller pinned), the plan maps both cache tiers share
//! and the one cache protocol over them; `execute.rs` validation,
//! dispatch and execution metrics; `shared.rs` / `relabel.rs` the
//! cross-query tier; `prep.rs` the counters and the sharded map;
//! `explain.rs` EXPLAIN. This file keeps [`Engine`], [`PreparedQuery`] and
//! the free functions at the bottom ([`chain_join`], [`sma_join`], …),
//! thin shims kept for ergonomic one-shot calls.

mod execute;
mod explain;
mod options;
mod plan;
mod prep;
mod relabel;
mod shared;

pub use explain::{Explain, ExplainAnalysis};
pub use options::{
    Algorithm, AutoDecision, AutoReason, ExecOptions, JoinError, JoinResult, Parallelism,
    PlanDetail, UserDegreeBound,
};
pub use prep::PrepStats;
pub use shared::{PlanCache, PlanCacheStats};

#[cfg(test)]
pub(crate) use plan::log_sizes_of;
use plan::{PlanKey, Plans};
use prep::PrepCounters;
use shared::SharedHandle;

use crate::cost::JoinEstimate;
use crate::AccessPaths;
use fdjoin_obs::{Observer, SpanKind};
use fdjoin_query::{LatticePresentation, Query};
use fdjoin_storage::{Database, IndexSet};
use std::cell::OnceCell;
use std::sync::Arc;
use std::time::Instant;

/// The engine: the single entry point for executing join queries.
///
/// An engine is cheap to create and clone. By default it is stateless;
/// [`Engine::with_plan_cache`] attaches a shared cross-query [`PlanCache`]
/// so that serving traffic for many isomorphic queries amortizes planning.
#[derive(Clone, Debug)]
pub struct Engine {
    shared: Option<Arc<PlanCache>>,
    /// The engine-wide access-path cache: every `PreparedQuery` this
    /// engine prepares shares it, so two queries probing the same
    /// relation version reuse each other's base trie indexes (sound
    /// because `Relation::version` is a globally unique content snapshot;
    /// query-dependent derived indexes are disambiguated by a per-query
    /// token leading their keys).
    indexes: Arc<IndexSet>,
    /// The observability handle ([`fdjoin_obs::Observer`]), disabled by
    /// default and inherited by every `PreparedQuery`. Attach one with
    /// [`Engine::observe`].
    obs: Observer,
}

impl Default for Engine {
    fn default() -> Engine {
        Engine::new()
    }
}

impl Engine {
    /// Create an engine with no cross-query plan cache (a fresh engine
    /// still carries its own shared access-path cache).
    pub fn new() -> Engine {
        Engine {
            shared: None,
            indexes: Arc::new(IndexSet::new()),
            obs: Observer::disabled(),
        }
    }

    /// Create an engine whose prepared queries publish to — and rehydrate
    /// from — the given shared plan cache. Clone the `Arc` to share one
    /// cache among any number of engines and threads.
    pub fn with_plan_cache(cache: Arc<PlanCache>) -> Engine {
        Engine {
            shared: Some(cache),
            ..Engine::new()
        }
    }

    /// Attach an [`Observer`]: every query prepared from now on emits
    /// `prepare`/`solve`/`index_build` spans and registry metrics through
    /// it. Pass the *same* observer to an `fdjoin_exec::Executor` (and
    /// thereby to streams and delta views) to get one coherent span tree
    /// per submission. The default (disabled) observer costs one branch
    /// per emit point and records nothing.
    pub fn observe(mut self, obs: Observer) -> Engine {
        self.obs = obs;
        self
    }

    /// The engine's observability handle (disabled unless
    /// [`Engine::observe`] attached one).
    pub fn observer(&self) -> &Observer {
        &self.obs
    }

    /// The attached cross-query plan cache, if any.
    pub fn plan_cache(&self) -> Option<&Arc<PlanCache>> {
        self.shared.as_ref()
    }

    /// The engine-wide access-path cache (shared by every prepared query).
    pub fn index_set(&self) -> &Arc<IndexSet> {
        &self.indexes
    }

    /// Compute the data-independent preprocessing for `q` — the lattice
    /// presentation, plus (when a shared [`PlanCache`] is attached) its
    /// canonical fingerprint — and return a handle that caches all further
    /// (size-profile-dependent) planning across executions.
    pub fn prepare(&self, q: &Query) -> PreparedQuery {
        let started = Instant::now();
        let mut span = self.obs.span(SpanKind::Prepare, query_label(q));
        let pres = q.lattice_presentation();
        let counters = PrepCounters::default();
        PrepCounters::bump(&counters.lattice_presentations);
        let shared = self.shared.as_ref().map(|cache| {
            PrepCounters::bump(&counters.fingerprints);
            let fp = fdjoin_lattice::canonical_fingerprint(&pres.lattice, &pres.inputs);
            SharedHandle::new(cache.shape(&fp), &fp, &pres.inputs)
        });
        if self.obs.is_enabled() {
            span.field("atoms", q.atoms().len());
            span.field("vars", q.n_vars());
            span.field("fds", q.fds.fds().len());
            span.field("lattice_elems", pres.lattice.len());
            span.field("shared_cache", shared.is_some());
            let m = self.obs.metrics();
            m.add("fdjoin_prepares_total", &[], 1);
            m.observe(
                "fdjoin_prepare_latency_ns",
                &[],
                started.elapsed().as_nanos() as u64,
            );
        }
        PreparedQuery {
            query: q.clone(),
            pres,
            counters,
            local: Plans::default(),
            shared,
            indexes: Arc::clone(&self.indexes),
            baseline: self.indexes.stats(),
            token: crate::access::next_token(),
            obs: self.obs.clone(),
        }
    }

    /// One-shot convenience: prepare and execute.
    pub fn execute(
        &self,
        q: &Query,
        db: &Database,
        opts: &ExecOptions,
    ) -> Result<JoinResult, JoinError> {
        self.prepare(q).execute(db, opts)
    }
}

/// A query with its preprocessing done once and its per-size-profile plans
/// (chain bounds, LLP solutions, proof sequences) cached across executions.
///
/// `PreparedQuery` is `Send + Sync`: plans live in sharded reader–writer
/// maps and the preparation counters are atomics, so one prepared query can
/// serve concurrent `execute` calls (see `fdjoin_exec` for the batch
/// driver) without serializing on plan lookup.
///
/// ```
/// use fdjoin_core::{Engine, ExecOptions};
/// use fdjoin_storage::{Database, Relation};
///
/// let q = fdjoin_query::examples::triangle();
/// let mut db = Database::new();
/// db.insert("R", Relation::from_rows(vec![0, 1], [[1, 2]]));
/// db.insert("S", Relation::from_rows(vec![1, 2], [[2, 3]]));
/// db.insert("T", Relation::from_rows(vec![2, 0], [[3, 1]]));
///
/// let prepared = Engine::new().prepare(&q);
/// let first = prepared.execute(&db, &ExecOptions::new()).unwrap();
/// let after_first = prepared.prep_stats();
/// let second = prepared.execute(&db, &ExecOptions::new()).unwrap();
/// assert_eq!(first.output, second.output);
/// // The second run reused every cached plan and every cached trie index:
/// let window = prepared.prep_stats().since(&after_first);
/// assert_eq!(window.solves(), 0);
/// assert_eq!(window.index_builds, 0);
/// assert!(window.index_hits > 0);
/// ```
pub struct PreparedQuery {
    query: Query,
    pres: LatticePresentation,
    counters: PrepCounters,
    local: Plans<PlanKey>,
    shared: Option<SharedHandle>,
    /// The engine-wide access-path cache: trie indexes per `(relation
    /// version, column order)`, shared by every execution (and batch
    /// worker, and delta join) of every query the engine prepared.
    indexes: Arc<IndexSet>,
    /// Cache counters at prepare time, so this query's `PrepStats` report
    /// only its own window of the shared cache's activity.
    baseline: fdjoin_storage::IndexSetStats,
    /// Unique expansion token leading every derived-index key, so
    /// query-dependent expansions never alias across queries sharing the
    /// engine-wide cache.
    token: u64,
    /// The preparing engine's observability handle: executions emit
    /// `solve`/`index_build` spans and per-execution metrics through it.
    obs: Observer,
}

impl PreparedQuery {
    /// The prepared query.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The lattice presentation `(L, R)`, computed once at prepare time.
    pub fn presentation(&self) -> &LatticePresentation {
        &self.pres
    }

    /// Counters of preparation work performed so far, including the
    /// access-path layer's index build/hit/eviction counts since this
    /// query was prepared. The index cache is engine-wide: the window
    /// starts at prepare time so sibling queries' *earlier* traffic is
    /// excluded, but traffic they generate concurrently afterwards still
    /// counts (the counters are cache-wide, and shared builds genuinely
    /// are this query's hits).
    pub fn prep_stats(&self) -> PrepStats {
        let mut s = self.counters.snapshot();
        let ix = self.indexes.stats().since(&self.baseline);
        s.index_builds = ix.builds;
        s.index_hits = ix.hits;
        s.index_evictions = ix.evictions;
        s
    }

    /// The access-path cache backing this query's executions: trie indexes
    /// keyed by `(relation name, content version, column order)`, shared
    /// engine-wide across queries, repeated executions, `execute_batch`
    /// workers, and delta joins. Exposed for observability (entry count,
    /// memory, [`fdjoin_storage::IndexSetStats`]).
    pub fn index_set(&self) -> &Arc<IndexSet> {
        &self.indexes
    }

    /// The observability handle inherited from the preparing engine
    /// (disabled unless [`Engine::observe`] attached one). Downstream
    /// layers — `fdjoin_stream` cursors, `fdjoin_delta` views — emit their
    /// spans and metrics through this same handle, which is what makes one
    /// submission's spans a single tree.
    pub fn observer(&self) -> &Observer {
        &self.obs
    }

    /// Bind this prepared query to `db`'s content versions and hand out its
    /// access-path view — the hook `fdjoin_stream::ResultStream` opens a
    /// cursor through. The returned [`AccessPaths`] shares the engine-wide
    /// trie-index cache, so a stream abandoned mid-flight leaves every trie
    /// it built behind for the next cursor (observable as
    /// [`PrepStats::index_builds`] staying flat across a
    /// [`PrepStats::since`] window while [`PrepStats::stream_cursors`]
    /// grows).
    pub fn access_paths<'q>(&'q self, db: &Database) -> Result<AccessPaths<'q>, JoinError> {
        self.size_profile(db)?;
        PrepCounters::bump(&self.counters.stream_cursors);
        Ok(
            AccessPaths::with_token(&self.indexes, &self.query, db, self.token)?
                .with_observer(self.obs.clone()),
        )
    }

    /// The data-dependent branch estimate of this query over `db`, from the
    /// measured per-relation degree statistics
    /// ([`fdjoin_storage::RelationStats`]) — the quantity
    /// [`Algorithm::Auto`]'s tie-break weighs against the worst-case
    /// bounds, exposed for serving-layer observability and admission
    /// decisions. Unlike the plans, estimates depend on the data (not just
    /// the size profile) and are recomputed per call; they cost one pass
    /// over the query's variables, not over the data.
    pub fn estimate(&self, db: &Database) -> Result<JoinEstimate, JoinError> {
        Ok(crate::cost::estimate_join(&self.query, db)?)
    }

    /// The raw size profile of this query's atoms in `db` — the sizes in
    /// the `PlanKey` that chain/LLP/SMA plans are cached under (CSMA keys
    /// carry the expanded sizes). Two databases with the same profile
    /// execute from the same cached plans; a profile drift (e.g. from
    /// applied deltas) costs a per-profile re-plan but never touches the
    /// shared [`PlanCache`] shape entry, which is keyed by presentation
    /// isomorphism alone.
    ///
    /// This is also the up-front validation every entry point shares
    /// (execution, [`PreparedQuery::access_paths`] and hence result
    /// streams, EXPLAIN): a missing relation is
    /// [`JoinError::MissingRelation`], and a relation stored over other
    /// variables than its atom's is [`JoinError::SchemaMismatch`].
    pub fn size_profile(&self, db: &Database) -> Result<Vec<u64>, JoinError> {
        self.query
            .atoms()
            .iter()
            .map(|a| {
                let rel = db.relation(&a.name)?;
                if rel.var_set() != a.var_set() {
                    return Err(JoinError::SchemaMismatch {
                        relation: a.name.clone(),
                        atom_vars: a.vars.clone(),
                        relation_vars: rel.vars().to_vec(),
                    });
                }
                Ok(rel.len() as u64)
            })
            .collect()
    }

    /// Execute against a database. Plans for previously seen size profiles
    /// are reused; see [`PrepStats`].
    pub fn execute(&self, db: &Database, opts: &ExecOptions) -> Result<JoinResult, JoinError> {
        self.execute_with(db, opts, &self.obs)
    }
}

/// One execute's (or EXPLAIN's) [`PreparedQuery::estimate`], computed on
/// first read and shared by every reader of that request: the Auto
/// tie-break, [`Parallelism::Auto`] and the calibration metric. The
/// estimate is a pure function of `(query, database)`, so reading it once
/// decides exactly what reading it per reader would.
struct LazyEstimate<'a> {
    prepared: &'a PreparedQuery,
    db: &'a Database,
    value: OnceCell<Result<JoinEstimate, JoinError>>,
}

impl<'a> LazyEstimate<'a> {
    fn new(prepared: &'a PreparedQuery, db: &'a Database) -> LazyEstimate<'a> {
        LazyEstimate {
            prepared,
            db,
            value: OnceCell::new(),
        }
    }

    fn get(&self) -> Result<&JoinEstimate, &JoinError> {
        self.value
            .get_or_init(|| self.prepared.estimate(self.db))
            .as_ref()
    }
}

// `PreparedQuery` is shared by reference across `fdjoin_exec`'s worker
// threads; keep the auto-traits load-bearing and compiler-checked.
#[allow(dead_code)]
fn assert_thread_safe() {
    fn check<T: Send + Sync>() {}
    check::<Engine>();
    check::<PreparedQuery>();
    check::<PlanCache>();
    check::<JoinResult>();
}

/// The human span label for a query: its atom names in body order.
fn query_label(q: &Query) -> String {
    q.atoms()
        .iter()
        .map(|a| a.name.as_str())
        .collect::<Vec<_>>()
        .join("⋈")
}

// ---------------------------------------------------------------------------
// Free-function shims: ergonomic one-shot calls over the engine.
// ---------------------------------------------------------------------------

fn run(q: &Query, db: &Database, algorithm: Algorithm) -> Result<JoinResult, JoinError> {
    Engine::new().execute(q, db, &ExecOptions::new().algorithm(algorithm))
}

/// Run the Chain Algorithm with an automatically selected chain (the best
/// over all maximal chains plus the Corollary 5.9/5.11 constructions).
pub fn chain_join(q: &Query, db: &Database) -> Result<JoinResult, JoinError> {
    run(q, db, Algorithm::Chain)
}

/// Ablation A1: like [`chain_join`] but *without* the per-tuple `argmin`
/// relation choice — always iterates the first covering relation. This is
/// the "crucial fact" of Sec. 5.1 turned off; Theorem 5.7's accounting
/// breaks and the runtime can degrade to the worse relation's degree.
pub fn chain_join_no_argmin(q: &Query, db: &Database) -> Result<JoinResult, JoinError> {
    run(q, db, Algorithm::ChainNoArgmin)
}

/// Run SMA end to end.
pub fn sma_join(q: &Query, db: &Database) -> Result<JoinResult, JoinError> {
    run(q, db, Algorithm::Sma)
}

/// Run CSMA with cardinality constraints only (degree bounds go through
/// [`ExecOptions::degree_bounds`]).
pub fn csma_join(q: &Query, db: &Database) -> Result<JoinResult, JoinError> {
    run(q, db, Algorithm::Csma)
}

/// Evaluate with Generic-Join (options go through [`ExecOptions`]).
pub fn generic_join(q: &Query, db: &Database) -> Result<JoinResult, JoinError> {
    run(q, db, Algorithm::GenericJoin)
}

/// Evaluate with left-deep binary hash joins in body order (custom orders
/// go through [`ExecOptions::atom_order`]).
pub fn binary_join(q: &Query, db: &Database) -> Result<JoinResult, JoinError> {
    run(q, db, Algorithm::BinaryJoin)
}

/// Evaluate naively (the correctness oracle).
pub fn naive_join(q: &Query, db: &Database) -> Result<JoinResult, JoinError> {
    run(q, db, Algorithm::Naive)
}
