//! The engine's view of the shared access-path layer.
//!
//! [`AccessPaths`] binds one execution's `(query, database)` pair to the
//! [`IndexSet`] cached on the `PreparedQuery`: algorithms ask it for trie
//! indexes instead of materializing [`fdjoin_storage::Relation::project`]
//! copies, and every acquisition is metered into [`Stats::index_builds`] /
//! [`Stats::index_hits`] so reuse is observable per run.
//!
//! Two key spaces cover everything the algorithms probe:
//!
//! - **base** indexes ([`AccessPaths::base`]) over database relations,
//!   keyed by the relation's globally unique
//!   [`fdjoin_storage::Relation::version`] — Expander guard lookups,
//!   Generic-Join atom tries, binary-join build sides and the tries SMA's
//!   and CSMA's final pass looks its inputs up in all live here;
//! - **expanded** indexes over the FD-expanded atom relations `R_j⁺` that
//!   chain/SMA/CSMA iterate, handed out by `Expander::input_trie` (the
//!   expander owns the relations they index) and keyed by every input of
//!   the expansion: a per-query token (expansion is query-dependent — two
//!   queries with different FDs expand the same relation differently, so
//!   their derived entries must never alias in the engine-wide cache), the
//!   atom's own version, every guard relation's version, and the
//!   UDF-registry version. A delta that touches one relation therefore
//!   invalidates only the expanded indexes whose derivation actually read
//!   it; everything else keeps hitting.

use crate::Stats;
use fdjoin_obs::{Observer, SpanKind};
use fdjoin_query::Query;
use fdjoin_storage::{Database, IndexKey, IndexSet, MissingRelation, Relation, TrieIndex};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Source of per-query expansion tokens (see [`AccessPaths::new`]).
static TOKEN_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Allocate a fresh expansion token — one per `PreparedQuery`, leading
/// every derived-index key so query-dependent expansions never alias
/// across queries sharing one engine-wide [`IndexSet`].
pub(crate) fn next_token() -> u64 {
    TOKEN_COUNTER.fetch_add(1, Ordering::Relaxed) + 1
}

/// Per-execution handle over the prepared query's [`IndexSet`].
///
/// Construction walks the query once to collect what each atom's expansion
/// reads; acquisitions afterwards are cache lookups plus (on a miss) a
/// single index build that every later execution, batch worker, and delta
/// join then shares.
pub struct AccessPaths<'a> {
    set: &'a IndexSet,
    query: &'a Query,
    /// Per atom, the versions its expansion reads (see module docs): the
    /// content stamp of its derived-index keys.
    atom_inputs: Vec<Arc<[u64]>>,
    /// Tracing handle: cache *misses* emit an `index_build` span (hits are
    /// deliberately silent — they are counted, not traced). Disabled by
    /// default; `PreparedQuery` attaches its engine's observer.
    obs: Observer,
}

impl<'a> AccessPaths<'a> {
    /// Bind `set` to one `(query, database)` execution under a fresh
    /// expansion token: derived indexes built through this handle are
    /// never served to another one, whatever query that one binds.
    pub fn new(
        set: &'a IndexSet,
        q: &'a Query,
        db: &Database,
    ) -> Result<AccessPaths<'a>, MissingRelation> {
        AccessPaths::with_token(set, q, db, next_token())
    }

    /// [`AccessPaths::new`] with an explicit per-query expansion token
    /// (what `PreparedQuery::execute` uses over the engine-wide cache).
    pub(crate) fn with_token(
        set: &'a IndexSet,
        q: &'a Query,
        db: &Database,
        query_token: u64,
    ) -> Result<AccessPaths<'a>, MissingRelation> {
        // Expansion reads the guard relation of every guarded FD plus the
        // UDF registry; collect those versions once.
        let mut guard_versions: Vec<u64> = Vec::new();
        for fd in q.fds.fds() {
            if let Some(j) = q.guard_of(fd) {
                guard_versions.push(db.relation(&q.atoms()[j].name)?.version());
            }
        }
        let udf_version = db.udfs.version();
        let mut atom_inputs = Vec::with_capacity(q.atoms().len());
        for a in q.atoms() {
            let head = [query_token, db.relation(&a.name)?.version()];
            let inputs = head.into_iter().chain(guard_versions.iter().copied());
            atom_inputs.push(inputs.chain([udf_version]).collect());
        }
        Ok(AccessPaths {
            set,
            query: q,
            atom_inputs,
            obs: Observer::disabled(),
        })
    }

    /// Attach an observer: every index *build* this handle performs from
    /// now on is traced as an `index_build` span keyed by relation, order,
    /// and content version.
    pub(crate) fn with_observer(mut self, obs: Observer) -> Self {
        self.obs = obs;
        self
    }

    /// The underlying cache (for observability).
    pub fn index_set(&self) -> &IndexSet {
        self.set
    }

    /// The trie index of database relation `name` (content `rel`) for
    /// `order`, built at most once per relation version.
    pub fn base(
        &self,
        name: &str,
        rel: &Relation,
        order: &[u32],
        stats: &mut Stats,
    ) -> Arc<TrieIndex> {
        let started = self.obs.is_enabled().then(Instant::now);
        let (ix, built) = self.set.index_of(name, rel, order);
        self.meter(built, stats);
        if built {
            self.trace_build(started, name, "base", rel.version(), order, ix.len());
        }
        ix
    }

    /// The trie index of atom `atom`'s *expanded* relation for `order`,
    /// keyed by what the atom's expansion reads — reused until a delta
    /// touches any of it. `build` runs on a miss only and must index the
    /// expansion of that atom over this handle's database
    /// (`Expander::input_trie` is the one caller).
    pub(crate) fn expanded(
        &self,
        atom: usize,
        order: &[u32],
        stats: &mut Stats,
        build: impl FnOnce() -> TrieIndex,
    ) -> Arc<TrieIndex> {
        let started = self.obs.is_enabled().then(Instant::now);
        let name = &self.query.atoms()[atom].name;
        let inputs = &self.atom_inputs[atom];
        let key = IndexKey::derived(name, Arc::clone(inputs), order.to_vec());
        let (ix, built) = self.set.get_or_build(key, build);
        self.meter(built, stats);
        if built {
            // `inputs[1]` is the atom relation's own version.
            self.trace_build(started, name, "derived", inputs[1], order, ix.len());
        }
        ix
    }

    /// Record one cache miss as a retroactive `index_build` span: the
    /// probe-first protocol means the span exists only when a trie was
    /// actually materialized, timed from before the cache lookup.
    fn trace_build(
        &self,
        started: Option<Instant>,
        name: &str,
        kind: &'static str,
        version: u64,
        order: &[u32],
        rows: usize,
    ) {
        let Some(started) = started else { return };
        let mut span = self
            .obs
            .span_started_at(SpanKind::IndexBuild, name, started);
        span.field("kind", kind);
        span.field("version", version);
        span.field("order", format!("{order:?}"));
        span.field("rows", rows);
    }

    fn meter(&self, built: bool, stats: &mut Stats) {
        if built {
            stats.index_builds += 1;
        } else {
            stats.index_hits += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::log_sizes_of;
    use crate::{csma, par::ParCtx};
    use fdjoin_instances::reference_join;

    /// CSMA over a handle made by [`AccessPaths::new`] on `set`.
    fn csma_through(set: &IndexSet, q: &Query, db: &Database) -> (Relation, Stats) {
        let paths = AccessPaths::new(set, q, db).unwrap();
        let pres = q.lattice_presentation();
        let (out, stats, _) = csma::execute(q, db, &pres, &paths, &ParCtx::sequential(), |lens| {
            csma::plan(q, &pres, &log_sizes_of(lens), &[])
        })
        .unwrap();
        (out, stats)
    }

    /// Two queries over the same three relations whose expansions read the
    /// same versions (guards `G` and `S`, no UDFs) but differ: `keyed`
    /// declares `x → y`, so its `R⁺` keeps one `y` per `x`; `wide` declares
    /// `y → x` and keeps every row. Bound one after the other to one
    /// `IndexSet`, the second must not be served the first's `R⁺` tries.
    #[test]
    fn handles_from_new_never_share_derived_tries() {
        let query = |g_lhs: u32, g_rhs: u32| {
            let mut b = Query::builder();
            let (x, y, z) = (b.var("x"), b.var("y"), b.var("z"));
            b.atom("G", &[x, y]).atom("R", &[x, y]).atom("S", &[y, z]);
            b.fd(&[g_lhs], &[g_rhs]).fd(&[y], &[z]);
            b.build()
        };
        let (keyed, wide) = (query(0, 1), query(1, 0));
        let mut db = Database::new();
        db.insert("G", Relation::from_rows(vec![0, 1], [[1, 10], [1, 11]]));
        db.insert("R", Relation::from_rows(vec![0, 1], [[1, 10], [1, 11]]));
        db.insert("S", Relation::from_rows(vec![1, 2], [[10, 5], [11, 6]]));

        let set = IndexSet::new();
        let (first, _) = csma_through(&set, &keyed, &db);
        // `G` violates `x → y`, which the reference evaluator refuses.
        let first_match = Relation::from_rows(vec![0, 1, 2], [[1, 10, 5]]);
        assert_eq!(
            first, first_match,
            "x → y read first-match: (1, 10, 5) only"
        );
        let (second, stats) = csma_through(&set, &wide, &db);
        assert_eq!(second, reference_join(&wide, &db));
        assert_eq!(second.len(), 2);
        // Only base indexes are shared: S's guard trie, in the order both
        // queries ask for, and the final pass's tries of G, R and S in
        // their stored orders (S's is its guard trie). Every derived trie
        // was built afresh.
        assert_eq!(stats.index_hits, 4);
    }
}
