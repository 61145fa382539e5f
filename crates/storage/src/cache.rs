//! The index cache: [`IndexSet`], a concurrent (one `RwLock`) cache of
//! [`TrieIndex`]es keyed by [`IndexKey`] — relation name, content
//! [`Relation::version`], and column order.
//!
//! Because versions are globally unique content snapshots (see
//! [`Relation::version`]), a hit is always sound — across repeated
//! executions, batch drivers, worker threads, and delta batches — and a
//! version bump misses. A bump by [`Relation::apply_delta`] misses
//! cheaply: the successor's full-arity tries are carried from the
//! predecessor's resident ones, whose level arrays are edited in place
//! (touched root subtries re-pushed, untouched runs moved within the same
//! buffers), and replace them. Every other superseded version stops being
//! touched and ages out LRU-wise under a per-slot version cap and a total
//! **byte budget** ([`TrieIndex::heap_bytes`]-accounted, so eviction
//! pressure tracks actual resident memory, not entry counts). Build/hit
//! counters ([`IndexSet::stats`]) make reuse observable and testable.

use crate::{Relation, TrieIndex};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// The content snapshot an [`IndexKey`] is stamped with.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum IndexKind {
    /// A database relation, by its [`Relation::version`].
    Base(u64),
    /// A derived relation (e.g. an FD-expanded atom), by the versions of
    /// everything its derivation read, in an order the deriving layer
    /// fixes. Shared by refcount: one vector stamps every order of one
    /// derivation.
    Derived(Arc<[u64]>),
}

/// Cache key for one [`TrieIndex`]: which relation, which content, which
/// column order.
///
/// Soundness rests on [`Relation::version`] being a globally unique content
/// snapshot id: equal versions imply identical rows, so entries can be
/// shared across databases, clones, threads, and delta batches without
/// comparing data. An [`IndexKind::Derived`] key carries every version its
/// derivation read, so equal keys mean equal inputs by construction; the
/// two kinds are separate key spaces and never collide.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct IndexKey {
    /// Relation (or derivation source) name, for observability and
    /// stale-entry eviction.
    pub name: String,
    /// The content snapshot, base or derived.
    pub kind: IndexKind,
    /// The indexed column order.
    pub order: Vec<u32>,
}

impl IndexKey {
    /// Key for an index over a database relation.
    pub fn base(name: impl Into<String>, rel: &Relation, order: Vec<u32>) -> IndexKey {
        IndexKey {
            name: name.into(),
            kind: IndexKind::Base(rel.version()),
            order,
        }
    }

    /// Key for an index over a derived relation, stamped with the versions
    /// of everything the derivation read.
    pub fn derived(name: impl Into<String>, inputs: Arc<[u64]>, order: Vec<u32>) -> IndexKey {
        IndexKey {
            name: name.into(),
            kind: IndexKind::Derived(inputs),
            order,
        }
    }

    /// Whether `other` indexes the same `(name, base-or-derived, order)`
    /// slot at a different content snapshot — i.e. is a version sibling of
    /// `self`.
    fn sibling_of(&self, other: &IndexKey) -> bool {
        self.kind != other.kind
            && std::mem::discriminant(&self.kind) == std::mem::discriminant(&other.kind)
            && self.name == other.name
            && self.order == other.order
    }
}

/// Cumulative [`IndexSet`] counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IndexSetStats {
    /// Indexes built (cache misses that materialized a [`TrieIndex`],
    /// from scratch or derived from a predecessor).
    pub builds: u64,
    /// Lookups served from an already-built index.
    pub hits: u64,
    /// Entries aged out by the per-slot version cap or the byte budget. A
    /// predecessor replaced by the successor derived from it
    /// ([`IndexSet::index_of`]) is not counted.
    pub evictions: u64,
}

impl IndexSetStats {
    /// Counter-wise difference `self - earlier` (saturating), for metering
    /// one window of executions.
    pub fn since(&self, earlier: &IndexSetStats) -> IndexSetStats {
        IndexSetStats {
            builds: self.builds.saturating_sub(earlier.builds),
            hits: self.hits.saturating_sub(earlier.hits),
            evictions: self.evictions.saturating_sub(earlier.evictions),
        }
    }
}

/// How many content versions of one `(name, kind, order)` slot stay
/// resident. A delta-superseded version is dead and ages out under this
/// cap; several *live* versions (one `PreparedQuery` serving many
/// databases, as `fdjoin_exec` batches do) coexist below it without
/// thrashing.
const MAX_VERSIONS_PER_SLOT: usize = 16;

/// Resident-byte budget of one [`IndexSet`]. Eviction is accounted
/// in [`TrieIndex::heap_bytes`], so the bound tracks actual memory: many
/// small indexes coexist where few huge ones would thrash.
const DEFAULT_BYTE_BUDGET: usize = 256 << 20;

/// One cached index plus its last-used tick (LRU bookkeeping; updated with
/// a relaxed store under the *read* lock, so hits never serialize).
#[derive(Debug)]
struct Entry {
    ix: Arc<TrieIndex>,
    last_used: AtomicU64,
}

/// The resident entries plus their tracked byte total, so the budget
/// check on insert is O(1) rather than a walk of the map.
#[derive(Debug, Default)]
struct Resident {
    map: HashMap<IndexKey, Entry>,
    bytes: usize,
}

impl Resident {
    fn remove(&mut self, key: &IndexKey) -> Option<Arc<TrieIndex>> {
        let e = self.map.remove(key)?;
        self.bytes -= e.ix.heap_bytes();
        Some(e.ix)
    }

    fn lru_key(&self) -> Option<IndexKey> {
        self.map
            .iter()
            .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
            .map(|(k, _)| k.clone())
    }
}

/// A concurrent, self-invalidating cache of [`TrieIndex`]es.
///
/// `get_or_build` is the whole protocol: the read lock on the hit path,
/// and on a miss the build runs *outside* the lock (re-checked on insert,
/// so a racing duplicate build is possible but harmless — a build never
/// blocks a lookup). Version bumps invalidate by construction — the new
/// version is a different key, so it misses — and a relation fresh from
/// [`Relation::apply_delta`] takes the resident predecessor out of the
/// set and carries it, spliced in place, to the successor that replaces
/// it ([`IndexSet::index_of`]).
/// Other superseded versions age out LRU-wise under a per-slot version cap
/// (`MAX_VERSIONS_PER_SLOT`) and a total **byte budget**: the set tracks
/// the [`TrieIndex::heap_bytes`] of its residents and evicts
/// least-recently-used entries until a new index fits (a sole oversized
/// index is kept — eviction never empties the set just to admit it).
/// Evicted indexes rebuild on their next use; the budget is a memory
/// bound, never a correctness concern.
///
/// One `IndexSet` lives on each `fdjoin_core` `PreparedQuery` (shared
/// `Arc`-wise with batch executors and delta views); nothing stops a
/// caller from owning one directly next to a [`crate::Database`].
#[derive(Debug)]
pub struct IndexSet {
    resident: RwLock<Resident>,
    /// Resident-byte bound, in [`TrieIndex::heap_bytes`].
    byte_budget: usize,
    tick: AtomicU64,
    builds: AtomicU64,
    hits: AtomicU64,
    evictions: AtomicU64,
}

impl Default for IndexSet {
    fn default() -> IndexSet {
        IndexSet::new()
    }
}

impl IndexSet {
    /// An empty cache.
    pub fn new() -> IndexSet {
        IndexSet::with_byte_budget(DEFAULT_BYTE_BUDGET)
    }

    /// An empty cache bounding resident indexes to `total_bytes` of
    /// [`TrieIndex::heap_bytes`] (past a sole oversized index).
    fn with_byte_budget(total_bytes: usize) -> IndexSet {
        IndexSet {
            resident: RwLock::new(Resident::default()),
            byte_budget: total_bytes,
            tick: AtomicU64::new(0),
            builds: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn touch(&self, entry: &Entry) {
        entry
            .last_used
            .store(self.tick.fetch_add(1, Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Fetch the index for `key`, building it with `build` on a miss.
    /// Returns the index and whether this call built it (`true`) or hit
    /// the cache (`false`).
    ///
    /// The build runs *outside* the lock: a large sort never blocks other
    /// lookups. Two threads racing on the same cold key may both build;
    /// the first insert wins and the loser's copy is dropped (counted as a
    /// hit — indexes are pure functions of the key, so which copy survives
    /// is unobservable).
    pub fn get_or_build(
        &self,
        key: IndexKey,
        build: impl FnOnce() -> TrieIndex,
    ) -> (Arc<TrieIndex>, bool) {
        self.fetch(key, None, |_| build())
    }

    /// [`IndexSet::get_or_build`] whose miss may start from a predecessor:
    /// the resident base index of the same slot at content version `from`.
    /// The predecessor leaves the map under the write lock before `make`
    /// runs, and `make` receives it owned — unwrapped from its `Arc` when
    /// nobody else holds it, else a clone of it, so a reader holding the
    /// old version keeps its snapshot. The index `make` returns takes the
    /// predecessor's place: a successor is not a sibling, so the
    /// predecessor is neither left to age out nor counted as an eviction.
    /// A racing builder of the same successor finds no predecessor and
    /// builds from scratch; the first insert wins.
    fn fetch(
        &self,
        key: IndexKey,
        from: Option<u64>,
        make: impl FnOnce(Option<TrieIndex>) -> TrieIndex,
    ) -> (Arc<TrieIndex>, bool) {
        {
            let guard = self.resident.read().expect("index set lock poisoned");
            if let Some(hit) = guard.map.get(&key) {
                self.touch(hit);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return (Arc::clone(&hit.ix), false);
            }
        }
        let predecessor = from.and_then(|v| {
            let pred = IndexKey {
                kind: IndexKind::Base(v),
                ..key.clone()
            };
            let ix = self
                .resident
                .write()
                .expect("index set lock poisoned")
                .remove(&pred)?;
            Some(Arc::try_unwrap(ix).unwrap_or_else(|shared| TrieIndex::clone(&shared)))
        });
        let ix = Arc::new(make(predecessor));
        let mut guard = self.resident.write().expect("index set lock poisoned");
        if let Some(hit) = guard.map.get(&key) {
            // Raced with another builder; their copy wins, ours is dropped.
            self.touch(hit);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (Arc::clone(&hit.ix), false);
        }
        // Age out version siblings past the per-slot cap (superseded
        // versions stop being touched and are the ones that leave).
        let mut siblings: Vec<(IndexKey, u64)> = guard
            .map
            .iter()
            .filter(|(k, _)| key.sibling_of(k))
            .map(|(k, e)| (k.clone(), e.last_used.load(Ordering::Relaxed)))
            .collect();
        while siblings.len() + 1 > MAX_VERSIONS_PER_SLOT {
            let (pos, _) = siblings
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, t))| *t)
                .expect("nonempty sibling list");
            let (victim, _) = siblings.swap_remove(pos);
            guard.remove(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        // Enforce the byte budget: evict LRU until the new index fits, but
        // never clear the set entirely for an oversized one — a sole
        // too-big index is still worth keeping resident.
        let added = ix.heap_bytes();
        while guard.bytes + added > self.byte_budget && !guard.map.is_empty() {
            let victim = guard.lru_key().expect("nonempty resident map");
            guard.remove(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        self.builds.fetch_add(1, Ordering::Relaxed);
        guard.bytes += added;
        let entry = Entry {
            ix: Arc::clone(&ix),
            last_used: AtomicU64::new(self.tick.fetch_add(1, Ordering::Relaxed)),
        };
        guard.map.insert(key, entry);
        (ix, true)
    }

    /// Index database relation `rel` under `(name, rel.version(), order)`.
    ///
    /// On a miss for a full-arity order of a relation whose last mutation
    /// was a [`Relation::apply_delta`], the index is *carried* from the
    /// predecessor version's resident entry in the same order, which leaves
    /// the map first: `TrieIndex::apply_delta` splices the touched root
    /// groups into its level arrays in place (into a clone of them when a
    /// reader still holds the predecessor), reading the lineage's net rows
    /// as they are in the stored order and projected into any other, and
    /// the result, equal to [`TrieIndex::build`], replaces it. Projection
    /// orders, relations with no lineage, evicted predecessors and a racing
    /// builder that finds the predecessor already taken build from scratch.
    pub fn index_of(&self, name: &str, rel: &Relation, order: &[u32]) -> (Arc<TrieIndex>, bool) {
        let key = IndexKey::base(name, rel, order.to_vec());
        let lineage = rel.lineage().filter(|_| order.len() == rel.arity());
        self.fetch(key, lineage.map(|l| l.from), |pred| match (pred, lineage) {
            (Some(pred), Some(l)) => {
                pred.apply_delta(&in_order(&l.plus, order), &in_order(&l.minus, order))
            }
            _ => TrieIndex::build(rel, order),
        })
    }

    /// Number of resident indexes.
    pub fn len(&self) -> usize {
        self.resident
            .read()
            .expect("index set lock poisoned")
            .map
            .len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of resident base indexes for `name` at content `version`
    /// (any column order) — the access-path reuse an execution binding
    /// this relation version can expect before it runs. `fdjoin_core`'s
    /// EXPLAIN surfaces it per atom.
    pub fn cached_for(&self, name: &str, version: u64) -> usize {
        self.resident
            .read()
            .expect("index set lock poisoned")
            .map
            .keys()
            .filter(|k| k.kind == IndexKind::Base(version) && k.name == name)
            .count()
    }

    /// Cumulative build/hit/eviction counters.
    pub fn stats(&self) -> IndexSetStats {
        IndexSetStats {
            builds: self.builds.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Heap footprint of all resident indexes, in bytes — the tracked
    /// total, the same accounting the eviction budget uses.
    /// Recorded as the `index_resident_bytes` field of each `solve` span.
    pub fn memory_bytes(&self) -> usize {
        self.resident.read().expect("index set lock poisoned").bytes
    }
}

/// The rows of `rel` with their columns in `order`, sorted: `rel` itself
/// when it is stored so, else its projection.
fn in_order<'r>(rel: &'r Relation, order: &[u32]) -> Cow<'r, Relation> {
    if rel.is_stored_in(order) {
        Cow::Borrowed(rel)
    } else {
        Cow::Owned(rel.project(order))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trie::tests::rel;
    use crate::Value;

    #[test]
    fn index_set_caches_by_version() {
        let set = IndexSet::new();
        let mut r = rel();
        let (a, built) = set.index_of("R", &r, &[1, 0]);
        assert!(built);
        let (b, built) = set.index_of("R", &r, &[1, 0]);
        assert!(!built);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(set.stats().builds, 1);
        assert_eq!(set.stats().hits, 1);

        // A content change invalidates: the new version misses and builds.
        r.apply_delta([[7u64, 7, 7]], [] as [&[Value]; 0]);
        let (c, built) = set.index_of("R", &r, &[1, 0]);
        assert!(built);
        assert!(!Arc::ptr_eq(&a, &c));
        assert!(c.contains(&[7, 7]));
    }

    #[test]
    fn superseded_versions_age_out_under_slot_cap() {
        let set = IndexSet::new();
        let mut r = rel();
        for i in 0..40u64 {
            set.index_of("R", &r, &[1, 0]);
            r.apply_delta([[i + 100, i, i]], [] as [&[Value]; 0]);
        }
        assert!(set.stats().evictions > 0, "old versions aged out");
        assert!(
            set.len() <= 16,
            "per-slot cap bounds residency, got {}",
            set.len()
        );
        // Several *live* versions below the cap coexist without thrashing:
        // two databases' worth of the same relation name both stay warm.
        let set = IndexSet::new();
        let (r1, r2) = (rel(), rel()); // distinct versions, same name
        set.index_of("R", &r1, &[0, 1]);
        set.index_of("R", &r2, &[0, 1]);
        let (_, built1) = set.index_of("R", &r1, &[0, 1]);
        let (_, built2) = set.index_of("R", &r2, &[0, 1]);
        assert!(!built1 && !built2, "both versions resident");
        assert_eq!(set.stats().evictions, 0);
    }

    #[test]
    fn byte_budget_evicts_by_resident_bytes() {
        let mut r = Relation::from_rows(vec![0, 1], (0..512u64).map(|i| [i, i]));
        let per = TrieIndex::build(&r, &[0, 1]).heap_bytes();
        // Budget ≈ one such index: every new version evicts the previous
        // one, but the sole (slightly oversized) survivor stays.
        let set = IndexSet::with_byte_budget(per + 1);
        for i in 0..4u64 {
            set.index_of("R", &r, &[0, 1]);
            // An append, not a delta: a delta's successor would replace its
            // predecessor instead of competing with it for the budget.
            r.push_row(&[1000 + i, 1000 + i]);
        }
        assert_eq!(set.stats().builds, 4);
        assert!(
            set.stats().evictions >= 3,
            "byte budget evicted old versions"
        );
        assert_eq!(set.len(), 1, "one index fits the budget");
        let resident = set.memory_bytes();
        assert!(
            resident >= per && resident < 2 * per + 256,
            "tracked bytes follow the survivor"
        );
        // Eviction frees budget: the survivor still hits.
        let tracked_before = set.stats().hits;
        // (r moved past the last indexed version, so re-index the current one.)
        let (_, built) = set.index_of("R", &r, &[0, 1]);
        assert!(built);
        assert_eq!(
            set.len(),
            1,
            "previous survivor evicted to admit the new one"
        );
        assert_eq!(set.stats().hits, tracked_before);

        // The budget is a total, whatever the names: two indexes of `per`
        // bytes under "R" and "S" (names a hash-partitioned set would put
        // in different partitions) do not both fit in `per + 1`.
        let s = Relation::from_rows(vec![0, 1], (0..512u64).map(|i| [i, i]));
        let set = IndexSet::with_byte_budget(per + 1);
        set.index_of("R", &s, &[0, 1]);
        set.index_of("S", &s, &[0, 1]);
        assert!(set.memory_bytes() <= per + 1, "{}", set.memory_bytes());
        assert_eq!(set.len(), 1);
        assert_eq!(set.stats().evictions, 1);
    }

    #[test]
    fn index_set_derives_the_successor_from_its_predecessor() {
        let set = IndexSet::new();
        let mut r = Relation::from_rows(vec![0, 1], (0..64u64).map(|i| [i / 4, i]));
        let (before, _) = set.index_of("R", &r, &[1, 0]);
        let v0 = r.version();
        r.apply_delta([[3u64, 100], [99, 1]], [[0u64, 0]]);
        let evictions = set.stats().evictions;
        let (after, built) = set.index_of("R", &r, &[1, 0]);
        assert!(built, "a new version misses once");
        assert_eq!(*after, TrieIndex::build(&r, &[1, 0]));
        assert_ne!(*after, *before);
        assert_eq!(set.cached_for("R", v0), 0, "the predecessor is gone");
        assert_eq!(set.len(), 1, "replaced, not kept as a sibling");
        assert_eq!(
            set.stats().evictions,
            evictions,
            "a replacement is no eviction"
        );
        assert!(!set.index_of("R", &r, &[1, 0]).1, "the successor hits");
    }

    #[test]
    fn a_held_predecessor_keeps_its_snapshot() {
        let set = IndexSet::new();
        let mut r = Relation::from_rows(vec![0, 1], (0..64u64).map(|i| [i / 4, i]));
        let old = r.clone();
        let (held, _) = set.index_of("R", &r, &[1, 0]);
        r.apply_delta([[3u64, 100], [99, 1]], [[0u64, 0], [15, 63]]);
        let (after, built) = set.index_of("R", &r, &[1, 0]);
        assert!(built);
        assert_eq!(
            *held,
            TrieIndex::build(&old, &[1, 0]),
            "the reader's version is intact"
        );
        assert_eq!(*after, TrieIndex::build(&r, &[1, 0]));
        assert_eq!(set.len(), 1, "the clone replaced the predecessor");
    }

    #[test]
    fn evicted_predecessor_falls_back_to_a_build() {
        let mut r = Relation::from_rows(vec![0, 1], (0..512u64).map(|i| [i, i]));
        let per = TrieIndex::build(&r, &[0, 1]).heap_bytes();
        // Budget ≈ one such index: a sibling version evicts r's.
        let set = IndexSet::with_byte_budget(per + 1);
        set.index_of("R", &r, &[0, 1]);
        let v0 = r.version();
        let mut sibling = r.clone();
        sibling.push_row(&[1000, 1000]);
        set.index_of("R", &sibling, &[0, 1]);
        assert_eq!(set.cached_for("R", v0), 0, "predecessor evicted");
        r.apply_delta([[2000u64, 2000]], [[0u64, 0]]);
        assert_eq!(r.lineage().map(|l| l.from), Some(v0));
        let (ix, built) = set.index_of("R", &r, &[0, 1]);
        assert!(built);
        assert_eq!(*ix, TrieIndex::build(&r, &[0, 1]));
    }

    #[test]
    fn index_set_distinguishes_orders_and_kinds() {
        let set = IndexSet::new();
        let r = rel();
        set.index_of("R", &r, &[0, 1]);
        set.index_of("R", &r, &[1, 0]);
        let key = IndexKey::derived("R", [r.version()].into(), vec![0, 1]);
        set.get_or_build(key, || TrieIndex::build(&r, &[0, 1]));
        assert_eq!(set.len(), 3);
        assert_eq!(set.stats().builds, 3);
    }
}
