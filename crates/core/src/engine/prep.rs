//! Preparation-work accounting and the bounded plan map used by both the
//! per-query and the cross-query caches.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

/// Counters of data-independent preparation work actually performed by a
/// [`PreparedQuery`](super::PreparedQuery). Re-executing against the same
/// database must not grow them — that is the contract the engine's caching
/// provides (and the test suite asserts). When the engine carries a shared
/// [`PlanCache`](super::PlanCache), plans rehydrated from another
/// (isomorphic) query's work count as [`PrepStats::shared_hits`] instead of
/// solves.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrepStats {
    /// Lattice presentations computed (1 per `Engine::prepare`).
    pub lattice_presentations: u64,
    /// Canonical presentation fingerprints computed (1 per
    /// `Engine::prepare` when a shared plan cache is attached).
    pub fingerprints: u64,
    /// Best-chain searches over the candidate chain set.
    pub chain_searches: u64,
    /// Exact LLP solves.
    pub llp_solves: u64,
    /// Good-SM-proof searches.
    pub proof_searches: u64,
    /// Exact CLLP solves (including CSM sequence construction).
    pub cllp_solves: u64,
    /// Plans rehydrated from the shared cross-query [`PlanCache`]
    /// (a hit replaces the corresponding solve counter).
    ///
    /// [`PlanCache`]: super::PlanCache
    pub shared_hits: u64,
    /// Shared-cache lookups that missed (the plan was then solved locally
    /// and published for future isomorphic queries).
    pub shared_misses: u64,
    /// Trie indexes built by this query's access-path layer
    /// (`fdjoin_storage::IndexSet`) — a warmed query stops growing this.
    pub index_builds: u64,
    /// Access-path lookups served from an already-built trie index.
    pub index_hits: u64,
    /// Stale trie indexes evicted after a relation's content version moved
    /// on (e.g. an applied delta).
    pub index_evictions: u64,
    /// Access-path bindings handed out to streaming cursors
    /// ([`PreparedQuery::access_paths`](super::PreparedQuery::access_paths),
    /// the hook `fdjoin_stream::ResultStream` opens with). Together with
    /// [`PrepStats::index_builds`] / [`PrepStats::index_hits`] in a
    /// [`PrepStats::since`] window this makes warm and cold streaming runs
    /// comparable: a warm window grows `stream_cursors` and `index_hits`
    /// but not `index_builds`.
    pub stream_cursors: u64,
}

impl PrepStats {
    /// Total planning operations (presentations + solves; cache traffic is
    /// excluded).
    pub fn total(&self) -> u64 {
        self.lattice_presentations + self.solves()
    }

    /// Size-profile-dependent solves only: chain searches, LLP/CLLP solves,
    /// proof searches. Zero for a query whose every plan came from the
    /// shared cache.
    pub fn solves(&self) -> u64 {
        self.chain_searches + self.llp_solves + self.proof_searches + self.cllp_solves
    }

    /// Counter-wise difference `self - earlier` (saturating), for metering
    /// the planning work of one execution window: snapshot before, snapshot
    /// after, and `after.since(&before).solves() == 0` proves the window
    /// ran entirely from cached plans.
    pub fn since(&self, earlier: &PrepStats) -> PrepStats {
        PrepStats {
            lattice_presentations: self
                .lattice_presentations
                .saturating_sub(earlier.lattice_presentations),
            fingerprints: self.fingerprints.saturating_sub(earlier.fingerprints),
            chain_searches: self.chain_searches.saturating_sub(earlier.chain_searches),
            llp_solves: self.llp_solves.saturating_sub(earlier.llp_solves),
            proof_searches: self.proof_searches.saturating_sub(earlier.proof_searches),
            cllp_solves: self.cllp_solves.saturating_sub(earlier.cllp_solves),
            shared_hits: self.shared_hits.saturating_sub(earlier.shared_hits),
            shared_misses: self.shared_misses.saturating_sub(earlier.shared_misses),
            index_builds: self.index_builds.saturating_sub(earlier.index_builds),
            index_hits: self.index_hits.saturating_sub(earlier.index_hits),
            index_evictions: self.index_evictions.saturating_sub(earlier.index_evictions),
            stream_cursors: self.stream_cursors.saturating_sub(earlier.stream_cursors),
        }
    }
}

impl std::fmt::Display for PrepStats {
    /// One line: planning work, shared-cache traffic, access-path cache
    /// traffic, stream cursors. Used by EXPLAIN ANALYZE to show the
    /// planning cost of one execution window.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "presentations={} solves={} (chain={} llp={} proof={} cllp={}) shared={}h/{}m \
             index={}b/{}h/{}e cursors={}",
            self.lattice_presentations,
            self.solves(),
            self.chain_searches,
            self.llp_solves,
            self.proof_searches,
            self.cllp_solves,
            self.shared_hits,
            self.shared_misses,
            self.index_builds,
            self.index_hits,
            self.index_evictions,
            self.stream_cursors,
        )
    }
}

/// Lock-free interior-mutable counters behind [`PrepStats`]; snapshots are
/// taken with relaxed loads (counters are monotonic, not synchronizing).
#[derive(Debug, Default)]
pub(crate) struct PrepCounters {
    pub lattice_presentations: AtomicU64,
    pub fingerprints: AtomicU64,
    pub chain_searches: AtomicU64,
    pub llp_solves: AtomicU64,
    pub proof_searches: AtomicU64,
    pub cllp_solves: AtomicU64,
    pub shared_hits: AtomicU64,
    pub shared_misses: AtomicU64,
    pub stream_cursors: AtomicU64,
}

impl PrepCounters {
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> PrepStats {
        let ld = |c: &AtomicU64| c.load(Ordering::Relaxed);
        PrepStats {
            lattice_presentations: ld(&self.lattice_presentations),
            fingerprints: ld(&self.fingerprints),
            chain_searches: ld(&self.chain_searches),
            llp_solves: ld(&self.llp_solves),
            proof_searches: ld(&self.proof_searches),
            cllp_solves: ld(&self.cllp_solves),
            shared_hits: ld(&self.shared_hits),
            shared_misses: ld(&self.shared_misses),
            // Access-path counters live in the `IndexSet`, not here;
            // `PreparedQuery::prep_stats` fills them from its cache.
            index_builds: 0,
            index_hits: 0,
            index_evictions: 0,
            stream_cursors: ld(&self.stream_cursors),
        }
    }
}

/// Entry cap per plan map. Plans are pure functions of their key, so
/// capping is only a memory bound, never a correctness concern: a
/// long-lived server cycling through unboundedly many size profiles
/// replaces an arbitrary resident entry instead of growing without limit.
const MAX_PLANS: usize = 2048;

/// One `RwLock<HashMap>` bounded to [`MAX_PLANS`] entries: the map behind
/// every plan cache.
///
/// The read path (`get`) takes the read lock — concurrent `execute` calls
/// on warmed plans proceed in parallel. The write path
/// (`get_or_insert_with`) holds the write lock across the compute so a
/// plan is never double-computed or double-counted; planning is amortized
/// away, so misses are rare.
#[derive(Debug)]
pub(crate) struct PlanMap<K, V> {
    map: RwLock<HashMap<K, V>>,
}

impl<K: Hash + Eq + Clone, V: Clone> PlanMap<K, V> {
    pub fn new() -> PlanMap<K, V> {
        PlanMap {
            map: RwLock::new(HashMap::new()),
        }
    }

    /// Clone out the cached value, if present.
    pub fn get(&self, key: &K) -> Option<V> {
        self.map
            .read()
            .expect("plan map lock poisoned")
            .get(key)
            .cloned()
    }

    /// Get the cached value or compute-and-insert it under the write lock
    /// (re-checked, so `f` runs at most once per key across threads).
    pub(crate) fn get_or_insert_with<F: FnOnce() -> V>(&self, key: &K, f: F) -> V {
        let mut map = self.map.write().expect("plan map lock poisoned");
        if let Some(hit) = map.get(key) {
            return hit.clone();
        }
        let v = f();
        if map.len() >= MAX_PLANS {
            if let Some(victim) = map.keys().next().cloned() {
                map.remove(&victim);
            }
        }
        map.insert(key.clone(), v.clone());
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_plan_map_holds_its_cap_in_total() {
        let plans = PlanMap::new();
        for k in 0..=MAX_PLANS as u64 {
            assert_eq!(plans.get_or_insert_with(&k, || k * 2), k * 2);
        }
        assert_eq!(plans.map.read().unwrap().len(), MAX_PLANS);
    }
}
