//! Work counters threaded through all algorithms.
//!
//! Wall-clock measurements are noisy at laptop scale; the test suite
//! (`tests/paper_claims.rs`) and the `benchmark/` harness verify the
//! paper's *asymptotic shapes* (who wins, what the exponent is) with
//! deterministic work counters instead.

/// Operation counters. "Probes" are index lookups/binary searches; "scanned"
/// counts tuples materialized into intermediate or output relations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// Index probes (prefix searches, hash lookups, membership tests).
    pub probes: u64,
    /// Tuples written to intermediate/temporary relations.
    pub intermediate_tuples: u64,
    /// Tuples emitted to the final output (before dedup).
    pub output_tuples: u64,
    /// FD/UDF expansion applications.
    pub expansions: u64,
    /// Execution branches spawned (CSMA buckets, SMA heavy/light splits).
    pub branches: u64,
    /// Trie indexes built for this execution (access-path cache misses).
    pub index_builds: u64,
    /// Trie indexes served from the access-path cache
    /// (`fdjoin_storage::IndexSet`) instead of being rebuilt.
    pub index_hits: u64,
    /// Tuples delivered through a `fdjoin_stream::ResultStream` cursor
    /// (never bumped by materializing executions).
    pub rows_streamed: u64,
}

impl Stats {
    /// Total work measure used for exponent fitting: probes + tuples moved.
    /// Deliberately excludes the index build/hit counters, whose split
    /// depends on cache warmth, not on the query.
    pub fn work(&self) -> u64 {
        self.probes + self.intermediate_tuples + self.output_tuples + self.expansions
    }

    /// Total access-path index acquisitions. Unlike the build/hit split,
    /// this sum is a pure function of (query, database, options) — the
    /// right quantity to compare across reruns.
    pub fn index_gets(&self) -> u64 {
        self.index_builds + self.index_hits
    }

    /// This run's counters with the cache-warmth-dependent fields
    /// ([`Stats::index_builds`] / [`Stats::index_hits`]) zeroed: the part
    /// that is deterministic across re-executions of the same query on the
    /// same data, whatever the index cache already held.
    pub fn deterministic(&self) -> Stats {
        Stats {
            index_builds: 0,
            index_hits: 0,
            ..*self
        }
    }

    /// Merge counters from a sub-computation.
    pub fn merge(&mut self, other: &Stats) {
        self.probes += other.probes;
        self.intermediate_tuples += other.intermediate_tuples;
        self.output_tuples += other.output_tuples;
        self.expansions += other.expansions;
        self.branches += other.branches;
        self.index_builds += other.index_builds;
        self.index_hits += other.index_hits;
        self.rows_streamed += other.rows_streamed;
    }
}

impl std::fmt::Display for Stats {
    /// One line, most significant counters first; the streaming counter
    /// appears only when a cursor was actually involved. Used by the text
    /// span trees and EXPLAIN ANALYZE output of `fdjoin_obs`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "work={} probes={} intermediate={} output={} expansions={} branches={} \
             index={}b/{}h",
            self.work(),
            self.probes,
            self.intermediate_tuples,
            self.output_tuples,
            self.expansions,
            self.branches,
            self.index_builds,
            self.index_hits,
        )?;
        if self.rows_streamed > 0 {
            write!(f, " streamed={}", self.rows_streamed)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = Stats {
            probes: 1,
            intermediate_tuples: 2,
            output_tuples: 3,
            expansions: 4,
            branches: 5,
            index_builds: 6,
            index_hits: 7,
            rows_streamed: 8,
        };
        let b = Stats {
            probes: 10,
            intermediate_tuples: 20,
            output_tuples: 30,
            expansions: 40,
            branches: 50,
            index_builds: 60,
            index_hits: 70,
            rows_streamed: 80,
        };
        a.merge(&b);
        assert_eq!(a.probes, 11);
        assert_eq!(a.work(), 11 + 22 + 33 + 44);
        assert_eq!(a.branches, 55);
        assert_eq!(a.index_gets(), 66 + 77);
        assert_eq!(a.rows_streamed, 88);
        assert_eq!(a.deterministic().index_gets(), 0);
        assert_eq!(a.deterministic().work(), a.work());
        // Streaming counters are deterministic for a fixed driving pattern
        // (unlike the cache-warmth build/hit split) and survive the filter.
        assert_eq!(a.deterministic().rows_streamed, 88);
    }
}
