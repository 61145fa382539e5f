//! Per-relation degree/skew statistics, computed from the data on demand.
//!
//! The source paper's central lever over cardinality-only (AGM/GLVV) bounds
//! is *degree* information: how many tuples share a prefix, how many
//! distinct extensions a prefix has. [`RelationStats`] measures exactly
//! those quantities on the stored data, per prefix length of the relation's
//! sort order (the trie depths the execution engines actually navigate):
//!
//! - `distinct_prefixes(len)` — distinct length-`len` prefixes (trie nodes
//!   at depth `len`);
//! - `max_degree(len)` / `avg_degree(len)` — rows per distinct prefix, the
//!   measured analogue of a declared degree bound;
//! - `max_branch(from)` — distinct `(from+1)`-prefixes per `from`-prefix,
//!   i.e. the trie fan-out at depth `from`: the branch counts a join's
//!   variable-binding loop will actually see;
//! - `skew(len)` — `max_degree / avg_degree`, 1.0 for perfectly uniform
//!   data.
//!
//! `fdjoin_core::cost` prices a join from `distinct_prefixes` (the average
//! fan-out) and `max_branch` (the worst one).
//!
//! Statistics are *exact*, not sampled, and *lazy*:
//! [`Relation::stats`](crate::Relation::stats) computes them in one pass
//! ([`RelationStats::of`]) the first time a sorted relation is asked and
//! caches them, so relations nobody plans from (intermediates, join
//! outputs) never pay for them. A cached set follows
//! [`Relation::apply_delta`](crate::Relation::apply_delta) to the next
//! version: only the prefix groups the delta touched are recounted. Their
//! sizes are read just before and just after the rows are spliced, by
//! galloping outward from the edit positions (`TouchedGroups`), so a group
//! costs compares in the logarithm of its own size, not of the relation's.
//! Per-level counts of the groups sitting at each maximum keep a shrinking
//! maximum exact — only when every group at a maximum was touched and all
//! of them shrank does the next read recompute from scratch. Every other
//! mutation drops the cache. Either way they never drift from the rows: the
//! differential property tests in `tests/proptest_stats.rs` assert carried
//! statistics `==` [`RelationStats::of`] under random insert/delete
//! sequences, skewed ones included.

use crate::{Relation, Value};

/// Exact degree/skew statistics of one sorted, deduplicated relation.
///
/// All quantities are per *prefix length* in the relation's column (sort)
/// order — the orders the engines bind variables in. Lengths are `1..=arity`
/// for degree/distinct queries and `0..arity` for branch queries (branching
/// *from* a depth).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RelationStats {
    cardinality: u64,
    /// `distinct[k]` = number of distinct `(k+1)`-prefixes.
    distinct: Vec<u64>,
    /// `max_degree[k]` = max rows sharing one `(k+1)`-prefix.
    max_degree: Vec<u64>,
    /// `max_branch[k]` = max distinct `(k+1)`-prefixes within one
    /// `k`-prefix group (`k = 0` means the whole relation).
    max_branch: Vec<u64>,
    /// `at_max_degree[k]` = number of `(k+1)`-prefix groups whose degree
    /// is `max_degree[k]` — what lets a delta shrink one of them exactly.
    at_max_degree: Vec<u64>,
    /// `at_max_branch[k]` = number of `k`-prefix groups whose fan-out is
    /// `max_branch[k]`.
    at_max_branch: Vec<u64>,
}

impl RelationStats {
    /// Compute from scratch over a sorted + deduplicated relation: one
    /// pass, no allocation per row. Normal callers read the cached
    /// [`Relation::stats`](crate::Relation::stats) instead.
    ///
    /// # Panics
    ///
    /// Panics if the relation is not sorted ([`Relation::is_sorted`]).
    ///
    /// [`Relation::is_sorted`]: crate::Relation::is_sorted
    pub fn of(rel: &Relation) -> RelationStats {
        assert!(
            rel.is_sorted(),
            "RelationStats::of requires a sorted relation"
        );
        let mut acc = StatsAcc::new(rel.arity());
        for row in rel.rows() {
            acc.push(row);
        }
        acc.finish()
    }

    /// These statistics carried across a delta, from the sizes of the
    /// prefix groups its rows touched before and after it was applied
    /// ([`TouchedGroups::of`] over the same touched rows). Only those
    /// groups were recounted; every other group kept its size. `None` when
    /// some level's maximum cannot be known without a scan: every group at
    /// it was touched and all of them shrank.
    pub(crate) fn carried(
        &self,
        before: &TouchedGroups,
        after: &TouchedGroups,
    ) -> Option<RelationStats> {
        let mut s = self.clone();
        s.cardinality = after.rows;
        let mut changes: Vec<(u64, u64)> = Vec::new();
        for k in 0..self.arity() {
            // Degree: the touched (k+1)-prefix groups, before and after.
            changes.clear();
            changes.extend(
                before.degree[k]
                    .iter()
                    .copied()
                    .zip(after.degree[k].iter().copied()),
            );
            let born = changes.iter().filter(|c| c.0 == 0).count() as u64;
            let gone = changes.iter().filter(|c| c.1 == 0).count() as u64;
            s.distinct[k] = s.distinct[k] + born - gone;
            carry_max(&mut s.max_degree[k], &mut s.at_max_degree[k], &changes)?;
            // Fan-out from depth k: the root's is the distinct count just
            // carried; deeper, the touched k-prefix groups.
            if k == 0 {
                s.max_branch[0] = s.distinct[0];
                s.at_max_branch[0] = u64::from(s.cardinality > 0);
            } else {
                changes.clear();
                changes.extend(
                    before.branch[k - 1]
                        .iter()
                        .copied()
                        .zip(after.branch[k - 1].iter().copied()),
                );
                carry_max(&mut s.max_branch[k], &mut s.at_max_branch[k], &changes)?;
            }
        }
        Some(s)
    }

    /// Number of rows.
    pub fn cardinality(&self) -> u64 {
        self.cardinality
    }

    /// Arity of the relation these statistics describe.
    pub fn arity(&self) -> usize {
        self.distinct.len()
    }

    /// Number of distinct prefixes of length `len` (`0 ≤ len ≤ arity`).
    /// `len == 0` is the root: 1 for a non-empty relation, else 0.
    pub fn distinct_prefixes(&self, len: usize) -> u64 {
        if len == 0 {
            return (self.cardinality > 0) as u64;
        }
        self.distinct[len - 1]
    }

    /// Maximum number of rows sharing one prefix of length `len`
    /// (`0 ≤ len ≤ arity`; `len == 0` is the whole relation).
    pub fn max_degree(&self, len: usize) -> u64 {
        if len == 0 {
            return self.cardinality;
        }
        self.max_degree[len - 1]
    }

    /// Mean number of rows per distinct prefix of length `len`
    /// (`cardinality / distinct`); 0.0 for an empty relation.
    pub(crate) fn avg_degree(&self, len: usize) -> f64 {
        let d = self.distinct_prefixes(len);
        if d == 0 {
            0.0
        } else {
            self.cardinality as f64 / d as f64
        }
    }

    /// Maximum trie fan-out from depth `from` to depth `from + 1`
    /// (`0 ≤ from < arity`): the largest number of distinct
    /// `(from+1)`-prefixes below one `from`-prefix.
    pub fn max_branch(&self, from: usize) -> u64 {
        self.max_branch[from]
    }

    /// Skew of the degree distribution at prefix length `len`:
    /// `max_degree / avg_degree`. 1.0 means perfectly uniform (every prefix
    /// has the same number of rows); large values mean a few heavy prefixes
    /// dominate. Returns 1.0 for empty relations and `len == 0`.
    pub fn skew(&self, len: usize) -> f64 {
        let avg = self.avg_degree(len);
        if avg == 0.0 {
            1.0
        } else {
            self.max_degree(len) as f64 / avg
        }
    }

    /// The worst skew over all proper prefix lengths (`1..arity`); 1.0 for
    /// relations of arity ≤ 1 or empty relations.
    pub fn max_skew(&self) -> f64 {
        (1..self.arity())
            .map(|len| self.skew(len))
            .fold(1.0, f64::max)
    }
}

/// The sizes of the prefix groups a delta's rows fall in, read from one
/// version of the relation: what [`RelationStats::carried`] compares
/// before and after the delta is spliced in. Each group is found by
/// galloping outward from the position of the first touched row inside
/// it.
#[derive(Debug)]
pub(crate) struct TouchedGroups {
    /// Rows in the relation.
    rows: u64,
    /// `degree[k]` — rows in each distinct `(k+1)`-prefix of the touched
    /// rows, in order (0 for a group not present).
    degree: Vec<Vec<u64>>,
    /// `branch[k - 1]` — distinct `(k+1)`-prefixes below each distinct
    /// `k`-prefix of the touched rows (`1 ≤ k < arity`).
    branch: Vec<Vec<u64>>,
}

impl TouchedGroups {
    /// Measure the groups of `touched` (ascending rows) in `rel`, where
    /// `at[i]` is the position row `touched[i]` holds or would hold in
    /// `rel` (the position its edit took). The sizes are exact whatever
    /// the positions; positions in or next to the groups make them cheap.
    pub(crate) fn of(rel: &Relation, touched: &[&[Value]], at: &[usize]) -> TouchedGroups {
        debug_assert_eq!(touched.len(), at.len());
        let a = rel.arity();
        let mut degree = vec![Vec::new(); a];
        let mut branch = vec![Vec::new(); a.saturating_sub(1)];
        for len in 1..=a {
            for (i, prefix) in distinct_prefixes(touched, len) {
                let group = rel.prefix_range_near(prefix, at[i]);
                degree[len - 1].push(group.len() as u64);
                if len < a {
                    branch[len - 1].push(rel.branches(group, len + 1) as u64);
                }
            }
        }
        TouchedGroups {
            rows: rel.len() as u64,
            degree,
            branch,
        }
    }
}

/// The distinct length-`len` prefixes of ascending `rows`, in order, each
/// with the index of the first row that has it.
fn distinct_prefixes<'r>(
    rows: &'r [&[Value]],
    len: usize,
) -> impl Iterator<Item = (usize, &'r [Value])> {
    let mut last: Option<&[Value]> = None;
    rows.iter().enumerate().filter_map(move |(i, row)| {
        let p = &row[..len];
        (last != Some(p)).then(|| {
            last = Some(p);
            (i, p)
        })
    })
}

/// Move one level's maximum and its at-max group count across a delta,
/// given each touched group's `(before, after)` size (0 = no such group).
/// Untouched groups keep their sizes, so the new maximum is exact unless
/// every group at the old one was touched and all of them fell below it.
fn carry_max(max: &mut u64, at_max: &mut u64, changes: &[(u64, u64)]) -> Option<()> {
    let left = changes.iter().filter(|c| c.0 > 0 && c.0 == *max).count() as u64;
    let kept = *at_max - left;
    let top = changes.iter().map(|c| c.1).max().unwrap_or(0);
    let at_top = changes.iter().filter(|c| c.1 > 0 && c.1 == top).count() as u64;
    if top > *max {
        (*max, *at_max) = (top, at_top);
    } else if top == *max {
        *at_max = kept + at_top;
    } else if kept > 0 {
        *at_max = kept;
    } else {
        return None;
    }
    Some(())
}

/// Record one closed group of size `v` against a level's running maximum.
fn bump(max: &mut u64, at_max: &mut u64, v: u64) {
    if v > *max {
        (*max, *at_max) = (v, 1);
    } else if v == *max {
        *at_max += 1;
    }
}

/// Streaming accumulator behind [`RelationStats::of`]: feed rows in
/// strictly increasing order (sorted, deduplicated) and `finish`.
#[derive(Debug)]
struct StatsAcc {
    arity: usize,
    n: u64,
    last: Vec<Value>,
    /// Rows in the currently open `(k+1)`-prefix group.
    run: Vec<u64>,
    /// Distinct `(k+1)`-prefixes in the currently open `k`-prefix group.
    kids: Vec<u64>,
    distinct: Vec<u64>,
    max_degree: Vec<u64>,
    max_branch: Vec<u64>,
    at_max_degree: Vec<u64>,
    at_max_branch: Vec<u64>,
}

impl StatsAcc {
    fn new(arity: usize) -> StatsAcc {
        StatsAcc {
            arity,
            n: 0,
            last: Vec::with_capacity(arity),
            run: vec![0; arity],
            kids: vec![0; arity],
            distinct: vec![0; arity],
            max_degree: vec![0; arity],
            max_branch: vec![0; arity],
            at_max_degree: vec![0; arity],
            at_max_branch: vec![0; arity],
        }
    }

    fn push(&mut self, row: &[Value]) {
        debug_assert_eq!(row.len(), self.arity);
        let a = self.arity;
        if self.n == 0 {
            self.last.clear();
            self.last.extend_from_slice(row);
            for k in 0..a {
                self.run[k] = 1;
                self.kids[k] = 1;
                self.distinct[k] = 1;
            }
            self.n = 1;
            return;
        }
        // First column where this row departs from the previous one; rows
        // arrive strictly increasing, so for arity > 0 some column differs.
        let d = self
            .last
            .iter()
            .zip(row)
            .position(|(a, b)| a != b)
            .unwrap_or(a);
        debug_assert!(a == 0 || d < a, "rows must be strictly increasing");
        for k in 0..a {
            // The (k+1)-prefix changed iff the first difference is inside it.
            if d < k + 1 {
                self.distinct[k] += 1;
                bump(
                    &mut self.max_degree[k],
                    &mut self.at_max_degree[k],
                    self.run[k],
                );
                self.run[k] = 1;
            } else {
                self.run[k] += 1;
            }
            if d < k + 1 {
                if d < k {
                    // The enclosing k-prefix group also closed.
                    bump(
                        &mut self.max_branch[k],
                        &mut self.at_max_branch[k],
                        self.kids[k],
                    );
                    self.kids[k] = 1;
                } else {
                    self.kids[k] += 1;
                }
            }
        }
        self.last.clear();
        self.last.extend_from_slice(row);
        self.n += 1;
    }

    fn finish(mut self) -> RelationStats {
        if self.n > 0 {
            for k in 0..self.arity {
                bump(
                    &mut self.max_degree[k],
                    &mut self.at_max_degree[k],
                    self.run[k],
                );
                bump(
                    &mut self.max_branch[k],
                    &mut self.at_max_branch[k],
                    self.kids[k],
                );
            }
        }
        RelationStats {
            cardinality: self.n,
            distinct: self.distinct,
            max_degree: self.max_degree,
            max_branch: self.max_branch,
            at_max_degree: self.at_max_degree,
            at_max_branch: self.at_max_branch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel() -> Relation {
        let mut r = Relation::from_rows(
            vec![0, 1, 2],
            [
                [1, 10, 100],
                [1, 10, 101],
                [1, 11, 100],
                [2, 10, 100],
                [2, 10, 100], // dup
                [3, 30, 300],
            ],
        );
        r.sort_dedup();
        r
    }

    #[test]
    fn scratch_matches_relation_counters() {
        let r = rel();
        let s = RelationStats::of(&r);
        assert_eq!(s.cardinality(), 5);
        for len in 0..=3 {
            assert_eq!(s.distinct_prefixes(len), r.distinct_prefixes(len) as u64);
            assert_eq!(s.max_degree(len), r.max_degree(len) as u64);
        }
    }

    #[test]
    fn branch_counts() {
        let r = rel();
        let s = RelationStats::of(&r);
        // Depth 0 → 1: values {1, 2, 3}.
        assert_eq!(s.max_branch(0), 3);
        // Depth 1 → 2: x=1 has {10, 11}.
        assert_eq!(s.max_branch(1), 2);
        // Depth 2 → 3: (1,10) has {100, 101}.
        assert_eq!(s.max_branch(2), 2);
    }

    #[test]
    fn skew_of_uniform_is_one() {
        let mut r = Relation::from_rows(vec![0, 1], [[1, 1], [1, 2], [2, 1], [2, 2]]);
        r.sort_dedup();
        let s = r.stats().unwrap();
        assert_eq!(s.skew(1), 1.0);
        assert_eq!(s.max_skew(), 1.0);
    }

    #[test]
    fn skew_detects_heavy_hitters() {
        // x=1 has 9 rows, x=2..=4 have 1 each: max 9, avg 3 → skew 3.
        let rows: Vec<[u64; 2]> = (0..9)
            .map(|i| [1, i])
            .chain([[2, 0], [3, 0], [4, 0]])
            .collect();
        let mut r = Relation::from_rows(vec![0, 1], rows);
        r.sort_dedup();
        let s = r.stats().unwrap();
        assert_eq!(s.max_degree(1), 9);
        assert!((s.skew(1) - 3.0).abs() < 1e-9);
        assert!((s.max_skew() - 3.0).abs() < 1e-9);
    }

    /// [`TouchedGroups::of`] with each touched row's own position in `rel`.
    fn measure(rel: &Relation, touched: &[&[Value]]) -> TouchedGroups {
        let at: Vec<usize> = touched.iter().map(|r| rel.prefix_range(r).start).collect();
        TouchedGroups::of(rel, touched, &at)
    }

    /// `rel` with `deletes` removed and `inserts` added, and the touched
    /// rows in ascending order.
    fn after(
        rel: &Relation,
        inserts: &[[Value; 2]],
        deletes: &[[Value; 2]],
    ) -> (Relation, Vec<Vec<Value>>) {
        let mut new = rel.clone();
        new.apply_delta(inserts, deletes);
        let mut touched: Vec<Vec<Value>> =
            inserts.iter().chain(deletes).map(|r| r.to_vec()).collect();
        touched.sort();
        (new, touched)
    }

    #[test]
    fn carried_stats_count_groups_at_each_max() {
        // x=1 has 3 rows, x=2 has 3, x=3 has 1: two groups at the max.
        let old = Relation::from_rows(
            vec![0, 1],
            [[1, 1], [1, 2], [1, 3], [2, 1], [2, 2], [2, 3], [3, 1]],
        );
        let stats = RelationStats::of(&old);
        assert_eq!((stats.max_degree(1), stats.at_max_degree[0]), (3, 2));
        // Shrinking one of them leaves the other at the max: exact.
        let (new, touched) = after(&old, &[[3, 2]], &[[1, 3]]);
        let touched: Vec<&[Value]> = touched.iter().map(Vec::as_slice).collect();
        let carried = stats
            .carried(&measure(&old, &touched), &measure(&new, &touched))
            .expect("another group holds the max");
        assert_eq!(carried, RelationStats::of(&new));
        assert_eq!((carried.max_degree(1), carried.at_max_degree[0]), (3, 1));
    }

    #[test]
    fn sole_max_group_shrinking_falls_back_to_a_recount() {
        // x=1 is the only group at the max (3); deleting from it leaves the
        // new max among untouched groups, which a carry cannot see.
        let old = Relation::from_rows(vec![0, 1], [[1, 1], [1, 2], [1, 3], [2, 1], [2, 2], [3, 1]]);
        let stats = RelationStats::of(&old);
        let (new, touched) = after(&old, &[], &[[1, 3]]);
        let touched: Vec<&[Value]> = touched.iter().map(Vec::as_slice).collect();
        let (before, after) = (measure(&old, &touched), measure(&new, &touched));
        assert_eq!(stats.carried(&before, &after), None);
        // Through the relation, the dropped cache recounts on next read.
        let mut rel = old.clone();
        rel.stats();
        rel.apply_delta([] as [&[Value]; 0], [[1u64, 3]]);
        assert_eq!(rel.stats(), Some(&RelationStats::of(&new)));
    }

    #[test]
    fn empty_and_nullary() {
        let mut empty = Relation::new(vec![0, 1]);
        empty.sort_dedup();
        let s = empty.stats().unwrap();
        assert_eq!(s.cardinality(), 0);
        assert_eq!(s.distinct_prefixes(0), 0);
        assert_eq!(s.max_degree(2), 0);
        assert_eq!(s.skew(1), 1.0);

        let unit = Relation::nullary_unit();
        let s = unit.stats().unwrap();
        assert_eq!(s.cardinality(), 1);
        assert_eq!(s.arity(), 0);
        assert_eq!(s.max_skew(), 1.0);
    }
}
