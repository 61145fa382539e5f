//! Property tests for the access-path layer: `TrieIndex`/`Probe` answers
//! must agree with the seed-era primitives (`Relation::project` +
//! `Relation::prefix_range`) and with a linear-scan cursor model on random
//! relations and column orders, and the
//! `IndexSet` cache must be transparent (a hit returns exactly what a fresh
//! build would).

use fdjoin_storage::{IndexSet, Relation, TrieIndex, Value};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn rows_strategy(arity: usize) -> impl Strategy<Value = Vec<Vec<Value>>> {
    proptest::collection::vec(proptest::collection::vec(0u64..6, arity), 0..40)
}

/// All 15 nonempty ordered projections of a 3-column schema would be a lot;
/// pick the order by an index into a fixed enumeration.
fn orders() -> Vec<Vec<u32>> {
    vec![
        vec![0, 1, 2],
        vec![0, 2, 1],
        vec![1, 0, 2],
        vec![1, 2, 0],
        vec![2, 0, 1],
        vec![2, 1, 0],
        vec![0],
        vec![1],
        vec![2],
        vec![0, 1],
        vec![1, 0],
        vec![0, 2],
        vec![2, 0],
        vec![1, 2],
        vec![2, 1],
    ]
}

proptest! {
    #[test]
    fn trie_index_equals_projection(rows in rows_strategy(3), oi in 0usize..15) {
        let order = orders()[oi].clone();
        let mut rel = Relation::from_rows(vec![0, 1, 2], rows);
        rel.sort_dedup();
        let ix = TrieIndex::build(&rel, &order);
        let proj = rel.project(&order);
        prop_assert_eq!(ix.len(), proj.len());
        prop_assert_eq!(&ix.to_relation(), &proj);
        // Group structure agrees at every depth.
        for d in 0..=order.len() {
            prop_assert_eq!(ix.group_ranges(d), proj.group_ranges(d));
        }
    }

    #[test]
    fn probe_ranges_equal_prefix_range(
        rows in rows_strategy(3),
        oi in 0usize..15,
        key in proptest::collection::vec(0u64..6, 0..3),
    ) {
        let order = orders()[oi].clone();
        let mut rel = Relation::from_rows(vec![0, 1, 2], rows);
        rel.sort_dedup();
        let ix = TrieIndex::build(&rel, &order);
        let proj = rel.project(&order);
        let key = &key[..key.len().min(order.len())];
        let (a, b) = (ix.prefix_range(key), proj.prefix_range(key));
        prop_assert_eq!(a.len(), b.len(), "prefix {:?}", key);
        let mut w = ix.walk(a);
        for j in b {
            prop_assert_eq!(w.next(), Some(proj.row(j)));
        }
        // Membership for full rows.
        if key.len() == order.len() {
            prop_assert_eq!(ix.contains(key), proj.contains_row(key));
        }
    }

    #[test]
    fn probe_seek_walks_distinct_values(rows in rows_strategy(2), oi in 9usize..15) {
        let order = orders()[oi].clone();
        let mut rel = Relation::from_rows(vec![0, 1, 2], rows.iter().map(|r| {
            let mut r = r.clone();
            r.push(0);
            r
        }));
        rel.sort_dedup();
        let ix = TrieIndex::build(&rel, &order);
        // Walking next_value() visits exactly the distinct level-0 values.
        let expect: BTreeSet<Value> = rel.project(&order).rows().map(|r| r[0]).collect();
        let mut walked = Vec::new();
        let mut p = ix.probe();
        let mut cur = p.current();
        while let Some(v) = cur {
            walked.push(v);
            cur = p.next_value();
        }
        prop_assert_eq!(walked.clone(), expect.iter().copied().collect::<Vec<_>>());
        // seek(v) from the root lands on the first distinct value ≥ v.
        for target in 0u64..7 {
            let mut p = ix.probe();
            let got = p.seek(target);
            let expect = walked.iter().copied().find(|&v| v >= target);
            prop_assert_eq!(got, expect, "seek({})", target);
        }
        // enter() restricts to exactly the rows carrying the value.
        let mut p = ix.probe();
        while let Some(v) = p.current() {
            let child = p.enter();
            let direct = ix.prefix_range(&[v]);
            prop_assert_eq!(child.range(), direct);
            if p.next_value().is_none() {
                break;
            }
        }
    }

    #[test]
    fn relation_probe_equals_contains(rows in rows_strategy(3), probe_row in proptest::collection::vec(0u64..6, 3)) {
        let mut rel = Relation::from_rows(vec![0, 1, 2], rows.clone());
        rel.sort_dedup();
        let model: BTreeSet<Vec<Value>> = rows.iter().cloned().collect();
        prop_assert_eq!(rel.contains_row(&probe_row), model.contains(&probe_row));
    }

    #[test]
    fn index_set_hits_are_transparent(rows in rows_strategy(3), oi in 0usize..15) {
        let order = orders()[oi].clone();
        let mut rel = Relation::from_rows(vec![0, 1, 2], rows);
        rel.sort_dedup();
        let set = IndexSet::new();
        let (built_ix, built) = set.index_of("R", &rel, &order);
        prop_assert!(built);
        let (hit_ix, built2) = set.index_of("R", &rel, &order);
        prop_assert!(!built2);
        prop_assert_eq!(&*built_ix, &*hit_ix);
        prop_assert_eq!(&*hit_ix, &TrieIndex::build(&rel, &order));
        // A clone shares the version — and therefore the cache entry.
        let clone = rel.clone();
        let (_, built3) = set.index_of("R", &clone, &order);
        prop_assert!(!built3, "clone shares the content version");
        // Mutation diverges the version: the clone now misses.
        let mut mutated = clone.clone();
        mutated.apply_delta([[9u64, 9, 9]], [] as [&[Value]; 0]);
        let (mutated_ix, built4) = set.index_of("R", &mutated, &order);
        prop_assert!(built4, "new content version must rebuild");
        prop_assert_eq!(&*mutated_ix, &TrieIndex::build(&mutated, &order));
    }
}

/// One cursor operation of the differential suite: applied in lockstep to
/// a trie probe and to the [`Scan`] model over identical content, after
/// which every observable (depth, current value, row range, group) must
/// agree.
#[derive(Debug, Clone)]
enum Op {
    Descend(Value),
    Seek(Value),
    NextValue,
    Enter,
    SnapshotResume,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..6, 0u64..7).prop_map(|(k, v)| match k {
        0 | 1 => Op::Descend(v % 6),
        2 => Op::Seek(v),
        3 => Op::NextValue,
        4 => Op::Enter,
        _ => Op::SnapshotResume,
    })
}

/// Reference cursor: the probe ops by linear scan over the sorted
/// projection's rows, in row coordinates — independent of the level arrays
/// and of the gallop/bisect/SIMD search kernel. Rows `lo..hi` always share
/// their first `depth` columns, so they are sorted by column `depth`.
struct Scan<'a> {
    rows: Vec<&'a [Value]>,
    arity: usize,
    depth: usize,
    lo: usize,
    hi: usize,
}

impl Scan<'_> {
    /// First row of `lo..hi` whose value at `depth` is not `below`, or `hi`.
    fn first(&self, below: impl Fn(Value) -> bool) -> usize {
        let at = |i: &usize| !below(self.rows[*i][self.depth]);
        (self.lo..self.hi).find(at).unwrap_or(self.hi)
    }
    fn current(&self) -> Option<Value> {
        (self.lo < self.hi && self.depth < self.arity).then(|| self.rows[self.lo][self.depth])
    }
    fn seek(&mut self, v: Value) -> Option<Value> {
        self.lo = self.first(|x| x < v);
        self.current()
    }
    fn group(&self) -> std::ops::Range<usize> {
        let end = self.current().map_or(self.lo, |c| self.first(|x| x <= c));
        self.lo..end
    }
    fn next_value(&mut self) -> Option<Value> {
        self.lo = self.group().end;
        self.current()
    }
    fn enter(&mut self) {
        self.hi = self.group().end;
        self.depth += 1;
    }
    fn descend(&mut self, v: Value) -> bool {
        let at = self.first(|x| x < v);
        let found = at < self.hi && self.rows[at][self.depth] == v;
        if found {
            self.lo = at;
            self.enter();
        }
        found
    }
}

proptest! {
    /// Differential suite: the columnar level-trie probe and the
    /// linear-scan model answer every cursor-op sequence identically —
    /// same descend/seek outcomes, same visited values, same
    /// row-coordinate ranges and groups. The projection's rows coincide
    /// with the index's rows, so row ranges are directly comparable.
    #[test]
    fn probe_ops_match_flat_projection(
        rows in rows_strategy(3),
        oi in 0usize..15,
        ops in proptest::collection::vec(op_strategy(), 0..24),
    ) {
        let order = orders()[oi].clone();
        let mut rel = Relation::from_rows(vec![0, 1, 2], rows);
        rel.sort_dedup();
        let ix = TrieIndex::build(&rel, &order);
        let proj = rel.project(&order);
        let mut t = ix.probe();
        let mut f = Scan {
            rows: proj.rows().collect(),
            arity: order.len(),
            depth: 0,
            lo: 0,
            hi: proj.len(),
        };
        for op in ops {
            match op {
                Op::Descend(v) => {
                    if t.depth() >= order.len() {
                        continue;
                    }
                    prop_assert_eq!(t.descend(v), f.descend(v), "descend({})", v);
                }
                Op::Seek(v) => {
                    if t.depth() >= order.len() {
                        continue;
                    }
                    prop_assert_eq!(t.seek(v), f.seek(v), "seek({})", v);
                }
                Op::NextValue => {
                    if t.depth() >= order.len() {
                        continue;
                    }
                    prop_assert_eq!(t.next_value(), f.next_value());
                }
                Op::Enter => {
                    // Entering an exhausted level puts the two layouts'
                    // empty children at incomparable positions; only a
                    // live current value has a well-defined subtrie.
                    if t.current().is_none() {
                        continue;
                    }
                    t = t.enter();
                    f.enter();
                }
                Op::SnapshotResume => {
                    t = ix.resume(t.snapshot());
                }
            }
            prop_assert_eq!(t.depth(), f.depth);
            prop_assert_eq!(t.current(), f.current());
            prop_assert_eq!(t.range(), f.lo..f.hi, "row ranges diverge");
            prop_assert_eq!(t.len(), f.hi - f.lo);
            prop_assert_eq!(t.group(), f.group(), "groups diverge");
        }
    }

    /// Snapshot/resume round-trips at random depths: the snapshot's
    /// node-coordinate fields reattach to an equivalent live cursor —
    /// same depth, same row range, same remaining value walk.
    #[test]
    fn snapshot_resume_at_random_depths(
        rows in rows_strategy(3),
        oi in 0usize..6,
        prefix in proptest::collection::vec(0u64..6, 0..3),
    ) {
        let order = orders()[oi].clone();
        let mut rel = Relation::from_rows(vec![0, 1, 2], rows);
        rel.sort_dedup();
        let ix = TrieIndex::build(&rel, &order);
        let mut p = ix.probe();
        for &v in &prefix {
            if !p.descend(v) {
                break;
            }
        }
        let snap = p.snapshot();
        prop_assert_eq!(snap.depth, p.depth());
        let mut resumed = ix.resume(snap);
        prop_assert_eq!(resumed.depth(), p.depth());
        prop_assert_eq!(resumed.range(), p.range());
        prop_assert_eq!(resumed.current(), p.current());
        let mut live = p;
        let (mut a, mut b) = (Vec::new(), Vec::new());
        while let Some(v) = live.current() {
            a.push(v);
            if live.next_value().is_none() {
                break;
            }
        }
        while let Some(v) = resumed.current() {
            b.push(v);
            if resumed.next_value().is_none() {
                break;
            }
        }
        prop_assert_eq!(a, b, "resumed cursor walks the same values");
    }

    /// The lending row walker reproduces the projection exactly, over the
    /// full index and over arbitrary subranges.
    #[test]
    fn row_walk_matches_projection(
        rows in rows_strategy(3),
        oi in 0usize..15,
        cut in 0usize..40,
    ) {
        let order = orders()[oi].clone();
        let mut rel = Relation::from_rows(vec![0, 1, 2], rows);
        rel.sort_dedup();
        let ix = TrieIndex::build(&rel, &order);
        let proj = rel.project(&order);
        let mut w = ix.walk(0..ix.len());
        let mut i = 0;
        while let Some(row) = w.next() {
            prop_assert_eq!(row, proj.row(i));
            i += 1;
        }
        prop_assert_eq!(i, proj.len());
        let start = cut.min(ix.len());
        let mut w = ix.walk(start..ix.len());
        let mut i = start;
        while let Some(row) = w.next() {
            prop_assert_eq!(row, proj.row(i));
            i += 1;
        }
        prop_assert_eq!(i, ix.len());
    }
}
