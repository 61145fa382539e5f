//! The trie layout: one sorted index per `(relation, column order)`, the
//! access path every ordered-prefix probe of the paper's algorithms reads.
//!
//! A [`TrieIndex`] is stored as a **columnar level-trie** (struct of
//! arrays): per level ℓ a dense `values[ℓ]` array holding every trie
//! node's distinct children contiguously, plus a `starts[ℓ]` child-offset
//! array mapping node *i* at level ℓ to its children range at level ℓ+1.
//! Shared prefixes are stored once — level 0 holds each distinct first
//! value exactly once — so the layout is both smaller than the
//! repeated-prefix row-major projection and cache-dense: a level-ℓ search
//! touches one contiguous `&[Value]` run instead of a strided walk over
//! full rows. Only this module knows the layout; the cursor
//! (`crate::cursor`) reads it through `TrieIndex::level`,
//! `TrieIndex::first_row` and `TrieIndex::children`.
//!
//! Row access over the columnar layout goes through [`RowWalk`], a lending
//! cursor that reconstitutes full rows in index order at amortized O(1)
//! per row (an odometer over the `starts` arrays).

use crate::cursor::lower_bound;
use crate::relation::{sort_rows, splice_in_place, Relation};
use crate::{ProbeSnapshot, Value};
use std::ops::Range;

/// A trie-shaped index: the distinct projection of a source relation onto
/// one column order, lexicographically sorted, stored level-wise.
///
/// Level ℓ has one *node* per distinct (ℓ+1)-prefix, in lexicographic
/// order. `values[ℓ][i]` is the last key of node *i*'s prefix;
/// `starts[ℓ][i]..starts[ℓ][i+1]` is the node-id range of its children at
/// level ℓ+1 (`starts[ℓ]` carries a trailing sentinel, so it has one more
/// entry than `values[ℓ]`). Leaf-level node ids coincide with row ids:
/// `values[arity-1]` has exactly [`TrieIndex::len`] entries, and every
/// range-flavored API ([`TrieIndex::group_ranges`],
/// [`Probe::range`](crate::Probe::range), …) speaks row ids.
///
/// Navigation happens through [`TrieIndex::probe`]; bulk access through
/// [`TrieIndex::walk`]. The index owns its data, so
/// it stays valid in a cache after the source relation moves or is
/// replaced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrieIndex {
    vars: Vec<u32>,
    /// `values[l]` — one entry per trie node at level `l`, grouped by
    /// parent, strictly increasing within each parent's run.
    values: Vec<Vec<Value>>,
    /// `starts[l]` — child offsets into level `l+1`, with sentinel;
    /// `starts.len() == arity - 1` (leaves have no children).
    starts: Vec<Vec<u32>>,
    rows: usize,
}

/// Streaming level-trie builder: feed it the sorted, deduplicated
/// projected rows in order; it extends each level array from the first
/// column where the row differs from its predecessor.
struct LevelBuilder {
    vars: Vec<u32>,
    values: Vec<Vec<Value>>,
    starts: Vec<Vec<u32>>,
    rows: usize,
    last: Vec<Value>,
}

/// A level's node count as the `u32` child offset the `starts` arrays
/// store.
fn node_offset(nodes: usize) -> u32 {
    u32::try_from(nodes).unwrap_or_else(|_| {
        panic!("trie level of {nodes} nodes does not fit the u32 child offsets (limit 2^32 - 1)")
    })
}

/// The first column where two equal-width rows differ (their width if
/// they are equal).
fn first_difference(x: &[Value], y: &[Value]) -> usize {
    x.iter().zip(y).take_while(|(a, b)| a == b).count()
}

impl LevelBuilder {
    fn new(vars: Vec<u32>) -> LevelBuilder {
        let arity = vars.len();
        LevelBuilder {
            vars,
            values: vec![Vec::new(); arity],
            starts: vec![Vec::new(); arity.saturating_sub(1)],
            rows: 0,
            last: Vec::with_capacity(arity),
        }
    }

    /// Append one projected row (must be strictly greater than the
    /// previous one in lexicographic order).
    fn push(&mut self, row: &[Value]) {
        let a = self.values.len();
        debug_assert_eq!(row.len(), a);
        let d = if self.rows == 0 {
            0
        } else {
            let d = first_difference(&self.last, row);
            debug_assert!(d < a, "duplicate or unsorted row pushed");
            d
        };
        // A fresh node at level `l` records where its children will begin
        // *before* any of them are appended to level `l+1`.
        for (l, &v) in row.iter().enumerate().take(a).skip(d) {
            if l + 1 < a {
                self.starts[l].push(node_offset(self.values[l + 1].len()));
            }
            self.values[l].push(v);
        }
        self.last.clear();
        self.last.extend_from_slice(row);
        self.rows += 1;
    }

    fn finish(mut self) -> TrieIndex {
        for l in 0..self.starts.len() {
            let sentinel = node_offset(self.values[l + 1].len());
            self.starts[l].push(sentinel);
        }
        TrieIndex {
            vars: self.vars,
            values: self.values,
            starts: self.starts,
            rows: self.rows,
        }
    }
}

impl TrieIndex {
    /// Build the index of `rel` for `order` (a duplicate-free subset of
    /// `rel`'s variables, in any order). The build extracts the projected
    /// rows once into a flat buffer, sorts and deduplicates that buffer
    /// where it lies (`sort_rows`), and streams its rows into the level
    /// arrays. A sorted relation stored in `order` streams its own rows.
    pub fn build(rel: &Relation, order: &[u32]) -> TrieIndex {
        let arity = order.len();
        if arity == 0 {
            return TrieIndex {
                vars: Vec::new(),
                values: Vec::new(),
                starts: Vec::new(),
                rows: usize::from(!rel.is_empty()),
            };
        }
        let cols: Vec<usize> = order
            .iter()
            .map(|&v| rel.col_of(v).expect("index variable not in relation"))
            .collect();
        let mut b = LevelBuilder::new(order.to_vec());
        // Fast path: the relation is already stored in exactly this order.
        if rel.is_stored_in(order) {
            for row in rel.rows() {
                b.push(row);
            }
            return b.finish();
        }
        let mut keys: Vec<Value> = Vec::with_capacity(rel.len() * arity);
        for row in rel.rows() {
            keys.extend(cols.iter().map(|&c| row[c]));
        }
        sort_rows(&mut keys, arity);
        for key in keys.chunks_exact(arity) {
            b.push(key);
        }
        b.finish()
    }

    /// This index with `plus` added and `minus` removed — `plus` and
    /// `minus` hold rows in this index's column order, sorted, `plus`
    /// disjoint from the indexed rows and `minus` contained in them — equal
    /// to [`TrieIndex::build`] over the changed relation. The level arrays
    /// are edited in place: at each level, each touched root group's node
    /// range gives way to the group's re-pushed subtrie, the untouched runs
    /// move by the net change before them (`splice_in_place`), and their
    /// child offsets shift by the next level's net change.
    pub(crate) fn apply_delta(mut self, plus: &Relation, minus: &Relation) -> TrieIndex {
        let a = self.arity();
        debug_assert!(a > 0 && plus.vars() == self.vars && minus.vars() == self.vars);
        // The touched root groups, ascending: each one's node range among
        // this index's roots (empty where its root value is new) and its
        // subtrie after the delta.
        let roots = &self.values[0];
        let mut spans: Vec<Range<usize>> = Vec::new();
        let mut subs: Vec<TrieIndex> = Vec::new();
        let first = |rel: &Relation, i: usize| (i < rel.len()).then(|| rel.row(i)[0]);
        let (mut i, mut k) = (0, 0);
        while let Some(v) = [first(plus, i), first(minus, k)]
            .into_iter()
            .flatten()
            .min()
        {
            let (add, drop) = (plus.prefix_range(&[v]), minus.prefix_range(&[v]));
            (i, k) = (add.end, drop.end);
            let root = lower_bound(roots, 0, roots.len(), v);
            let span = root..root + usize::from(roots.get(root) == Some(&v));
            let old = self.first_row(0, span.start)..self.first_row(0, span.end);
            let mut sub = LevelBuilder::new(self.vars.clone());
            let (mut w, mut add, mut drop) = (self.walk(old), add.peekable(), drop.peekable());
            while let Some(row) = w.next() {
                while let Some(j) = add.next_if(|&j| plus.row(j) < row) {
                    sub.push(plus.row(j));
                }
                if drop.next_if(|&j| minus.row(j) == row).is_none() {
                    sub.push(row);
                }
            }
            add.for_each(|j| sub.push(plus.row(j)));
            spans.push(span);
            subs.push(sub.finish());
        }
        for l in 0..a {
            let edits: Vec<(Range<usize>, &[Value])> = spans
                .iter()
                .zip(&subs)
                .map(|(span, sub)| (span.clone(), &sub.values[l][..]))
                .collect();
            splice_in_place(&mut self.values[l], &edits, |_, _| {});
            if l + 1 == a {
                break;
            }
            // The groups' children one level down, where they start after
            // the splice there, and how far each untouched run's children
            // move: the net change of the groups before it.
            let starts = &self.starts[l];
            let next: Vec<Range<usize>> = spans
                .iter()
                .map(|s| starts[s.start] as usize..starts[s.end] as usize)
                .collect();
            // `shift[k]`: the net change of the first `k` groups, wrapping
            // (a shrink is a negative shift).
            let (mut shift, mut by) = (Vec::with_capacity(subs.len() + 1), 0u32);
            let mut offsets: Vec<Vec<u32>> = Vec::with_capacity(subs.len());
            for (span, sub) in next.iter().zip(&subs) {
                shift.push(by);
                let at = node_offset(span.start).wrapping_add(by);
                let nodes = sub.values[l].len();
                offsets.push(sub.starts[l][..nodes].iter().map(|&s| s + at).collect());
                let grown =
                    node_offset(sub.values[l + 1].len()).wrapping_sub(node_offset(span.len()));
                by = by.wrapping_add(grown);
            }
            shift.push(by);
            let edits: Vec<(Range<usize>, &[u32])> = spans
                .iter()
                .zip(&offsets)
                .map(|(span, o)| (span.clone(), &o[..]))
                .collect();
            splice_in_place(&mut self.starts[l], &edits, |run, children| {
                children
                    .iter_mut()
                    .for_each(|s| *s = s.wrapping_add(shift[run]));
            });
            spans = next;
        }
        self.rows = self.values[a - 1].len();
        self
    }

    /// The indexed column order.
    #[inline]
    pub fn vars(&self) -> &[u32] {
        &self.vars
    }

    /// Number of indexed columns.
    #[inline]
    pub fn arity(&self) -> usize {
        self.vars.len()
    }

    /// Number of distinct projected rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the first `k` columns determine column `k` (0-based): every
    /// level-`k−1` node has at most one child — for `k = 0`, there is at
    /// most one root. On a guard trie (an FD's left-hand side, then one
    /// right-hand-side variable) it says that the guard relation satisfies
    /// the FD.
    ///
    /// Every node above the leaves has a child, so this compares two level
    /// sizes: a row whose first difference from its predecessor is column
    /// `k` is the only kind that adds a level-`k` node without a
    /// level-`k−1` one. The sizes are fixed when the trie is built, so the
    /// answer is computed with it, once per content version, and a trie
    /// carried across a delta answers for its own contents.
    ///
    /// # Panics
    ///
    /// If `k` is not below the arity: there is no column `k` to determine.
    pub fn determines(&self, k: usize) -> bool {
        assert!(
            k < self.arity(),
            "column {k} of an arity-{} trie",
            self.arity()
        );
        let nodes = self.values[k].len();
        match k.checked_sub(1) {
            None => nodes <= 1,
            Some(parent) => nodes == self.values[parent].len(),
        }
    }

    /// Whether the index holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Number of trie nodes at `level` (`rows` at and past the leaf
    /// level, and for nullary indexes).
    pub(crate) fn n_nodes(&self, level: usize) -> usize {
        if level >= self.values.len() {
            self.rows
        } else {
            self.values[level].len()
        }
    }

    /// The nodes of level `d`, grouped by parent: node *i*'s value is
    /// `level(d)[i]`.
    #[inline]
    pub(crate) fn level(&self, d: usize) -> &[Value] {
        &self.values[d]
    }

    /// The first row id under node `node` at `level` — the level-wise
    /// `starts` chain down to the leaves. Accepts the one-past-the-end
    /// node (the sentinel entries make it map to the one-past-the-end
    /// row), so a node range maps to a row range by two calls.
    #[inline]
    pub(crate) fn first_row(&self, level: usize, mut node: usize) -> usize {
        for l in level..self.starts.len() {
            node = self.starts[l][node] as usize;
        }
        node
    }

    /// The position spanning the children of node `node` at `level`, one
    /// level down. Below the last level the node id is the row id.
    #[inline]
    pub(crate) fn children(&self, level: usize, node: usize) -> ProbeSnapshot {
        let (lo, hi) = match self.starts.get(level) {
            Some(starts) => (starts[node] as usize, starts[node + 1] as usize),
            None => (node, node + 1),
        };
        ProbeSnapshot {
            depth: level + 1,
            lo,
            hi,
        }
    }

    /// A lending cursor over the rows in `range` (row ids), yielding each
    /// full row in index order at amortized O(1) per row.
    pub fn walk(&self, range: Range<usize>) -> RowWalk<'_> {
        debug_assert!(range.start <= range.end && range.end <= self.rows);
        let a = self.arity();
        RowWalk {
            ix: self,
            next_row: range.start,
            end: range.end,
            path: vec![0; a],
            buf: vec![0; a],
            primed: false,
        }
    }

    /// The row range matching `prefix` — same contract as
    /// [`Relation::prefix_range`], answered by descending the trie.
    pub fn prefix_range(&self, prefix: &[Value]) -> Range<usize> {
        let mut p = self.probe();
        if p.descend_all(prefix) {
            p.range()
        } else {
            0..0
        }
    }

    /// Membership test for a full projected row.
    pub fn contains(&self, row: &[Value]) -> bool {
        debug_assert_eq!(row.len(), self.arity());
        if self.arity() == 0 {
            return self.rows > 0;
        }
        !self.prefix_range(row).is_empty()
    }

    /// Group the rows by their first `prefix_len` columns (trie nodes at
    /// that depth), in index order. Read straight off the `starts`
    /// arrays — no row data is touched.
    pub fn group_ranges(&self, prefix_len: usize) -> Vec<Range<usize>> {
        debug_assert!(prefix_len <= self.arity());
        if self.rows == 0 {
            return Vec::new();
        }
        if prefix_len == 0 {
            return std::iter::once(0..self.rows).collect();
        }
        let level = prefix_len - 1;
        let n = self.n_nodes(level);
        let mut out = Vec::with_capacity(n);
        let mut start = 0usize;
        for node in 1..=n {
            let end = self.first_row(level, node);
            out.push(start..end);
            start = end;
        }
        out
    }

    /// Materialize the whole index as a relation (already sorted and
    /// deduplicated — no re-sort happens).
    pub fn to_relation(&self) -> Relation {
        self.relation_of_ranges(std::iter::once(0..self.rows))
    }

    /// Materialize a subset of rows, given as ascending, disjoint row
    /// ranges, as a relation (sorted + unique by construction).
    pub fn relation_of_ranges<I>(&self, ranges: I) -> Relation
    where
        I: IntoIterator<Item = Range<usize>>,
    {
        let mut out = Relation::new(self.vars.clone());
        for r in ranges {
            let mut w = self.walk(r);
            while let Some(row) = w.next() {
                out.push_row(row);
            }
        }
        debug_assert!(out.is_sorted(), "trie rows ascend and are distinct");
        out
    }

    /// Exact heap footprint of the level arrays, in bytes — what the
    /// byte-accounted [`IndexSet`](crate::IndexSet) budget charges for this index.
    pub fn heap_bytes(&self) -> usize {
        self.values
            .iter()
            .map(|v| v.len() * std::mem::size_of::<Value>())
            .sum::<usize>()
            + self
                .starts
                .iter()
                .map(|s| s.len() * std::mem::size_of::<u32>())
                .sum::<usize>()
            + self.vars.len() * std::mem::size_of::<u32>()
    }
}

/// A lending row cursor over a [`TrieIndex`]: yields each row of a row
/// range in index order, reconstituted from the level arrays.
///
/// Positioning pays one `partition_point` per level; every subsequent row
/// is an odometer step — increment the leaf id, carry into parent levels
/// while a `starts` sentinel is crossed — so a full scan costs amortized
/// O(1) per row and touches only the levels that actually change.
#[derive(Debug)]
pub struct RowWalk<'a> {
    ix: &'a TrieIndex,
    next_row: usize,
    end: usize,
    /// Node id per level for the current row.
    path: Vec<usize>,
    /// The materialized current row.
    buf: Vec<Value>,
    primed: bool,
}

impl RowWalk<'_> {
    /// Advance to the next row and return it, or `None` past the end.
    /// (A lending iterator — the row borrows the walker's buffer — so
    /// this is an inherent method, not `Iterator::next`.)
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<&[Value]> {
        if self.next_row >= self.end {
            return None;
        }
        let a = self.ix.arity();
        let row = self.next_row;
        self.next_row += 1;
        if a == 0 {
            return Some(&[]);
        }
        let refresh_from = if !self.primed {
            self.primed = true;
            // Position the path at `row`: leaf id is the row id, parents
            // found by offset bisection level by level.
            self.path[a - 1] = row;
            for l in (0..a - 1).rev() {
                self.path[l] =
                    self.ix.starts[l].partition_point(|&s| (s as usize) <= self.path[l + 1]) - 1;
            }
            0
        } else {
            // Odometer step: bump the leaf, carry upward across each
            // parent whose child range we just walked off the end of.
            self.path[a - 1] = row;
            let mut l = a - 1;
            while l > 0 && self.path[l] >= self.ix.starts[l - 1][self.path[l - 1] + 1] as usize {
                self.path[l - 1] += 1;
                l -= 1;
            }
            l
        };
        for k in refresh_from..a {
            self.buf[k] = self.ix.values[k][self.path[k]];
        }
        Some(&self.buf)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::IndexSet;
    use proptest::prelude::*;

    /// Five rows over `[0, 1, 2]`, sorted and deduplicated: the fixture of
    /// the trie, cursor and cache tests.
    pub(crate) fn rel() -> Relation {
        let mut r = Relation::from_rows(
            vec![0, 1, 2],
            [
                [1, 10, 100],
                [1, 10, 101],
                [1, 11, 100],
                [2, 10, 100],
                [2, 12, 107],
                [1, 10, 100], // dup
            ],
        );
        r.sort_dedup();
        r
    }

    #[test]
    fn build_matches_project() {
        let r = rel();
        for order in [vec![0, 1, 2], vec![2, 0, 1], vec![1], vec![2, 1]] {
            let ix = TrieIndex::build(&r, &order);
            let p = r.project(&order);
            assert_eq!(ix.len(), p.len(), "order {order:?}");
            assert_eq!(ix.to_relation(), p);
        }
    }

    /// Orders of every width up to three past the in-place sort's, over a
    /// relation stored in another order: each build holds the distinct
    /// projected rows, in order.
    #[test]
    fn build_matches_project_inside_and_beyond_the_in_place_widths() {
        use crate::relation::MAX_IN_PLACE;
        use std::collections::BTreeSet;
        let width = MAX_IN_PLACE + 3;
        let stored: Vec<u32> = (0..width as u32).rev().collect();
        // Small values, so short projections repeat.
        let mut g = 0x9e37_79b9_7f4a_7c15_u64;
        let rows: Vec<Vec<Value>> = (0..200)
            .map(|_| {
                (0..width)
                    .map(|_| {
                        g ^= g << 13;
                        g ^= g >> 7;
                        g ^= g << 17;
                        g % 3
                    })
                    .collect()
            })
            .collect();
        let rel = Relation::from_rows(stored, &rows);
        for k in 1..=width {
            // The first `k` variables, odd ids first.
            let order: Vec<u32> = (0..k as u32)
                .filter(|v| v % 2 == 1)
                .chain((0..k as u32).filter(|v| v % 2 == 0))
                .collect();
            let want: BTreeSet<Vec<Value>> = rel
                .rows()
                .map(|row| order.iter().map(|&v| row[rel.col_of(v).unwrap()]).collect())
                .collect();
            let want = Relation::from_rows(order.clone(), &want);
            let ix = TrieIndex::build(&rel, &order);
            assert_eq!(ix.to_relation(), want, "width {k}");
            assert_eq!(ix.to_relation(), rel.project(&order), "width {k}");
        }
    }

    #[test]
    fn columnar_layout_shares_prefixes() {
        // Rows sorted: (1,10,100) (1,10,101) (1,11,100) (2,10,100) (2,12,107).
        let ix = TrieIndex::build(&rel(), &[0, 1, 2]);
        assert_eq!(
            ix.values[0],
            vec![1, 2],
            "level 0: one node per distinct value"
        );
        assert_eq!(ix.starts[0], vec![0, 2, 4]);
        assert_eq!(ix.values[1], vec![10, 11, 10, 12]);
        assert_eq!(ix.starts[1], vec![0, 2, 3, 4, 5]);
        assert_eq!(ix.values[2], vec![100, 101, 100, 100, 107]);
        assert_eq!(ix.len(), 5);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "does not fit the u32 child offsets")]
    fn node_offsets_refuse_to_wrap() {
        // A level of 2^32 nodes used to wrap `len() as u32` to offset 0 in
        // release builds; the conversion is checked without allocating one.
        assert_eq!(node_offset(u32::MAX as usize), u32::MAX);
        node_offset(1 << 32);
    }

    #[test]
    fn heap_bytes_shrink_with_shared_prefixes() {
        // 1000 rows whose first two columns repeat heavily: the level
        // arrays hold 10 + 100 + 1000 values vs 3000 row-major cells.
        let r = Relation::from_rows(vec![0, 1, 2], (0..1000u64).map(|i| [i / 100, i / 10, i]));
        let ix = TrieIndex::build(&r, &[0, 1, 2]);
        let row_major = ix.len() * ix.arity() * std::mem::size_of::<Value>();
        assert!(
            ix.heap_bytes() < row_major,
            "columnar {} !< row-major {}",
            ix.heap_bytes(),
            row_major
        );
    }

    #[test]
    fn walk_visits_rows_in_order() {
        let r = rel();
        for order in [vec![0, 1, 2], vec![2, 0, 1], vec![1], vec![]] {
            let ix = TrieIndex::build(&r, &order);
            let p = r.project(&order);
            let mut w = ix.walk(0..ix.len());
            let mut i = 0;
            while let Some(row) = w.next() {
                assert_eq!(row, p.row(i), "order {order:?} row {i}");
                i += 1;
            }
            assert_eq!(i, ix.len(), "order {order:?}");
        }
    }

    #[test]
    fn walk_subrange_matches_row() {
        let r = rel();
        let (ix, p) = (TrieIndex::build(&r, &[2, 0, 1]), r.project(&[2, 0, 1]));
        for start in 0..=ix.len() {
            for end in start..=ix.len() {
                let mut w = ix.walk(start..end);
                let mut i = start;
                while let Some(row) = w.next() {
                    assert_eq!(row, p.row(i), "walk({start}..{end}) at {i}");
                    i += 1;
                }
                assert_eq!(i, end);
            }
        }
    }

    #[test]
    fn prefix_range_agrees_with_relation() {
        let r = rel();
        let ix = TrieIndex::build(&r, &[0, 1, 2]);
        for key in [vec![], vec![1], vec![1, 10], vec![1, 10, 100], vec![9]] {
            let (a, b) = (ix.prefix_range(&key), r.prefix_range(&key));
            // Empty ranges may sit at different positions (the relation
            // reports the insertion point); matched rows must be identical.
            assert_eq!(a.len(), b.len(), "{key:?}");
            let mut w = ix.walk(a);
            for j in b {
                assert_eq!(w.next(), Some(r.row(j)), "{key:?}");
            }
        }
        assert!(ix.contains(&[2, 12, 107]));
        assert!(!ix.contains(&[2, 12, 108]));
    }

    #[test]
    fn group_ranges_by_prefix_depth() {
        let ix = TrieIndex::build(&rel(), &[0, 1, 2]);
        assert_eq!(ix.group_ranges(0), vec![0..5]);
        assert_eq!(ix.group_ranges(1), vec![0..3, 3..5]);
        assert_eq!(ix.group_ranges(2), vec![0..2, 2..3, 3..4, 4..5]);
        assert_eq!(
            ix.group_ranges(3),
            (0..5).map(|i| i..i + 1).collect::<Vec<_>>()
        );
        let empty = TrieIndex::build(&Relation::new(vec![0, 1]), &[0, 1]);
        assert!(empty.group_ranges(1).is_empty());
        assert!(empty.group_ranges(0).is_empty());
    }

    #[test]
    fn nullary_and_empty_orders() {
        let r = rel();
        let ix = TrieIndex::build(&r, &[]);
        assert_eq!(ix.len(), 1, "projection of nonempty onto () is {{()}}");
        assert!(ix.contains(&[]));
        let empty = Relation::new(vec![0]);
        let ix = TrieIndex::build(&empty, &[]);
        assert_eq!(ix.len(), 0);
        assert!(!ix.contains(&[]));
    }

    /// Every order of `vars`.
    fn permutations(vars: &[u32]) -> Vec<Vec<u32>> {
        if vars.is_empty() {
            return vec![Vec::new()];
        }
        (0..vars.len())
            .flat_map(|i| {
                let mut rest = vars.to_vec();
                let first = rest.remove(i);
                permutations(&rest).into_iter().map(move |mut p| {
                    p.insert(0, first);
                    p
                })
            })
            .collect()
    }

    fn rows_strategy(max: usize) -> impl Strategy<Value = Vec<Vec<Value>>> {
        proptest::collection::vec(proptest::collection::vec(0u64..5, 3), 0..max)
    }

    /// Brute force: whether any two rows of `rel`, read in column order
    /// `order`, agree on their first `k` columns and differ on column `k`.
    fn prefix_determines(rel: &Relation, order: &[u32], k: usize) -> bool {
        let rows: Vec<Vec<Value>> = rel.project(order).rows().map(<[Value]>::to_vec).collect();
        rows.iter()
            .all(|x| rows.iter().all(|y| x[..k] != y[..k] || x[k] == y[k]))
    }

    /// The determination query on hand-made tries, `k = 0` and empty ones
    /// included.
    #[test]
    fn determines_reads_the_fan_out_below_the_prefix() {
        let branching = TrieIndex::build(&rel(), &[0, 1, 2]);
        // Roots 1 and 2; 1 has children 10 and 11; (1,10) has 100 and 101.
        assert!(!branching.determines(0));
        assert!(!branching.determines(1));
        assert!(!branching.determines(2));
        let key = Relation::from_rows(vec![0, 1], [[1, 10], [2, 20], [3, 20]]);
        let (forward, backward) = (
            TrieIndex::build(&key, &[0, 1]),
            TrieIndex::build(&key, &[1, 0]),
        );
        assert!(forward.determines(1), "x → y holds");
        assert!(!backward.determines(1), "y → x does not: 20 has two x");
        assert!(!forward.determines(0), "three distinct x");
        let constant = Relation::from_rows(vec![0, 1], [[7, 1], [7, 2]]);
        let constant = TrieIndex::build(&constant, &[0, 1]);
        assert!(constant.determines(0), "∅ → x: one root");
        assert!(!constant.determines(1));
        let empty = TrieIndex::build(&Relation::new(vec![0, 1]), &[0, 1]);
        assert!(
            empty.determines(0) && empty.determines(1),
            "no rows, no violation"
        );
        let nullary = TrieIndex::build(&key, &[]);
        let asked = std::panic::catch_unwind(|| nullary.determines(0));
        assert!(asked.is_err(), "a nullary trie has no column 0");
    }

    /// A trie carried across a delta answers for its own contents: a
    /// delta that gives a key a second value makes the FD fail, and one
    /// that takes it away makes it hold again.
    #[test]
    fn a_delta_can_break_and_restore_the_determination() {
        let set = IndexSet::new();
        let mut r = Relation::from_rows(vec![0, 1], [[1, 10], [2, 20], [3, 30]]);
        let (ix, _) = set.index_of("R", &r, &[0, 1]);
        assert!(ix.determines(1));
        r.apply_delta([[2u64, 21]], [] as [&[Value]; 0]);
        let (ix, built) = set.index_of("R", &r, &[0, 1]);
        assert!(built && !ix.determines(1), "2 → {{20, 21}}");
        r.apply_delta([[4u64, 40]], [[2u64, 20]]);
        let (ix, _) = set.index_of("R", &r, &[0, 1]);
        assert!(ix.determines(1), "2 → 21 alone");
        // One root after the delta: the empty prefix determines x.
        r.apply_delta([] as [&[Value]; 0], [[1u64, 10], [2, 21], [3, 30]]);
        let (ix, _) = set.index_of("R", &r, &[0, 1]);
        assert!(ix.determines(0) && ix.determines(1));
        assert_eq!(*ix, TrieIndex::build(&r, &[0, 1]));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// [`TrieIndex::determines`] agrees with a brute-force check in
        /// every order and at every column of every built trie.
        #[test]
        fn determines_matches_a_brute_force_check(arity in 1usize..4, rows in rows_strategy(24)) {
            let vars: Vec<u32> = (0..arity as u32).collect();
            let rel = Relation::from_rows(vars.clone(), rows.iter().map(|r| &r[..arity]));
            for order in permutations(&vars) {
                let ix = TrieIndex::build(&rel, &order);
                for k in 0..arity {
                    prop_assert_eq!(ix.determines(k), prefix_determines(&rel, &order, k), "order {:?}, k {}", order, k);
                }
            }
        }

        /// A carried trie is the trie of the changed relation, in every
        /// full-arity order, with its level arrays allocated at exactly
        /// their final sizes — deletes of absent rows and rows deleted and
        /// re-inserted in one batch included.
        #[test]
        fn carried_trie_equals_a_fresh_build(
            arity in 1usize..4,
            rows in rows_strategy(40),
            inserts in rows_strategy(8),
            deletes in rows_strategy(8),
            reinserted in proptest::collection::vec(0usize..8, 0..4),
        ) {
            let cut = |rows: Vec<Vec<Value>>| -> Vec<Vec<Value>> {
                rows.into_iter().map(|r| r[..arity].to_vec()).collect()
            };
            let (rows, inserts, mut deletes) = (cut(rows), cut(inserts), cut(deletes));
            deletes.extend(reinserted.iter().filter_map(|&i| inserts.get(i).cloned()));
            let vars: Vec<u32> = (0..arity as u32).collect();
            let mut rel = Relation::from_rows(vars.clone(), rows);
            rel.sort_dedup();
            let orders = permutations(&vars);
            let before: Vec<TrieIndex> = orders.iter().map(|o| TrieIndex::build(&rel, o)).collect();
            rel.apply_delta(&inserts, &deletes);
            let Some(l) = rel.lineage() else {
                return Ok(()); // nothing changed
            };
            for (order, old) in orders.iter().zip(before) {
                let carried = old.apply_delta(&l.plus.project(order), &l.minus.project(order));
                prop_assert_eq!(&carried, &TrieIndex::build(&rel, order), "order {:?}", order);
                for k in 0..arity {
                    prop_assert_eq!(carried.determines(k), prefix_determines(&rel, order, k));
                }
                let exact = |v: &Vec<Vec<Value>>| v.iter().all(|l| l.capacity() == l.len());
                prop_assert!(exact(&carried.values), "values over-allocated");
                prop_assert!(carried.starts.iter().all(|l| l.capacity() == l.len()), "starts over-allocated");
            }
        }
    }

    /// The level buffers of `ix`, by address.
    fn level_addresses(ix: &TrieIndex) -> Vec<usize> {
        let values = ix.values.iter().map(|v| v.as_ptr() as usize);
        values
            .chain(ix.starts.iter().map(|s| s.as_ptr() as usize))
            .collect()
    }

    #[test]
    fn an_unshared_predecessor_is_carried_in_its_own_buffers() {
        let set = IndexSet::new();
        let mut r = Relation::from_rows(vec![0, 1], (0..64u64).map(|i| [i / 4, i]));
        set.index_of("R", &r, &[0, 1]);
        // The first carry fits the built levels to their lengths.
        r.apply_delta([[3u64, 100]], [[0u64, 0]]);
        let before = level_addresses(&set.index_of("R", &r, &[0, 1]).0);
        // As many nodes enter each level as leave it: root 1 loses a child
        // and root 5 gains one.
        r.apply_delta([[5u64, 200]], [[1u64, 4]]);
        let (after, built) = set.index_of("R", &r, &[0, 1]);
        assert!(built, "a new version misses once");
        assert_eq!(level_addresses(&after), before, "spliced where it lies");
        assert_eq!(*after, TrieIndex::build(&r, &[0, 1]));
    }

    #[test]
    fn relation_of_ranges_is_sorted_subset() {
        let r = rel();
        let ix = TrieIndex::build(&r, &[0, 1, 2]);
        let groups = ix.group_ranges(1);
        assert_eq!(groups.len(), 2);
        let first = ix.relation_of_ranges([groups[0].clone()]);
        assert_eq!(first.len(), 3);
        assert!(first.is_sorted());
        let both = ix.relation_of_ranges(groups);
        assert_eq!(both, ix.to_relation());
    }
}
