//! The shared access-path layer: cached trie-shaped indexes and the
//! zero-allocation probe cursor every join algorithm executes through.
//!
//! The paper's algorithms — chain, SMA, CSMA, Generic-Join — are all
//! sequences of *ordered-prefix probes*: bind a prefix of some column
//! order, look at the matching tuples, extend. The
//! worst-case-optimal-join literature (LeapFrog TrieJoin and friends)
//! answers those probes from *trie* access paths: one sorted index per
//! `(relation, column order)`, navigated by a cursor that only ever
//! narrows, so every search is bounded by the range the previous level
//! established.
//!
//! Three types implement that here:
//!
//! - [`TrieIndex`] — the index for one `(relation, column order)`, stored
//!   as a **columnar level-trie** (struct of arrays): per level ℓ a dense
//!   `values[ℓ]` array holding every trie node's distinct children
//!   contiguously, plus a `starts[ℓ]` child-offset array mapping node *i*
//!   at level ℓ to its children range at level ℓ+1. Shared prefixes are
//!   stored once — level 0 holds each distinct first value exactly once —
//!   so the layout is both smaller than the repeated-prefix row-major
//!   projection and cache-dense: a level-ℓ search touches one contiguous
//!   `&[Value]` run instead of a strided walk over full rows.
//! - [`Probe`] — a cheap, `Copy`, zero-allocation cursor: the index plus
//!   a plain position ([`ProbeSnapshot`]: depth and node-id range). Each
//!   navigation op exists once, on the position:
//!   [`Probe::descend`] narrows to the subtrie matching one more column
//!   value, [`Probe::seek`] gallops forward *inside the already-narrowed
//!   node range* to the next value `≥ v` at the current level — the
//!   leapfrog primitive — and [`Probe::enter`] steps into the current
//!   value's subtrie. Because each node's children are adjacent in
//!   `values[ℓ]`, [`Probe::next_value`] is a constant-time increment, and
//!   the bound searches run a branch-free, SIMD-friendly kernel over the
//!   contiguous level array (see `lower_bound`). Searches that suspend
//!   (`fdjoin_core::descent`) keep bare positions and navigate them in
//!   place.
//! - [`IndexSet`] — a concurrent (one `RwLock`) cache of
//!   [`TrieIndex`]es keyed by [`IndexKey`]: relation name, content
//!   [`Relation::version`], and column order. Because versions are
//!   globally unique content snapshots (see [`Relation::version`]), a hit
//!   is always sound — across repeated executions, batch drivers, worker
//!   threads, and delta batches — and a version bump misses. A bump by
//!   [`Relation::apply_delta`] misses cheaply: the successor's full-arity
//!   tries are carried from the predecessor's resident ones, whose level
//!   arrays are edited in place (touched root subtries re-pushed, untouched
//!   runs moved within the same buffers), and replace them.
//!   Every other superseded version stops being touched and ages out
//!   LRU-wise under a per-slot version cap and a total **byte budget**
//!   ([`TrieIndex::heap_bytes`]-accounted, so eviction pressure tracks
//!   actual resident memory, not entry counts). Build/hit counters
//!   ([`IndexSet::stats`]) make reuse observable and testable.
//!
//! Row access over the columnar layout goes through [`RowWalk`], a lending
//! cursor that reconstitutes full rows in index order at amortized O(1)
//! per row (an odometer over the `starts` arrays), or [`TrieIndex::row`]
//! for random access to a single row.

use crate::relation::{identity_permutation, splice_in_place, Relation};
use crate::Value;
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

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
/// [`TrieIndex::split_ranges`], [`Probe::range`], …) speaks row ids.
///
/// Navigation happens through [`TrieIndex::probe`]; bulk access through
/// [`TrieIndex::walk`] / [`TrieIndex::row`]. The index owns its data, so
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
    /// sort keys once into a flat buffer — the comparator never re-reads
    /// source rows — sorts a row-id permutation, and streams the distinct
    /// projected rows into the level arrays.
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
        if rel.is_sorted() && rel.vars() == order {
            for row in rel.rows() {
                b.push(row);
            }
            return b.finish();
        }
        // Extract per-row keys once (columns gathered a single time), so
        // each sort comparison is a contiguous slice compare instead of a
        // re-walk of `cols` over the source row store.
        let n = rel.len();
        let mut keys: Vec<Value> = Vec::with_capacity(n * arity);
        for i in 0..n {
            let row = rel.row(i);
            keys.extend(cols.iter().map(|&c| row[c]));
        }
        let key = |i: u32| &keys[i as usize * arity..(i as usize + 1) * arity];
        let mut perm = identity_permutation(n);
        perm.sort_unstable_by(|&i, &j| key(i).cmp(key(j)));
        let mut prev: Option<&[Value]> = None;
        for &p in &perm {
            let k = key(p);
            if prev == Some(k) {
                continue;
            }
            b.push(k);
            prev = Some(k);
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
    fn n_nodes(&self, level: usize) -> usize {
        if level >= self.values.len() {
            self.rows
        } else {
            self.values[level].len()
        }
    }

    /// The first row id under node `node` at `level` — the level-wise
    /// `starts` chain down to the leaves. Accepts the one-past-the-end
    /// node (the sentinel entries make it map to the one-past-the-end
    /// row), so a node range maps to a row range by two calls.
    #[inline]
    fn first_row(&self, level: usize, mut node: usize) -> usize {
        for l in level..self.starts.len() {
            node = self.starts[l][node] as usize;
        }
        node
    }

    /// The position spanning the children of node `node` at `level`, one
    /// level down. Below the last level the node id is the row id.
    #[inline]
    fn children(&self, level: usize, node: usize) -> ProbeSnapshot {
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

    /// Random access to one projected row (rows are in lexicographic
    /// order of the index order). Reconstitutes the row from the level
    /// arrays — O(arity · log) — so bulk iteration should use
    /// [`TrieIndex::walk`] instead.
    pub fn row(&self, i: usize) -> Vec<Value> {
        debug_assert!(i < self.rows, "row index out of range");
        let a = self.arity();
        let mut out = Vec::with_capacity(a);
        let mut node = i;
        for l in (0..a).rev() {
            out.push(self.values[l][node]);
            if l > 0 {
                // Parent of `node`: the last level-(l-1) node whose
                // children start at or before it.
                node = self.starts[l - 1].partition_point(|&s| (s as usize) <= node) - 1;
            }
        }
        out.reverse();
        out
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

    /// [`TrieIndex::walk`] over every row.
    pub fn walk_all(&self) -> RowWalk<'_> {
        self.walk(0..self.rows)
    }

    /// A cursor positioned at the trie root: depth 0, spanning every
    /// root child (node ids at level 0).
    pub fn probe(&self) -> Probe<'_> {
        self.resume(ProbeSnapshot {
            depth: 0,
            lo: 0,
            hi: self.n_nodes(0),
        })
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
    /// byte-accounted [`IndexSet`] budget charges for this index.
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

    /// Split the rows into at most `parts` contiguous sub-ranges on
    /// first-column (root child) boundaries, balanced by measured child
    /// counts — the split points a parallel solve fans out over. The
    /// per-child weights come straight off `starts[0]`'s offset chain.
    /// Every range covers whole root subtries, so a range-restricted
    /// solve never sees a torn child; ranges are returned in row order
    /// and partition `0..len()` exactly. An empty index yields no ranges;
    /// a single distinct first value cannot be split and yields one range.
    pub fn split_ranges(&self, parts: usize) -> Vec<Range<usize>> {
        if self.rows == 0 {
            return Vec::new();
        }
        if self.arity() == 0 {
            return vec![Range {
                start: 0,
                end: self.rows,
            }];
        }
        let groups = self.group_ranges(1);
        let weights: Vec<u64> = groups.iter().map(|g| g.len() as u64).collect();
        balanced_ranges(&weights, parts)
            .into_iter()
            .map(|b| groups[b.start].start..groups[b.end - 1].end)
            .collect()
    }

    /// Reattach a saved cursor position to this index: the inverse of
    /// [`Probe::snapshot`]. The snapshot must have been taken from a probe
    /// over an index with identical content (same rows, same order) —
    /// callers pausing across database versions must re-validate content
    /// identity (e.g. via [`Relation::version`]) before resuming; a
    /// snapshot from different content silently addresses the wrong
    /// nodes.
    pub fn resume(&self, snap: ProbeSnapshot) -> Probe<'_> {
        debug_assert!(snap.depth <= self.arity(), "snapshot depth out of range");
        debug_assert!(
            snap.hi <= self.n_nodes(snap.depth),
            "snapshot range out of range"
        );
        debug_assert!(snap.lo <= snap.hi, "snapshot range inverted");
        Probe {
            ix: self,
            pos: snap,
        }
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

/// Partition `0..weights.len()` items into at most `parts` contiguous
/// non-empty blocks with balanced total weight. Greedy: each block closes
/// once it reaches the average of the *remaining* weight over the
/// *remaining* blocks, so a single heavy item (e.g. a root child holding
/// 99% of the rows) gets a block to itself and the light tail spreads
/// evenly — never a naive equal-width split. Items are never torn across
/// blocks. Deterministic in its inputs.
pub fn balanced_ranges(weights: &[u64], parts: usize) -> Vec<Range<usize>> {
    let n = weights.len();
    let parts = parts.clamp(1, n.max(1));
    if n == 0 {
        return Vec::new();
    }
    let mut remaining: u64 = weights.iter().sum();
    let mut blocks = Vec::with_capacity(parts);
    let mut start = 0;
    while start < n {
        let blocks_left = (parts - blocks.len()).max(1);
        // Ceiling average so the trailing blocks are never starved.
        let target = remaining.div_ceil(blocks_left as u64).max(1);
        let mut end = start;
        let mut acc = 0u64;
        while end < n && (acc < target || end == start) {
            // Leave at least one item for every block still owed.
            if blocks_left > 1 && end > start && n - end < blocks_left {
                break;
            }
            acc += weights[end];
            end += 1;
        }
        if blocks.len() + 1 == parts {
            end = n; // the last allowed block takes the tail
        }
        remaining -= weights[start..end].iter().sum::<u64>();
        blocks.push(start..end);
        start = end;
    }
    blocks
}

// ---------------------------------------------------------------------------
// The probe kernel: contiguous lower-bound search over one level array.
// ---------------------------------------------------------------------------

/// Below this span the bisect hands off to the branch-free chunked
/// compare loop — at that size a predictable linear sweep beats the
/// data-dependent loads of further halving.
const LINEAR_SPAN: usize = 32;

/// Number of elements of `s` strictly less than `v`, counted without a
/// single branch on element values: every compare becomes a flag add, and
/// the fixed-width chunks give the autovectorizer a clean reduction shape
/// instead of a mispredict at the boundary.
#[inline]
fn count_lt(s: &[Value], v: Value) -> usize {
    let mut n = 0usize;
    let mut chunks = s.chunks_exact(8);
    for c in &mut chunks {
        n += c.iter().map(|&x| usize::from(x < v)).sum::<usize>();
    }
    n + chunks
        .remainder()
        .iter()
        .map(|&x| usize::from(x < v))
        .sum::<usize>()
}

/// First position in `s[from..hi]` whose value is `>= v`, assuming that
/// subrange is sorted: gallop from `from`, branch-free bisect (the range
/// update compiles to a conditional move, never a mispredicted jump) down
/// to `LINEAR_SPAN`, then the branch-free chunked `count_lt` sweep over
/// the short contiguous tail.
fn lower_bound(s: &[Value], from: usize, hi: usize, v: Value) -> usize {
    debug_assert!(from <= hi && hi <= s.len());
    if from >= hi || s[from] >= v {
        return from;
    }
    // Gallop: exponentially widen [prev, probe] until s[probe] >= v.
    let (mut prev, mut step) = (from, 1usize);
    let mut end = hi;
    loop {
        let probe = match prev.checked_add(step) {
            Some(p) if p < hi => p,
            _ => break,
        };
        if s[probe] >= v {
            end = probe;
            break;
        }
        prev = probe;
        step <<= 1;
    }
    // Invariant: s[base] < v, answer in (base, base + len].
    let mut base = prev;
    let mut len = end - prev;
    while len > LINEAR_SPAN {
        let half = len / 2;
        base += if s[base + half] < v { half } else { 0 };
        len -= half;
    }
    base + 1 + count_lt(&s[base + 1..base + len], v)
}

/// A [`Probe`]'s position as plain data: the cursor's depth and
/// **node-id** range at that depth, detached from the index's lifetime.
///
/// Every navigation op is written once, here, against the pair
/// `(&TrieIndex, &mut ProbeSnapshot)`; [`Probe`] is that pair bundled. A
/// search that must outlive a borrow of its indexes (a paused result
/// stream, the per-depth cursor levels of `fdjoin_core::descent`) stores
/// positions and navigates them in place, passing the owning index to each
/// call. The coordinates are trie-node ids at `depth` (row ids exactly at
/// the leaf level); a position is only meaningful against an index with
/// the content it was taken from.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProbeSnapshot {
    /// How many leading columns the cursor has bound.
    pub depth: usize,
    /// Start of the node range at `depth`.
    pub lo: usize,
    /// End (exclusive) of the node range at `depth`.
    pub hi: usize,
}

impl ProbeSnapshot {
    /// Whether the node range is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lo >= self.hi
    }

    /// The current **row** range of `ix`, however deep the cursor is: the
    /// node range translated through the `starts` offset chain.
    #[inline]
    pub fn range(&self, ix: &TrieIndex) -> Range<usize> {
        ix.first_row(self.depth, self.lo)..ix.first_row(self.depth, self.hi)
    }

    /// Number of rows in the current range.
    #[inline]
    pub fn len(&self, ix: &TrieIndex) -> usize {
        self.range(ix).len()
    }

    /// The value at the current depth of the first node in range — the
    /// smallest un-visited value at this trie level.
    #[inline]
    pub fn current(&self, ix: &TrieIndex) -> Option<Value> {
        if self.is_empty() || self.depth >= ix.arity() {
            return None;
        }
        Some(ix.values[self.depth][self.lo])
    }

    /// Leapfrog: advance the range start to the first value `≥ v` at the
    /// current level and return it. The cursor only moves forward, so a
    /// sorted sequence of seeks over one level is amortized linear in the
    /// range.
    #[inline]
    pub fn seek(&mut self, ix: &TrieIndex, v: Value) -> Option<Value> {
        debug_assert!(self.depth < ix.arity());
        self.lo = lower_bound(&ix.values[self.depth], self.lo, self.hi, v);
        self.current(ix)
    }

    /// Skip past the current value and return the next distinct value at
    /// this level, if any — O(1): one node per distinct value, adjacent in
    /// the level array.
    #[inline]
    pub fn next_value(&mut self, ix: &TrieIndex) -> Option<Value> {
        self.current(ix)?;
        self.lo += 1;
        self.current(ix)
    }

    /// The subrange of **rows** carrying the current value at this level.
    #[inline]
    pub fn group(&self, ix: &TrieIndex) -> Range<usize> {
        let start = ix.first_row(self.depth, self.lo);
        match self.current(ix) {
            None => start..start,
            Some(_) => start..ix.first_row(self.depth, self.lo + 1),
        }
    }

    /// Narrow the range to the subtrie whose next column equals `v` and
    /// move one level down. Returns `false` (leaving the position
    /// unchanged) when no row matches.
    #[inline]
    pub fn descend(&mut self, ix: &TrieIndex, v: Value) -> bool {
        debug_assert!(self.depth < ix.arity(), "descend below the leaf level");
        let level = &ix.values[self.depth];
        let node = lower_bound(level, self.lo, self.hi, v);
        if node >= self.hi || level[node] != v {
            return false;
        }
        *self = ix.children(self.depth, node);
        true
    }

    /// Step into the current value's subtrie: a child position over
    /// exactly the nodes below [`ProbeSnapshot::current`], one level
    /// deeper (empty when there is no current value).
    #[inline]
    pub fn enter(&self, ix: &TrieIndex) -> ProbeSnapshot {
        match self.current(ix) {
            Some(_) => ix.children(self.depth, self.lo),
            None => ProbeSnapshot {
                depth: self.depth + 1,
                lo: 0,
                hi: 0,
            },
        }
    }
}

/// A zero-allocation trie cursor: a [`TrieIndex`] and a plain position
/// ([`ProbeSnapshot`]) — a current depth and a node range that only ever
/// narrows. Every method delegates to the position's op of the same name.
///
/// The cursor holds a **node-id** range at its current level; the level
/// arrays keep each node's children contiguous, so every search
/// ([`Probe::descend`], the [`Probe::seek`] leapfrog) runs the branch-free
/// `lower_bound` kernel over one dense `&[Value]` run, and
/// [`Probe::next_value`] is a constant-time increment. Row-range views
/// ([`Probe::range`], [`Probe::group`], [`Probe::len`]) translate through
/// the `starts` offset chain, so callers keep speaking row ids.
///
/// `Probe` is `Copy` (a reference and three word-sized fields), so
/// backtracking search keeps per-level copies by value instead of
/// re-deriving ranges with global binary searches. All searches gallop
/// from the current position before bisecting, so a run of nearby probes
/// costs `O(log gap)`, not `O(log n)`.
#[derive(Clone, Copy)]
pub struct Probe<'a> {
    ix: &'a TrieIndex,
    pos: ProbeSnapshot,
}

impl fmt::Debug for Probe<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Probe")
            .field("depth", &self.pos.depth)
            .field("nodes", &(self.pos.lo..self.pos.hi))
            .field("rows", &self.range())
            .finish()
    }
}

impl<'a> Probe<'a> {
    /// Current depth: how many leading columns are bound.
    pub fn depth(&self) -> usize {
        self.pos.depth
    }

    /// See [`ProbeSnapshot::range`].
    pub fn range(&self) -> Range<usize> {
        self.pos.range(self.ix)
    }

    /// See [`ProbeSnapshot::len`].
    #[inline]
    pub fn len(&self) -> usize {
        self.pos.len(self.ix)
    }

    /// See [`ProbeSnapshot::is_empty`].
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }

    /// See [`ProbeSnapshot::descend`].
    pub fn descend(&mut self, v: Value) -> bool {
        self.pos.descend(self.ix, v)
    }

    /// [`Probe::descend`] through each value of `key` in turn.
    pub fn descend_all(&mut self, key: &[Value]) -> bool {
        key.iter().all(|&v| self.descend(v))
    }

    /// See [`ProbeSnapshot::current`].
    pub fn current(&self) -> Option<Value> {
        self.pos.current(self.ix)
    }

    /// See [`ProbeSnapshot::seek`].
    pub fn seek(&mut self, v: Value) -> Option<Value> {
        self.pos.seek(self.ix, v)
    }

    /// See [`ProbeSnapshot::next_value`].
    pub fn next_value(&mut self) -> Option<Value> {
        self.pos.next_value(self.ix)
    }

    /// See [`ProbeSnapshot::group`].
    pub fn group(&self) -> Range<usize> {
        self.pos.group(self.ix)
    }

    /// This cursor's position as plain data; [`TrieIndex::resume`]
    /// restores it in O(1).
    pub fn snapshot(&self) -> ProbeSnapshot {
        self.pos
    }

    /// See [`ProbeSnapshot::enter`].
    pub fn enter(&self) -> Probe<'a> {
        Probe {
            ix: self.ix,
            pos: self.pos.enter(self.ix),
        }
    }
}

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
    /// reader still holds the predecessor), and the result, equal to
    /// [`TrieIndex::build`], replaces it. Projection orders, relations with
    /// no lineage, evicted predecessors and a racing builder that finds the
    /// predecessor already taken build from scratch.
    pub fn index_of(&self, name: &str, rel: &Relation, order: &[u32]) -> (Arc<TrieIndex>, bool) {
        let key = IndexKey::base(name, rel, order.to_vec());
        let lineage = rel.lineage().filter(|_| order.len() == rel.arity());
        self.fetch(key, lineage.map(|l| l.from), |pred| match (pred, lineage) {
            (Some(pred), Some(l)) => {
                pred.apply_delta(&l.plus.project(order), &l.minus.project(order))
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rel() -> Relation {
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
            for i in 0..ix.len() {
                assert_eq!(ix.row(i), p.row(i), "order {order:?} row {i}");
            }
            assert_eq!(ix.to_relation(), p);
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
            let mut w = ix.walk_all();
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
        let ix = TrieIndex::build(&rel(), &[0, 1, 2]);
        for start in 0..=ix.len() {
            for end in start..=ix.len() {
                let mut w = ix.walk(start..end);
                let mut i = start;
                while let Some(row) = w.next() {
                    assert_eq!(row, &ix.row(i)[..], "walk({start}..{end}) at {i}");
                    i += 1;
                }
                assert_eq!(i, end);
            }
        }
    }

    #[test]
    fn lower_bound_matches_partition_point() {
        let mut s: Vec<Value> = Vec::new();
        let mut x = 7u64;
        for _ in 0..500 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            s.push(x % 997);
        }
        s.sort_unstable();
        for from in [0usize, 3, 100, 257, 499, 500] {
            for v in [0u64, 1, 13, 500, 996, 997, u64::MAX] {
                let want = from + s[from..].partition_point(|&x| x < v);
                assert_eq!(lower_bound(&s, from, s.len(), v), want, "from {from} v {v}");
            }
        }
        // Restricted hi clamps the gallop.
        assert_eq!(lower_bound(&s, 0, 0, 5), 0);
        let want = s[..10].partition_point(|&x| x < u64::MAX);
        assert_eq!(lower_bound(&s, 0, 10, u64::MAX), want);
    }

    #[test]
    fn count_lt_matches_scalar() {
        let s: Vec<Value> = (0..100u64).map(|i| i * 37 % 100).collect();
        for v in [0u64, 1, 50, 99, 100, u64::MAX] {
            let want = s.iter().filter(|&&x| x < v).count();
            assert_eq!(count_lt(&s, v), want, "v {v}");
        }
    }

    #[test]
    fn probe_descend_and_range() {
        let r = rel();
        let ix = TrieIndex::build(&r, &[0, 1, 2]);
        let mut p = ix.probe();
        assert_eq!(p.range(), 0..5);
        assert!(p.descend(1));
        assert_eq!(p.len(), 3);
        assert!(p.descend(10));
        assert_eq!(p.len(), 2);
        assert!(!p.descend(999));
        assert_eq!(p.len(), 2, "failed descend leaves the cursor in place");
        assert!(p.descend(101));
        assert_eq!(p.len(), 1);
        assert_eq!(ix.row(p.range().start), &[1, 10, 101]);
    }

    #[test]
    fn probe_seek_and_next_value() {
        let r = rel();
        let ix = TrieIndex::build(&r, &[1]);
        // Distinct values at level 0: 10, 11, 12.
        let mut p = ix.probe();
        assert_eq!(p.current(), Some(10));
        assert_eq!(p.seek(11), Some(11));
        assert_eq!(p.next_value(), Some(12));
        assert_eq!(p.seek(12), Some(12), "seek never moves backwards");
        assert_eq!(p.next_value(), None);
    }

    #[test]
    fn probe_enter_narrows() {
        let r = rel();
        let ix = TrieIndex::build(&r, &[0, 1]);
        let mut p = ix.probe();
        assert_eq!(p.current(), Some(1));
        let mut child = p.enter();
        assert_eq!(child.current(), Some(10));
        assert_eq!(child.next_value(), Some(11));
        assert_eq!(p.next_value(), Some(2));
        let child2 = p.enter();
        assert_eq!(child2.current(), Some(10));
    }

    #[test]
    fn snapshot_resume_round_trips() {
        let r = rel();
        let ix = TrieIndex::build(&r, &[0, 1, 2]);
        let mut p = ix.probe();
        assert!(p.descend(1));
        assert!(p.descend(10));
        let snap = p.snapshot();
        // The live cursor moves on; the snapshot stays put.
        assert_eq!(p.next_value(), Some(101));
        let mut resumed = ix.resume(snap);
        assert_eq!(resumed.depth(), 2);
        assert_eq!(resumed.range(), p.range().start - 1..p.range().end);
        assert_eq!(resumed.current(), Some(100));
        assert_eq!(resumed.next_value(), Some(101));
        assert_eq!(resumed.next_value(), None);
        // Root snapshot resumes to the full index.
        let root = ix.probe().snapshot();
        assert_eq!(ix.resume(root).range(), 0..ix.len());
        assert_eq!(ProbeSnapshot::default().depth, 0);
    }

    #[test]
    fn snapshot_is_in_node_coordinates() {
        let ix = TrieIndex::build(&rel(), &[0, 1, 2]);
        let mut p = ix.probe();
        assert!(p.descend(2)); // second root child
        let snap = p.snapshot();
        assert_eq!(snap.depth, 1);
        // Root child `2` owns level-1 nodes 2..4 (values 10, 12) ...
        assert_eq!((snap.lo, snap.hi), (2, 4));
        // ... which the starts chain maps to rows 3..5.
        assert_eq!(ix.resume(snap).range(), 3..5);
        assert_eq!(ix.resume(snap).current(), Some(10));
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
            for (i, j) in a.zip(b) {
                assert_eq!(ix.row(i), r.row(j), "{key:?}");
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

    #[test]
    fn split_ranges_empty_index_has_no_ranges() {
        let r = Relation::new(vec![0, 1]);
        let ix = TrieIndex::build(&r, &[0, 1]);
        assert!(ix.split_ranges(8).is_empty());
    }

    #[test]
    fn split_ranges_single_first_value_is_one_range() {
        // Every row shares first-column value 7: no root-child boundary to
        // split on, so any requested parallelism degenerates to one range.
        let r = Relation::from_rows(vec![0, 1], (0..10u64).map(|i| [7, i]));
        let ix = TrieIndex::build(&r, &[0, 1]);
        for parts in [1, 2, 8, 100] {
            assert_eq!(ix.split_ranges(parts), vec![0..10]);
        }
    }

    #[test]
    fn split_ranges_more_parts_than_children() {
        // 3 distinct first values, 8 requested parts: one range per child,
        // never an empty range.
        let r = Relation::from_rows(vec![0, 1], [[1, 0], [2, 0], [2, 1], [3, 0]]);
        let ix = TrieIndex::build(&r, &[0, 1]);
        let ranges = ix.split_ranges(8);
        assert_eq!(ranges, vec![0..1, 1..3, 3..4]);
    }

    #[test]
    fn split_ranges_balance_by_child_counts_not_width() {
        // First value 0 owns 99 of 102 rows (99% skew). A naive equal-width
        // split over the 4 children would pair the heavy child with a light
        // one; balancing by measured child counts isolates it.
        let mut rows: Vec<[u64; 2]> = (0..99u64).map(|i| [0, i]).collect();
        rows.extend([[1, 0], [2, 0], [3, 0]]);
        let r = Relation::from_rows(vec![0, 1], rows);
        let ix = TrieIndex::build(&r, &[0, 1]);
        let ranges = ix.split_ranges(4);
        assert_eq!(ranges[0], 0..99, "heavy child gets a range to itself");
        assert_eq!(ranges.last().unwrap().end, 102);
        // Ranges partition 0..len exactly, in row order.
        assert!(ranges.windows(2).all(|w| w[0].end == w[1].start));
        assert_eq!(ranges[0].start, 0);
    }

    #[test]
    fn split_ranges_never_tear_a_child() {
        let r = Relation::from_rows(
            vec![0, 1],
            [
                [1, 0],
                [1, 1],
                [1, 2],
                [2, 0],
                [2, 1],
                [3, 0],
                [3, 1],
                [3, 2],
            ],
        );
        let ix = TrieIndex::build(&r, &[0, 1]);
        let boundaries: Vec<usize> = ix.group_ranges(1).iter().map(|g| g.start).collect();
        for parts in 1..=8 {
            for range in ix.split_ranges(parts) {
                assert!(
                    boundaries.contains(&range.start),
                    "range start {} splits a root child",
                    range.start
                );
            }
        }
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
