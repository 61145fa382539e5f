//! The probe cursor: the zero-allocation, narrowing-only navigation every
//! join algorithm executes through, and the search kernel under it.
//!
//! The paper's algorithms — chain, SMA, CSMA, Generic-Join — are all
//! sequences of *ordered-prefix probes*: bind a prefix of some column
//! order, look at the matching tuples, extend. The
//! worst-case-optimal-join literature (LeapFrog TrieJoin and friends)
//! answers those probes from trie access paths ([`TrieIndex`]) navigated
//! by a cursor that only ever narrows, so every search is bounded by the
//! range the previous level established.
//!
//! [`Probe`] is that cursor: a cheap, `Copy` pair of the index and a plain
//! position ([`ProbeSnapshot`]: depth and node-id range). Each navigation
//! op exists once, on the position: [`Probe::descend`] narrows to the
//! subtrie matching one more column value, [`Probe::seek`] gallops forward
//! *inside the already-narrowed node range* to the next value `≥ v` at the
//! current level — the leapfrog primitive — and [`Probe::enter`] steps
//! into the current value's subtrie. Because each node's children are
//! adjacent in their level array, [`Probe::next_value`] is a constant-time
//! increment, and the bound searches run a branch-free, SIMD-friendly
//! kernel over the contiguous level array (see `lower_bound`). Searches
//! that suspend (`fdjoin_core::descent`) keep bare positions and navigate
//! them in place; keyed lookups resumed from the last key go through
//! [`Finger`](crate::Finger).

use crate::{TrieIndex, Value};
use std::fmt;
use std::ops::Range;

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
pub(crate) fn lower_bound(s: &[Value], from: usize, hi: usize, v: Value) -> usize {
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
        Some(ix.level(self.depth)[self.lo])
    }

    /// Leapfrog: advance the range start to the first value `≥ v` at the
    /// current level and return it. The cursor only moves forward, so a
    /// sorted sequence of seeks over one level is amortized linear in the
    /// range.
    #[inline]
    pub fn seek(&mut self, ix: &TrieIndex, v: Value) -> Option<Value> {
        debug_assert!(self.depth < ix.arity());
        self.lo = lower_bound(ix.level(self.depth), self.lo, self.hi, v);
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
        let level = ix.level(self.depth);
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

impl TrieIndex {
    /// A cursor positioned at the trie root: depth 0, spanning every
    /// root child (node ids at level 0).
    pub fn probe(&self) -> Probe<'_> {
        self.resume(ProbeSnapshot {
            depth: 0,
            lo: 0,
            hi: self.n_nodes(0),
        })
    }

    /// Reattach a saved cursor position to this index: the inverse of
    /// [`Probe::snapshot`]. The snapshot must have been taken from a probe
    /// over an index with identical content (same rows, same order) —
    /// callers pausing across database versions must re-validate content
    /// identity (e.g. via [`Relation::version`](crate::Relation::version))
    /// before resuming; a snapshot from different content silently
    /// addresses the wrong nodes.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trie::tests::rel;

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
        assert_eq!(r.project(&[0, 1, 2]).row(p.range().start), &[1, 10, 101]);
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
}
