//! Row-major relations with sort-order (trie-equivalent) prefix indexes.

use crate::index::TrieIndex;
use crate::stats::RelationStats;
use crate::{Finger, Found, Value};
use fdjoin_lattice::VarSet;
use std::cmp::Ordering;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, OnceLock};

/// Source of relation content versions. Monotonic and *global*, so a
/// version is a unique content-snapshot id: two relations carry the same
/// version only if one is an untouched clone of the other — in which case
/// their rows are identical. That property is what lets the access-path
/// layer ([`crate::IndexSet`]) key cached indexes by `(name, version,
/// order)` and share them soundly across databases, clones, and threads.
static VERSION_COUNTER: AtomicU64 = AtomicU64::new(0);

/// "No version assigned yet" (the counter starts handing out at 1).
const UNASSIGNED: u64 = 0;

pub(crate) fn next_version() -> u64 {
    VERSION_COUNTER.fetch_add(1, AtomicOrdering::Relaxed) + 1
}

/// A relation instance: a bag of fixed-arity rows over named variables.
///
/// Rows are stored contiguously (`data[row * arity + col]`). The column
/// order doubles as the index order: on a sorted relation
/// ([`Relation::is_sorted`]), prefix lookups by binary search give exactly
/// the trie navigation that LeapFrog-TrieJoin-style algorithms need,
/// without pointer chasing.
///
/// Relations are *order-aware*: every append compares the new row against
/// the previous one, so a relation filled in strictly increasing order —
/// what Generic-Join, a trie walk or a filtered scan of a sorted relation
/// produce — knows it is sorted and duplicate-free, and
/// [`Relation::sort_dedup`] on it costs nothing.
///
/// Relations are *versioned*: [`Relation::version`] is a globally unique
/// content-snapshot id that changes with every content mutation
/// ([`Relation::push_row`], [`Relation::concat`],
/// [`Relation::apply_delta`]), so incremental-maintenance layers detect
/// drift — and index caches key content — without diffing rows. The
/// version is bookkeeping, not content — equality compares rows only.
///
/// Sorted relations also offer exact per-prefix degree/skew statistics
/// ([`Relation::stats`]), computed on first request and carried across
/// [`Relation::apply_delta`]; the cost model in `fdjoin_core::cost` plans
/// from them.
#[derive(Debug)]
pub struct Relation {
    vars: Vec<u32>,
    data: Vec<Value>,
    /// Rows are strictly increasing (sorted and duplicate-free). Exact:
    /// maintained by one compare per appended row and per concatenation
    /// seam, never assumed.
    sorted: bool,
    /// Content version, or [`UNASSIGNED`] until someone asks: mutations
    /// only reset it (a plain store to this relation's own field), and
    /// [`Relation::version`] draws from the global counter on demand.
    version: AtomicU64,
    /// Statistics of the stored rows, filled by the first
    /// [`Relation::stats`] call on a sorted relation, updated by
    /// [`Relation::apply_delta`] and dropped by every other mutation.
    stats: OnceLock<RelationStats>,
    /// How these rows derive from an earlier version, when the last
    /// mutation was an [`Relation::apply_delta`]; cleared by every other.
    lineage: Option<Arc<Lineage>>,
}

/// What one [`Relation::apply_delta`] changed: the version it started from
/// and the net rows it added and removed (sorted, in the relation's column
/// order). The access-path layer derives the successor's tries from the
/// predecessor's with it ([`crate::IndexSet::index_of`]).
#[derive(Debug)]
pub(crate) struct Lineage {
    /// The predecessor's [`Relation::version`].
    pub(crate) from: u64,
    /// Rows absent from the predecessor and present now.
    pub(crate) plus: Relation,
    /// Rows present in the predecessor and absent now.
    pub(crate) minus: Relation,
}

impl Clone for Relation {
    /// The clone shares this relation's version (assigning one first if
    /// none was observed yet) until either side mutates.
    fn clone(&self) -> Relation {
        Relation {
            vars: self.vars.clone(),
            data: self.data.clone(),
            sorted: self.sorted,
            version: AtomicU64::new(self.version()),
            stats: self.stats.clone(),
            lineage: self.lineage.clone(),
        }
    }
}

/// Structural equality minus the bookkeeping (version, cached statistics):
/// schema and stored row sequence. Sortedness is a function of the row
/// sequence (strictly increasing or not), so sorted relations compare by
/// row set no matter how they were produced — a relation appended in order
/// equals its [`Relation::sort_dedup`]ed twin — while a relation holding
/// rows out of order or twice differs from its canonical form.
impl PartialEq for Relation {
    fn eq(&self, other: &Relation) -> bool {
        self.vars == other.vars && self.data == other.data
    }
}

impl Eq for Relation {}

/// What [`Relation::apply_delta`] actually changed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaApplied {
    /// Rows inserted that were not already present (post-deletion).
    pub added: usize,
    /// Rows removed that were present and not re-inserted.
    pub removed: usize,
}

impl DeltaApplied {
    /// Total rows whose presence changed.
    pub fn changed(&self) -> usize {
        self.added + self.removed
    }
}

impl Relation {
    /// Create an empty relation with the given column variables (order
    /// matters: it is the sort/index order).
    pub fn new(vars: Vec<u32>) -> Relation {
        let mut seen = VarSet::EMPTY;
        for &v in &vars {
            assert!(
                !seen.contains(v),
                "duplicate variable {v} in relation schema"
            );
            seen = seen.insert(v);
        }
        Relation {
            vars,
            data: Vec::new(),
            sorted: true,
            version: AtomicU64::new(UNASSIGNED),
            stats: OnceLock::new(),
            lineage: None,
        }
    }

    /// Create from explicit rows. Rows given in strictly increasing order
    /// (a walk over [`TrieIndex`] rows, a filtered subsequence of a sorted
    /// relation) yield a sorted relation with no sort ever run.
    pub fn from_rows<R: AsRef<[Value]>>(
        vars: Vec<u32>,
        rows: impl IntoIterator<Item = R>,
    ) -> Relation {
        let mut rel = Relation::new(vars);
        for r in rows {
            rel.push_row(r.as_ref());
        }
        rel
    }

    /// Concatenate fragments of one schema in the order given — the merge
    /// step of a range-partitioned computation. The rows are block-copied
    /// into one buffer allocated at exactly the total size; one compare per
    /// seam carries sortedness across, so fragments that are sorted and
    /// cover increasing ranges concatenate into a relation that is
    /// [`Relation::is_sorted`] without a sort. When at most the first
    /// fragment has rows it is returned as is (nothing is copied, and its
    /// version stands).
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or the fragments' schemas differ.
    pub fn concat(parts: Vec<Relation>) -> Relation {
        let mut parts = parts.into_iter();
        let mut out = parts.next().expect("concat needs at least one fragment");
        let rest = parts.as_slice();
        let extra: usize = rest.iter().map(|p| p.data.len()).sum();
        if extra == 0 {
            return out;
        }
        let a = out.arity();
        // A fresh exact-size buffer, not the first fragment grown in place:
        // fragments are typically filled by worker threads, and handing
        // each back to its allocator arena whole keeps resident memory
        // flat over thousands of merges (growing the first one did not).
        let mut data = Vec::with_capacity(out.data.len() + extra);
        data.extend_from_slice(&out.data);
        out.data = data;
        for part in rest {
            assert_eq!(part.vars, out.vars, "concat: fragment schema mismatch");
            let seam_ok = out.data.is_empty()
                || part.data.is_empty()
                || out.data[out.data.len() - a..] < part.data[..a];
            out.sorted &= part.sorted && seam_ok;
            out.data.extend_from_slice(&part.data);
        }
        out.touch();
        out
    }

    /// Every content mutation ends here: cached statistics, the observed
    /// version and the lineage describe the old rows. Touches only this
    /// relation's fields.
    fn touch(&mut self) {
        self.stats.take();
        *self.version.get_mut() = UNASSIGNED;
        self.lineage = None;
    }

    /// How this version derives from its predecessor, if the last mutation
    /// was an [`Relation::apply_delta`] that changed something.
    pub(crate) fn lineage(&self) -> Option<&Lineage> {
        self.lineage.as_deref()
    }

    /// Column variables in storage order.
    pub fn vars(&self) -> &[u32] {
        &self.vars
    }

    /// The set of variables.
    pub fn var_set(&self) -> VarSet {
        VarSet::from_vars(self.vars.iter().copied())
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.vars.len()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        if self.vars.is_empty() {
            // Zero-arity relation: row count tracked via data sentinel is
            // impossible; represent as 0 or 1 rows through `nullary`.
            self.data.len()
        } else {
            self.data.len() / self.vars.len()
        }
    }

    /// Whether the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append a row. One compare against the previous row keeps
    /// [`Relation::is_sorted`] exact: the relation stays sorted iff the new
    /// row is strictly greater. Touches no shared state.
    pub fn push_row(&mut self, row: &[Value]) {
        let a = self.arity();
        assert_eq!(row.len(), a, "row arity mismatch");
        if a == 0 {
            // Zero-arity: store a sentinel so `len` counts rows; a second
            // `()` is a duplicate.
            self.sorted &= self.data.is_empty();
            self.data.push(1);
        } else {
            let n = self.data.len();
            self.sorted = self.sorted && (n == 0 || self.data[n - a..] < *row);
            self.data.extend_from_slice(row);
        }
        self.touch();
    }

    /// Exact degree/skew statistics of this relation, per prefix length of
    /// the column (sort) order. `Some` exactly when the relation is sorted
    /// ([`Relation::is_sorted`]). Computed by the first call after a
    /// mutation ([`RelationStats::of`], one pass) and cached; a cached set
    /// is carried across [`Relation::apply_delta`] by recounting only the
    /// touched prefix groups. Relations nobody plans from — intermediates,
    /// outputs — never pay for them.
    pub fn stats(&self) -> Option<&RelationStats> {
        self.sorted
            .then(|| self.stats.get_or_init(|| RelationStats::of(self)))
    }

    /// Content version: a globally unique snapshot id. Equal versions imply
    /// equal rows — clones share a version exactly until either side
    /// mutates — and any mutation that can change the row set
    /// ([`Relation::push_row`], [`Relation::concat`],
    /// [`Relation::apply_delta`]) is followed by a version never reported
    /// before, which is what makes version-keyed index caching
    /// ([`crate::IndexSet`]) sound across databases and threads.
    ///
    /// The id is drawn from the global counter by the first call after a
    /// mutation, not by the mutation, so appending rows costs no shared
    /// write. Concurrent first calls on a shared relation agree on one
    /// value.
    pub fn version(&self) -> u64 {
        // Relaxed: the version publishes no data — whoever shares `&self`
        // across threads already synchronised the rows.
        let seen = self.version.load(AtomicOrdering::Relaxed);
        if seen != UNASSIGNED {
            return seen;
        }
        let fresh = next_version();
        match self.version.compare_exchange(
            UNASSIGNED,
            fresh,
            AtomicOrdering::Relaxed,
            AtomicOrdering::Relaxed,
        ) {
            Ok(_) => fresh,
            Err(winner) => winner,
        }
    }

    /// Apply a tuple delta in place: remove `deletes`, then add `inserts`
    /// (a row both deleted and inserted in the same delta is present
    /// afterwards). Rows must be in this relation's column order.
    ///
    /// The cost is the delta's plus one copy of the rows: each key of the
    /// sorted union of inserts and deletes is located by binary search from
    /// the previous key's position, and every untouched run of stored rows
    /// moves with one block copy into a buffer of exactly the new size —
    /// `O(|delta| log len)` compares and a memcpy, never a per-row merge.
    /// Cached [`Relation::stats`] are carried to the new rows by recounting
    /// only the prefix groups the delta touched, and the relation records
    /// its lineage — the predecessor version and the net rows added and
    /// removed — from which [`crate::IndexSet::index_of`] derives the
    /// successor's tries instead of rebuilding them.
    ///
    /// The relation is left sorted + deduplicated, and the returned
    /// [`DeltaApplied`] counts only *actual* changes — deleting an absent
    /// row or inserting a present one is a no-op. The version changes iff
    /// something did; a no-op keeps version, statistics and lineage.
    pub fn apply_delta<I, D>(&mut self, inserts: I, deletes: D) -> DeltaApplied
    where
        I: IntoIterator,
        I::Item: AsRef<[Value]>,
        D: IntoIterator,
        D::Item: AsRef<[Value]>,
    {
        self.sort_dedup();
        let a = self.arity();
        if a == 0 {
            // Nullary: {()} or {} — deletes clear, inserts (re)fill.
            let had = !self.is_empty();
            let del = deletes.into_iter().next().is_some();
            let ins = inserts.into_iter().next().is_some();
            let present = (had && !del) || ins;
            let applied = DeltaApplied {
                added: (!had && present) as usize,
                removed: (had && !present) as usize,
            };
            if applied.changed() > 0 {
                self.data.clear();
                if present {
                    self.data.push(1);
                }
                self.touch();
            }
            return applied;
        }
        let mut ins = Relation::from_rows(self.vars.clone(), inserts);
        ins.sort_dedup();
        let mut del = Relation::from_rows(self.vars.clone(), deletes);
        del.sort_dedup();

        // Walk the sorted union of both key lists, locating each key in the
        // stored rows by binary search from the previous key's position. An
        // edit is `(position, Some(i))` to insert `ins.row(i)` before the
        // stored row at `position`, or `(position, None)` to drop that row;
        // an inserted row survives its own deletion.
        let n = self.len();
        let mut edits: Vec<(usize, Option<usize>)> = Vec::new();
        let (mut i, mut k, mut at) = (0usize, 0usize, 0usize);
        while i < ins.len() || k < del.len() {
            let ord = if k == del.len() {
                Ordering::Less
            } else if i == ins.len() {
                Ordering::Greater
            } else {
                ins.row(i).cmp(del.row(k))
            };
            let key = if ord == Ordering::Greater {
                del.row(k)
            } else {
                ins.row(i)
            };
            at = self.partition_rows(at, n, |row| row < key);
            let present = at < n && self.row(at) == key;
            if ord == Ordering::Greater {
                if present {
                    edits.push((at, None));
                }
                k += 1;
            } else {
                if !present {
                    edits.push((at, Some(i)));
                }
                i += 1;
                k += usize::from(ord == Ordering::Equal);
            }
        }
        if edits.is_empty() {
            return DeltaApplied::default();
        }

        // Splice: untouched runs move by block copy, edits in between.
        let added = edits.iter().filter(|e| e.1.is_some()).count();
        let applied = DeltaApplied {
            added,
            removed: edits.len() - added,
        };
        let mut data = Vec::with_capacity((n + applied.added - applied.removed) * a);
        let mut plus = Relation::new(self.vars.clone());
        let mut minus = Relation::new(self.vars.clone());
        let mut copied = 0;
        for &(at, insert) in &edits {
            data.extend_from_slice(&self.data[copied * a..at * a]);
            copied = at;
            match insert {
                Some(i) => {
                    data.extend_from_slice(ins.row(i));
                    plus.push_row(ins.row(i));
                }
                None => {
                    minus.push_row(self.row(at));
                    copied = at + 1;
                }
            }
        }
        data.extend_from_slice(&self.data[copied * a..]);

        let from = self.version();
        let stats = self.stats.take();
        let old = Relation {
            data: std::mem::replace(&mut self.data, data),
            ..Relation::new(self.vars.clone())
        };
        self.touch();
        if let Some(stats) = stats {
            // The touched rows in ascending order: the edits' keys.
            let touched: Vec<&[Value]> = edits
                .iter()
                .map(|&(at, insert)| insert.map_or_else(|| old.row(at), |i| ins.row(i)))
                .collect();
            if let Some(carried) = stats.carried(&old, self, &touched) {
                let _ = self.stats.set(carried);
            }
        }
        self.lineage = Some(Arc::new(Lineage { from, plus, minus }));
        applied
    }

    /// Row accessor.
    pub fn row(&self, i: usize) -> &[Value] {
        let a = self.arity();
        if a == 0 {
            &[]
        } else {
            &self.data[i * a..(i + 1) * a]
        }
    }

    /// Iterate over rows.
    pub fn rows(&self) -> impl Iterator<Item = &[Value]> {
        let a = self.arity();
        if a == 0 {
            RowIter::Nullary(self.len())
        } else {
            RowIter::Chunks(self.data.chunks_exact(a))
        }
    }

    /// Position of a column for variable `v`.
    pub fn col_of(&self, v: u32) -> Option<usize> {
        self.vars.iter().position(|&w| w == v)
    }

    /// Sort rows lexicographically and remove duplicates. Free on a
    /// relation that is already [`Relation::is_sorted`] — only rows that
    /// really are out of order or repeated pay the sort. The row *set* is
    /// unchanged, and so is the version.
    ///
    /// # Panics
    ///
    /// Panics if an unsorted relation holds 2³² rows or more (the sort
    /// permutation is `u32`).
    pub fn sort_dedup(&mut self) {
        if self.sorted {
            return;
        }
        let a = self.arity();
        if a == 0 {
            // Unsorted and zero-arity: several `()`, of which one stays.
            self.data.truncate(1);
        } else {
            let mut order = identity_permutation(self.len());
            let data = &self.data;
            let row = |i: u32| &data[i as usize * a..(i as usize + 1) * a];
            order.sort_unstable_by(|&i, &j| row(i).cmp(row(j)));
            order.dedup_by(|i, kept| row(*i) == row(*kept));
            let mut new_data = Vec::with_capacity(order.len() * a);
            for &i in &order {
                new_data.extend_from_slice(row(i));
            }
            self.data = new_data;
        }
        self.sorted = true;
    }

    /// Whether the rows are strictly increasing — sorted and duplicate-free.
    /// Exact, not a hint: appends and [`Relation::concat`] track it by
    /// comparing neighbours, [`Relation::sort_dedup`] and
    /// [`Relation::apply_delta`] establish it.
    pub fn is_sorted(&self) -> bool {
        self.sorted
    }

    /// The range of row indices whose first `prefix.len()` columns equal
    /// `prefix`. Requires the relation to be sorted.
    pub fn prefix_range(&self, prefix: &[Value]) -> Range<usize> {
        debug_assert!(self.sorted, "prefix_range requires a sorted relation");
        let a = self.arity();
        if a == 0 || prefix.is_empty() {
            return 0..self.len();
        }
        debug_assert!(prefix.len() <= a);
        let (n, p) = (self.len(), prefix.len());
        let start = self.partition_rows(0, n, |row| row[..p] < *prefix);
        start..self.partition_rows(start, n, |row| row[..p] <= *prefix)
    }

    /// The first row index in `lo..hi` whose row fails `pred`, for a `pred`
    /// that holds on a prefix of that range — a bisection over the sorted
    /// rows.
    fn partition_rows(
        &self,
        mut lo: usize,
        mut hi: usize,
        pred: impl Fn(&[Value]) -> bool,
    ) -> usize {
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if pred(self.row(mid)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Number of distinct `(prefix.len() + 1)`-prefixes extending `prefix`
    /// — the trie fan-out below it (requires sorted, `prefix.len() <
    /// arity`). One bisection per child, so it costs the fan-out, not the
    /// rows under it.
    pub(crate) fn fan_out(&self, prefix: &[Value]) -> usize {
        let Range { mut start, end } = self.prefix_range(prefix);
        let p = prefix.len() + 1;
        let mut kids = 0;
        while start < end {
            kids += 1;
            let child = &self.row(start)[..p];
            start = self.partition_rows(start, end, |row| row[..p] <= *child);
        }
        kids
    }

    /// Number of rows matching a prefix (the *degree* of the prefix value).
    pub fn prefix_count(&self, prefix: &[Value]) -> usize {
        let r = self.prefix_range(prefix);
        r.end - r.start
    }

    /// Membership test (requires sorted): one bisection for the first row
    /// not below `row`, then one comparison.
    pub fn contains_row(&self, row: &[Value]) -> bool {
        debug_assert_eq!(row.len(), self.arity());
        debug_assert!(self.sorted, "contains_row requires a sorted relation");
        if row.is_empty() {
            return !self.is_empty();
        }
        let n = self.len();
        let i = self.partition_rows(0, n, |r| r < row);
        i < n && self.row(i) == row
    }

    /// Project onto the given columns (in the given order), sorted + deduped.
    pub fn project(&self, onto: &[u32]) -> Relation {
        let cols: Vec<usize> = onto
            .iter()
            .map(|&v| self.col_of(v).expect("projection variable not in relation"))
            .collect();
        let mut out = Relation::new(onto.to_vec());
        let mut buf = vec![0 as Value; onto.len()];
        for row in self.rows() {
            for (slot, &c) in buf.iter_mut().zip(&cols) {
                *slot = row[c];
            }
            out.push_row(&buf);
        }
        out.sort_dedup();
        out
    }

    /// Keep rows whose projection onto the shared variables appears in
    /// `other` (semijoin reduction `self ⋉ other`). The filter runs through
    /// the access-path layer: a [`TrieIndex`] of `other` on the shared
    /// columns, probed through one [`Finger`] with zero per-row key
    /// allocation.
    pub fn semijoin(&self, other: &Relation) -> Relation {
        let shared: Vec<u32> = self
            .vars
            .iter()
            .copied()
            .filter(|&v| other.col_of(v).is_some())
            .collect();
        if shared.is_empty() {
            return if other.is_empty() {
                Relation::new(self.vars.clone())
            } else {
                self.clone()
            };
        }
        let ix = TrieIndex::build(other, &shared);
        let cols = shared.iter().map(|&v| self.col_of(v).unwrap() as u32);
        let mut out = Relation::new(self.vars.clone());
        let mut finger = Finger::new(&ix, cols);
        for row in self.rows() {
            if finger.seek(&ix, row) != Found::Miss {
                out.push_row(row);
            }
        }
        out.sort_dedup();
        out
    }

    /// Group ranges by the first `prefix_len` columns (requires sorted).
    pub fn group_ranges(&self, prefix_len: usize) -> Vec<Range<usize>> {
        debug_assert!(self.sorted);
        let n = self.len();
        let mut out = Vec::new();
        let mut start = 0usize;
        while start < n {
            let mut end = start + 1;
            while end < n && self.row(end)[..prefix_len] == self.row(start)[..prefix_len] {
                end += 1;
            }
            out.push(start..end);
            start = end;
        }
        out
    }

    /// Maximum degree over distinct prefixes of length `prefix_len`
    /// (requires sorted). Returns 0 for an empty relation.
    pub fn max_degree(&self, prefix_len: usize) -> usize {
        self.group_ranges(prefix_len)
            .into_iter()
            .map(|r| r.end - r.start)
            .max()
            .unwrap_or(0)
    }

    /// Number of distinct prefixes of length `prefix_len` (requires sorted).
    pub fn distinct_prefixes(&self, prefix_len: usize) -> usize {
        self.group_ranges(prefix_len).len()
    }

    /// Retain only rows at the given indices (used for partitioning).
    pub fn select_rows(&self, rows: impl IntoIterator<Item = usize>) -> Relation {
        let mut out = Relation::new(self.vars.clone());
        for i in rows {
            out.push_row(self.row(i));
        }
        out.sort_dedup();
        out
    }

    /// The nullary relation containing the single empty tuple (the starting
    /// point `Q₀ = {()}` of the Chain Algorithm).
    pub fn nullary_unit() -> Relation {
        let mut r = Relation::new(Vec::new());
        r.push_row(&[]);
        r.sort_dedup();
        r
    }
}

/// `0..n` as the `u32` row ids [`Relation::sort_dedup`] and
/// [`TrieIndex::build`] permute.
pub(crate) fn identity_permutation(n: usize) -> Vec<u32> {
    let n = u32::try_from(n).unwrap_or_else(|_| {
        panic!("{n} rows do not fit the u32 sort permutation (limit 2^32 - 1)")
    });
    (0..n).collect()
}

enum RowIter<'a> {
    Chunks(std::slice::ChunksExact<'a, Value>),
    Nullary(usize),
}

impl<'a> Iterator for RowIter<'a> {
    type Item = &'a [Value];
    fn next(&mut self) -> Option<&'a [Value]> {
        match self {
            RowIter::Chunks(c) => c.next(),
            RowIter::Nullary(n) => {
                if *n == 0 {
                    None
                } else {
                    *n -= 1;
                    Some(&[])
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel3() -> Relation {
        let mut r = Relation::from_rows(vec![0, 1], [[1, 10], [1, 11], [2, 10], [1, 10], [3, 30]]);
        r.sort_dedup();
        r
    }

    #[test]
    fn sort_dedup_removes_duplicates() {
        let r = rel3();
        assert_eq!(r.len(), 4);
        assert_eq!(r.row(0), &[1, 10]);
        assert_eq!(r.row(3), &[3, 30]);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "do not fit the u32 sort permutation")]
    fn sort_permutation_refuses_to_wrap() {
        // 2^32 rows used to wrap `n as u32` to an empty permutation and
        // drop every row; the check fires before anything is allocated.
        identity_permutation(1 << 32);
    }

    #[test]
    fn prefix_range_counts() {
        let r = rel3();
        assert_eq!(r.prefix_count(&[1]), 2);
        assert_eq!(r.prefix_count(&[2]), 1);
        assert_eq!(r.prefix_count(&[9]), 0);
        assert_eq!(r.prefix_count(&[1, 11]), 1);
        assert_eq!(r.prefix_range(&[]), 0..4);
    }

    #[test]
    fn contains_row_works() {
        let r = rel3();
        assert!(r.contains_row(&[1, 11]));
        assert!(!r.contains_row(&[1, 12]));
        // Both ends: the first and last rows, and keys outside the range.
        assert!(r.contains_row(&[1, 10]) && r.contains_row(&[3, 30]));
        assert!(!r.contains_row(&[0, 99]) && !r.contains_row(&[3, 31]));
    }

    #[test]
    fn projection_dedups() {
        let r = rel3();
        let p = r.project(&[0]);
        assert_eq!(p.len(), 3);
        assert_eq!(p.vars(), &[0]);
        // Projection onto reordered columns.
        let q = r.project(&[1, 0]);
        assert_eq!(q.len(), 4);
        assert_eq!(q.vars(), &[1, 0]);
        assert!(q.contains_row(&[10, 1]));
    }

    #[test]
    fn semijoin_filters() {
        let r = rel3();
        let s = Relation::from_rows(vec![1, 5], [[10, 99]]);
        let mut s = s;
        s.sort_dedup();
        let rs = r.semijoin(&s);
        assert_eq!(rs.len(), 2); // rows with y=10.
        for row in rs.rows() {
            assert_eq!(row[1], 10);
        }
    }

    #[test]
    fn semijoin_disjoint_schemas() {
        let r = rel3();
        let nonempty = Relation::from_rows(vec![7], [[1]]);
        assert_eq!(r.semijoin(&nonempty).len(), r.len());
        let empty = Relation::new(vec![7]);
        assert_eq!(r.semijoin(&empty).len(), 0);
    }

    #[test]
    fn degrees_and_groups() {
        let r = rel3();
        assert_eq!(r.max_degree(1), 2);
        assert_eq!(r.distinct_prefixes(1), 3);
        assert_eq!(r.group_ranges(1).len(), 3);
        assert_eq!(r.max_degree(0), 4); // one group: everything
    }

    #[test]
    fn nullary_relations() {
        let unit = Relation::nullary_unit();
        assert_eq!(unit.len(), 1);
        assert_eq!(unit.arity(), 0);
        assert!(unit.contains_row(&[]));
        assert_eq!(unit.rows().count(), 1);
        let empty = Relation::new(vec![]);
        assert!(empty.is_empty());
        assert!(!empty.contains_row(&[]));
    }

    #[test]
    fn select_rows_subset() {
        let r = rel3();
        let s = r.select_rows([0, 3]);
        assert_eq!(s.len(), 2);
        assert!(s.contains_row(&[1, 10]));
        assert!(s.contains_row(&[3, 30]));
    }

    #[test]
    #[should_panic(expected = "duplicate variable")]
    fn duplicate_schema_vars_panic() {
        Relation::new(vec![1, 1]);
    }

    #[test]
    fn apply_delta_merges_sorted() {
        let mut r = rel3(); // {(1,10),(1,11),(2,10),(3,30)}
        let v0 = r.version();
        let applied = r.apply_delta(
            [[0u64, 5], [1, 10], [9, 9]], // (1,10) already present
            [[1u64, 11], [7, 7]],         // (7,7) absent
        );
        assert_eq!(
            applied,
            DeltaApplied {
                added: 2,
                removed: 1
            }
        );
        assert_eq!(applied.changed(), 3);
        assert!(r.is_sorted());
        assert_eq!(r.len(), 5);
        for row in [[0u64, 5], [1, 10], [2, 10], [3, 30], [9, 9]] {
            assert!(r.contains_row(&row), "{row:?} must be present");
        }
        assert!(!r.contains_row(&[1, 11]));
        assert!(r.version() > v0);
    }

    #[test]
    fn apply_delta_insert_wins_over_delete() {
        let mut r = rel3();
        // Deleting and re-inserting the same row leaves it present and
        // counts as no change; a brand-new row that is also deleted stays.
        let applied = r.apply_delta([[1u64, 10], [5, 50]], [[1u64, 10], [5, 50]]);
        assert_eq!(
            applied,
            DeltaApplied {
                added: 1,
                removed: 0
            }
        );
        assert!(r.contains_row(&[1, 10]));
        assert!(r.contains_row(&[5, 50]));
    }

    #[test]
    fn apply_delta_noop_keeps_version() {
        let mut r = rel3();
        r.sort_dedup();
        let v0 = r.version();
        let none: [&[Value]; 0] = [];
        assert_eq!(r.apply_delta(none, none), DeltaApplied::default());
        let applied = r.apply_delta([[1u64, 10]], [[9u64, 9]]); // both no-ops
        assert_eq!(applied, DeltaApplied::default());
        assert_eq!(r.version(), v0, "no content change, no version bump");
    }

    #[test]
    fn apply_delta_records_its_lineage() {
        let mut r = rel3(); // {(1,10),(1,11),(2,10),(3,30)}
        assert!(r.lineage().is_none());
        let v0 = r.version();
        // (1,10) is present and (7,7) absent: neither is net.
        r.apply_delta([[0u64, 5], [1, 10], [9, 9]], [[1u64, 11], [7, 7]]);
        let l = r.lineage().expect("a delta that changed rows");
        assert_eq!(l.from, v0);
        assert_eq!(l.plus, Relation::from_rows(vec![0, 1], [[0, 5], [9, 9]]));
        assert_eq!(l.minus, Relation::from_rows(vec![0, 1], [[1, 11]]));
        // A clone shares version and lineage.
        assert_eq!(r.clone().lineage().map(|l| l.from), Some(v0));

        // A no-op delta keeps version and lineage.
        let v1 = r.version();
        r.apply_delta([[0u64, 5]], [[8u64, 8]]);
        assert_eq!(r.version(), v1);
        assert_eq!(r.lineage().map(|l| l.from), Some(v0));
    }

    #[test]
    fn every_other_mutation_clears_the_lineage() {
        let with_lineage = || {
            let mut r = rel3();
            r.apply_delta([[5u64, 50]], [[1u64, 10]]);
            assert!(r.lineage().is_some());
            r
        };
        let mut r = with_lineage();
        r.push_row(&[9, 90]);
        assert!(r.lineage().is_none(), "push_row");

        let r = Relation::concat(vec![
            with_lineage(),
            Relation::from_rows(vec![0, 1], [[9, 9]]),
        ]);
        assert!(r.lineage().is_none(), "concat");

        // Out of order, then canonicalized: the append already cleared it.
        let mut r = with_lineage();
        r.push_row(&[0, 0]);
        assert!(!r.is_sorted());
        r.sort_dedup();
        assert!(r.lineage().is_none(), "unsorted, then sort_dedup");
    }

    #[test]
    fn apply_delta_carries_cached_stats() {
        let mut r = rel3();
        r.stats().expect("sorted");
        r.apply_delta([[1u64, 12], [4, 40]], [[2u64, 10]]);
        assert!(r.stats.get().is_some(), "carried, not dropped");
        assert_eq!(r.stats(), Some(&RelationStats::of(&r)));
    }

    #[test]
    fn apply_delta_nullary() {
        let mut unit = Relation::nullary_unit();
        let none: [&[Value]; 0] = [];
        let row: [&[Value]; 1] = [&[]];
        assert_eq!(
            unit.apply_delta(none, row),
            DeltaApplied {
                added: 0,
                removed: 1
            }
        );
        assert!(unit.is_empty());
        assert_eq!(
            unit.apply_delta(row, none),
            DeltaApplied {
                added: 1,
                removed: 0
            }
        );
        assert_eq!(unit.len(), 1);
        // Delete + insert in one delta: the insert wins.
        assert_eq!(unit.apply_delta(row, row), DeltaApplied::default());
        assert_eq!(unit.len(), 1);
    }

    #[test]
    fn version_is_not_content() {
        let mut a = rel3();
        let b = rel3();
        let none: [&[Value]; 0] = [];
        a.apply_delta([[9u64, 9]], none);
        a.apply_delta(none, [[9u64, 9]]);
        assert_ne!(a.version(), b.version());
        assert_eq!(a, b, "equality ignores the version counter");
    }
}
