//! Row-major relations with sort-order (trie-equivalent) prefix indexes.

use crate::stats::{RelationStats, TouchedGroups};
use crate::trie::TrieIndex;
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
/// order). The access-path layer carries the predecessor's tries to the
/// successor with it ([`crate::IndexSet::index_of`]), and the call's
/// [`DeltaApplied`] hands the same net rows to its caller.
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

/// What [`Relation::apply_delta`] actually changed: how many rows, and
/// which.
#[derive(Clone, Debug, Default)]
pub struct DeltaApplied {
    /// Rows inserted that were not already present (post-deletion).
    pub added: usize,
    /// Rows removed that were present and not re-inserted.
    pub removed: usize,
    /// The net rows, shared with the relation's lineage; `None` when the
    /// call changed nothing.
    net: Option<Arc<Lineage>>,
}

impl DeltaApplied {
    fn of(net: Arc<Lineage>) -> DeltaApplied {
        DeltaApplied {
            added: net.plus.len(),
            removed: net.minus.len(),
            net: Some(net),
        }
    }

    /// Total rows whose presence changed.
    pub fn changed(&self) -> usize {
        self.added + self.removed
    }

    /// The rows the call added — absent before it, present after —
    /// sorted, in the relation's column order; `None` if it added none.
    pub fn plus(&self) -> Option<&Relation> {
        self.net
            .as_deref()
            .map(|n| &n.plus)
            .filter(|r| !r.is_empty())
    }

    /// The rows the call removed — present before it, absent after —
    /// sorted, in the relation's column order; `None` if it removed none.
    pub fn minus(&self) -> Option<&Relation> {
        self.net
            .as_deref()
            .map(|n| &n.minus)
            .filter(|r| !r.is_empty())
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
    #[inline]
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
    #[inline]
    pub fn vars(&self) -> &[u32] {
        &self.vars
    }

    /// The set of variables.
    pub fn var_set(&self) -> VarSet {
        VarSet::from_vars(self.vars.iter().copied())
    }

    /// Number of columns.
    #[inline]
    pub fn arity(&self) -> usize {
        self.vars.len()
    }

    /// Number of rows.
    #[inline]
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
    #[inline]
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
    /// The rows are edited where they lie: each key of the sorted union of
    /// inserts and deletes is located by galloping from the previous key's
    /// position, and each untouched run of stored rows moves by the net
    /// change before it with one `copy_within` inside the same buffer (a
    /// run with no net change before it stays put) — `O(|delta| log len)`
    /// compares, no new buffer, never a per-row merge. Cached
    /// [`Relation::stats`] are carried to the new rows by recounting,
    /// before and after the splice, only the prefix groups the delta
    /// touched, each found from its edit's position, and the relation
    /// records its lineage — the predecessor version and the net rows added
    /// and removed — with which [`crate::IndexSet::index_of`] carries the
    /// predecessor's tries to the successor instead of rebuilding them.
    ///
    /// The relation is left sorted + deduplicated, and the returned
    /// [`DeltaApplied`] counts and holds only *actual* changes — deleting an
    /// absent row or inserting a present one is a no-op — sharing its net
    /// rows with the lineage. The version changes iff something did; a
    /// no-op keeps version, statistics and lineage. A nullary relation
    /// (`{()}` or `{}`) reports its net row too but records no lineage:
    /// its tries cost nothing to build.
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
            if had == present {
                return DeltaApplied::default();
            }
            let from = self.version();
            self.data.clear();
            if present {
                self.data.push(1);
            }
            self.touch();
            let (unit, none) = (Relation::nullary_unit(), Relation::new(Vec::new()));
            let (plus, minus) = if present { (unit, none) } else { (none, unit) };
            return DeltaApplied::of(Arc::new(Lineage { from, plus, minus }));
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
            at = self.gallop_rows(at, |row| row < key);
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

        // The net rows, and each edit as a splice of the row buffer.
        let mut plus = Relation::new(self.vars.clone());
        let mut minus = Relation::new(self.vars.clone());
        let splice: Vec<(Range<usize>, &[Value])> = edits
            .iter()
            .map(|&(at, insert)| match insert {
                Some(i) => {
                    plus.push_row(ins.row(i));
                    (at * a..at * a, ins.row(i))
                }
                None => {
                    minus.push_row(self.row(at));
                    (at * a..(at + 1) * a, &[][..])
                }
            })
            .collect();
        let from = self.version();
        let stats = self.stats.take();
        // The touched rows in ascending order (the edits' keys), where each
        // one lies or would lie before the splice (its edit's position) and
        // after it (that position moved by the net change of the edits
        // before it), and the sizes of the groups they fall in before the
        // splice, read from those positions.
        let mut removed = 0..minus.len();
        let m = edits.len();
        let (mut touched, mut was, mut now) = (
            Vec::with_capacity(m),
            Vec::with_capacity(m),
            Vec::with_capacity(m),
        );
        let mut shift = 0isize;
        for &(at, insert) in &edits {
            touched.push(match insert {
                Some(i) => ins.row(i),
                None => minus.row(removed.next().expect("one removed row per delete")),
            });
            was.push(at);
            now.push(at.wrapping_add_signed(shift));
            shift += if insert.is_some() { 1 } else { -1 };
        }
        let before = stats
            .as_ref()
            .map(|_| TouchedGroups::of(self, &touched, &was));
        splice_in_place(&mut self.data, &splice, |_, _| {});
        self.touch();
        if let (Some(stats), Some(before)) = (stats, before) {
            let after = TouchedGroups::of(self, &touched, &now);
            if let Some(carried) = stats.carried(&before, &after) {
                let _ = self.stats.set(carried);
            }
        }
        let net = Arc::new(Lineage { from, plus, minus });
        self.lineage = Some(Arc::clone(&net));
        DeltaApplied::of(net)
    }

    /// Row accessor.
    #[inline]
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
    /// really are out of order or repeated pay the sort. Rows up to nine
    /// values wide are sorted where they lie (`sort_rows`) and the buffer is
    /// then fitted to the rows kept. The row *set* is unchanged, and so is
    /// the version.
    ///
    /// # Panics
    ///
    /// Panics if an unsorted relation with rows more than nine values wide
    /// holds 2³² rows or more (their sort permutation is `u32`).
    pub fn sort_dedup(&mut self) {
        if self.sorted {
            return;
        }
        let a = self.arity();
        if a == 0 {
            // Unsorted and zero-arity: several `()`, of which one stays.
            self.data.truncate(1);
        } else {
            sort_rows(&mut self.data, a);
            self.data.shrink_to_fit();
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

    /// Whether the rows are sorted with their columns in `order` — when a
    /// reader that wants them in that order can take them as they are.
    pub fn is_stored_in(&self, order: &[u32]) -> bool {
        self.sorted && self.vars == order
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
    #[inline]
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

    /// [`Relation::prefix_range`] searched outward from row `hint`
    /// (`gallop_rows`): exact whatever the hint, and a few compares when
    /// the hint lies in or next to the range — as the position of a row
    /// extending `prefix` does. Requires the relation to be sorted.
    pub(crate) fn prefix_range_near(&self, prefix: &[Value], hint: usize) -> Range<usize> {
        debug_assert!(self.sorted, "prefix_range_near requires a sorted relation");
        let p = prefix.len();
        if self.arity() == 0 || p == 0 {
            return 0..self.len();
        }
        debug_assert!(p <= self.arity());
        let start = self.gallop_rows(hint, |row| row[..p] < *prefix);
        start..self.gallop_rows(start.max(hint), |row| row[..p] <= *prefix)
    }

    /// Number of distinct `len`-prefixes among the rows of `group`, a range
    /// of rows sharing their first `len - 1` values (as
    /// [`Relation::prefix_range_near`] returns) — the trie fan-out below
    /// that prefix (requires sorted, `1 ≤ len ≤ arity`). Each child's end is galloped from its
    /// first row, so a child costs the logarithm of its own size.
    pub(crate) fn branches(&self, group: Range<usize>, len: usize) -> usize {
        let Range { mut start, end } = group;
        let mut kids = 0;
        while start < end {
            kids += 1;
            let child = &self.row(start)[..len];
            start = self.gallop_rows(start, |row| row[..len] <= *child);
        }
        kids
    }

    /// The first row index whose row fails `pred`, for a `pred` that holds
    /// on a prefix of the sorted rows, searched outward from row `hint`:
    /// steps of 1, 2, 4, … away from it bracket the answer, which a
    /// bisection of the bracket then finds. Exact whatever the hint; an
    /// answer `d` rows away costs `O(log d)` compares, not `O(log len)`.
    fn gallop_rows(&self, hint: usize, pred: impl Fn(&[Value]) -> bool) -> usize {
        let n = self.len();
        let hint = hint.min(n);
        let (lo, hi) = if hint < n && pred(self.row(hint)) {
            // Right of the hint.
            let (mut lo, mut step) = (hint + 1, 1);
            loop {
                let probe = hint + step;
                if probe >= n {
                    break (lo, n);
                }
                if !pred(self.row(probe)) {
                    break (lo, probe);
                }
                lo = probe + 1;
                step *= 2;
            }
        } else {
            // At or left of the hint.
            let (mut hi, mut step) = (hint, 1);
            loop {
                if step > hint {
                    break (0, hi);
                }
                let probe = hint - step;
                if pred(self.row(probe)) {
                    break (probe + 1, hi);
                }
                hi = probe;
                step *= 2;
            }
        };
        self.partition_rows(lo, hi, pred)
    }

    /// Number of rows matching a prefix (the *degree* of the prefix value).
    pub fn prefix_count(&self, prefix: &[Value]) -> usize {
        let r = self.prefix_range(prefix);
        r.end - r.start
    }

    /// Membership test (requires sorted): one bisection for the first row
    /// not below `row`, then one comparison.
    #[inline]
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

    /// These rows with their columns in `order`, sorted — the rows of
    /// `TrieIndex::build(&self, order).to_relation()`. Each row's columns
    /// are permuted where the row lies, and the rows are then sorted in
    /// their own buffer (`sort_rows`; its address and capacity are kept for
    /// rows up to nine values wide). When `order` is the stored order
    /// nothing moves; an unsorted relation is [`Relation::sort_dedup`]ed.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of [`Relation::vars`].
    pub fn reordered(mut self, order: &[u32]) -> Relation {
        assert_eq!(order.len(), self.arity(), "reordered: arity mismatch");
        let cols: Vec<usize> = order
            .iter()
            .map(|&v| self.col_of(v).expect("reordered: not a column"))
            .collect();
        if cols.windows(2).all(|w| w[0] < w[1]) {
            // `cols` ascends and is a permutation: the identity.
            self.sort_dedup();
            return self;
        }
        let a = self.arity();
        let mut scratch = vec![0 as Value; a];
        for row in self.data.chunks_exact_mut(a) {
            scratch.copy_from_slice(row);
            for (slot, &c) in row.iter_mut().zip(&cols) {
                *slot = scratch[c];
            }
        }
        sort_rows(&mut self.data, a);
        self.vars = order.to_vec();
        self.sorted = true;
        self.touch();
        self
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

/// The widest rows [`sort_rows`] sorts where they lie. Every query of the
/// paper's figures has at most nine variables, Fig. 9's included, so its
/// answers and `T(1̂)` tables are sorted in place; each width is one
/// instance of the sort.
pub(crate) const MAX_IN_PLACE: usize = 9;

/// Sort the rows of `data`, each `a > 0` values wide, lexicographically and
/// drop repeated rows, leaving the buffer's capacity as it was.
///
/// Rows up to [`MAX_IN_PLACE`] wide are sorted where they lie: the buffer
/// is viewed as `[[Value; a]]` and sorted with the standard library's
/// stable sort, which finds the sorted runs its input is made of (the
/// concatenated tables of SMA's and CSMA's final pass are such runs) and
/// merges them in linear time, and repeats are then compacted towards the
/// front. Wider rows sort a `u32` permutation of row ids and are copied in
/// its order into a buffer of exactly their size.
///
/// # Panics
///
/// Panics if rows wider than [`MAX_IN_PLACE`] number 2³² or more.
pub(crate) fn sort_rows(data: &mut Vec<Value>, a: usize) {
    debug_assert!(a > 0 && data.len().is_multiple_of(a));
    match a {
        1 => sort_rows_of::<1>(data),
        2 => sort_rows_of::<2>(data),
        3 => sort_rows_of::<3>(data),
        4 => sort_rows_of::<4>(data),
        5 => sort_rows_of::<5>(data),
        6 => sort_rows_of::<6>(data),
        7 => sort_rows_of::<7>(data),
        8 => sort_rows_of::<8>(data),
        9 => sort_rows_of::<9>(data),
        _ => {
            debug_assert!(a > MAX_IN_PLACE);
            let mut order = identity_permutation(data.len() / a);
            let row = |i: u32| &data[i as usize * a..(i as usize + 1) * a];
            order.sort_unstable_by(|&i, &j| row(i).cmp(row(j)));
            order.dedup_by(|i, kept| row(*i) == row(*kept));
            let mut sorted = Vec::with_capacity(order.len() * a);
            for &i in &order {
                sorted.extend_from_slice(row(i));
            }
            *data = sorted;
        }
    }
}

/// `0..n` as the `u32` row ids [`sort_rows`] permutes for rows wider than
/// [`MAX_IN_PLACE`].
fn identity_permutation(n: usize) -> Vec<u32> {
    let n = u32::try_from(n).unwrap_or_else(|_| {
        panic!("{n} rows do not fit the u32 sort permutation (limit 2^32 - 1)")
    });
    (0..n).collect()
}

/// [`sort_rows`] for rows `N` wide, in place.
fn sort_rows_of<const N: usize>(data: &mut Vec<Value>) {
    let (rows, _) = data.as_chunks_mut::<N>();
    rows.sort();
    let mut kept = usize::from(!rows.is_empty());
    for i in 1..rows.len() {
        if rows[i] != rows[kept - 1] {
            rows[kept] = rows[i];
            kept += 1;
        }
    }
    data.truncate(kept * N);
}

/// Replace each `old` range of `buf` by its `new` slice, in place — the
/// splice [`Relation::apply_delta`] and [`TrieIndex`]'s carry share.
/// `edits` ascend and their ranges are disjoint.
///
/// Run `k`, the untouched elements after the first `k` edits, moves by the
/// net size change of those edits with one `copy_within`: runs moving left
/// first, in ascending order, then runs moving right, in descending order,
/// so no run is overwritten before it moves. `moved(k, run)` then sees
/// each run at its new place (a trie's child offsets shift there), and the
/// edits' slices are written last. Growth reserves exactly and shrinking
/// gives the slack back, so `capacity == len` holds after every splice.
pub(crate) fn splice_in_place<T: Copy + Default>(
    buf: &mut Vec<T>,
    edits: &[(Range<usize>, &[T])],
    mut moved: impl FnMut(usize, &mut [T]),
) {
    // Each run's old range and how far it moves.
    let mut runs: Vec<(Range<usize>, isize)> = Vec::with_capacity(edits.len() + 1);
    let (mut from, mut by) = (0, 0isize);
    for (old, new) in edits {
        runs.push((from..old.start, by));
        by += new.len() as isize - old.len() as isize;
        from = old.end;
    }
    runs.push((from..buf.len(), by));
    let len = buf.len().wrapping_add_signed(by);
    if len > buf.len() {
        buf.reserve_exact(len - buf.len());
        buf.resize(len, T::default());
    }
    let to = |(run, by): &(Range<usize>, isize)| run.start.wrapping_add_signed(*by);
    for run in runs.iter().filter(|r| r.1 < 0) {
        buf.copy_within(run.0.clone(), to(run));
    }
    for run in runs.iter().rev().filter(|r| r.1 > 0) {
        buf.copy_within(run.0.clone(), to(run));
    }
    buf.truncate(len);
    buf.shrink_to_fit();
    for (k, run) in runs.iter().enumerate() {
        moved(k, &mut buf[to(run)..to(run) + run.0.len()]);
    }
    for ((old, new), (_, by)) in edits.iter().zip(&runs) {
        let at = old.start.wrapping_add_signed(*by);
        buf[at..at + new.len()].copy_from_slice(new);
    }
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
    use proptest::prelude::*;
    use std::collections::BTreeSet;

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

    /// From every hint in `0..=n + 1`, the galloping range equals
    /// `prefix_range` and the galloping fan-out the bisecting count it
    /// replaced: on an empty and a one-row relation and on one with a heavy
    /// group, for prefixes of every stored row (the first and last
    /// included) and for absent ones below, between and above them.
    #[test]
    fn a_gallop_from_any_hint_finds_the_prefix_range() {
        /// One bisection of the prefix's whole range per child.
        fn bisected_fan_out(rel: &Relation, prefix: &[Value]) -> usize {
            let Range { mut start, end } = rel.prefix_range(prefix);
            let p = prefix.len() + 1;
            let mut kids = 0;
            while start < end {
                kids += 1;
                let child = &rel.row(start)[..p];
                start = rel.partition_rows(start, end, |row| row[..p] <= *child);
            }
            kids
        }
        let rows = (0..48u64)
            .map(|i| [i / 12 + 1, i % 12 / 4, i % 4])
            .chain((0..30).map(|i| [5, 0, i]))
            .chain([[6, 6, 6]]);
        let relations = [
            Relation::new(vec![0, 1, 2]),
            Relation::from_rows(vec![0, 1, 2], [[2, 2, 2]]),
            Relation::from_rows(vec![0, 1, 2], rows),
        ];
        let absent: [&[Value]; 9] = [
            &[0],
            &[0, 0],
            &[9],
            &[9, 0, 0],
            &[2, 7],
            &[1, 1, 9],
            &[3, 5],
            &[5, 1],
            &[5, 0, 99],
        ];
        for rel in &relations {
            assert!(rel.is_sorted());
            let n = rel.len();
            let stored = rel
                .rows()
                .flat_map(|row| (1..=3).map(move |len| &row[..len]));
            for prefix in stored.chain(absent) {
                let want = rel.prefix_range(prefix);
                for hint in 0..=n + 1 {
                    let got = rel.prefix_range_near(prefix, hint);
                    assert_eq!(got, want, "{prefix:?} from row {hint} of {n}");
                    if prefix.len() < 3 {
                        let fan_out = rel.branches(got, prefix.len() + 1);
                        assert_eq!(fan_out, bisected_fan_out(rel, prefix), "{prefix:?}");
                    }
                }
            }
        }
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
        assert_eq!((applied.added, applied.removed), (2, 1));
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
        assert_eq!((applied.added, applied.removed), (1, 0));
        assert!(r.contains_row(&[1, 10]));
        assert!(r.contains_row(&[5, 50]));
    }

    #[test]
    fn apply_delta_noop_keeps_version() {
        let mut r = rel3();
        r.sort_dedup();
        let v0 = r.version();
        let none: [&[Value]; 0] = [];
        assert_eq!(r.apply_delta(none, none).changed(), 0);
        let applied = r.apply_delta([[1u64, 10]], [[9u64, 9]]); // both no-ops
        assert_eq!(applied.changed(), 0);
        assert!(applied.plus().is_none() && applied.minus().is_none());
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

    /// Apply `inserts` and `deletes` to the relation of `rows` whose
    /// statistics are cached, and check the result against the relation
    /// and statistics computed from scratch over the changed row set, and
    /// the net rows returned against the set differences.
    fn assert_delta_matches_a_rebuild(
        rows: &[[Value; 2]],
        inserts: &[[Value; 2]],
        deletes: &[[Value; 2]],
    ) {
        let mut rel = Relation::from_rows(vec![0, 1], rows);
        rel.sort_dedup();
        rel.stats().expect("sorted");
        let before: BTreeSet<[Value; 2]> = rows.iter().copied().collect();
        let mut after = before.clone();
        after.retain(|r| !deletes.contains(r));
        after.extend(inserts);
        let applied = rel.apply_delta(inserts, deletes);
        let mut want = Relation::from_rows(vec![0, 1], &after);
        want.sort_dedup();
        assert_eq!(rel, want, "inserts {inserts:?}, deletes {deletes:?}");
        assert!(rel.is_sorted());
        let net = |rel: Option<&Relation>| -> Vec<[Value; 2]> {
            rel.map_or(Vec::new(), |r| {
                r.rows().map(|row| [row[0], row[1]]).collect()
            })
        };
        let plus: Vec<[Value; 2]> = after.difference(&before).copied().collect();
        let minus: Vec<[Value; 2]> = before.difference(&after).copied().collect();
        assert_eq!(net(applied.plus()), plus);
        assert_eq!(net(applied.minus()), minus);
        assert_eq!((applied.added, applied.removed), (plus.len(), minus.len()));
        assert_eq!(rel.stats(), Some(&RelationStats::of(&want)));
        assert_eq!(rel.data.capacity(), rel.data.len(), "no slack kept");
    }

    /// [`assert_delta_matches_a_rebuild`] on a nullary relation: `{()}` if
    /// `unit` (else `{}`) takes `ins` inserts and `del` deletes of `()`.
    fn assert_nullary_delta_matches_a_rebuild(unit: bool, ins: usize, del: usize) {
        let mut rel = if unit {
            Relation::nullary_unit()
        } else {
            Relation::new(Vec::new())
        };
        let row: &[Value] = &[];
        let applied = rel.apply_delta(vec![row; ins], vec![row; del]);
        let after = ins > 0 || (unit && del == 0);
        assert_eq!(rel.len(), usize::from(after));
        let (plus, minus) = (usize::from(after && !unit), usize::from(unit && !after));
        assert_eq!(applied.plus().map_or(0, Relation::len), plus);
        assert_eq!(applied.minus().map_or(0, Relation::len), minus);
        assert_eq!((applied.added, applied.removed), (plus, minus));
        assert!(rel.lineage().is_none(), "a nullary relation records none");
    }

    /// The splice at the buffer's edges and around its edits, one named
    /// case each (stored rows all have first value 1..=3).
    #[test]
    fn apply_delta_splices_at_the_edges() {
        let rows = [[1, 1], [1, 2], [2, 1], [2, 5], [3, 3]];
        let check = |inserts: &[[Value; 2]], deletes: &[[Value; 2]]| {
            assert_delta_matches_a_rebuild(&rows, inserts, deletes)
        };
        check(&[[0, 9]], &[]); // an insert before row 0
        check(&[], &[[3, 3]]); // the last row deleted
        check(&[], &[[1, 1]]); // the first row deleted
        check(&[[2, 2], [2, 6]], &[[2, 5]]); // inserts on both sides of a delete
        check(&[[0, 0], [1, 3], [4, 4], [9, 9]], &[[2, 1]]); // net growth
        check(&[[2, 3]], &[[1, 1], [1, 2], [3, 3]]); // net shrink
        check(&[[7, 7]], &rows); // every row replaced
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Random batches over a small value domain: inserts below row 0
        /// and past the last row (values 0 and 6 are never stored), deletes
        /// of stored rows picked by position (the last one included) and of
        /// absent rows, and inserts next to the deleted rows; and a nullary
        /// relation toggled by inserts and deletes of `()`.
        #[test]
        fn apply_delta_matches_a_rebuild(
            rows in proptest::collection::vec((1u64..6, 1u64..6), 0..24),
            inserts in proptest::collection::vec((0u64..7, 0u64..7), 0..6),
            picks in proptest::collection::vec(0usize..32, 0..6),
            absent in proptest::collection::vec((0u64..7, 0u64..7), 0..3),
            delete_last in any::<bool>(),
            beside in proptest::collection::vec((0usize..32, 0u64..2), 0..4),
            unit in any::<bool>(),
            unit_edits in (0usize..3, 0usize..3),
        ) {
            let rows: Vec<[Value; 2]> = rows.into_iter().map(|(x, y)| [x, y]).collect();
            let mut stored = rows.clone();
            stored.sort();
            stored.dedup();
            let pick = |i: usize| stored.get(i % stored.len().max(1)).copied();
            let mut deletes: Vec<[Value; 2]> = picks.iter().filter_map(|&i| pick(i)).collect();
            deletes.extend(absent.into_iter().map(|(x, y)| [x, y]));
            deletes.extend(stored.last().filter(|_| delete_last));
            let mut inserts: Vec<[Value; 2]> = inserts.into_iter().map(|(x, y)| [x, y]).collect();
            inserts.extend(beside.iter().filter_map(|&(i, up)| {
                let [x, y] = pick(i)?;
                Some([x, if up == 1 { y + 1 } else { y.saturating_sub(1) }])
            }));
            assert_delta_matches_a_rebuild(&rows, &inserts, &deletes);
            assert_nullary_delta_matches_a_rebuild(unit, unit_edits.0, unit_edits.1);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `sort_dedup` leaves the rows of a `BTreeSet` at every width the
        /// in-place sort takes and at eight past it, on every shape its
        /// input takes: random rows with repeats, sorted, reversed, two
        /// sorted runs one after the other, no row and one row. The buffer
        /// keeps no slack.
        #[test]
        fn sort_dedup_matches_a_set_at_every_width(
            values in proptest::collection::vec(0u64..3, 0..120),
            repeats in 0usize..8,
            cut in 0usize..64,
        ) {
            for a in 1..=MAX_IN_PLACE + 8 {
                let mut random: Vec<Vec<Value>> =
                    values.chunks_exact(a).map(<[Value]>::to_vec).collect();
                let copies: Vec<Vec<Value>> = random.iter().take(repeats).cloned().collect();
                random.extend(copies);
                let mut sorted = random.clone();
                sorted.sort();
                let reversed: Vec<Vec<Value>> = sorted.iter().rev().cloned().collect();
                let (low, high) = random.split_at(cut.min(random.len()));
                let (mut low, mut high) = (low.to_vec(), high.to_vec());
                low.sort();
                high.sort();
                let runs: Vec<Vec<Value>> = low.into_iter().chain(high).collect();
                let one: Vec<Vec<Value>> = random.iter().take(1).cloned().collect();
                let shapes = [
                    ("random", random),
                    ("sorted", sorted),
                    ("reversed", reversed),
                    ("two runs", runs),
                    ("empty", Vec::new()),
                    ("one row", one),
                ];
                for (shape, rows) in shapes {
                    let want: Vec<Vec<Value>> =
                        rows.iter().cloned().collect::<BTreeSet<_>>().into_iter().collect();
                    let mut rel = Relation::from_rows((0..a as u32).collect(), &rows);
                    // Slack, and a sort even where the rows ascend.
                    rel.data.reserve(a + 1);
                    rel.sorted = false;
                    rel.sort_dedup();
                    let got: Vec<Vec<Value>> = rel.rows().map(<[Value]>::to_vec).collect();
                    prop_assert_eq!(got, want, "width {}, {}", a, shape);
                    prop_assert!(rel.is_sorted());
                    prop_assert_eq!(rel.data.capacity(), rel.data.len(), "width {}, {}", a, shape);
                }
            }
        }
    }

    /// A batch with as many inserts as deletes moves the untouched rows
    /// within the buffer the relation already has.
    #[test]
    fn a_balanced_delta_keeps_the_row_buffer() {
        let mut r = Relation::from_rows(vec![0, 1], (0..64u64).map(|i| [i / 4, i]));
        // The first splice fits the buffer to its rows (a push-built
        // relation may hold slack).
        r.apply_delta([[100u64, 0]], [[0u64, 0]]);
        let at = r.data.as_ptr();
        let applied = r.apply_delta(
            [[0u64, 0], [7, 1000], [200, 1]],
            [[1u64, 4], [5, 20], [100, 0]],
        );
        assert_eq!((applied.added, applied.removed), (3, 3));
        assert_eq!(r.data.as_ptr(), at, "spliced where it lies");
        assert_eq!(r.len(), 64);
        assert!(r.contains_row(&[7, 1000]) && !r.contains_row(&[5, 20]));
    }

    /// Every ordering of `0..n`.
    fn permutations(n: u32) -> Vec<Vec<u32>> {
        if n == 0 {
            return vec![vec![]];
        }
        let mut out = Vec::new();
        for p in permutations(n - 1) {
            for at in 0..=p.len() {
                let mut q = p.clone();
                q.insert(at, n - 1);
                out.push(q);
            }
        }
        out
    }

    #[test]
    fn reorder_matches_a_trie_rebuild_for_every_permutation() {
        // Both the stored order and the target range over every column
        // permutation of arity ≤ 4: P = ∅ (the same order), |P| = 1 and
        // |P| = arity - 1 (the reversed order) all occur.
        let mut seed = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % 4
        };
        for arity in 0..=4 {
            let orders = permutations(arity);
            for stored in &orders {
                let rows: Vec<Vec<Value>> = (0..40)
                    .map(|_| (0..arity).map(|_| next()).collect())
                    .collect();
                let mut rel = Relation::from_rows(stored.clone(), &rows);
                rel.sort_dedup();
                for order in &orders {
                    let want = TrieIndex::build(&rel, order).to_relation();
                    let got = rel.clone().reordered(order);
                    assert_eq!(got, want, "{stored:?} -> {order:?}");
                    assert!(got.is_sorted());
                }
            }
        }
    }

    /// Each row moves within the relation's own buffer: one named case per
    /// shape of the permutation.
    #[test]
    fn reordered_moves_rows_within_their_buffer() {
        let check = |rel: Relation, order: &[u32]| {
            assert!(rel.is_sorted(), "a sorted relation is not re-sorted");
            let want = TrieIndex::build(&rel, order).to_relation();
            let (at, cap) = (rel.data.as_ptr(), rel.data.capacity());
            let got = rel.reordered(order);
            assert_eq!(got, want, "-> {order:?}");
            assert!(got.is_sorted());
            assert_eq!(got.data.as_ptr(), at, "the same buffer");
            assert_eq!(got.data.capacity(), cap, "the same capacity");
        };
        let n = 50u64;
        // The identity order: P = ∅, nothing moves.
        check(
            Relation::from_rows(vec![2, 0, 1], (0..n).map(|i| [i / 7, i % 7, i])),
            &[2, 0, 1],
        );
        // Row i lands in slot i + 1 (mod n): one cycle through every row.
        check(
            Relation::from_rows(vec![0, 1], (0..n).map(|i| [i, (i + 1) % n])),
            &[1, 0],
        );
        // Rows 0 and 3 stay in their slots (with their columns swapped);
        // rows 1 and 2 trade places.
        check(
            Relation::from_rows(vec![0, 1], [[0, 0], [1, 2], [2, 1], [3, 3]]),
            &[1, 0],
        );
        // Arity 1: the only order is the stored one.
        check(Relation::from_rows(vec![4], (0..n).map(|i| [i])), &[4]);
        // The empty relation takes the new schema.
        check(Relation::new(vec![0, 1, 2]), &[2, 1, 0]);
    }

    #[test]
    fn apply_delta_nullary() {
        let mut unit = Relation::nullary_unit();
        let none: [&[Value]; 0] = [];
        let row: [&[Value]; 1] = [&[]];
        let applied = unit.apply_delta(none, row);
        assert_eq!((applied.added, applied.removed), (0, 1));
        assert!(unit.is_empty());
        let applied = unit.apply_delta(row, none);
        assert_eq!((applied.added, applied.removed), (1, 0));
        assert_eq!(unit.len(), 1);
        // Delete + insert in one delta: the insert wins.
        assert_eq!(unit.apply_delta(row, row).changed(), 0);
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
