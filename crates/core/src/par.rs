//! Intra-query parallel fan-out: the shared range-restricted entry point
//! every algorithm driver uses to split one solve across cores.
//!
//! The paper's bounds (chain/LLP/SMA/CSMA) all decompose additively over
//! disjoint ranges of the first join variable — each sub-range solve keeps
//! its own bound, so a single large solve can fan out without changing
//! total work. The contract here makes that fan-out *observationally
//! sequential*:
//!
//! - sub-results are concatenated **in range order** by `merge` — one
//!   block copy per fragment, no per-row work — into the canonical
//!   (sorted, duplicate-free) relation the sequential run produces, so
//!   output bytes are identical. Fragments that are sorted and ascend
//!   across seams (Generic-Join's: it enumerates in lexicographic order
//!   of ascending variable id) are canonical as concatenated;
//!   only rows that really arrive out of order are sorted;
//! - each task counts into a fresh [`Stats`] and the fragments are merged
//!   in range order, so deterministic counter totals are identical
//!   (every per-item counter bump happens exactly once, in some task);
//! - `tasks == 1` (or fewer than two items) runs inline on the caller's
//!   thread with the caller's `Stats` — the sequential path *is* the
//!   parallel path with one block, not a separate code path;
//! - each block runs on its own scoped thread (`std::thread::scope`, no
//!   `'static` bound on the borrowed inputs), and the threads are joined
//!   in block order. A block that panics — a registered UDF, say — has
//!   its own payload resumed on the caller's thread (the lowest-indexed
//!   one if several do), so the serving layer's panic containment reports
//!   the block's message rather than a generic one;
//! - each block is traced as a `solve_part` span explicitly parented to
//!   the enclosing `solve` span ([`Observer::span_with_parent`]), so one
//!   coherent span tree covers the whole solve regardless of which thread
//!   ran which block.
//!
//! SMA's and CSMA's shared final pass ([`semijoin_reduce_verified`]) fans
//! out here too: the union of the branches' `T(1̂)` tables is sorted where
//! its rows lie, then each block checks its rows against every input
//! through one [`Finger`] per input on the input's trie in stored column
//! order.

use crate::expand::Program;
use crate::stats::Stats;
use crate::Expander;
use fdjoin_obs::{Observer, SpanKind};
use fdjoin_storage::{Finger, Found, MissingRelation, Relation, Value};
use std::ops::Range;

/// Per-solve parallelism context, resolved once by the engine (from
/// [`ExecOptions::parallelism`](crate::ExecOptions) and the estimate gate)
/// and threaded through every algorithm driver.
#[derive(Clone)]
pub(crate) struct ParCtx {
    /// Maximum number of sub-range blocks, one scoped thread each
    /// (1 = sequential, on the caller's thread).
    pub tasks: usize,
    /// The solve's observer (clones share one recorder; disabled = no-op).
    obs: Observer,
    /// The enclosing `solve` span, captured on the coordinating thread so
    /// `solve_part` spans emitted from the block threads join the same
    /// tree.
    parent: Option<u64>,
}

impl ParCtx {
    /// A sequential context: one task, nothing traced.
    pub fn sequential() -> ParCtx {
        ParCtx {
            tasks: 1,
            obs: Observer::disabled(),
            parent: None,
        }
    }

    /// A context for `tasks`-way fan-out under the currently open span of
    /// `obs` (the engine's `solve` span when called from `execute`).
    pub fn new(tasks: usize, obs: &Observer) -> ParCtx {
        ParCtx {
            tasks: tasks.max(1),
            obs: obs.clone(),
            parent: obs.current_span(),
        }
    }
}

/// Split `0..n` items into at most `parts` contiguous non-empty blocks
/// with balanced total weight (one weight per item; without `weights`,
/// every item weighs one). Greedy: each block closes once it reaches the
/// ceiling-average of the *remaining* weight over the *remaining* blocks,
/// so one heavy item (e.g. a root value holding 99% of the rows) gets a
/// block to itself and the light tail spreads evenly — never a naive
/// equal-width split. Unweighted, that is `n / parts` items per block with
/// the remainder on the leading blocks. Deterministic in its inputs.
pub(crate) fn balanced_blocks(
    n: usize,
    weights: Option<&[u64]>,
    parts: usize,
) -> Vec<Range<usize>> {
    debug_assert!(weights.is_none_or(|w| w.len() == n));
    let weight = |i: usize| weights.map_or(1, |w| w[i]);
    let parts = parts.clamp(1, n.max(1));
    let mut remaining: u64 = (0..n).map(weight).sum();
    let mut blocks = Vec::with_capacity(parts);
    let mut start = 0;
    while start < n {
        let blocks_left = parts - blocks.len();
        let target = remaining.div_ceil(blocks_left as u64).max(1);
        let mut end = start;
        let mut acc = 0u64;
        // Leave at least one item for every block still owed; the last
        // block takes the tail.
        while end < n && (acc < target || end == start) && n - end >= blocks_left {
            acc += weight(end);
            end += 1;
        }
        if blocks_left == 1 {
            end = n;
        }
        remaining -= (start..end).map(weight).sum::<u64>();
        blocks.push(start..end);
        start = end;
    }
    blocks
}

/// Fan `n` items out over at most `par.tasks` contiguous blocks (balanced
/// by `weights` when given), running `work(range, stats)` per block on its
/// own scoped thread, and merge deterministically: block results are
/// returned in range order and per-block `Stats` are summed into `stats`
/// in range order. If a block panics, the payload of the lowest-indexed
/// panicking block is resumed once every block has finished.
///
/// With one task (or fewer than two items) the single block runs inline on
/// the caller's thread against the caller's `Stats` — by construction the
/// sequential run and the 1-task run are the same execution.
pub(crate) fn for_blocks<R, F>(
    par: &ParCtx,
    n: usize,
    weights: Option<&[u64]>,
    stats: &mut Stats,
    work: F,
) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>, &mut Stats) -> R + Sync,
{
    if par.tasks <= 1 || n < 2 {
        return vec![work(0..n, stats)];
    }
    let blocks = balanced_blocks(n, weights, par.tasks);
    if blocks.len() <= 1 {
        return vec![work(0..n, stats)];
    }
    let total = blocks.len();
    let work = &work;
    let joined: Vec<std::thread::Result<(R, Stats)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = blocks
            .into_iter()
            .enumerate()
            .map(|(i, block)| {
                scope.spawn(move || {
                    let mut span = par.obs.span_with_parent(
                        SpanKind::SolvePart,
                        format!("part {}/{total}", i + 1),
                        par.parent,
                    );
                    span.field("items", block.len());
                    let mut s = Stats::default();
                    let r = work(block, &mut s);
                    (r, s)
                })
            })
            .collect();
        // Joined, every one: a panic left unjoined would make the scope
        // re-panic with its own payload instead of the block's.
        handles.into_iter().map(|h| h.join()).collect()
    });
    joined
        .into_iter()
        .map(|part| {
            let (r, s) = part.unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            stats.merge(&s);
            r
        })
        .collect()
}

/// The union of one run's `T(1̂)` tables — SMA's and CSMA's answer before
/// their shared final pass, [`semijoin_reduce_verified`].
pub(crate) struct TopTables {
    /// Every table's rows, each scattered into ascending variable order;
    /// sorted once, by the final pass.
    rows: Relation,
    /// Whether every non-empty table added is `verified` (see
    /// [`TopTables::add`]).
    verified: bool,
}

impl TopTables {
    /// No table yet, for a query over `nv` variables.
    pub fn new(nv: usize) -> TopTables {
        TopTables {
            rows: Relation::new((0..nv as u32).collect()),
            verified: true,
        }
    }

    /// Add one `T(1̂)` (any column order over every variable). `verified`
    /// says that its rows came out of a [`Expander::compile_fused`]
    /// program whose target is `1̂`, every variable: then they already
    /// passed every check of the verify list for `1̂`.
    pub fn add(&mut self, t: &Relation, verified: bool) {
        debug_assert_eq!(
            t.var_set(),
            self.rows.var_set(),
            "T(1̂) binds every variable"
        );
        self.verified &= verified || t.is_empty();
        let mut buf = vec![0 as Value; t.arity()];
        for row in t.rows() {
            for (&v, &x) in t.vars().iter().zip(row) {
                buf[v as usize] = x;
            }
            self.rows.push_row(&buf);
        }
    }
}

/// The shared final pass of SMA and CSMA: sort and dedup the union of the
/// `T(1̂)` tables, semijoin-reduce it against every input relation of
/// `ex`'s query and verify FDs, fanning the per-row checks out over
/// sub-range blocks. Rows survive into the returned relation exactly as in
/// the sequential loop; `output_tuples`/`probes` are counted per
/// surviving/checked row inside each block, so totals are
/// parallelism-invariant.
///
/// Each input is looked up in its trie in stored column order, a base
/// index of the access-path cache ([`Expander::base_tries`]), through one
/// [`Finger`] per input and block. The rows are sorted, so consecutive
/// keys share prefixes and each lookup resumes where the last one stopped;
/// each lookup counts one probe.
///
/// The verify list for all variables ([`Expander::compile_verify`]) runs
/// only if some non-empty table was added unverified. A verified table's
/// rows have passed it already: the fused program that made them ran its
/// expand schedule and then exactly the verify list's checks, less the
/// ones the schedule had already made or bound from — which hold on its
/// output by construction. Debug builds re-run the list on every row the
/// pass keeps without it and assert that the row passes, counting into a
/// throwaway [`Stats`].
pub(crate) fn semijoin_reduce_verified(
    ex: &Expander<'_>,
    top: TopTables,
    par: &ParCtx,
    stats: &mut Stats,
) -> Result<Relation, MissingRelation> {
    let inputs = ex.base_tries(stats)?;
    let TopTables {
        rows: mut out,
        verified,
    } = top;
    out.sort_dedup();
    // `out` is over all variables in ascending id: a row is its own value
    // vector, so a finger reads an input's key at its variables' ids, and
    // the verify list is the one for the full set. Compiled only where it
    // runs: on unverified tables, and in debug builds.
    let verify = (!verified || cfg!(debug_assertions)).then(|| ex.compile_verify(out.var_set()));
    let out = &out;
    let parts = for_blocks(par, out.len(), None, stats, |rows, stats| {
        let mut reduced = Relation::new(out.vars().to_vec());
        let mut vals = vec![0 as Value; out.vars().len()];
        let mut scratch = verify.as_ref().map(Program::scratch);
        let mut fingers: Vec<Finger> = inputs
            .iter()
            .map(|ix| Finger::new(ix, ix.vars().iter().copied()))
            .collect();
        'rows: for row in rows.map(|ri| out.row(ri)) {
            for (ix, finger) in inputs.iter().zip(&mut fingers) {
                stats.probes += 1;
                // A nullary input holds `()` or nothing; the finger of its
                // empty key would answer a hit either way.
                let held = if ix.arity() == 0 {
                    !ix.is_empty()
                } else {
                    finger.seek(ix, row) != Found::Miss
                };
                if !held {
                    continue 'rows;
                }
            }
            if let (Some(verify), Some(scratch)) = (&verify, &mut scratch) {
                vals.copy_from_slice(row);
                if verified {
                    let holds = verify.run(&mut vals, scratch, &mut Stats::default());
                    debug_assert!(holds, "a verified T(1̂) row fails the verify list: {row:?}");
                } else if !verify.run(&mut vals, scratch, stats) {
                    continue;
                }
            }
            reduced.push_row(row);
            stats.output_tuples += 1;
        }
        reduced
    });
    Ok(merge(parts))
}

/// The merge step of every fan-out: the fragments [`for_blocks`] returned,
/// concatenated in range order ([`Relation::concat`]) and canonicalized.
/// Fragment sortedness is tracked by the relations themselves, so ordered
/// fragments cost one block copy each and nothing else.
pub(crate) fn merge(parts: Vec<Relation>) -> Relation {
    let mut out = Relation::concat(parts);
    out.sort_dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AccessPaths;
    use fdjoin_instances::reference_join;
    use fdjoin_query::Query;
    use fdjoin_storage::{Database, IndexSet};

    /// The final pass on inputs stored out of variable order: `R(z, x, y)`,
    /// `S(w, z)` and `T(x, w)`, each stored in its atom's order. Fed every
    /// tuple over the domain as two unverified tables (in other column
    /// orders), it keeps exactly the join, on one block and on two.
    #[test]
    fn the_final_pass_reads_inputs_stored_out_of_variable_order() {
        let mut b = Query::builder();
        let (x, y, z, w) = (b.var("x"), b.var("y"), b.var("z"), b.var("w"));
        b.atom("R", &[z, x, y])
            .atom("S", &[w, z])
            .atom("T", &[x, w]);
        let q = b.build();
        let mut g = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move || {
            g ^= g << 13;
            g ^= g >> 7;
            g ^= g << 17;
            g % 3
        };
        let mut db = Database::new();
        for (name, stored, width, rows) in [
            ("R", vec![z, x, y], 3, 14),
            ("S", vec![w, z], 2, 6),
            ("T", vec![x, w], 2, 6),
        ] {
            let rows: Vec<Vec<Value>> = (0..rows)
                .map(|_| (0..width).map(|_| next()).collect())
                .collect();
            db.insert(name, Relation::from_rows(stored, rows));
        }
        let want = reference_join(&q, &db);
        assert!(!want.is_empty(), "the instance has answers");
        // Tuple `i` is `(x, y, z, w) = (i % 3, i / 3 % 3, i / 9 % 3, i / 27)`.
        let tuple = |i: u64, cols: [u32; 4]| cols.map(|v| i / 3u64.pow(v) % 3);
        let low = Relation::from_rows(vec![w, y, x, z], (0..40).map(|i| tuple(i, [w, y, x, z])));
        let high = Relation::from_rows(vec![y, z, w, x], (40..81).map(|i| tuple(i, [y, z, w, x])));
        for tasks in [1, 2] {
            let set = IndexSet::new();
            let paths = AccessPaths::new(&set, &q, &db).unwrap();
            let mut stats = Stats::default();
            let ex = Expander::new(&q, &db, &paths, &mut stats).unwrap();
            let mut top = TopTables::new(q.n_vars());
            top.add(&low, false);
            top.add(&high, false);
            let par = ParCtx::new(tasks, &Observer::disabled());
            let got = semijoin_reduce_verified(&ex, top, &par, &mut stats).unwrap();
            assert_eq!(got, want, "{tasks} task(s)");
            assert_eq!(stats.output_tuples, want.len() as u64);
            assert_eq!(stats.index_builds, 3, "one stored-order trie per input");
        }
    }

    /// A nullary input holds `()` or nothing, and the pass keeps the
    /// join's rows only in the first case (the finger of an empty key
    /// would answer a hit in both).
    #[test]
    fn a_nullary_input_keeps_rows_only_when_it_holds_the_empty_tuple() {
        use crate::{Algorithm, Engine, ExecOptions};
        let mut b = Query::builder();
        let (x, y, z) = (b.var("x"), b.var("y"), b.var("z"));
        b.atom("R", &[x, y])
            .atom("S", &[y, z])
            .atom("T", &[z, x])
            .atom("E", &[]);
        let q = b.build();
        let mut db = Database::new();
        db.insert("R", Relation::from_rows(vec![x, y], [[1, 2], [2, 2]]));
        db.insert("S", Relation::from_rows(vec![y, z], [[2, 3]]));
        db.insert("T", Relation::from_rows(vec![z, x], [[3, 1], [3, 2]]));
        for (e, rows) in [(Relation::nullary_unit(), 2), (Relation::new(vec![]), 0)] {
            db.insert("E", e);
            let opts = ExecOptions::new().algorithm(Algorithm::Sma);
            let got = Engine::new().execute(&q, &db, &opts).unwrap().output;
            assert_eq!(got, reference_join(&q, &db));
            assert_eq!(got.len(), rows);
        }
    }

    /// Unweighted, the greedy split is the even one: `n / parts` items per
    /// block, the remainder on the leading blocks, covering `0..n` exactly.
    #[test]
    fn balanced_blocks_by_count_cover_exactly() {
        for n in 0..64 {
            for parts in 1..10 {
                let k = parts.min(n);
                let mut want = Vec::new();
                for b in 0..k {
                    let start = want.last().map_or(0, |r: &Range<usize>| r.end);
                    want.push(start..start + n / k + usize::from(b < n % k));
                }
                assert_eq!(
                    balanced_blocks(n, None, parts),
                    want,
                    "n {n}, parts {parts}"
                );
            }
        }
    }

    #[test]
    fn balanced_blocks_isolate_a_heavy_item() {
        // One item holds ~99% of the weight: it must sit alone in its
        // block, with the light tail spread over the other blocks.
        let mut w = vec![1u64; 100];
        w[0] = 9900;
        let blocks = balanced_blocks(w.len(), Some(&w), 4);
        assert_eq!(blocks[0], 0..1, "heavy item gets its own block");
        assert_eq!(blocks.len(), 4);
        assert_eq!(blocks.last().unwrap().end, 100);
    }

    #[test]
    fn for_blocks_sequential_is_inline() {
        let par = ParCtx::sequential();
        let mut stats = Stats::default();
        let out = for_blocks(&par, 10, None, &mut stats, |r, s| {
            s.probes += r.len() as u64;
            r.len()
        });
        assert_eq!(out, vec![10]);
        assert_eq!(stats.probes, 10);
    }

    #[test]
    fn for_blocks_merges_in_range_order() {
        let par = ParCtx::new(4, &Observer::disabled());
        let mut stats = Stats::default();
        let out = for_blocks(&par, 10, None, &mut stats, |r, s| {
            s.probes += r.len() as u64;
            r.collect::<Vec<_>>()
        });
        let flat: Vec<usize> = out.into_iter().flatten().collect();
        assert_eq!(flat, (0..10).collect::<Vec<_>>());
        assert_eq!(stats.probes, 10);
    }

    #[test]
    fn a_panicking_block_keeps_its_own_message() {
        let par = ParCtx::new(4, &Observer::disabled());
        let caught = std::panic::catch_unwind(|| {
            let mut stats = Stats::default();
            for_blocks(&par, 4, None, &mut stats, |r, _| {
                if r.start == 2 {
                    panic!("block {} exploded", r.start);
                }
                r.len()
            })
        });
        let payload = caught.expect_err("the block's panic reaches the caller");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("block 2 exploded")
        );
    }
}
