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
//!   across seams (Generic-Join's under its default variable order: it
//!   enumerates in lexicographic order) are canonical as concatenated;
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

use crate::expand::Program;
use crate::stats::Stats;
use crate::Expander;
use fdjoin_obs::{Observer, SpanKind};
use fdjoin_storage::{Relation, Value};
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

/// Split `0..n` items into at most `parts` contiguous non-empty blocks.
/// With `weights` (one per item), blocks balance total weight greedily:
/// each block closes once it reaches the average of the *remaining* weight
/// over the *remaining* blocks, so one heavy item gets a block to itself
/// and the light tail is spread evenly — never a naive equal-width split.
/// Without weights, items are balanced by count.
pub(crate) fn balanced_blocks(
    n: usize,
    weights: Option<&[u64]>,
    parts: usize,
) -> Vec<Range<usize>> {
    let parts = parts.clamp(1, n.max(1));
    if n == 0 {
        return Vec::new();
    }
    match weights {
        None => {
            // Counts: n/parts per block, remainder on the leading blocks.
            let (base, rem) = (n / parts, n % parts);
            let mut blocks = Vec::with_capacity(parts);
            let mut start = 0;
            for b in 0..parts {
                let len = base + usize::from(b < rem);
                blocks.push(start..start + len);
                start += len;
            }
            debug_assert_eq!(start, n);
            blocks
        }
        Some(w) => {
            debug_assert_eq!(w.len(), n);
            // One balancing implementation for the whole stack: the same
            // greedy remaining-average split `TrieIndex::split_ranges`
            // uses for root-child row ranges.
            fdjoin_storage::balanced_ranges(w, parts)
        }
    }
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
/// `T(1̂)` tables, semijoin-reduce it against every input relation (one
/// sorted-order membership lookup per input) and verify FDs, fanning the
/// per-row checks out over sub-range blocks. Rows survive into the
/// returned relation exactly as in the sequential loop;
/// `output_tuples`/`probes` are counted per surviving/checked row inside
/// each block, so totals are parallelism-invariant.
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
    inputs: &[&Relation],
    ex: &Expander<'_>,
    top: TopTables,
    par: &ParCtx,
    stats: &mut Stats,
) -> Relation {
    let TopTables {
        rows: mut out,
        verified,
    } = top;
    out.sort_dedup();
    // `out` is over all variables in ascending id: a row is its own value
    // vector, and the verify list is the one for the full set. Compiled
    // only where it runs: on unverified tables, and in debug builds.
    let verify = (!verified || cfg!(debug_assertions)).then(|| ex.compile_verify(out.var_set()));
    let out = &out;
    let parts = for_blocks(par, out.len(), None, stats, |rows, stats| {
        let mut reduced = Relation::new(out.vars().to_vec());
        let mut vals = vec![0 as Value; out.vars().len()];
        let mut scratch = verify.as_ref().map(Program::scratch);
        // One key buffer for every membership lookup of the block.
        let mut key: Vec<Value> = Vec::new();
        'rows: for row in rows.map(|ri| out.row(ri)) {
            for rel in inputs {
                stats.probes += 1;
                key.clear();
                key.extend(rel.vars().iter().map(|&v| row[v as usize]));
                if !rel.contains_row(&key) {
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
    merge(parts)
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

    #[test]
    fn balanced_blocks_by_count_cover_exactly() {
        for n in 0..20 {
            for parts in 1..10 {
                let blocks = balanced_blocks(n, None, parts);
                let covered: usize = blocks.iter().map(|b| b.len()).sum();
                assert_eq!(covered, n);
                assert!(blocks.len() <= parts.max(1));
                assert!(blocks.iter().all(|b| !b.is_empty()) || n == 0);
                assert!(blocks.windows(2).all(|w| w[0].end == w[1].start));
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
