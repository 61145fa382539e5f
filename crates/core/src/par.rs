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
//! - each block is traced as a `solve_part` span explicitly parented to
//!   the enclosing `solve` span ([`Observer::span_with_parent`]), so one
//!   coherent span tree covers the whole solve regardless of which worker
//!   thread ran which block.
//!
//! [`run_scoped`] (the scoped work-stealing primitive, re-exported by
//! `fdjoin_exec`) lives here so algorithm drivers can fan out without a
//! dependency cycle onto the serving crate.

use crate::stats::Stats;
use crate::Expander;
use fdjoin_obs::{Observer, SpanKind};
use fdjoin_storage::{Relation, Value};
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Mutex;

/// Run a fixed set of index-addressed tasks over borrowed data with
/// work-stealing, on scoped threads (no `'static` bound). `run(i)` is
/// executed exactly once for every `i in 0..count`; results come back in
/// index order.
///
/// This is the scoped fan-out primitive behind both batch serving
/// (`fdjoin_exec::ExecuteBatch`) and intra-query sub-range solves
/// (`for_blocks`); it is public (and re-exported as
/// `fdjoin_exec::run_scoped`) so other serving drivers — e.g.
/// `fdjoin_delta`'s multi-view delta application — can reuse it for
/// borrowed workloads that a persistent pool's `'static` jobs cannot
/// express.
pub fn run_scoped<T, F>(count: usize, threads: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.clamp(1, count.max(1));
    if count == 0 {
        return Vec::new();
    }
    if threads == 1 {
        return (0..count).map(run).collect();
    }
    // Round-robin the task indices onto per-worker deques.
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..threads)
        .map(|w| Mutex::new((w..count).step_by(threads).collect()))
        .collect();
    let results: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for me in 0..threads {
            let queues = &queues;
            let results = &results;
            let run = &run;
            s.spawn(move || loop {
                // Own front, then siblings' backs; a fixed task set spawns
                // nothing, so an empty sweep means the batch is drained.
                // The own-queue pop is bound first so its guard drops before
                // any steal: chaining `.or_else` onto the locked pop would
                // hold the own lock across the sibling locks — two workers
                // stealing from each other would deadlock (ABBA).
                let own = queues[me].lock().unwrap().pop_front();
                let task = own.or_else(|| {
                    (1..threads).find_map(|k| queues[(me + k) % threads].lock().unwrap().pop_back())
                });
                match task {
                    Some(i) => *results[i].lock().unwrap() = Some(run(i)),
                    None => return,
                }
            });
        }
    });
    results
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("every task ran"))
        .collect()
}

/// Per-solve parallelism context, resolved once by the engine (from
/// [`ExecOptions::parallelism`](crate::ExecOptions) and the estimate gate)
/// and threaded through every algorithm driver.
#[derive(Clone)]
pub(crate) struct ParCtx {
    /// Maximum number of concurrent sub-range tasks (1 = sequential).
    pub tasks: usize,
    /// The solve's observer (clones share one recorder; disabled = no-op).
    obs: Observer,
    /// The enclosing `solve` span, captured on the coordinating thread so
    /// `solve_part` spans emitted from workers join the same tree.
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
/// by `weights` when given), running `work(range, stats)` per block, and
/// merge deterministically: block results are returned in range order and
/// per-block `Stats` are summed into `stats` in range order.
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
    let parts = run_scoped(total, total, |i| {
        let block = blocks[i].clone();
        let mut span = par.obs.span_with_parent(
            SpanKind::SolvePart,
            format!("part {}/{total}", i + 1),
            par.parent,
        );
        span.field("items", block.len());
        let mut s = Stats::default();
        let r = work(block, &mut s);
        (r, s)
    });
    parts
        .into_iter()
        .map(|(r, s)| {
            stats.merge(&s);
            r
        })
        .collect()
}

/// The shared final pass of SMA and CSMA: semijoin-reduce `out` against
/// every input relation (one sorted-order membership lookup per input) and
/// verify FDs, fanning the per-row checks out over sub-range blocks. Rows
/// survive into the returned relation exactly as in the sequential loop;
/// `output_tuples`/`probes` are counted per surviving/checked row inside
/// each block, so totals are parallelism-invariant.
pub(crate) fn semijoin_reduce_verified(
    inputs: &[&Relation],
    ex: &Expander<'_>,
    out: &Relation,
    par: &ParCtx,
    stats: &mut Stats,
) -> Relation {
    // `out` is over all variables in ascending id: a row is its own value
    // vector, and the verify list is the one for the full set.
    let verify = ex.compile_verify(out.var_set());
    let parts = for_blocks(par, out.len(), None, stats, |rows, stats| {
        let mut reduced = Relation::new(out.vars().to_vec());
        let mut vals = vec![0 as Value; out.vars().len()];
        let mut scratch = verify.scratch();
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
            vals.copy_from_slice(row);
            if !verify.run(&mut vals, &mut scratch, stats) {
                continue;
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
}
