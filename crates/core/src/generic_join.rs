//! Generic-Join (NPRR / LFTJ style): the FD-oblivious worst-case-optimal
//! baseline ([18, 19, 23] in the paper).
//!
//! Variables are bound one at a time in a fixed order; at each level the
//! candidate values are the intersection of the matching ranges of every
//! relation containing the variable. Each atom is a cached trie index
//! (columns in the global binding order, served by the access-path layer),
//! and the search maintains one [`Probe`] cursor per atom per depth: a
//! parent's cursor *narrows* into its child's — intersection is leapfrog
//! seeking inside the already-established range, never a from-scratch
//! binary search over the whole relation, and no per-probe key is ever
//! allocated. Runs within the AGM bound of the FD-stripped query — and
//! therefore `Ω(N²)` on the paper's Fig. 1 instance, which is the point of
//! experiment E1.
//!
//! The optional `bind_fds` flag implements the paper's footnote 1: LFTJ
//! binds a variable by computing it the moment it is functionally determined
//! by the bound prefix, instead of intersecting. This helps constant
//! factors but provably not the worst-case exponent on the E1 instance.

use crate::{AccessPaths, Expander, Stats};
use fdjoin_lattice::VarSet;
use fdjoin_query::Query;
use fdjoin_storage::{Database, MissingRelation, Probe, Relation, TrieIndex, Value};
use std::sync::Arc;

/// Per-run knobs, resolved by the engine from `ExecOptions`.
#[derive(Clone, Debug, Default)]
pub(crate) struct GjConfig {
    /// Bind FD-determined variables eagerly (footnote 1 of the paper).
    pub bind_fds: bool,
    /// Variable order; defaults to ascending variable id.
    pub var_order: Option<Vec<u32>>,
}

struct AtomState {
    idx: Arc<TrieIndex>,
    /// Variables of the atom in the global binding order.
    ordered_vars: Vec<u32>,
}

/// Evaluate `q` on `db` with Generic-Join. Output columns are all query
/// variables in ascending id.
pub(crate) fn execute(
    q: &Query,
    db: &Database,
    opts: &GjConfig,
    paths: &AccessPaths<'_>,
    par: &crate::par::ParCtx,
) -> Result<(Relation, Stats), MissingRelation> {
    let mut stats = Stats::default();
    let ex = Expander::new(q, db, paths, &mut stats)?;
    let nv = q.n_vars();
    let order: Vec<u32> = opts
        .var_order
        .clone()
        .unwrap_or_else(|| (0..nv as u32).collect());
    // Only bind variables that occur in atoms during search; the rest are
    // filled by expansion at the end (UDF-only variables).
    let atom_vars: VarSet = q
        .atoms()
        .iter()
        .fold(VarSet::EMPTY, |s, a| s.union(a.var_set()));
    let search_order: Vec<u32> = order
        .iter()
        .copied()
        .filter(|&v| atom_vars.contains(v))
        .collect();
    let rank: Vec<usize> = {
        let mut r = vec![usize::MAX; nv];
        for (i, &v) in search_order.iter().enumerate() {
            r[v as usize] = i;
        }
        r
    };

    // One cached trie index per atom, columns ordered by the global
    // binding order so the bound variables always form a prefix.
    let mut atoms: Vec<AtomState> = Vec::with_capacity(q.atoms().len());
    for a in q.atoms() {
        let mut ordered: Vec<u32> = a.vars.clone();
        ordered.sort_by_key(|&v| rank[v as usize]);
        atoms.push(AtomState {
            idx: paths.base(&a.name, db.relation(&a.name)?, &ordered, &mut stats),
            ordered_vars: ordered,
        });
    }

    // Atoms participating at each search depth.
    let at_depth: Vec<Vec<usize>> = search_order
        .iter()
        .map(|&v| {
            (0..atoms.len())
                .filter(|&ai| atoms[ai].ordered_vars.contains(&v))
                .collect()
        })
        .collect();

    let all: Vec<u32> = (0..nv as u32).collect();
    let target = VarSet::full(nv as u32);
    // Per-depth cursor snapshots: levels[d][ai] is atom ai's probe with
    // its variables among search_order[..d] descended. Depth d+1 is always
    // rewritten from depth d, so backtracking needs no undo.
    let mut levels: Vec<Vec<Probe<'_>>> = (0..=search_order.len())
        .map(|_| atoms.iter().map(|a| a.idx.probe()).collect())
        .collect();
    let ctx = SearchCtx {
        q,
        ex: &ex,
        order: &search_order,
        at_depth: &at_depth,
        target,
        opts,
    };

    // Parallel sub-range path: intersect the first variable's domain on
    // the coordinating thread (the exact depth-0 leapfrog the sequential
    // search runs, counting the same probes), then fan the matched root
    // candidates out over tasks balanced by measured child counts. Not
    // applicable when the first search variable is FD-bound (a single
    // computed candidate — nothing to split).
    if par.tasks > 1 && !search_order.is_empty() {
        let fd_bound_root = opts.bind_fds && q.closure(VarSet::EMPTY).contains(search_order[0]);
        if !fd_bound_root {
            let participating = &at_depth[0];
            let lead = *participating
                .iter()
                .min_by_key(|&&ai| levels[0][ai].len())
                .unwrap();
            let mut cands: Vec<Value> = Vec::new();
            let mut weights: Vec<u64> = Vec::new();
            let cur = &mut levels[0];
            while let Some(candidate) = cur[lead].current() {
                let mut ok = true;
                let mut overshoot: Option<Value> = None;
                for &ai in participating {
                    if ai == lead {
                        continue;
                    }
                    stats.probes += 1;
                    match cur[ai].seek(candidate) {
                        Some(w) if w == candidate => {}
                        other => {
                            ok = false;
                            overshoot = other;
                            break;
                        }
                    }
                }
                if ok {
                    // Weight = the candidate's total child count over the
                    // participating tries (every cursor sits at the
                    // candidate now, so `group` is a local upper-bound
                    // scan, not a counted probe).
                    let w: u64 = participating
                        .iter()
                        .map(|&ai| cur[ai].group().len() as u64)
                        .sum();
                    cands.push(candidate);
                    weights.push(w.max(1));
                }
                match (ok, overshoot) {
                    (true, _) => {
                        cur[lead].next_value();
                    }
                    (false, None) => break,
                    (false, Some(w)) => {
                        cur[lead].seek(w);
                    }
                }
            }
            let var0 = search_order[0];
            let parts = crate::par::for_blocks(
                par,
                cands.len(),
                Some(&weights),
                &mut stats,
                |range, stats| {
                    // Fresh root cursors per task: descending from the root
                    // yields the same child range as descending from a
                    // seek position (the data is sorted), so the replayed
                    // `fill_next_level` counts exactly the sequential
                    // probes and the subtree search is byte-identical.
                    let mut levels: Vec<Vec<Probe<'_>>> = (0..=search_order.len())
                        .map(|_| atoms.iter().map(|a| a.idx.probe()).collect())
                        .collect();
                    let mut vals = vec![0 as Value; nv];
                    let mut bound = VarSet::EMPTY;
                    let mut part = Relation::new(all.clone());
                    for &candidate in &cands[range] {
                        let filled =
                            fill_next_level(&mut levels, 0, participating, candidate, stats);
                        debug_assert!(filled, "all cursors verified to contain candidate");
                        if filled {
                            vals[var0 as usize] = candidate;
                            bound = bound.insert(var0);
                            search(
                                &ctx,
                                &mut levels,
                                1,
                                &mut bound,
                                &mut vals,
                                &mut part,
                                stats,
                            );
                            bound = bound.remove(var0);
                        }
                    }
                    part
                },
            );
            return Ok((crate::par::merge(parts), stats));
        }
    }

    let mut out = Relation::new(all);
    let mut vals = vec![0 as Value; nv];
    let mut bound = VarSet::EMPTY;
    search(
        &ctx,
        &mut levels,
        0,
        &mut bound,
        &mut vals,
        &mut out,
        &mut stats,
    );
    out.sort_dedup();
    Ok((out, stats))
}

struct SearchCtx<'c, 'a> {
    q: &'c Query,
    ex: &'c Expander<'c>,
    order: &'c [u32],
    at_depth: &'c [Vec<usize>],
    target: VarSet,
    opts: &'a GjConfig,
}

/// Copy depth `d`'s cursors into depth `d+1`, replacing the participating
/// atoms' cursors with their narrowed children for `candidate`.
fn fill_next_level(
    levels: &mut [Vec<Probe<'_>>],
    depth: usize,
    participating: &[usize],
    candidate: Value,
    stats: &mut Stats,
) -> bool {
    let (cur, rest) = levels.split_at_mut(depth + 1);
    let cur = &cur[depth];
    let next = &mut rest[0];
    next.copy_from_slice(cur);
    for &ai in participating {
        stats.probes += 1;
        if !next[ai].descend(candidate) {
            return false;
        }
    }
    true
}

fn search(
    ctx: &SearchCtx<'_, '_>,
    levels: &mut Vec<Vec<Probe<'_>>>,
    depth: usize,
    bound: &mut VarSet,
    vals: &mut [Value],
    out: &mut Relation,
    stats: &mut Stats,
) {
    if depth == ctx.order.len() {
        // All atom variables bound; expand UDF-only variables and verify.
        // Expansion writes only slots of variables outside `bound`, which
        // the search never reads, so it runs in place on `vals`.
        let mut b = *bound;
        if ctx.ex.expand_tuple(&mut b, vals, ctx.target, stats) && ctx.ex.verify_fds(b, vals, stats)
        {
            out.push_row(vals);
            stats.output_tuples += 1;
        }
        return;
    }
    let var = ctx.order[depth];
    let participating = &ctx.at_depth[depth];
    debug_assert!(
        !participating.is_empty(),
        "search variables occur in some atom"
    );

    // Footnote-1 FD binding: if `var` is determined by the bound prefix,
    // compute the single candidate instead of intersecting.
    if ctx.opts.bind_fds {
        let closure = ctx.q.closure(*bound);
        if closure.contains(var) {
            let mut b = *bound;
            let mut v = vals.to_vec();
            if ctx
                .ex
                .expand_tuple(&mut b, &mut v, bound.insert(var), stats)
            {
                let candidate = v[var as usize];
                if fill_next_level(levels, depth, participating, candidate, stats) {
                    vals[var as usize] = candidate;
                    *bound = bound.insert(var);
                    search(ctx, levels, depth + 1, bound, vals, out, stats);
                    *bound = bound.remove(var);
                }
            }
            return;
        }
    }

    // Leapfrog intersection: iterate the smallest cursor's distinct values
    // and seek the others forward inside their narrowed ranges.
    let lead = *participating
        .iter()
        .min_by_key(|&&ai| levels[depth][ai].len())
        .unwrap();
    while let Some(candidate) = levels[depth][lead].current() {
        let mut ok = true;
        // When a cursor overshoots past `candidate`, the overshot value is
        // the next possible intersection member — the lead seeks straight
        // to it instead of enumerating the gap value by value.
        let mut overshoot: Option<Value> = None;
        for &ai in participating {
            if ai == lead {
                continue;
            }
            stats.probes += 1;
            // Forward-only seek: over the whole iteration each cursor
            // sweeps its range at most once (galloping between stops).
            match levels[depth][ai].seek(candidate) {
                Some(w) if w == candidate => {}
                other => {
                    ok = false;
                    overshoot = other;
                    break;
                }
            }
        }
        if ok {
            // Narrow every participating cursor into the candidate's
            // subtrie at depth+1 (the lead and seek positions are already
            // at the candidate, so these descends are cheap).
            let filled = fill_next_level(levels, depth, participating, candidate, stats);
            debug_assert!(filled, "all cursors verified to contain candidate");
            if filled {
                vals[var as usize] = candidate;
                *bound = bound.insert(var);
                search(ctx, levels, depth + 1, bound, vals, out, stats);
                *bound = bound.remove(var);
            }
        }
        match (ok, overshoot) {
            // Matched (or gap with no hint): step to the next distinct value.
            (true, _) => {
                levels[depth][lead].next_value();
            }
            // An atom ran out entirely: no further candidate can match.
            (false, None) => break,
            // Leapfrog: jump the lead forward to the overshot value.
            (false, Some(w)) => {
                levels[depth][lead].seek(w);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{generic_join, naive_join, Algorithm, Engine, ExecOptions};

    #[test]
    fn triangle_matches_naive() {
        let q = fdjoin_query::examples::triangle();
        let mut db = Database::new();
        db.insert(
            "R",
            Relation::from_rows(vec![0, 1], [[1, 2], [1, 3], [2, 3], [4, 5]]),
        );
        db.insert(
            "S",
            Relation::from_rows(vec![1, 2], [[2, 3], [3, 1], [5, 4]]),
        );
        db.insert(
            "T",
            Relation::from_rows(vec![2, 0], [[3, 1], [1, 1], [4, 4]]),
        );
        let expect = naive_join(&q, &db).unwrap().output;
        let got = generic_join(&q, &db).unwrap();
        assert_eq!(got.output, expect);
        assert!(got.stats.probes > 0);
        assert!(got.stats.index_builds > 0, "atom tries built");
    }

    #[test]
    fn fig1_with_and_without_fd_binding() {
        let q = fdjoin_query::examples::fig1_udf();
        let mut db = Database::new();
        db.insert("R", Relation::from_rows(vec![0, 1], [[1, 1], [2, 1]]));
        db.insert("S", Relation::from_rows(vec![1, 2], [[1, 1], [1, 2]]));
        db.insert("T", Relation::from_rows(vec![2, 3], [[1, 1], [2, 2]]));
        db.udfs.register(VarSet::from_vars([0, 2]), 3, |v| v[0]); // u = x
        db.udfs.register(VarSet::from_vars([1, 3]), 0, |v| v[1]); // x = u
        let expect = naive_join(&q, &db).unwrap().output;
        let plain = generic_join(&q, &db).unwrap();
        let fdbind = Engine::new()
            .execute(
                &q,
                &db,
                &ExecOptions::new()
                    .algorithm(Algorithm::GenericJoin)
                    .bind_fds(true),
            )
            .unwrap();
        assert_eq!(plain.output, expect);
        assert_eq!(fdbind.output, expect);
    }

    #[test]
    fn respects_variable_order() {
        let q = fdjoin_query::examples::triangle();
        let mut db = Database::new();
        db.insert("R", Relation::from_rows(vec![0, 1], [[1, 2]]));
        db.insert("S", Relation::from_rows(vec![1, 2], [[2, 3]]));
        db.insert("T", Relation::from_rows(vec![2, 0], [[3, 1]]));
        for order in [vec![0, 1, 2], vec![2, 1, 0], vec![1, 0, 2]] {
            let opts = ExecOptions::new()
                .algorithm(Algorithm::GenericJoin)
                .var_order(order);
            let out = Engine::new().execute(&q, &db, &opts).unwrap();
            assert_eq!(out.output.len(), 1);
            assert_eq!(out.output.row(0), &[1, 2, 3]);
        }
    }

    #[test]
    fn empty_relation_short_circuits() {
        let q = fdjoin_query::examples::triangle();
        let mut db = Database::new();
        db.insert("R", Relation::from_rows(vec![0, 1], [[1, 2]]));
        db.insert("S", Relation::new(vec![1, 2]));
        db.insert("T", Relation::from_rows(vec![2, 0], [[3, 1]]));
        let out = generic_join(&q, &db).unwrap();
        assert!(out.output.is_empty());
    }

    #[test]
    fn rerun_reuses_atom_tries() {
        let q = fdjoin_query::examples::triangle();
        let mut db = Database::new();
        db.insert("R", Relation::from_rows(vec![0, 1], [[1, 2], [2, 3]]));
        db.insert("S", Relation::from_rows(vec![1, 2], [[2, 3], [3, 1]]));
        db.insert("T", Relation::from_rows(vec![2, 0], [[3, 1], [1, 2]]));
        let prepared = Engine::new().prepare(&q);
        let opts = ExecOptions::new().algorithm(Algorithm::GenericJoin);
        let first = prepared.execute(&db, &opts).unwrap();
        let second = prepared.execute(&db, &opts).unwrap();
        assert!(first.stats.index_builds > 0);
        assert_eq!(second.stats.index_builds, 0, "all tries cached");
        assert_eq!(second.stats.index_hits, first.stats.index_gets());
        assert_eq!(first.output, second.output);
        assert_eq!(first.stats.deterministic(), second.stats.deterministic());
    }
}
