//! CSMA — the Conditional Submodularity Algorithm (Sec. 5.3.3).
//!
//! Planning ([`plan`]): solve the CLLP (degree bounds generalize
//! cardinalities and FDs) and build a CSM proof sequence from the dual
//! (Theorem 5.34). Execution ([`execute`]) interprets each rule
//! operationally:
//!
//! - **CD** `h(Y) → h(Y|X) + h(X)`: partition `T(Y)` into `O(log N)`
//!   degree-uniform buckets over the `X` attributes (Lemma 5.35); each
//!   bucket spawns a sub-problem (execution branch) in which the bucket both
//!   *guards* the conditional term `h(Y|X)` and yields `T(X) = Π_X(bucket)`.
//! - **CC** `h(X) + h(Y|X) → h(Y)`: join `T(X)` with the pair's guard.
//! - **SM** `h(A) + h(B|A∧B) → h(A∨B)`: join `T(A)` with the guard of the
//!   conditional term and expand to `Λ(A∨B)`.
//!
//! Both joins are one [`extend`](crate::extend) step with the guard as its
//! only side ([`Side::guarded`], as Chain's and SMA's steps), and the CD's
//! buckets are SMA's heavy/light split with `⌊log₂ degree⌋` as the class
//! ([`degree_split`]). A rule reads only tables and guards that an earlier
//! rule made or that the inputs and degree pairs give: a sequence in which
//! one is missing is [`JoinError::NoCsmSequence`], never an empty table.
//!
//! The answer is the union over all branches of `T(1̂)`, semijoin-reduced
//! against every input and FD-verified (making the implementation sound
//! unconditionally; the CLLP budget governs its *running time*). The
//! verification is done once per row, by whichever pass can: a table that
//! a CC or SM join built — or a CD bucket of one — is *verified*, its rows
//! having passed the fused program of its own element, and the final pass
//! ([`semijoin_reduce_verified`](crate::par::semijoin_reduce_verified))
//! runs the verify list only when some branch's non-empty `T(1̂)` is not.
//! The CSM sequence derives `1̂` by rules from the inputs' tables, which
//! the branch state holds from the start (no rule rebuilds one), so every
//! branch's `T(1̂)` comes out of a join and the final pass is only the
//! semijoin, unless an input's closure is `1̂` itself; the flag keeps the
//! pass sound for a table that does not.

use crate::engine::{JoinError, UserDegreeBound};
use crate::extend::{degree_split, extend, Side};
use crate::par::TopTables;
use crate::{AccessPaths, Expander, Stats};
use fdjoin_bigint::Rational;
use fdjoin_bounds::cllp::{solve_cllp, DegreePair};
use fdjoin_bounds::csm::{csm_sequence, CsmRule, CsmSequence};
use fdjoin_lattice::{ElemId, VarSet};
use fdjoin_query::{LatticePresentation, Query};
use fdjoin_storage::{Database, Relation, TrieIndex};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

/// How to rebuild one degree pair's guard relation from the expanded
/// inputs: the source atom and an optional column re-ordering (conditioning
/// attributes first).
#[derive(Clone, Debug)]
pub(crate) struct GuardSpec {
    pub atom: usize,
    pub order: Option<Vec<u32>>,
}

/// The data-independent part of a CSMA run: degree pairs, the CLLP optimum,
/// and the CSM rule sequence — reusable across executions with the same
/// (expanded) size profile and degree-bound options.
#[derive(Clone, Debug)]
pub(crate) struct CsmaPlan {
    pub pairs: Vec<DegreePair>,
    pub guards: Vec<GuardSpec>,
    pub seq: CsmSequence,
    pub log_bound: Rational,
}

/// Build a [`CsmaPlan`]: `expanded_logs[j]` is `log₂` of atom `j`'s
/// *expanded* relation size.
pub(crate) fn plan(
    q: &Query,
    pres: &LatticePresentation,
    expanded_logs: &[Rational],
    degree_bounds: &[UserDegreeBound],
) -> Result<CsmaPlan, JoinError> {
    let lat = &pres.lattice;
    let mut pairs: Vec<DegreePair> = Vec::new();
    let mut guards: Vec<GuardSpec> = Vec::new();
    for (j, log) in expanded_logs.iter().enumerate() {
        if !lat.lt(lat.bottom(), pres.inputs[j]) {
            // A nullary input bounds nothing (its closure is 0̂); the final
            // pass answers it by its emptiness.
            continue;
        }
        pairs.push(DegreePair::cardinality(lat, pres.inputs[j], log.clone()));
        guards.push(GuardSpec {
            atom: j,
            order: None,
        });
    }
    for ub in degree_bounds {
        // Atom index and variable-id ranges are validated by the engine
        // before planning; only the closure-containment condition is
        // checkable here.
        let lo_set = q.closure(VarSet::from_vars(ub.on.iter().copied()));
        let lo = lat
            .elem_of_set(lo_set)
            .expect("closure is a lattice element");
        let hi = pres.inputs[ub.atom];
        let atom_set = q.closure(q.atoms()[ub.atom].var_set());
        if !lo_set.is_subset(atom_set) {
            return Err(JoinError::InvalidOptions(format!(
                "degree bound on atom {} conditions on variables outside the atom's closure",
                ub.atom
            )));
        }
        if !lat.lt(lo, hi) {
            continue; // degenerate bound (conditioning on everything)
        }
        // Guard ordered with the conditioning attributes first.
        let mut order: Vec<u32> = lo_set.iter().collect();
        order.extend(atom_set.iter().filter(|v| !lo_set.contains(*v)));
        pairs.push(DegreePair {
            lo,
            hi,
            log_bound: Rational::log2_approx(ub.max_degree.max(1), 16),
        });
        guards.push(GuardSpec {
            atom: ub.atom,
            order: Some(order),
        });
    }

    let sol = solve_cllp(lat, &pairs);
    let seq = csm_sequence(lat, &pairs, &sol).ok_or(JoinError::NoCsmSequence)?;
    Ok(CsmaPlan {
        pairs,
        guards,
        seq,
        log_bound: sol.value,
    })
}

/// Run CSMA: expand the inputs, ask `plan_for` for the [`CsmaPlan`] of
/// their size profile (CSMA is planned on `|R_j⁺|`, known only here), and
/// execute it. The plan is handed back for the caller's result record.
pub(crate) fn execute(
    q: &Query,
    db: &Database,
    pres: &LatticePresentation,
    paths: &AccessPaths<'_>,
    par: &crate::par::ParCtx,
    plan_for: impl FnOnce(&[u64]) -> Result<CsmaPlan, JoinError>,
) -> Result<(Relation, Stats, CsmaPlan), JoinError> {
    let lat = &pres.lattice;
    let mut stats = Stats::default();
    let ex = Expander::new(q, db, paths, &mut stats)?;
    let csma = plan_for(&ex.input_lens(&mut stats)?)?;

    // Guard tries from their specs, served by the access-path cache
    // (conditioning attributes first — the orders the probes below need).
    let guard_rels: Vec<Arc<TrieIndex>> = csma
        .guards
        .iter()
        .map(|g| {
            let order = match &g.order {
                None => ex.input(g.atom, &mut stats)?.vars(),
                Some(order) => order,
            };
            ex.input_trie(g.atom, order, &mut stats)
        })
        .collect::<Result<_, _>>()?;

    // Initial branch state.
    let mut tables = Tables::new();
    tables.insert(
        lat.bottom(),
        Table::unverified(Cow::Owned(Relation::nullary_unit())),
    );
    for (j, &e) in pres.inputs.iter().enumerate() {
        let rel = ex.input(j, &mut stats)?;
        let table = match tables.get(&e) {
            None => Cow::Borrowed(rel),
            // Two atoms with the same closure: intersect.
            Some(existing) => Cow::Owned(existing.rel.semijoin(rel)),
        };
        tables.insert(e, Table::unverified(table));
    }
    let mut guard_map: HashMap<(ElemId, ElemId), Arc<TrieIndex>> = HashMap::new();
    for (p, g) in csma.pairs.iter().zip(&guard_rels) {
        guard_map.insert((p.lo, p.hi), Arc::clone(g));
    }

    let mut top = TopTables::new(q.n_vars());
    let ctx = Ctx {
        lat,
        pairs: &csma.pairs,
        ex: &ex,
        nv: q.n_vars(),
        par,
    };
    exec(
        &ctx,
        &csma.seq.rules,
        tables,
        guard_map,
        &mut top,
        &mut stats,
    )?;

    // Soundness pass: dedup, semijoin with every input, verify all FDs
    // unless every branch's T(1̂) is verified.
    let reduced = crate::par::semijoin_reduce_verified(&ex, top, par, &mut stats)?;
    Ok((reduced, stats, csma))
}

/// Each lattice element's table in one branch.
type Tables<'a> = HashMap<ElemId, Table<'a>>;

/// One lattice element's table in one branch. Tables still equal to an
/// expanded input borrow it, so the per-bucket copies of a branch's state
/// copy only what the branch derived.
#[derive(Clone)]
struct Table<'a> {
    rel: Cow<'a, Relation>,
    /// The rows came out of a [`Expander::compile_fused`] program whose
    /// target is this table's element (a CC or SM join, or a CD bucket of
    /// such a table), so every FD within the element holds on them.
    /// Expanded inputs and their intersections are conservatively not.
    verified: bool,
}

impl<'a> Table<'a> {
    fn unverified(rel: Cow<'a, Relation>) -> Table<'a> {
        Table {
            rel,
            verified: false,
        }
    }
}

struct Ctx<'a> {
    lat: &'a fdjoin_lattice::Lattice,
    pairs: &'a [DegreePair],
    ex: &'a Expander<'a>,
    nv: usize,
    par: &'a crate::par::ParCtx,
}

/// Run `rules` on one branch's `tables` and guards, adding the branch's
/// `T(1̂)` (or, past a CD, each bucket's) to `top`. Every table and guard
/// a rule reads is made by an earlier rule or is there from the start;
/// one that is not means `rules` is no CSM sequence.
fn exec(
    ctx: &Ctx<'_>,
    rules: &[CsmRule],
    mut tables: Tables<'_>,
    mut guard_map: HashMap<(ElemId, ElemId), Arc<TrieIndex>>,
    top: &mut TopTables,
    stats: &mut Stats,
) -> Result<(), JoinError> {
    let lat = ctx.lat;
    let Some((rule, rest)) = rules.split_first() else {
        // Emit the branch's T(1̂).
        let t = tables.get(&lat.top()).ok_or(JoinError::NoCsmSequence)?;
        top.add(&t.rel, t.verified);
        stats.intermediate_tuples += t.rel.len() as u64;
        return Ok(());
    };
    // CC and SM join T(a) with a guard on Λ of the element they meet in,
    // into T(target).
    let (a, guard, meet, target) = match *rule {
        CsmRule::Cd { x, y } => {
            let t = tables.get(&y).ok_or(JoinError::NoCsmSequence)?;
            let verified = t.verified;
            let x_vars: Vec<u32> = lat.set_of(x).unwrap().iter().collect();
            let mut order = x_vars.clone();
            order.extend(t.rel.vars().iter().copied().filter(|v| !x_vars.contains(v)));
            let sorted = Arc::new(TrieIndex::build(&t.rel, &order));
            if sorted.is_empty() {
                // Single empty branch.
                tables.insert(y, Table::unverified(Cow::Owned(Relation::new(order))));
                tables.insert(x, Table::unverified(Cow::Owned(Relation::new(x_vars))));
                guard_map.insert((x, y), sorted);
                return exec(ctx, rest, tables, guard_map, top, stats);
            }
            // Bucket groups by ⌊log₂ degree⌋ (Lemma 5.35).
            let buckets = degree_split(&sorted, x_vars.len(), |len| len.ilog2(), stats);
            let n_buckets = buckets.len();
            for (i, groups) in buckets.into_values().enumerate() {
                // The bucket, its guard trie and Π_X(bucket) — the groups'
                // X-prefixes, the bucket being stored X-first — materialize
                // without re-sorting.
                let bucket = sorted.relation_of_ranges(groups.iter().cloned());
                let mut t_x = Relation::new(x_vars.clone());
                let mut first = 0;
                for g in &groups {
                    t_x.push_row(&bucket.row(first)[..x_vars.len()]);
                    first += g.len();
                }
                debug_assert!(t_x.is_sorted(), "group prefixes ascend and are distinct");
                stats.branches += 1;
                // The last bucket takes the branch state; the others copy
                // it. A lone bucket is all of `sorted`, its own guard trie.
                let (mut tables2, mut guards2) = if i + 1 == n_buckets {
                    (std::mem::take(&mut tables), std::mem::take(&mut guard_map))
                } else {
                    (tables.clone(), guard_map.clone())
                };
                let guard = if n_buckets == 1 {
                    Arc::clone(&sorted)
                } else {
                    Arc::new(TrieIndex::build(&bucket, bucket.vars()))
                };
                tables2.insert(x, Table::unverified(Cow::Owned(t_x)));
                guards2.insert((x, y), guard);
                tables2.insert(
                    y,
                    Table {
                        rel: Cow::Owned(bucket),
                        verified,
                    },
                );
                exec(ctx, rest, tables2, guards2, top, stats)?;
            }
            return Ok(());
        }
        CsmRule::Cc { pair } => {
            let p = &ctx.pairs[pair];
            (p.lo, guard_map.get(&(p.lo, p.hi)).cloned(), p.lo, p.hi)
        }
        CsmRule::Sm { a, b } => {
            let m = lat.meet(a, b);
            let guard = if m == lat.bottom() {
                // Λ0̂ is empty: T(b) in any order is keyed on it.
                let t = &tables.get(&b).ok_or(JoinError::NoCsmSequence)?.rel;
                Some(Arc::new(TrieIndex::build(t, t.vars())))
            } else {
                guard_map.get(&(m, b)).cloned()
            };
            (a, guard, m, lat.join(a, b))
        }
    };
    // Every guard is stored with its conditioning variables first: a
    // pair's as the plan orders it, a CD's X-first.
    let guard = guard.ok_or(JoinError::NoCsmSequence)?;
    let meet_set = lat.set_of(meet).unwrap();
    let prefix_len = meet_set.len() as usize;
    debug_assert_eq!(
        VarSet::from_vars(guard.vars()[..prefix_len].iter().copied()),
        meet_set,
        "guards are keyed conditioning-first"
    );
    let left = &tables.get(&a).ok_or(JoinError::NoCsmSequence)?.rel;
    let target_set = lat.set_of(target).unwrap();
    let out_vars: Vec<u32> = target_set.iter().collect();
    let side = Side::guarded(ctx.ex, left, &guard, prefix_len, target_set)?;
    let rel = extend(ctx.par, left, &[side], false, &out_vars, ctx.nv, stats);
    tables.insert(
        target,
        Table {
            rel: Cow::Owned(rel),
            verified: true,
        },
    );
    exec(ctx, rest, tables, guard_map, top, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{csma_join, log_sizes_of, Algorithm, Engine, ExecOptions};
    use crate::par::ParCtx;
    use fdjoin_bigint::rat;
    use fdjoin_instances::{normal_worst_case, reference_join};
    use fdjoin_storage::IndexSet;

    #[test]
    fn triangle_matches_naive() {
        let q = fdjoin_query::examples::triangle();
        let mut db = Database::new();
        db.insert(
            "R",
            Relation::from_rows(vec![0, 1], [[1, 2], [1, 3], [2, 3], [4, 2]]),
        );
        db.insert(
            "S",
            Relation::from_rows(vec![1, 2], [[2, 3], [3, 1], [2, 4]]),
        );
        db.insert(
            "T",
            Relation::from_rows(vec![2, 0], [[3, 1], [1, 1], [4, 4], [4, 1]]),
        );
        let expect = reference_join(&q, &db);
        let got = csma_join(&q, &db).unwrap();
        assert_eq!(got.output, expect);
    }

    #[test]
    fn fig1_udf_matches_naive() {
        let q = fdjoin_query::examples::fig1_udf();
        let mut db = Database::new();
        db.insert(
            "R",
            Relation::from_rows(vec![0, 1], [[1, 1], [2, 1], [1, 2], [3, 2]]),
        );
        db.insert(
            "S",
            Relation::from_rows(vec![1, 2], [[1, 1], [2, 1], [1, 2]]),
        );
        db.insert(
            "T",
            Relation::from_rows(vec![2, 3], [[1, 1], [1, 2], [2, 1], [2, 3]]),
        );
        db.udfs.register(VarSet::from_vars([0, 2]), 3, |v| v[0]); // u = x
        db.udfs.register(VarSet::from_vars([1, 3]), 0, |v| v[1]); // x = u
        let expect = reference_join(&q, &db);
        let got = csma_join(&q, &db).unwrap();
        assert_eq!(got.output, expect);
    }

    #[test]
    fn degree_bounds_accepted() {
        let q = fdjoin_query::examples::triangle();
        let mut db = Database::new();
        db.insert("R", Relation::from_rows(vec![0, 1], [[1, 2], [2, 3]]));
        db.insert("S", Relation::from_rows(vec![1, 2], [[2, 3], [3, 1]]));
        db.insert("T", Relation::from_rows(vec![2, 0], [[3, 1], [1, 2]]));
        let expect = reference_join(&q, &db);
        let opts = ExecOptions::new()
            .algorithm(Algorithm::Csma)
            .degree_bound(UserDegreeBound {
                atom: 0,
                on: vec![0],
                max_degree: 1,
            });
        let got = Engine::new().execute(&q, &db, &opts).unwrap();
        assert_eq!(got.output, expect);
        // The degree bound tightens the budget below 3/2·n.
        let plain = csma_join(&q, &db).unwrap();
        assert!(got.predicted_log_bound.unwrap() <= plain.predicted_log_bound.unwrap());
    }

    #[test]
    fn an_operand_no_rule_produced_is_no_csm_sequence() {
        // Fig. 9's sequence with its first CD dropped: the SM rule after it
        // joins the T(X) that CD would have made.
        let q = fdjoin_query::examples::fig9_query();
        let db = normal_worst_case(&q, &vec![rat(6, 1); 3], &rat(9, 1)).unwrap();
        let set = IndexSet::new();
        let paths = AccessPaths::new(&set, &q, &db).unwrap();
        let pres = q.lattice_presentation();
        let got = execute(&q, &db, &pres, &paths, &ParCtx::sequential(), |lens| {
            let mut plan = plan(&q, &pres, &log_sizes_of(lens), &[])?;
            let cd = plan
                .seq
                .rules
                .iter()
                .position(|r| matches!(r, CsmRule::Cd { .. }));
            plan.seq.rules.remove(cd.unwrap());
            Ok(plan)
        });
        assert!(
            matches!(got, Err(JoinError::NoCsmSequence)),
            "{:?}",
            got.map(|(out, _, _)| out.len())
        );
    }
}
