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
//! only side.
//!
//! The answer is the union over all branches of `T(1̂)`, semijoin-reduced
//! against every input and FD-verified (making the implementation sound
//! unconditionally; the CLLP budget governs its *running time*). The
//! verification is done once per row, by whichever pass can: a table that
//! a CC or SM join built — or a CD bucket of one — is *verified*, its rows
//! having passed the fused program of its own element, and the final pass
//! ([`semijoin_reduce_verified`](crate::par::semijoin_reduce_verified))
//! runs the verify list only when some branch's non-empty `T(1̂)` is not.
//! The CSM sequence derives `1̂` from `0̂` by rules, so every branch's
//! `T(1̂)` comes out of a join and the final pass is only the semijoin; the
//! flag keeps the pass sound for a table that does not.

use crate::engine::{JoinError, UserDegreeBound};
use crate::extend::{extend, Side};
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
    let inputs: Vec<&Relation> = q
        .atoms()
        .iter()
        .map(|a| db.relation(&a.name))
        .collect::<Result<_, _>>()?;
    let reduced = crate::par::semijoin_reduce_verified(&inputs, &ex, top, par, &mut stats);

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
        if let Some(t) = tables.get(&lat.top()) {
            top.add(&t.rel, t.verified);
            stats.intermediate_tuples += t.rel.len() as u64;
        }
        return Ok(());
    };
    match *rule {
        CsmRule::Cd { x, y } => {
            let (t, verified) = match tables.get(&y) {
                Some(t) => (Cow::Borrowed(&*t.rel), t.verified),
                None => (empty(lat, y), false),
            };
            let x_vars: Vec<u32> = lat.set_of(x).unwrap().iter().collect();
            let mut order = x_vars.clone();
            order.extend(t.vars().iter().copied().filter(|v| !x_vars.contains(v)));
            let sorted = Arc::new(TrieIndex::build(&t, &order));
            if sorted.is_empty() {
                // Single empty branch.
                tables.insert(y, Table::unverified(Cow::Owned(Relation::new(order))));
                tables.insert(x, Table::unverified(Cow::Owned(Relation::new(x_vars))));
                guard_map.insert((x, y), sorted);
                return exec(ctx, rest, tables, guard_map, top, stats);
            }
            // Bucket groups by ⌊log₂ degree⌋ (Lemma 5.35).
            let mut buckets: HashMap<u32, Vec<std::ops::Range<usize>>> = HashMap::new();
            for g in sorted.group_ranges(x_vars.len()) {
                stats.probes += 1;
                let b = 63 - ((g.end - g.start) as u64).leading_zeros();
                buckets.entry(b).or_default().push(g);
            }
            let mut keys: Vec<u32> = buckets.keys().copied().collect();
            keys.sort_unstable();
            let n_buckets = keys.len();
            for (i, b) in keys.into_iter().enumerate() {
                // The bucket's groups are ascending disjoint trie ranges,
                // so the bucket, its guard trie and Π_X(bucket) — the
                // groups' X-prefixes, the bucket being stored X-first —
                // materialize without re-sorting.
                let groups = &buckets[&b];
                let bucket = sorted.relation_of_ranges(groups.iter().cloned());
                let mut t_x = Relation::new(x_vars.clone());
                let mut first = 0;
                for g in groups {
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
            Ok(())
        }
        CsmRule::Cc { pair } => {
            let p = &ctx.pairs[pair];
            let guard = guard_map.get(&(p.lo, p.hi)).cloned().unwrap_or_else(|| {
                let vars: Vec<u32> = lat.set_of(p.hi).unwrap().iter().collect();
                Arc::new(TrieIndex::build(&Relation::new(vars.clone()), &vars))
            });
            let lo_len = lat.set_of(p.lo).unwrap().len() as usize;
            // Guards are stored with their conditioning attributes (Λlo)
            // first, so the pair's prefix is already the probe prefix.
            let result = join_into(ctx, &tables, p.lo, &guard, lo_len, p.hi, stats)?;
            tables.insert(p.hi, result);
            exec(ctx, rest, tables, guard_map, top, stats)
        }
        CsmRule::Sm { a, b } => {
            let m = lat.meet(a, b);
            let m_vars: Vec<u32> = lat.set_of(m).unwrap().iter().collect();
            let from_tables = || {
                let t = match tables.get(&b) {
                    Some(t) => Cow::Borrowed(&*t.rel),
                    None => empty(lat, b),
                };
                let mut order = m_vars.clone();
                order.extend(t.vars().iter().copied().filter(|v| !m_vars.contains(v)));
                Arc::new(TrieIndex::build(&t, &order))
            };
            let guard = if m == lat.bottom() {
                from_tables()
            } else {
                match guard_map.get(&(m, b)) {
                    // Guard tries are stored conditioning-first, so a hit
                    // already has Λm as its prefix.
                    Some(g) if g.vars().starts_with(&m_vars) => Arc::clone(g),
                    Some(g) => {
                        let mut order = m_vars.clone();
                        order.extend(g.vars().iter().copied().filter(|v| !m_vars.contains(v)));
                        Arc::new(TrieIndex::build(&g.to_relation(), &order))
                    }
                    None => from_tables(),
                }
            };
            let join = lat.join(a, b);
            let result = join_into(ctx, &tables, a, &guard, m_vars.len(), join, stats)?;
            tables.insert(join, result);
            exec(ctx, rest, tables, guard_map, top, stats)
        }
    }
}

/// The empty table of element `e`.
fn empty(lat: &fdjoin_lattice::Lattice, e: ElemId) -> Cow<'static, Relation> {
    Cow::Owned(Relation::new(lat.set_of(e).unwrap().iter().collect()))
}

/// Join `T(a)` with `guard` on the guard's first `prefix_len` columns,
/// expanding each result to `Λ(target)` and verifying FDs: one
/// [`extend`] step with the guard as its only side. The result is
/// `T(target)`, verified.
fn join_into(
    ctx: &Ctx<'_>,
    tables: &Tables<'_>,
    a: ElemId,
    guard: &TrieIndex,
    prefix_len: usize,
    target: ElemId,
    stats: &mut Stats,
) -> Result<Table<'static>, JoinError> {
    let lat = ctx.lat;
    let ta = match tables.get(&a) {
        Some(t) => Cow::Borrowed(&*t.rel),
        None => empty(lat, a),
    };
    let target_set = lat.set_of(target).unwrap();
    let out_vars: Vec<u32> = target_set.iter().collect();
    // Every candidate binds vars(T(a)) ∪ vars(guard): one program per call.
    let guard_set = VarSet::from_vars(guard.vars().iter().copied());
    let side = Side {
        trie: guard,
        key_cols: guard.vars()[..prefix_len]
            .iter()
            .map(|&v| ta.col_of(v).expect("meet variables present in T(A)"))
            .collect(),
        program: ctx
            .ex
            .compile_fused(ta.var_set().union(guard_set), target_set)?,
    };
    let rel = extend(ctx.par, &ta, &[side], false, &out_vars, ctx.nv, stats);
    Ok(Table {
        rel: Cow::Owned(rel),
        verified: true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{csma_join, naive_join, Algorithm, Engine, ExecOptions};

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
        let expect = naive_join(&q, &db).unwrap().output;
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
        let expect = naive_join(&q, &db).unwrap().output;
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
        let expect = naive_join(&q, &db).unwrap().output;
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
}
