//! The data-dependent cost model: measured degree/skew statistics turned
//! into estimated branch counts per candidate plan.
//!
//! The paper's worst-case machinery (chain bound, LLP/GLVV optimum, CLLP)
//! prices a query from the *size profile* alone — the best bound any
//! algorithm can promise over all databases with those cardinalities. The
//! whole point of degree-aware bounds (the "Known Frequencies" scenario of
//! Sec. 1.1, and the degree-based refinement over AGM that motivates the
//! paper) is that the database at hand is usually far from that worst case.
//! This module measures the gap:
//!
//! - [`estimate_join`] walks the query variables the way a trie join binds
//!   them and prices each extension with the *measured* per-prefix branch
//!   factors from [`RelationStats`](fdjoin_storage::RelationStats) —
//!   average-degree factors give the expected branch count
//!   ([`JoinEstimate::log_avg`]), max-degree factors give a
//!   skew-pessimistic count ([`JoinEstimate::log_max`]). Both live in the
//!   same `log₂`-[`Rational`] space as the chain/LLP bounds, so the
//!   planner compares them directly.
//! - [`delta_plan`] prices a delta join (one relation swapped for a small
//!   Δ⁺) two ways — the default variable order vs. a Δ-first order — and
//!   proposes a Δ-first [`Algorithm::BinaryJoin`] plan when the measured
//!   degrees say seeding from the delta is cheaper than replaying the
//!   view's full plan. `fdjoin_delta::MaterializedView` consults it for
//!   every delta join.
//!
//! `Algorithm::Auto` consumes [`estimate_join`] as a tie-break
//! (`AutoReason::EstimatedTightChain`): when the chain bound is *not*
//! provably tight, but even the skew-pessimistic measured estimate fits
//! within the LLP optimum, the chain algorithm cannot do worse on *this*
//! database than the worst case the proof machinery guards against — so
//! the simpler algorithm runs. The decision, and both estimates, are
//! recorded on [`AutoDecision`](crate::AutoDecision).
//!
//! Estimates are heuristics, not bounds: they assume independence across
//! atoms (the classic System-R simplification) and use the relation's
//! *prefix* statistics, falling back to distinct-prefix counts when a
//! variable's earlier columns are unbound. They decide tie-breaks and
//! delta specialization — never correctness, which every algorithm
//! guarantees unconditionally.

use crate::engine::Algorithm;
use fdjoin_bigint::Rational;
use fdjoin_query::Query;
use fdjoin_storage::{Database, MissingRelation, Relation};

/// Precision (fractional bits) of the dyadic `log₂` approximations, matching
/// the engine's treatment of size profiles.
const LOG2_FRAC_BITS: u32 = 16;

/// One variable's estimated branch factors: how many extensions a partial
/// tuple gains when this variable is bound, minimized over the atoms that
/// contain it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VarFactor {
    /// The variable.
    pub var: u32,
    /// Average-degree branch factor (expected extensions).
    pub avg: u64,
    /// Max-degree branch factor (worst prefix value's extensions).
    pub max: u64,
}

/// A data-dependent branch-count estimate for one query over one database,
/// in the `log₂`-[`Rational`] space shared with the worst-case bounds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JoinEstimate {
    /// `log₂` of the estimated total branch count using average degrees.
    pub log_avg: Rational,
    /// `log₂` of the estimate using maximum degrees — the skew-pessimistic
    /// price: equal to [`JoinEstimate::log_avg`] on perfectly uniform data,
    /// and growing with the degree skew of the inputs.
    pub log_max: Rational,
    /// Per-variable factors, in binding order (for observability).
    pub factors: Vec<VarFactor>,
}

impl JoinEstimate {
    /// The skew gap `log_max − log_avg`: zero for uniform data, the number
    /// of doublings the worst prefix values cost over the average.
    pub fn skew_gap(&self) -> Rational {
        &self.log_max - &self.log_avg
    }
}

/// Estimate the branch count of evaluating `q` over `db`, binding the
/// atom variables in ascending id order (the engines' default).
pub fn estimate_join(q: &Query, db: &Database) -> Result<JoinEstimate, MissingRelation> {
    let order: Vec<u32> = (0..q.n_vars() as u32).collect();
    estimate_join_order(q, db, &order)
}

/// Estimate the branch count of evaluating `q` over `db`, binding the atom
/// variables in the given order (variables absent from every atom are
/// FD-derived and contribute no branching; extra or missing variables in
/// `order` are ignored / appended nothing).
pub(crate) fn estimate_join_order(
    q: &Query,
    db: &Database,
    order: &[u32],
) -> Result<JoinEstimate, MissingRelation> {
    let rels: Vec<&Relation> = q
        .atoms()
        .iter()
        .map(|a| db.relation(&a.name))
        .collect::<Result<_, _>>()?;
    let mut bound = fdjoin_lattice::VarSet::EMPTY;
    let mut factors: Vec<VarFactor> = Vec::new();
    let mut log_avg = Rational::zero();
    let mut log_max = Rational::zero();
    for &v in order {
        let mut best: Option<(u64, u64)> = None;
        for rel in &rels {
            let Some(p) = rel.col_of(v) else { continue };
            let (avg, max) = atom_factor(rel, p, bound);
            best = Some(match best {
                None => (avg, max),
                Some((a, m)) => (a.min(avg), m.min(max)),
            });
        }
        let Some((avg, max)) = best else {
            // In no atom: FD/UDF-derived, branch factor 1.
            continue;
        };
        factors.push(VarFactor { var: v, avg, max });
        log_avg += &Rational::log2_approx(avg.max(1), LOG2_FRAC_BITS);
        log_max += &Rational::log2_approx(max.max(1), LOG2_FRAC_BITS);
        bound = bound.insert(v);
    }
    // A zero factor means some input admits no extension at all: the join
    // is empty, and the estimate collapses to `log₂ 1 = 0` (the minimal
    // defined value) rather than pricing the unreachable later levels.
    if factors.iter().any(|f| f.avg == 0) {
        log_avg = Rational::zero();
    }
    if factors.iter().any(|f| f.max == 0) {
        log_max = Rational::zero();
    }
    Ok(JoinEstimate {
        log_avg,
        log_max,
        factors,
    })
}

/// Measured branch factors for binding the variable at column `p` of `rel`,
/// given the set of already-bound variables.
fn atom_factor(rel: &Relation, p: usize, bound: fdjoin_lattice::VarSet) -> (u64, u64) {
    let Some(stats) = rel.stats() else {
        // Unsorted relation (not produced by normal storage paths): the
        // only safe data-dependent factor is the cardinality.
        let n = rel.len() as u64;
        return (n, n);
    };
    let prefix_bound = rel.vars()[..p].iter().all(|&w| bound.contains(w));
    if prefix_bound {
        // The trie descent the engines actually perform: fan-out from
        // depth p to depth p+1.
        let parents = stats.distinct_prefixes(p);
        let avg = if parents == 0 {
            0
        } else {
            stats.distinct_prefixes(p + 1).div_ceil(parents)
        };
        (avg, stats.max_branch(p))
    } else {
        // Earlier columns unbound: the distinct (p+1)-prefix count bounds
        // the number of (context, value) combinations this atom admits.
        let d = stats.distinct_prefixes(p + 1);
        (d, d)
    }
}

/// A delta-specialized execution plan proposed by [`delta_plan`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaPlan {
    /// The algorithm to run the delta join with.
    pub algorithm: Algorithm,
    /// Δ-first atom order (a permutation of `0..q.atoms().len()`).
    pub atom_order: Vec<usize>,
    /// The estimate that priced this plan (Δ-first binding order).
    pub estimate: JoinEstimate,
    /// The estimate for the default binding order, for comparison.
    pub baseline: JoinEstimate,
}

/// Decide whether a delta join — `q` over `db` where atom `changed`'s
/// relation currently holds only the delta rows Δ⁺ — should run a
/// Δ-specialized plan instead of the view's own algorithm.
///
/// The view's full plan (chain climb, SMA/CSMA partitioning, or a
/// Generic-Join sweep) inspects the base relations wholesale — its work is
/// at least on the order of the largest base relation, whatever the delta.
/// A Δ-first left-deep plan's work tracks its intermediates instead, which
/// the Δ-first branch estimate prices from the measured degrees. So:
/// returns `Some` with a Δ-first [`Algorithm::BinaryJoin`] plan when that
/// estimate is strictly below the largest *other* relation's cardinality
/// (e.g. a 1-tuple delta, whose factors collapse to 1 for the delta atom's
/// variables); `None` when the measured degrees price the delta like a
/// full join (e.g. a delta comparable in size to the base relations).
pub fn delta_plan(
    q: &Query,
    db: &Database,
    changed: usize,
) -> Result<Option<DeltaPlan>, MissingRelation> {
    assert!(changed < q.atoms().len(), "changed atom out of range");
    let atom_order = delta_first_atom_order(q, db, changed)?;
    let mut var_order: Vec<u32> = Vec::with_capacity(q.n_vars());
    let mut seen = fdjoin_lattice::VarSet::EMPTY;
    for &ai in &atom_order {
        for &v in &q.atoms()[ai].vars {
            if !seen.contains(v) {
                seen = seen.insert(v);
                var_order.push(v);
            }
        }
    }
    let estimate = estimate_join_order(q, db, &var_order)?;
    let largest_other = q
        .atoms()
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != changed)
        .map(|(_, a)| Ok(db.relation(&a.name)?.len() as u64))
        .collect::<Result<Vec<u64>, MissingRelation>>()?
        .into_iter()
        .max()
        .unwrap_or(0);
    if estimate.log_avg < Rational::log2_approx(largest_other.max(1), LOG2_FRAC_BITS) {
        // The default-order estimate is observability for the plan we
        // return; the common non-specializing path skips the extra walk.
        let baseline = estimate_join(q, db)?;
        Ok(Some(DeltaPlan {
            algorithm: Algorithm::BinaryJoin,
            atom_order,
            estimate,
            baseline,
        }))
    } else {
        Ok(None)
    }
}

/// Greedy Δ-first atom order: start at the changed atom, then repeatedly
/// take the atom sharing the most variables with those already bound
/// (avoiding Cartesian blowups), breaking ties toward atoms whose shared
/// variables lead their relation's stored column order — the binary join
/// then probes the trie in the order the relation is stored in, which is
/// resident already (and carried across deltas) instead of a second order
/// sorted from scratch — and then toward smaller relations.
fn delta_first_atom_order(
    q: &Query,
    db: &Database,
    changed: usize,
) -> Result<Vec<usize>, MissingRelation> {
    let rels: Vec<&Relation> = q
        .atoms()
        .iter()
        .map(|a| db.relation(&a.name))
        .collect::<Result<_, _>>()?;
    let n = q.atoms().len();
    let mut order = vec![changed];
    let mut bound = q.atoms()[changed].var_set();
    let mut used = vec![false; n];
    used[changed] = true;
    for _ in 1..n {
        let next = (0..n)
            .filter(|&i| !used[i])
            .min_by_key(|&i| {
                let shared = q.atoms()[i].var_set().intersect(bound).len();
                let stored = rels[i].vars().iter().take(shared as usize);
                let leads = stored.copied().all(|v| bound.contains(v));
                // Most shared vars first, then stored-order probes, then
                // smaller relation, then index.
                (std::cmp::Reverse(shared), !leads, rels[i].len(), i)
            })
            .expect("an unused atom remains");
        used[next] = true;
        bound = bound.union(q.atoms()[next].var_set());
        order.push(next);
    }
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdjoin_query::examples;
    use fdjoin_storage::Relation;

    fn triangle_db(rows_r: &[[u64; 2]], rows_s: &[[u64; 2]], rows_t: &[[u64; 2]]) -> Database {
        let mut db = Database::new();
        db.insert("R", Relation::from_rows(vec![0, 1], rows_r.iter().copied()));
        db.insert("S", Relation::from_rows(vec![1, 2], rows_s.iter().copied()));
        db.insert("T", Relation::from_rows(vec![2, 0], rows_t.iter().copied()));
        db
    }

    fn grid(n: u64) -> Vec<[u64; 2]> {
        (0..n).flat_map(|a| (0..n).map(move |b| [a, b])).collect()
    }

    #[test]
    fn uniform_data_has_zero_skew_gap() {
        let q = examples::triangle();
        let db = triangle_db(&grid(4), &grid(4), &grid(4));
        let est = estimate_join(&q, &db).unwrap();
        assert_eq!(est.skew_gap(), Rational::zero());
        assert_eq!(est.factors.len(), 3);
        // Every factor is the grid fan-out 4.
        for f in &est.factors {
            assert_eq!((f.avg, f.max), (4, 4));
        }
    }

    #[test]
    fn skewed_data_widens_the_gap() {
        // 16 rows per relation, like grid(4), but R's x→y fan-out is skewed
        // (x=0 reaches 13 ys, x=1..=3 one each) and S spreads over 16
        // distinct ys so R's skewed branch factor is the binding one.
        let mut r: Vec<[u64; 2]> = (0..13).map(|i| [0, i]).collect();
        r.extend([[1, 13], [2, 14], [3, 15]]);
        let s: Vec<[u64; 2]> = (0..16).map(|y| [y, y % 4]).collect();
        let q = examples::triangle();
        let db = triangle_db(&r, &s, &grid(4));
        let est = estimate_join(&q, &db).unwrap();
        assert!(est.skew_gap() > Rational::zero());
        // The y factor carries the skew: avg fan-out 4, worst fan-out 13.
        let y = est.factors.iter().find(|f| f.var == 1).unwrap();
        assert_eq!((y.avg, y.max), (4, 13));
    }

    #[test]
    fn empty_input_estimates_to_zero_branches() {
        let q = examples::triangle();
        let db = triangle_db(&[], &grid(4), &grid(4));
        let est = estimate_join(&q, &db).unwrap();
        assert_eq!(est.log_avg, Rational::zero());
        assert!(est.factors.iter().any(|f| f.avg == 0));
    }

    #[test]
    fn one_tuple_delta_proposes_a_specialized_plan() {
        let q = examples::triangle();
        // R holds the 1-tuple Δ⁺; S, T are the full relations.
        let db = triangle_db(&[[1, 2]], &grid(8), &grid(8));
        let plan = delta_plan(&q, &db, 0).unwrap().expect("specialize");
        assert_eq!(plan.algorithm, Algorithm::BinaryJoin);
        assert_eq!(plan.atom_order[0], 0, "delta atom leads");
        assert_eq!(plan.atom_order.len(), 3);
        // The Δ-seeded intermediates are priced below a scan of the base
        // relations (64 rows): that is what justified specializing.
        assert!(plan.estimate.log_avg < Rational::log2_approx(64, 16));
    }

    #[test]
    fn large_delta_keeps_the_default_plan() {
        let q = examples::triangle();
        // Δ⁺ as large as the base relations: nothing to gain.
        let db = triangle_db(&grid(8), &grid(8), &grid(8));
        assert_eq!(delta_plan(&q, &db, 0).unwrap(), None);
    }

    #[test]
    fn equal_sizes_prefer_stored_order_probes() {
        // All three relations equally large, as after a delta is applied.
        // From ΔS(y,z), R(x,y) and T(z,x) share one variable each, but only
        // T is stored with its shared variable first; R would need a [y, x]
        // trie sorted from scratch.
        let q = examples::triangle();
        let db = triangle_db(&grid(4), &grid(4), &grid(4));
        assert_eq!(delta_first_atom_order(&q, &db, 1).unwrap(), vec![1, 2, 0]);
        assert_eq!(delta_first_atom_order(&q, &db, 0).unwrap(), vec![0, 1, 2]);
        assert_eq!(delta_first_atom_order(&q, &db, 2).unwrap(), vec![2, 0, 1]);
        // A stored-order match outranks size: a smaller R still goes last.
        let db = triangle_db(&grid(3), &grid(4), &grid(4));
        assert_eq!(delta_first_atom_order(&q, &db, 1).unwrap(), vec![1, 2, 0]);
    }

    #[test]
    fn missing_relation_is_an_error() {
        let q = examples::triangle();
        let mut db = Database::new();
        db.insert("R", Relation::from_rows(vec![0, 1], [[1, 2]]));
        assert!(estimate_join(&q, &db).is_err());
        assert!(delta_plan(&q, &db, 0).is_err());
    }
}
