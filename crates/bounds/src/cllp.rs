//! The Conditional Lattice Linear Program (Sec. 5.3.1).
//!
//! CLLP generalizes LLP: constraints are *log-degree bounds*
//! `h(Y) − h(X) ≤ n_{Y|X}` for pairs `X ≺ Y` in a set `P`. Cardinality
//! bounds are the special case `X = 0̂`; FDs are degree bounds of 0. This is
//! how the paper handles input relations with prescribed maximum degrees.

use crate::lattice_lp::{positive_duals, LatticeLp};
use crate::LatticeFn;
use fdjoin_bigint::Rational;
use fdjoin_lattice::{ElemId, Lattice};
use fdjoin_lp::Cmp;

/// One log-degree constraint `h(hi) − h(lo) ≤ log_bound` with `lo < hi`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DegreePair {
    /// The conditioning element `X` (`0̂` for a cardinality bound).
    pub lo: ElemId,
    /// The bounded element `Y`.
    pub hi: ElemId,
    /// `n_{Y|X} = log₂` of the max degree (or cardinality).
    pub log_bound: Rational,
}

impl DegreePair {
    /// A cardinality bound `h(Y) ≤ n` (i.e. `X = 0̂`).
    pub fn cardinality(lat: &Lattice, hi: ElemId, log_bound: Rational) -> DegreePair {
        DegreePair {
            lo: lat.bottom(),
            hi,
            log_bound,
        }
    }
}

/// Optimal solution of the CLLP with the dual certificate `(c, s, m)`.
#[derive(Clone, Debug)]
pub struct CllpSolution {
    /// `h*(1̂)`: `log₂` of the degree-aware output bound (`OPT`).
    pub value: Rational,
    /// Optimal primal (a polymatroid: monotonicity is enforced here).
    pub h: LatticeFn,
    /// Dual `c_{Y|X} ≥ 0`, one per degree pair.
    pub pair_duals: Vec<Rational>,
    /// Dual submodularity multipliers `s_{A,B} > 0` only.
    pub sm_duals: Vec<((ElemId, ElemId), Rational)>,
    /// Dual monotonicity multipliers `m_{X,Y} > 0` only (cover pairs).
    pub mono_duals: Vec<((ElemId, ElemId), Rational)>,
}

/// Solve the CLLP for the given degree pairs: the LLP's program with
/// degree rows in place of cardinality rows, plus monotonicity.
///
/// Rows: one degree row per pair, the submodularity rows, then one
/// monotonicity row per cover pair. On the one-element lattice (a query
/// with no variables) the optimum is `h ≡ 0`.
pub fn solve_cllp(lat: &Lattice, pairs: &[DegreePair]) -> CllpSolution {
    let mut lp = LatticeLp::new(lat);
    for p in pairs {
        assert!(lat.lt(p.lo, p.hi), "degree pair must satisfy lo < hi");
        let terms = [(p.hi, Rational::one()), (p.lo, -Rational::one())];
        lp.row(terms, Cmp::Le, p.log_bound.clone());
    }
    let sm_pairs = lp.submodularity();
    // Monotonicity rows over cover pairs (h(X) ≤ h(Y) for X ≺ Y).
    let mut mono_pairs: Vec<(ElemId, ElemId)> = Vec::new();
    for y in lat.elems() {
        for x in lat.lower_covers(y) {
            let terms = [(x, Rational::one()), (y, -Rational::one())];
            lp.row(terms, Cmp::Le, Rational::zero());
            mono_pairs.push((x, y));
        }
    }

    let opt = lp
        .solve()
        .expect("CLLP with cardinality bounds is feasible and bounded");
    let (pair_duals, rest) = opt.dual.split_at(pairs.len());
    let (sm, mono) = rest.split_at(sm_pairs.len());
    CllpSolution {
        pair_duals: pair_duals.to_vec(),
        sm_duals: positive_duals(&sm_pairs, sm),
        mono_duals: positive_duals(&mono_pairs, mono),
        value: opt.value,
        h: opt.h,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdjoin_bigint::rat;
    use fdjoin_query::examples;

    #[test]
    fn cllp_reduces_to_llp_on_cardinalities() {
        // Proposition 5.32.
        let pres = examples::fig1_udf().lattice_presentation();
        let pairs: Vec<DegreePair> = pres
            .inputs
            .iter()
            .map(|&r| DegreePair::cardinality(&pres.lattice, r, rat(2, 1)))
            .collect();
        let sol = solve_cllp(&pres.lattice, &pairs);
        assert_eq!(sol.value, rat(3, 1));
        assert!(sol.h.is_polymatroid(&pres.lattice));
    }

    #[test]
    fn degree_bound_tightens_triangle() {
        // Triangle with deg_R(x → y) ≤ d: bound becomes min(N^{3/2}, N·d, …).
        let q = examples::triangle();
        let pres = q.lattice_presentation();
        let lat = &pres.lattice;
        let vs = |v: &[u32]| fdjoin_lattice::VarSet::from_vars(v.iter().copied());
        let x = lat.elem_of_set(vs(&[0])).unwrap();
        let xy = lat.elem_of_set(vs(&[0, 1])).unwrap();
        let n = rat(10, 1);
        // Cardinalities N for all three + degree bound d = 2^2 on (x, xy).
        let mut pairs: Vec<DegreePair> = pres
            .inputs
            .iter()
            .map(|&r| DegreePair::cardinality(lat, r, n.clone()))
            .collect();
        pairs.push(DegreePair {
            lo: x,
            hi: xy,
            log_bound: rat(2, 1),
        });
        let sol = solve_cllp(lat, &pairs);
        // min(3/2·10, 10+2) = 12.
        assert_eq!(sol.value, rat(12, 1));
        // Degenerate degree 0 (an FD x→y): bound min(15, 10) = 10.
        pairs.last_mut().unwrap().log_bound = rat(0, 1);
        let sol = solve_cllp(lat, &pairs);
        assert_eq!(sol.value, rat(10, 1));
    }

    #[test]
    fn eq2_degree_bounded_triangle_shape() {
        // Appendix A: output ≤ min(N^{3/2}, N·d1, N·d2) for Eq. (2). We
        // model it directly with degree bounds on the triangle lattice.
        let q = examples::triangle();
        let pres = q.lattice_presentation();
        let lat = &pres.lattice;
        let vs = |v: &[u32]| fdjoin_lattice::VarSet::from_vars(v.iter().copied());
        let x = lat.elem_of_set(vs(&[0])).unwrap();
        let y = lat.elem_of_set(vs(&[1])).unwrap();
        let xy = lat.elem_of_set(vs(&[0, 1])).unwrap();
        for (d1, d2, expect) in [
            (100i64, 100i64, rat(15, 1)), // degrees irrelevant: N^{3/2}
            (1, 100, rat(11, 1)),         // N·d1
            (100, 3, rat(13, 1)),         // N·d2
        ] {
            let mut pairs: Vec<DegreePair> = pres
                .inputs
                .iter()
                .map(|&r| DegreePair::cardinality(lat, r, rat(10, 1)))
                .collect();
            pairs.push(DegreePair {
                lo: x,
                hi: xy,
                log_bound: rat(d1, 1),
            });
            pairs.push(DegreePair {
                lo: y,
                hi: xy,
                log_bound: rat(d2, 1),
            });
            let sol = solve_cllp(lat, &pairs);
            assert_eq!(sol.value, expect, "d1=2^{d1}, d2=2^{d2}");
        }
    }

    #[test]
    fn fig9_cllp_dual_shape() {
        // Example 5.31 (continued): with |T(M)|=|T(N)|=|T(O)|=N the optimum
        // is (3/2)·n, certified by duals c = 1/2 on each input.
        let pres = examples::fig9_query().lattice_presentation();
        let pairs: Vec<DegreePair> = pres
            .inputs
            .iter()
            .map(|&r| DegreePair::cardinality(&pres.lattice, r, rat(2, 1)))
            .collect();
        let sol = solve_cllp(&pres.lattice, &pairs);
        assert_eq!(sol.value, rat(3, 1));
        let total: Rational = sol.pair_duals.iter().sum();
        assert_eq!(total, rat(3, 2));
        // The dual uses genuinely conditional structure: some submodularity
        // multipliers are active.
        assert!(!sol.sm_duals.is_empty());
    }
}
