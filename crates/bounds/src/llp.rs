//! The Lattice Linear Program (Sec. 3.3, Eq. 5) and its dual (Eq. 8).
//!
//! `max h(1̂)` over non-negative `L`-submodular functions satisfying the
//! cardinality constraints; by Proposition 3.4 the optimum equals
//! `log₂ GLVV(Q, FD, (N_j))`. The dual solution `(w*, s*)` is an *output
//! inequality* `Σ w*_j h(R_j) ≥ h(1̂)` together with the submodularity
//! steps proving it (Lemma 3.9) — the raw material of SMA and CSMA.

use crate::lattice_lp::{positive_duals, LatticeLp};
use crate::LatticeFn;
use fdjoin_bigint::Rational;
use fdjoin_lattice::{ElemId, Lattice};
use fdjoin_lp::Cmp;

/// Optimal solution of the LLP.
#[derive(Clone, Debug)]
pub struct LlpSolution {
    /// `h*(1̂) = log₂ GLVV`.
    pub value: Rational,
    /// The raw optimal solution (submodular, possibly non-monotone). SMA
    /// relies on the complementary-slackness equalities of this exact
    /// vertex, so it is returned unmodified; where a polymatroid with the
    /// same `h(1̂)` is needed, call [`LatticeFn::lovasz_monotonize`] on it.
    pub h: LatticeFn,
    /// Dual weights `w*_j ≥ 0`, one per input; `Σ w*_j n_j = value`.
    pub input_duals: Vec<Rational>,
    /// Dual submodularity multipliers `s*_{X,Y} > 0` only, keyed by the
    /// incomparable pair (smaller id first).
    pub sm_duals: Vec<((ElemId, ElemId), Rational)>,
}

/// Solve the LLP for lattice `lat`, inputs `R_j` (lattice elements) with
/// log-cardinalities `log_sizes[j] = log₂ N_j`.
///
/// Rows: the submodularity rows, then one cardinality row per input.
pub fn solve_llp(lat: &Lattice, inputs: &[ElemId], log_sizes: &[Rational]) -> LlpSolution {
    assert_eq!(inputs.len(), log_sizes.len());
    let mut lp = LatticeLp::new(lat);
    let pairs = lp.submodularity();
    for (&r, nj) in inputs.iter().zip(log_sizes) {
        // An input at 0̂ (degenerate) leaves the row `0 ≤ n_j`.
        lp.row([(r, Rational::one())], Cmp::Le, nj.clone());
    }
    let opt = lp
        .solve()
        .expect("LLP is feasible (h=0) and bounded (h(1̂) ≤ Σ n_j)");
    let (sm, input_duals) = opt.dual.split_at(pairs.len());
    LlpSolution {
        sm_duals: positive_duals(&pairs, sm),
        input_duals: input_duals.to_vec(),
        value: opt.value,
        h: opt.h,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdjoin_bigint::rat;
    use fdjoin_query::examples;

    fn uniform(n_atoms: usize, n: i64) -> Vec<Rational> {
        vec![rat(n, 1); n_atoms]
    }

    #[test]
    fn triangle_llp_equals_agm() {
        // No FDs: LLP on the Boolean algebra = AGM = 3/2 · n (Sec. 3.3).
        let pres = examples::triangle().lattice_presentation();
        let sol = solve_llp(&pres.lattice, &pres.inputs, &uniform(3, 10));
        assert_eq!(sol.value, rat(15, 1));
        // Dual: Σ w_j n_j = value.
        let total: Rational = sol.input_duals.iter().map(|w| w * &rat(10, 1)).sum();
        assert_eq!(total, rat(15, 1));
        // The optimal h is submodular by construction.
        assert!(sol.h.submodularity_violation(&pres.lattice).is_none());
        assert!(sol
            .h
            .lovasz_monotonize(&pres.lattice)
            .is_polymatroid(&pres.lattice));
    }

    #[test]
    fn triangle_llp_asymmetric_sizes() {
        // AGM = min(√(N_R N_S N_T), N_R N_S, N_R N_T, N_S N_T); with
        // n_R = 2, n_S = 2, n_T = 100 the min is N_R·N_S → 4.
        let pres = examples::triangle().lattice_presentation();
        let sol = solve_llp(
            &pres.lattice,
            &pres.inputs,
            &[rat(2, 1), rat(2, 1), rat(100, 1)],
        );
        assert_eq!(sol.value, rat(4, 1));
    }

    #[test]
    fn fig1_udf_query_bound_is_three_halves() {
        // Paper Sec. 1.1: GLVV bound for Eq. (1) is N^{3/2}.
        let pres = examples::fig1_udf().lattice_presentation();
        let sol = solve_llp(&pres.lattice, &pres.inputs, &uniform(3, 2));
        assert_eq!(sol.value, rat(3, 1)); // (3/2)·n with n=2.
    }

    #[test]
    fn m3_llp_is_two() {
        // Example 5.12 / Fig 3: GLVV = N² for the M3 query.
        let pres = examples::m3_query().lattice_presentation();
        let sol = solve_llp(&pres.lattice, &pres.inputs, &uniform(3, 1));
        assert_eq!(sol.value, rat(2, 1));
    }

    #[test]
    fn fig4_llp_is_four_thirds() {
        // Example 5.20: the SM bound N^{4/3} equals the LLP optimum.
        let pres = examples::fig4_query().lattice_presentation();
        let sol = solve_llp(&pres.lattice, &pres.inputs, &uniform(4, 3));
        assert_eq!(sol.value, rat(4, 1)); // (4/3)·n with n=3.
    }

    #[test]
    fn fig9_llp_is_three_halves() {
        // Example 5.31 (continued): OPT = (3/2)·n.
        let pres = examples::fig9_query().lattice_presentation();
        let sol = solve_llp(&pres.lattice, &pres.inputs, &uniform(3, 2));
        assert_eq!(sol.value, rat(3, 1));
    }

    #[test]
    fn composite_key_bound_is_n_squared() {
        // Sec. 2: R(x), S(y), T(x,y,z), xy→z with |R|=|S|=N, |T|=M ≫ N²:
        // GLVV = N², not M.
        let pres = examples::composite_key().lattice_presentation();
        let sol = solve_llp(
            &pres.lattice,
            &pres.inputs,
            &[rat(5, 1), rat(5, 1), rat(100, 1)],
        );
        assert_eq!(sol.value, rat(10, 1));
    }

    #[test]
    fn fig5_udf_product_bound_is_n_squared() {
        // Example 5.10: R(x), S(y), z = f(x,y): output ≤ N².
        let pres = examples::fig5_udf_product().lattice_presentation();
        let sol = solve_llp(&pres.lattice, &pres.inputs, &uniform(2, 7));
        assert_eq!(sol.value, rat(14, 1));
    }

    #[test]
    fn duals_form_valid_output_inequality() {
        // Lemma 3.9: the dual (w*, s*) certifies Σ w_j h(R_j) ≥ h(1̂) for
        // all submodular h; verify against the optimal h itself (tight).
        let pres = examples::fig4_query().lattice_presentation();
        let sol = solve_llp(&pres.lattice, &pres.inputs, &uniform(4, 3));
        let slack = sol
            .h
            .output_inequality_slack(&pres.lattice, &pres.inputs, &sol.input_duals);
        assert_eq!(slack, rat(0, 1));
        // And against a few step functions (normal polymatroids).
        for z in pres.lattice.elems() {
            if z == pres.lattice.top() {
                continue;
            }
            let step = LatticeFn::step(&pres.lattice, z);
            let s = step.output_inequality_slack(&pres.lattice, &pres.inputs, &sol.input_duals);
            assert!(!s.is_negative(), "step at {z} violates the dual inequality");
        }
    }
}
