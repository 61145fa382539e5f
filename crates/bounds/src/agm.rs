//! The AGM bound (Theorem 2.1) and the closure-query bound `AGM(Q⁺)`
//! (Sec. 2 "Closure").

use fdjoin_bigint::Rational;
use fdjoin_query::{EdgeCover, Query};

/// `log₂ AGM(Q, (N_j))` with the optimal fractional edge cover, or `None`
/// if some variable is uncovered.
pub fn agm_log_bound(q: &Query, log_sizes: &[Rational]) -> Option<EdgeCover> {
    q.hypergraph().fractional_edge_cover(log_sizes)
}

/// `log₂ AGM(Q⁺)`: the AGM bound of the closure query, which is a valid
/// output bound for `(Q, FD)` and tight when all FDs are simple keys.
pub fn agm_closure_log_bound(q: &Query, log_sizes: &[Rational]) -> Option<EdgeCover> {
    agm_log_bound(&q.closure_query(), log_sizes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdjoin_bigint::rat;
    use fdjoin_query::examples;

    #[test]
    fn triangle_agm_formula() {
        // AGM = min(√(N_R N_S N_T), N_R N_S, N_R N_T, N_S N_T)  (Eq. 4).
        let q = examples::triangle();
        for (nr, ns, nt) in [(10i64, 10, 10), (2, 2, 100), (4, 6, 8), (0, 5, 5)] {
            let cover = agm_log_bound(&q, &[rat(nr, 1), rat(ns, 1), rat(nt, 1)]).unwrap();
            let half = rat(1, 2);
            let expect = [
                &half * &rat(nr + ns + nt, 1),
                rat(nr + ns, 1),
                rat(nr + nt, 1),
                rat(ns + nt, 1),
            ]
            .into_iter()
            .min()
            .unwrap();
            assert_eq!(cover.value, expect, "sizes ({nr},{ns},{nt})");
        }
    }

    #[test]
    fn four_cycle_key_closure_bound() {
        // Sec 2: Q⁺ for the 4-cycle with y→z has
        // AGM(Q⁺) = min(|R||T|, |S||K|, |R||K|).
        let q = examples::four_cycle_key();
        for (r, s, t, k) in [(3i64, 3, 3, 3), (1, 5, 5, 1), (5, 1, 1, 5), (2, 9, 2, 9)] {
            let logs = [rat(r, 1), rat(s, 1), rat(t, 1), rat(k, 1)];
            let plain = agm_log_bound(&q, &logs).unwrap().value;
            let closed = agm_closure_log_bound(&q, &logs).unwrap().value;
            // Without FDs: min(RT, SK).
            assert_eq!(plain, rat((r + t).min(s + k), 1));
            // With closure: min(RT, SK, RK).
            assert_eq!(closed, rat((r + t).min(s + k).min(r + k), 1));
            assert!(closed <= plain);
        }
    }

    #[test]
    fn composite_key_closure_technique_fails() {
        // Sec 2: R(x), S(y), T(x,y,z) with xy→z: Q⁺ = Q, so the closure
        // bound stays M even though the true bound is N².
        let q = examples::composite_key();
        let logs = [rat(5, 1), rat(5, 1), rat(100, 1)];
        let plain = agm_log_bound(&q, &logs).unwrap().value;
        let closed = agm_closure_log_bound(&q, &logs).unwrap().value;
        assert_eq!(plain, rat(100, 1));
        assert_eq!(closed, rat(100, 1)); // no improvement — GLVV needed.
    }
}
