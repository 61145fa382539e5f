//! CSM proof sequences (Sec. 5.3.2): constructing a sequence of CD/CC/SM
//! rules from a dual-feasible CLLP solution, following the constructive
//! proof of Theorem 5.34 (reachability via Lemma 5.33).

use crate::cllp::{CllpSolution, DegreePair};
use fdjoin_lattice::{ElemId, Lattice};
use std::collections::HashMap;

/// One rule of a CSM proof sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CsmRule {
    /// Conditional decomposition `h(Y) → h(Y|X) + h(X)` with `X < Y`.
    /// Operationally: partition `T(Y)` into degree-uniform buckets over the
    /// `X` attributes (Lemma 5.35) and project each onto `X`.
    Cd {
        /// The conditioning element `X`.
        x: ElemId,
        /// The decomposed element `Y`.
        y: ElemId,
    },
    /// Conditional composition `h(X) + h(Y|X) → h(Y)` along degree pair
    /// `pair` of the CLLP. Operationally: join `T(X)` with the pair's guard.
    Cc {
        /// Index into the CLLP's degree-pair list.
        pair: usize,
    },
    /// Submodularity `h(A) + h(B|A∧B) → h(A∨B)`. Operationally: join
    /// `T(A)` with the guard of `h(B|A∧B)` and expand to `Λ(A∨B)`.
    Sm {
        /// Left operand (joined via its table).
        a: ElemId,
        /// Right operand (joined via its conditional guard).
        b: ElemId,
    },
}

/// A CSM proof sequence: rules in execution order.
#[derive(Clone, Debug, Default)]
pub struct CsmSequence {
    /// The rules, in order.
    pub rules: Vec<CsmRule>,
}

#[derive(Clone, Copy, Debug)]
enum How {
    /// `0̂` or produced by an SM step.
    Base,
    /// Entered the conditional closure as a lower element of `y`.
    Down(ElemId),
    /// Entered via the c-edge of degree pair `pair`.
    CEdge(usize),
}

/// Build a CSM sequence reaching `h(1̂)` from the CLLP dual `(c, s)`,
/// following Theorem 5.34's constructive proof. Returns `None` if the
/// reachability argument gets stuck (which Lemma 5.33 rules out for exact
/// dual-feasible solutions; kept as a safe failure mode).
///
/// A pair whose `lo` is `0̂` is a cardinality term: `h(hi | 0̂) = h(hi)`,
/// and its `hi` is an input element, whose table the executor holds from
/// the start (CSMA's initial tables hold one per input). Such a term is
/// available with no rule; a CC along it would only rebuild that table.
pub fn csm_sequence(
    lat: &Lattice,
    pairs: &[DegreePair],
    sol: &CllpSolution,
) -> Option<CsmSequence> {
    let s_pos: Vec<(ElemId, ElemId)> = sol.sm_duals.iter().map(|(p, _)| *p).collect();
    let c_pos: Vec<usize> = (0..pairs.len())
        .filter(|&i| sol.pair_duals[i].is_positive())
        .collect();

    let mut how: HashMap<ElemId, How> = HashMap::new();
    how.insert(lat.bottom(), How::Base);
    let mut avail_h: Vec<bool> = vec![false; lat.len()];
    avail_h[lat.bottom()] = true;
    // Conditional terms h(hi|lo) available initially for every c-positive
    // pair (their guards are the input tables / degree-bounded tables).
    let mut rules = Vec::new();

    // Conditional closure: down-steps and c-edges, recorded with provenance.
    let closure = |how: &mut HashMap<ElemId, How>| loop {
        let mut changed = false;
        // Sorted keys: provenance (which `y` a down-step is attributed to)
        // must not depend on hash iteration order, or the emitted rule
        // sequence — and hence CSMA's deterministic work counters — would
        // vary run to run.
        let mut known: Vec<ElemId> = how.keys().copied().collect();
        known.sort_unstable();
        for y in known {
            for x in lat.elems() {
                if lat.lt(x, y) && !how.contains_key(&x) {
                    how.insert(x, How::Down(y));
                    changed = true;
                }
            }
        }
        let known: Vec<ElemId> = how.keys().copied().collect();
        for &pi in &c_pos {
            let p = &pairs[pi];
            if known.contains(&p.lo) && !how.contains_key(&p.hi) {
                how.insert(p.hi, How::CEdge(pi));
                changed = true;
            }
        }
        if !changed {
            break;
        }
    };

    // Derive h(X) into availability, emitting the necessary rules.
    fn derive(
        lat: &Lattice,
        pairs: &[DegreePair],
        how: &HashMap<ElemId, How>,
        avail_h: &mut Vec<bool>,
        rules: &mut Vec<CsmRule>,
        x: ElemId,
        depth: usize,
    ) -> bool {
        if avail_h[x] {
            return true;
        }
        if depth > lat.len() * 2 {
            return false;
        }
        match how.get(&x) {
            None => false,
            Some(How::Base) => {
                avail_h[x] = true;
                true
            }
            Some(&How::Down(y)) => {
                if !derive(lat, pairs, how, avail_h, rules, y, depth + 1) {
                    return false;
                }
                rules.push(CsmRule::Cd { x, y });
                avail_h[x] = true;
                true
            }
            Some(&How::CEdge(pi)) => {
                let lo = pairs[pi].lo;
                if lo == lat.bottom() {
                    // h(hi | 0̂) = h(hi), an input's table: no rule.
                    avail_h[x] = true;
                    return true;
                }
                if !derive(lat, pairs, how, avail_h, rules, lo, depth + 1) {
                    return false;
                }
                rules.push(CsmRule::Cc { pair: pi });
                avail_h[x] = true;
                true
            }
        }
    }

    let max_iters = lat.len() * lat.len() + 4;
    for _ in 0..max_iters {
        closure(&mut how);
        if how.contains_key(&lat.top()) {
            // Derive h(1̂) and finish.
            if derive(lat, pairs, &how, &mut avail_h, &mut rules, lat.top(), 0) {
                return Some(CsmSequence { rules });
            }
            return None;
        }
        // Lemma 5.33: find A, B in the closure with s_{A,B} > 0 and
        // A ∨ B outside it.
        let mut found = None;
        for &(a, b) in &s_pos {
            if how.contains_key(&a) && how.contains_key(&b) {
                let j = lat.join(a, b);
                if !how.contains_key(&j) {
                    found = Some((a, b, j));
                    break;
                }
            }
        }
        let (a, b, j) = found?;
        // Need h(A) and h(B|A∧B).
        if !derive(lat, pairs, &how, &mut avail_h, &mut rules, a, 0) {
            return None;
        }
        let m = lat.meet(a, b);
        if !derive(lat, pairs, &how, &mut avail_h, &mut rules, b, 0) {
            return None;
        }
        if m != lat.bottom() {
            // Extract the conditional term via CD on (A∧B, B) if B is not
            // already conditioned that way.
            rules.push(CsmRule::Cd { x: m, y: b });
        }
        rules.push(CsmRule::Sm { a, b });
        how.insert(j, How::Base);
        avail_h[j] = true;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cllp::solve_cllp;
    use fdjoin_bigint::rat;
    use fdjoin_query::examples;

    /// Run csm_sequence for a query with uniform input sizes.
    fn sequence_for(q: &fdjoin_query::Query, n: i64) -> (CsmSequence, fdjoin_lattice::Lattice) {
        let pres = q.lattice_presentation();
        let pairs: Vec<DegreePair> = pres
            .inputs
            .iter()
            .map(|&r| DegreePair::cardinality(&pres.lattice, r, rat(n, 1)))
            .collect();
        let sol = solve_cllp(&pres.lattice, &pairs);
        let seq = csm_sequence(&pres.lattice, &pairs, &sol).expect("sequence exists");
        (seq, pres.lattice)
    }

    #[test]
    fn fig9_sequence_reaches_top() {
        // Example 5.31 continued: the paper's sequence (29)–(36) uses CD
        // steps through G, I, D and SM steps through Z, U, V to 1̂. Ours
        // must reach 1̂ with a comparable rule mix.
        let (seq, lat) = sequence_for(&examples::fig9_query(), 2);
        assert!(!seq.rules.is_empty());
        let n_sm = seq
            .rules
            .iter()
            .filter(|r| matches!(r, CsmRule::Sm { .. }))
            .count();
        let n_cd = seq
            .rules
            .iter()
            .filter(|r| matches!(r, CsmRule::Cd { .. }))
            .count();
        assert!(n_sm >= 3, "needs several SM steps: {:?}", seq.rules);
        assert!(n_cd >= 2, "needs CD decompositions: {:?}", seq.rules);
        // The last SM step must produce 1̂.
        let last_sm = seq
            .rules
            .iter()
            .rev()
            .find_map(|r| match r {
                CsmRule::Sm { a, b } => Some((*a, *b)),
                _ => None,
            })
            .unwrap();
        assert_eq!(lat.join(last_sm.0, last_sm.1), lat.top());
    }

    #[test]
    fn triangle_sequence_exists() {
        let (seq, lat) = sequence_for(&examples::triangle(), 4);
        let produces_top = seq.rules.iter().any(|r| match r {
            CsmRule::Sm { a, b } => lat.join(*a, *b) == lat.top(),
            CsmRule::Cc { .. } => false,
            _ => false,
        });
        assert!(produces_top, "{:?}", seq.rules);
    }

    #[test]
    fn fig1_sequence_exists() {
        let (seq, _) = sequence_for(&examples::fig1_udf(), 2);
        assert!(!seq.rules.is_empty());
    }

    #[test]
    fn m3_sequence_exists() {
        // M3 has GLVV = N²; the dual uses integral weights; the sequence
        // should reach 1̂ via CC/SM composition.
        let (seq, _) = sequence_for(&examples::m3_query(), 3);
        assert!(!seq.rules.is_empty());
    }

    #[test]
    fn fig4_sequence_exists() {
        let (seq, _) = sequence_for(&examples::fig4_query(), 3);
        assert!(!seq.rules.is_empty());
    }
}
