//! Submodularity proof sequences (Sec. 5.2): search, verification, and the
//! goodness labeling of Definition 5.26.
//!
//! One search serves both questions. [`search_good_sm_proof`] (Def. 5.26)
//! is the Lemma 3.9 search with an acceptance test, the goodness labeling,
//! and a depth cap; [`search_sm_proof`] is the same search accepting every
//! goal, uncapped. The search and [`verify_sm_proof`] expand a multiset and
//! apply a step through the same two helpers.

use fdjoin_bigint::Rational;
use fdjoin_lattice::{ElemId, Lattice};
use std::collections::HashSet;

/// Build an SM-proof candidate from a fractional edge cover of the
/// **co-atomic hypergraph** (Definition 4.7) instead of the LLP dual.
///
/// Corollary 5.22: on distributive lattices, every co-atomic cover admits an
/// SM-proof sequence (in any order). This is SMA's fallback when the LLP
/// dual's multiset admits no good sequence. Returns the good proof and the
/// scaled cover weights `q_j = w_j · d`, one per input: SMA seeds `q_j`
/// copies of input `j`, and the proof's multiset is them merged per lattice
/// element. Its `log₂` bound is `Σ w_j n_j`, the cover's value.
pub fn coatomic_cover_proof(
    lat: &Lattice,
    inputs: &[ElemId],
    log_sizes: &[Rational],
) -> Option<(SmProof, Vec<u64>)> {
    let hco = crate::normal::coatomic_hypergraph(lat, inputs);
    let cover = hco.fractional_edge_cover(log_sizes)?;
    let (q, d) = scale_weights(&cover.weights);
    let mut acc: std::collections::BTreeMap<ElemId, u64> = Default::default();
    for (j, &m) in q.iter().enumerate() {
        if m > 0 {
            *acc.entry(inputs[j]).or_default() += m;
        }
    }
    let multiset: Vec<(ElemId, u64)> = acc.into_iter().collect();
    let proof = search_good_sm_proof(lat, &multiset, d)?;
    Some((proof, q))
}

/// One elementary compression: replace incomparable `{X, Y}` in the multiset
/// by `{X ∧ Y, X ∨ Y}`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SmStep {
    /// First operand.
    pub x: ElemId,
    /// Second operand.
    pub y: ElemId,
}

/// A full SM-proof: the starting multiset `B` (with multiplicities) proving
/// `Σ_B h(B_i) ≥ d · h(1̂)`, and the step sequence.
#[derive(Clone, Debug)]
pub struct SmProof {
    /// The initial multiset (element, multiplicity ≥ 1), aligned with the
    /// scaled dual weights `q_j = w_j · d`.
    pub multiset: Vec<(ElemId, u64)>,
    /// Denominator `d`: the number of `h(1̂)` copies derived.
    pub d: u64,
    /// The compression steps, in order.
    pub steps: Vec<SmStep>,
}

/// Scale rational weights `w_j` to integers `q_j = w_j · d` with the least
/// common denominator `d`.
pub fn scale_weights(weights: &[Rational]) -> (Vec<u64>, u64) {
    fn gcd(a: u64, b: u64) -> u64 {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    let den = |w: &Rational| w.denom_u64().expect("weight denominator fits in u64");
    let d = weights.iter().map(den).fold(1u64, |d, den| {
        (d / gcd(d, den))
            .checked_mul(den)
            .expect("common denominator fits in u64")
    });
    let q: Vec<u64> = weights
        .iter()
        .map(|w| {
            w.numer_i64()
                .and_then(|n| u64::try_from(n).ok())
                .and_then(|n| n.checked_mul(d / den(w)))
                .expect("scaled weight is a non-negative integer")
        })
        .collect();
    (q, d)
}

/// Search for an SM-proof sequence transforming the multiset
/// `{R_j with multiplicity q_j}` into a multiset containing `d` copies of
/// `1̂` with all remaining elements pairwise comparable (a chain).
///
/// The proof search with every goal accepted and no depth cap. Returns
/// `None` if *no* sequence exists — this exhaustiveness is what certifies
/// Example 5.31's negative result.
pub fn search_sm_proof(lat: &Lattice, multiset: &[(ElemId, u64)], d: u64) -> Option<SmProof> {
    search(lat, multiset, d, usize::MAX, |_| true)
}

/// Like [`search_sm_proof`], but only accepts proofs that pass the
/// Definition 5.26 goodness labeling — the precondition of Theorem 5.28
/// (SMA correctness) — and expands no state more than `4 · |L|` steps
/// deep. Exhausts the sequence space within that cap, so `None` means no
/// good sequence exists under injective fresh-label assignment.
pub fn search_good_sm_proof(lat: &Lattice, multiset: &[(ElemId, u64)], d: u64) -> Option<SmProof> {
    search(lat, multiset, d, 4 * lat.len(), |proof| {
        check_goodness(lat, proof) == Goodness::Good
    })
}

/// The one proof search: a DFS over sorted multiset states that tries each
/// incomparable pair of distinct element values once per state. A goal
/// state ends the search when `accept` takes the proof that reached it.
///
/// Goodness depends on the step history, so a failure is not memoized on
/// the state alone; a state is remembered only once no goal is reachable
/// from it at all (an accepted proof can never pass through it). With
/// every goal accepted that is exactly every failed state.
fn search(
    lat: &Lattice,
    multiset: &[(ElemId, u64)],
    d: u64,
    max_steps: usize,
    accept: impl Fn(&SmProof) -> bool,
) -> Option<SmProof> {
    struct Search<'l, F> {
        lat: &'l Lattice,
        max_steps: usize,
        accept: F,
        /// The steps taken so far.
        proof: SmProof,
        /// States from which no goal is reachable.
        dead: HashSet<Vec<ElemId>>,
    }
    impl<F: Fn(&SmProof) -> bool> Search<'_, F> {
        fn go(&mut self, state: &mut Vec<ElemId>) -> bool {
            let lat = self.lat;
            if is_goal(lat, state, self.proof.d) {
                return (self.accept)(&self.proof);
            }
            if self.proof.steps.len() > self.max_steps || self.dead.contains(state.as_slice()) {
                return false;
            }
            let mut tried: HashSet<(ElemId, ElemId)> = HashSet::new();
            let snapshot = state.clone();
            let mut reaches_goal = false;
            for i in 0..snapshot.len() {
                for j in (i + 1)..snapshot.len() {
                    let (x, y) = (snapshot[i], snapshot[j]);
                    if !lat.incomparable(x, y) || !tried.insert((x.min(y), x.max(y))) {
                        continue;
                    }
                    let step = SmStep { x, y };
                    state.clone_from(&snapshot);
                    apply_step(lat, state, step).expect("both operands are in the state");
                    state.sort_unstable();
                    self.proof.steps.push(step);
                    if self.go(state) {
                        return true;
                    }
                    reaches_goal |= !self.dead.contains(state.as_slice());
                    self.proof.steps.pop();
                }
            }
            *state = snapshot;
            if !reaches_goal {
                self.dead.insert(state.clone());
            }
            false
        }
    }
    let mut state = expand(multiset);
    state.sort_unstable();
    let mut search = Search {
        lat,
        max_steps,
        accept,
        proof: SmProof {
            multiset: multiset.to_vec(),
            d,
            steps: Vec::new(),
        },
        dead: HashSet::new(),
    };
    search.go(&mut state).then_some(search.proof)
}

/// The multiset's copies, one entry per unit of multiplicity.
fn expand(multiset: &[(ElemId, u64)]) -> Vec<ElemId> {
    multiset
        .iter()
        .flat_map(|&(e, q)| (0..q).map(move |_| e))
        .collect()
}

/// Replace one copy each of `step.x` and `step.y` in `state` by their meet
/// and join; `None` if either operand is missing.
fn apply_step(lat: &Lattice, state: &mut Vec<ElemId>, step: SmStep) -> Option<()> {
    let pi = state.iter().position(|&e| e == step.x)?;
    state.remove(pi);
    let pj = state.iter().position(|&e| e == step.y)?;
    state.remove(pj);
    state.push(lat.meet(step.x, step.y));
    state.push(lat.join(step.x, step.y));
    Some(())
}

fn is_goal(lat: &Lattice, state: &[ElemId], d: u64) -> bool {
    let tops = state.iter().filter(|&&e| e == lat.top()).count() as u64;
    if tops < d {
        return false;
    }
    for (i, &x) in state.iter().enumerate() {
        for &y in &state[i + 1..] {
            if lat.incomparable(x, y) {
                return false;
            }
        }
    }
    true
}

/// Verify that a proof's steps are applicable in order and produce at least
/// `d` copies of `1̂` with a chain remainder; returns the final multiset.
pub fn verify_sm_proof(lat: &Lattice, proof: &SmProof) -> Option<Vec<ElemId>> {
    let mut state = expand(&proof.multiset);
    for &s in &proof.steps {
        if !lat.incomparable(s.x, s.y) {
            return None;
        }
        apply_step(lat, &mut state, s)?;
    }
    if is_goal(lat, &state, proof.d) {
        state.sort_unstable();
        Some(state)
    } else {
        None
    }
}

/// Outcome of the Definition 5.26 labeling procedure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Goodness {
    /// Every step had a non-empty label intersection and every label reached
    /// some copy of `1̂`.
    Good,
    /// Step `i` had `A(X, Y) = ∅` (Example 5.29's failure mode).
    EmptyIntersection(usize),
    /// These labels never reached `⋃ Labels(1̂)` (Example 5.30's failure
    /// mode).
    LostLabels(Vec<u32>),
}

/// Run the goodness labeling of Definition 5.26 on a proof sequence.
///
/// Each multiset copy carries a label set; consumed copies stay in the pool
/// (and keep receiving label updates) but cannot be consumed again. Fresh
/// labels are assigned injectively per step.
pub fn check_goodness(lat: &Lattice, proof: &SmProof) -> Goodness {
    struct Copy {
        elem: ElemId,
        labels: HashSet<u32>,
        consumed: bool,
    }
    let mut pool: Vec<Copy> = expand(&proof.multiset)
        .into_iter()
        .map(|elem| Copy {
            elem,
            labels: HashSet::from([1]),
            consumed: false,
        })
        .collect();
    let mut next_label: u32 = 2;

    for (step_no, s) in proof.steps.iter().enumerate() {
        let xi = pool
            .iter()
            .position(|c| !c.consumed && c.elem == s.x)
            .expect("verified proof has the operand available");
        pool[xi].consumed = true;
        let yi = pool
            .iter()
            .position(|c| !c.consumed && c.elem == s.y)
            .expect("verified proof has the operand available");
        pool[yi].consumed = true;

        let a: HashSet<u32> = pool[xi]
            .labels
            .intersection(&pool[yi].labels)
            .copied()
            .collect();
        if a.is_empty() {
            return Goodness::EmptyIntersection(step_no);
        }
        // New join copy carries A.
        let join = lat.join(s.x, s.y);
        pool.push(Copy {
            elem: join,
            labels: a.clone(),
            consumed: false,
        });
        // Fresh labels exist only when the meet is not 0̂ (Definition 5.26:
        // a meet at 0̂ contributes h(0̂) = 0 and discharges nothing further).
        let meet = lat.meet(s.x, s.y);
        if meet != lat.bottom() {
            let mut sorted_a: Vec<u32> = a.iter().copied().collect();
            sorted_a.sort_unstable();
            let f: std::collections::HashMap<u32, u32> = sorted_a
                .iter()
                .map(|&j| {
                    let fresh = next_label;
                    next_label += 1;
                    (j, fresh)
                })
                .collect();
            // Every copy other than the two consumed operands (and the just
            // pushed join copy) receives the fresh labels for its
            // intersection with A.
            let join_idx = pool.len() - 1;
            for (ci, c) in pool.iter_mut().enumerate() {
                if ci == xi || ci == yi || ci == join_idx {
                    continue;
                }
                let add: Vec<u32> = c
                    .labels
                    .iter()
                    .filter(|l| a.contains(l))
                    .map(|l| f[l])
                    .collect();
                c.labels.extend(add);
            }
            let labels: HashSet<u32> = sorted_a.iter().map(|j| f[j]).collect();
            pool.push(Copy {
                elem: meet,
                labels,
                consumed: false,
            });
        }
    }

    let mut reached: HashSet<u32> = HashSet::new();
    for c in &pool {
        if c.elem == lat.top() {
            reached.extend(c.labels.iter().copied());
        }
    }
    let mut lost: Vec<u32> = (1..next_label).filter(|l| !reached.contains(l)).collect();
    // Labels that exist only on 0̂-bound copies were discharged; a label is
    // genuinely lost only if some *live* copy still carries it or it reached
    // nothing at all. We follow the paper: every label must be present in
    // ⋃ Labels(1̂).
    lost.sort_unstable();
    if lost.is_empty() {
        Goodness::Good
    } else {
        Goodness::LostLabels(lost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdjoin_bigint::rat;
    use fdjoin_lattice::build;

    fn named(lat: &Lattice, s: &str) -> ElemId {
        lat.elems().find(|&e| lat.name(e) == s).unwrap()
    }

    #[test]
    fn scale_weights_lcd() {
        let (q, d) = scale_weights(&[rat(1, 3), rat(1, 3), rat(1, 2)]);
        assert_eq!(d, 6);
        assert_eq!(q, vec![2, 2, 3]);
        let (q, d) = scale_weights(&[rat(1, 1), rat(0, 1)]);
        assert_eq!(d, 1);
        assert_eq!(q, vec![1, 0]);
    }

    #[test]
    fn fig4_sm_proof_exists_and_is_good() {
        // Example 5.20: {abc, ade, bdf, cef} proves 3·h(1̂).
        let lat = build::fig4();
        let inputs: Vec<(ElemId, u64)> = ["abc", "ade", "bdf", "cef"]
            .iter()
            .map(|s| (named(&lat, s), 1))
            .collect();
        let proof = search_sm_proof(&lat, &inputs, 3).expect("Example 5.20's proof exists");
        let fin = verify_sm_proof(&lat, &proof).expect("proof verifies");
        assert_eq!(fin.iter().filter(|&&e| e == lat.top()).count(), 3);
        assert_eq!(check_goodness(&lat, &proof), Goodness::Good);
    }

    #[test]
    fn fig9_has_no_sm_proof() {
        // Example 5.31: h(M)+h(N)+h(O) ≥ 2·h(1̂) has NO SM-proof.
        let lat = build::fig9();
        let inputs: Vec<(ElemId, u64)> = ["M", "N", "O"]
            .iter()
            .map(|s| (named(&lat, s), 1))
            .collect();
        assert!(search_sm_proof(&lat, &inputs, 2).is_none());
        // Sanity: with d = 1 a proof exists.
        assert!(search_sm_proof(&lat, &inputs, 1).is_some());
    }

    #[test]
    fn triangle_shearer_proof() {
        // Example 3.10 / Eq. (9): {xy, yz, zx} proves 2·h(1̂) on 2^{x,y,z}.
        let lat = build::boolean(3);
        let vs = |v: &[u32]| fdjoin_lattice::VarSet::from_vars(v.iter().copied());
        let inputs = vec![
            (lat.elem_of_set(vs(&[0, 1])).unwrap(), 1),
            (lat.elem_of_set(vs(&[1, 2])).unwrap(), 1),
            (lat.elem_of_set(vs(&[0, 2])).unwrap(), 1),
        ];
        let proof = search_sm_proof(&lat, &inputs, 2).expect("Shearer triangle");
        assert_eq!(check_goodness(&lat, &proof), Goodness::Good);
        // d = 3 is impossible with only 3 elements of mass 2 each:
        // Σ h(B) = 6 = 3 h(1̂) requires everything collapse to tops, but
        // meets generate non-top remainders.
        assert!(search_sm_proof(&lat, &inputs, 3).is_none());
    }

    #[test]
    fn search_sm_proof_returns_the_pinned_steps() {
        // Printed before `search_sm_proof` became the acceptance-free case
        // of the good-proof search: the search order is part of the result.
        let steps = |lat: &Lattice, multiset: &[(ElemId, u64)], d: u64| {
            let proof = search_sm_proof(lat, multiset, d).expect("a proof exists");
            let names: Vec<(&str, &str)> = proof
                .steps
                .iter()
                .map(|s| (lat.name(s.x), lat.name(s.y)))
                .collect();
            format!("{names:?}")
        };
        let fig4 = build::fig4();
        let inputs: Vec<(ElemId, u64)> = ["abc", "ade", "bdf", "cef"]
            .iter()
            .map(|s| (named(&fig4, s), 1))
            .collect();
        assert_eq!(
            steps(&fig4, &inputs, 3),
            r#"[("abc", "ade"), ("bdf", "cef"), ("a", "f")]"#
        );
        let tri = build::boolean(3);
        let vs = |v: &[u32]| fdjoin_lattice::VarSet::from_vars(v.iter().copied());
        let inputs: Vec<(ElemId, u64)> = [&[0, 1][..], &[1, 2], &[0, 2]]
            .iter()
            .map(|v| (tri.elem_of_set(vs(v)).unwrap(), 1))
            .collect();
        assert_eq!(
            steps(&tri, &inputs, 2),
            r#"[("{0,1}", "{0,2}"), ("{0}", "{1,2}")]"#
        );
    }

    #[test]
    fn fig7_bad_sequence_detected() {
        // Example 5.29: the listed sequence has A(C, D) = ∅ at the last
        // step; the alternative sequence is good.
        let lat = build::fig7();
        let e = |s: &str| named(&lat, s);
        let multiset = vec![(e("X"), 1), (e("Y"), 1), (e("Z"), 1), (e("U"), 1)];
        let bad = SmProof {
            multiset: multiset.clone(),
            d: 2,
            steps: vec![
                SmStep {
                    x: e("X"),
                    y: e("Y"),
                }, // → A, B
                SmStep {
                    x: e("A"),
                    y: e("Z"),
                }, // → 1̂, C
                SmStep {
                    x: e("B"),
                    y: e("U"),
                }, // → D, 0̂
                SmStep {
                    x: e("C"),
                    y: e("D"),
                }, // → 1̂, 0̂
            ],
        };
        assert!(
            verify_sm_proof(&lat, &bad).is_some(),
            "sequence is a valid SM-proof"
        );
        assert_eq!(check_goodness(&lat, &bad), Goodness::EmptyIntersection(3));

        let good = SmProof {
            multiset,
            d: 2,
            steps: vec![
                SmStep {
                    x: e("X"),
                    y: e("Z"),
                }, // → C, 1̂
                SmStep {
                    x: e("Y"),
                    y: e("U"),
                }, // → 0̂, D
                SmStep {
                    x: e("C"),
                    y: e("D"),
                }, // → 0̂, 1̂
            ],
        };
        assert!(verify_sm_proof(&lat, &good).is_some());
        assert_eq!(check_goodness(&lat, &good), Goodness::Good);
    }

    #[test]
    fn fig8_sequence_loses_label_one() {
        // Example 5.30: labels 2, 3 reach 1̂ but label 1 does not.
        let lat = build::fig8();
        let e = |s: &str| named(&lat, s);
        let proof = SmProof {
            multiset: vec![(e("X"), 1), (e("Y"), 1), (e("Z"), 1), (e("W"), 1)],
            d: 2,
            steps: vec![
                SmStep {
                    x: e("X"),
                    y: e("Y"),
                }, // → C, A
                SmStep {
                    x: e("Z"),
                    y: e("W"),
                }, // → D, B
                SmStep {
                    x: e("A"),
                    y: e("D"),
                }, // → 1̂, 0̂
                SmStep {
                    x: e("B"),
                    y: e("C"),
                }, // → 1̂, 0̂
            ],
        };
        assert!(verify_sm_proof(&lat, &proof).is_some());
        match check_goodness(&lat, &proof) {
            Goodness::LostLabels(lost) => assert!(lost.contains(&1), "label 1 lost: {lost:?}"),
            other => panic!("expected LostLabels, got {other:?}"),
        }
    }

    #[test]
    fn verify_rejects_inapplicable_steps() {
        let lat = build::boolean(2);
        let vs = |v: &[u32]| fdjoin_lattice::VarSet::from_vars(v.iter().copied());
        let x = lat.elem_of_set(vs(&[0])).unwrap();
        let proof = SmProof {
            multiset: vec![(x, 1)],
            d: 1,
            steps: vec![SmStep { x, y: x }],
        };
        assert!(verify_sm_proof(&lat, &proof).is_none());
    }
}
