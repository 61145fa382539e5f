//! Relabeling plans along a presentation isomorphism.
//!
//! Every data-independent plan — chain bounds, LLP solutions, SM-proof
//! sequences, CSM rule sequences — is a *structural* object: it references
//! lattice elements by id and inputs by atom index, and its validity
//! depends only on the lattice structure and the input size profile. An
//! isomorphism of presentations therefore carries a valid plan for one
//! query to a valid plan for the other; this module implements that
//! transport. The cross-query [`PlanCache`](super::PlanCache) stores plans
//! in *canonical* coordinates (the labeling computed by
//! `fdjoin_lattice::canonical_fingerprint`) and relabels on the way in and
//! out.

use crate::{csma, sma};
use fdjoin_bounds::chain::{Chain, ChainBound};
use fdjoin_bounds::csm::{CsmRule, CsmSequence};
use fdjoin_bounds::llp::LlpSolution;
use fdjoin_bounds::smproof::{SmProof, SmStep};
use fdjoin_bounds::LatticeFn;
use fdjoin_query::EdgeCover;

/// A presentation isomorphism in executable form: `elem[e]` is the image of
/// lattice element `e`; `slot[j]` is the image of input (atom) index `j`.
#[derive(Clone, Debug)]
pub(crate) struct Relabel {
    pub elem: Vec<usize>,
    pub slot: Vec<usize>,
}

impl Relabel {
    /// Permute a per-input vector: entry `j` moves to `slot[j]`.
    fn permute_slots<T: Clone>(&self, v: &[T]) -> Vec<T> {
        debug_assert_eq!(v.len(), self.slot.len());
        let mut out = v.to_vec();
        for (j, val) in v.iter().enumerate() {
            out[self.slot[j]] = val.clone();
        }
        out
    }

    /// Permute a per-element value table.
    fn lattice_fn(&self, f: &LatticeFn) -> LatticeFn {
        let mut values = f.values.clone();
        for (e, v) in f.values.iter().enumerate() {
            values[self.elem[e]] = v.clone();
        }
        LatticeFn::from_values(values)
    }

    pub fn chain_bound(&self, b: &ChainBound) -> ChainBound {
        ChainBound {
            chain: Chain {
                elems: b.chain.elems.iter().map(|&e| self.elem[e]).collect(),
            },
            log_bound: b.log_bound.clone(),
            cover: EdgeCover {
                value: b.cover.value.clone(),
                weights: self.permute_slots(&b.cover.weights),
                // Packing entries are per chain *step*, a notion invariant
                // under the isomorphism.
                packing: b.cover.packing.clone(),
            },
        }
    }

    pub fn llp(&self, s: &LlpSolution) -> LlpSolution {
        LlpSolution {
            value: s.value.clone(),
            h: self.lattice_fn(&s.h),
            h_monotone: self.lattice_fn(&s.h_monotone),
            input_duals: self.permute_slots(&s.input_duals),
            sm_duals: s
                .sm_duals
                .iter()
                .map(|&((a, b), ref w)| {
                    let (x, y) = (self.elem[a], self.elem[b]);
                    ((x.min(y), x.max(y)), w.clone())
                })
                .collect(),
        }
    }

    pub fn sma(&self, p: &sma::SmaPlan) -> sma::SmaPlan {
        let mut multiset: Vec<(usize, u64)> =
            p.multiset.iter().map(|&(j, m)| (self.slot[j], m)).collect();
        multiset.sort_unstable();
        let mut proof_multiset: Vec<(usize, u64)> = p
            .proof
            .multiset
            .iter()
            .map(|&(e, m)| (self.elem[e], m))
            .collect();
        proof_multiset.sort_unstable();
        sma::SmaPlan {
            multiset,
            proof: SmProof {
                multiset: proof_multiset,
                d: p.proof.d,
                steps: p
                    .proof
                    .steps
                    .iter()
                    // x and y play asymmetric roles in the SM-join
                    // (light/heavy split happens on y), so the pair is
                    // mapped, never reordered.
                    .map(|s| SmStep {
                        x: self.elem[s.x],
                        y: self.elem[s.y],
                    })
                    .collect(),
            },
            h: self.lattice_fn(&p.h),
            log_bound: p.log_bound.clone(),
        }
    }

    /// Relabel a CSMA plan. Only cardinality-constrained plans are shared
    /// (at most one degree pair per atom, trivial guards), which the caller
    /// guarantees. The pair list keeps its order — each pair's guard names
    /// its atom — so the CC rules' pair indices carry over unchanged.
    pub fn csma(&self, p: &csma::CsmaPlan) -> csma::CsmaPlan {
        let pairs = p
            .pairs
            .iter()
            .map(|pr| fdjoin_bounds::cllp::DegreePair {
                lo: self.elem[pr.lo],
                hi: self.elem[pr.hi],
                log_bound: pr.log_bound.clone(),
            })
            .collect();
        let guards = p
            .guards
            .iter()
            .map(|g| {
                debug_assert!(g.order.is_none(), "only cardinality plans are shared");
                csma::GuardSpec {
                    atom: self.slot[g.atom],
                    order: None,
                }
            })
            .collect();
        let rules = p
            .seq
            .rules
            .iter()
            .map(|r| match *r {
                CsmRule::Cd { x, y } => CsmRule::Cd {
                    x: self.elem[x],
                    y: self.elem[y],
                },
                CsmRule::Cc { pair } => CsmRule::Cc { pair },
                CsmRule::Sm { a, b } => CsmRule::Sm {
                    a: self.elem[a],
                    b: self.elem[b],
                },
            })
            .collect();
        csma::CsmaPlan {
            pairs,
            guards,
            seq: CsmSequence { rules },
            log_bound: p.log_bound.clone(),
        }
    }
}
