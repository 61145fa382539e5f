//! The chain bound (Sec. 5.1): chains, goodness, chain hypergraphs, the
//! Corollary 5.9/5.11 chain constructions, and the Theorem 5.14 tightness
//! condition.

use fdjoin_bigint::Rational;
use fdjoin_lattice::{ElemId, Lattice};
use fdjoin_query::{EdgeCover, Hypergraph};

/// A chain `0̂ = C₀ ≺ C₁ ≺ … ≺ C_k = 1̂` in a lattice (not necessarily
/// maximal).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Chain {
    /// Elements in strictly increasing order, from `0̂` to `1̂`.
    pub elems: Vec<ElemId>,
}

impl Chain {
    /// Construct, verifying it is a strictly increasing chain from `0̂` to
    /// `1̂`.
    pub fn new(lat: &Lattice, elems: Vec<ElemId>) -> Chain {
        assert!(elems.len() >= 2, "chain needs at least 0̂ and 1̂");
        assert_eq!(elems[0], lat.bottom());
        assert_eq!(*elems.last().unwrap(), lat.top());
        for w in elems.windows(2) {
            assert!(lat.lt(w[0], w[1]), "chain must be strictly increasing");
        }
        Chain { elems }
    }

    /// Number of steps `k` (the chain has `k+1` elements).
    pub fn steps(&self) -> usize {
        self.elems.len() - 1
    }

    /// Does `x` *cover* step `i` (1-based): `x ∧ C_i ≠ x ∧ C_{i-1}`?
    pub fn covers(&self, lat: &Lattice, x: ElemId, i: usize) -> bool {
        lat.meet(x, self.elems[i]) != lat.meet(x, self.elems[i - 1])
    }

    /// Goodness for an element (Eq. 11): for all steps `i` covered by `x`,
    /// `C_{i-1} ∨ (x ∧ C_i) = C_i`.
    pub(crate) fn good_for(&self, lat: &Lattice, x: ElemId) -> bool {
        (1..=self.steps()).all(|i| {
            !self.covers(lat, x, i)
                || lat.join(self.elems[i - 1], lat.meet(x, self.elems[i])) == self.elems[i]
        })
    }

    /// Goodness for all inputs.
    pub(crate) fn good_for_all(&self, lat: &Lattice, inputs: &[ElemId]) -> bool {
        inputs.iter().all(|&r| self.good_for(lat, r))
    }

    /// Goodness for *every* lattice element (hypothesis of Theorem 5.14).
    pub(crate) fn good_for_lattice(&self, lat: &Lattice) -> bool {
        lat.elems().all(|x| self.good_for(lat, x))
    }

    /// The chain hypergraph `H_C` (Definition 5.1): vertices are steps
    /// `1..=k`; edge `e_j` contains the steps covered by input `R_j`.
    pub fn hypergraph(&self, lat: &Lattice, inputs: &[ElemId]) -> Hypergraph {
        let k = self.steps();
        let mut h = Hypergraph::new(k);
        h.vertices = (1..=k).map(|i| format!("step{i}")).collect();
        for (j, &r) in inputs.iter().enumerate() {
            let verts: Vec<usize> = (1..=k)
                .filter(|&i| self.covers(lat, r, i))
                .map(|i| i - 1)
                .collect();
            h.add_edge(format!("e{j}"), verts);
        }
        h
    }

    /// The set `e(X) = {i : X ∧ C_i ≠ X ∧ C_{i-1}}` of Lemma 5.13.
    pub fn e_set(&self, lat: &Lattice, x: ElemId) -> Vec<usize> {
        (1..=self.steps())
            .filter(|&i| self.covers(lat, x, i))
            .collect()
    }

    /// Theorem 5.14's tightness condition: the chain is good for every
    /// lattice element and `e(X ∨ Y) ⊆ e(X) ∪ e(Y)` for all pairs. When it
    /// holds, the chain bound is tight (and materializable by a product
    /// instance over the chain increments).
    pub fn tightness_condition(&self, lat: &Lattice) -> bool {
        if !self.good_for_lattice(lat) {
            return false;
        }
        for x in lat.elems() {
            for y in lat.elems() {
                let exy = self.e_set(lat, lat.join(x, y));
                let ex = self.e_set(lat, x);
                let ey = self.e_set(lat, y);
                if !exy.iter().all(|i| ex.contains(i) || ey.contains(i)) {
                    return false;
                }
            }
        }
        true
    }
}

/// Result of evaluating the chain bound for one chain.
#[derive(Clone, Debug)]
pub struct ChainBound {
    /// The chain.
    pub chain: Chain,
    /// `log₂` of the bound (Theorem 5.3), i.e. the optimal fractional edge
    /// cover value of the chain hypergraph.
    pub log_bound: Rational,
    /// The optimal edge-cover weights, one per input.
    pub cover: EdgeCover,
}

/// Evaluate the chain bound (Theorem 5.3) for a specific chain, or `None`
/// if the chain is not good for some input or its hypergraph has an
/// isolated vertex (bound = ∞, footnote 7).
pub fn chain_bound(
    lat: &Lattice,
    inputs: &[ElemId],
    log_sizes: &[Rational],
    chain: &Chain,
) -> Option<ChainBound> {
    if !chain.good_for_all(lat, inputs) {
        return None;
    }
    let h = chain.hypergraph(lat, inputs);
    let cover = h.fractional_edge_cover(log_sizes)?;
    Some(ChainBound {
        chain: chain.clone(),
        log_bound: cover.value.clone(),
        cover,
    })
}

/// The Corollary 5.9 construction ("Shearer's lemma for FDs"): greedily join
/// join-irreducibles below the inputs, always picking one whose join with
/// the current prefix is minimal. The resulting chain is good and its
/// hypergraph has no isolated vertex.
pub fn cor59_chain(lat: &Lattice, inputs: &[ElemId]) -> Chain {
    let jset: Vec<ElemId> = lat
        .join_irreducibles()
        .into_iter()
        .filter(|&j| inputs.iter().any(|&r| lat.leq(j, r)))
        .collect();
    let mut used = vec![false; lat.len()];
    let mut chain = vec![lat.bottom()];
    let mut cur = lat.bottom();
    while cur != lat.top() {
        // Pick an unused X ∈ J with cur ≺ cur ∨ X and cur ∨ X minimal.
        let mut best: Option<(ElemId, ElemId)> = None; // (X, cur ∨ X)
        for (pos, &x) in jset.iter().enumerate() {
            if used[pos] {
                continue;
            }
            let j = lat.join(cur, x);
            if j == cur {
                used[pos] = true; // absorbed; skip forever.
                continue;
            }
            match best {
                None => best = Some((x, j)),
                Some((_, bj)) => {
                    if lat.lt(j, bj) {
                        best = Some((x, j));
                    }
                }
            }
        }
        let (x, j) = best.expect("inputs join to 1̂, so progress is always possible");
        let pos = jset.iter().position(|&e| e == x).unwrap();
        used[pos] = true;
        cur = j;
        chain.push(cur);
    }
    Chain::new(lat, chain)
}

/// The Corollary 5.11 dual construction: meet meet-irreducibles downward
/// from `1̂`, picking each so the meet with the current element is maximal.
pub(crate) fn cor511_chain(lat: &Lattice) -> Chain {
    let mset = lat.meet_irreducibles();
    let mut used = vec![false; mset.len()];
    let mut rev = vec![lat.top()];
    let mut cur = lat.top();
    while cur != lat.bottom() {
        let mut best: Option<(usize, ElemId)> = None;
        for (pos, &x) in mset.iter().enumerate() {
            if used[pos] {
                continue;
            }
            let m = lat.meet(cur, x);
            if m == cur {
                used[pos] = true;
                continue;
            }
            match best {
                None => best = Some((pos, m)),
                Some((_, bm)) => {
                    if lat.lt(bm, m) {
                        best = Some((pos, m));
                    }
                }
            }
        }
        let (pos, m) = best.expect("meet of all meet-irreducibles is 0̂");
        used[pos] = true;
        cur = m;
        rev.push(cur);
    }
    rev.reverse();
    Chain::new(lat, rev)
}

/// Enumerate candidate chains — all maximal chains (when the lattice is
/// small), plus the Corollary 5.9 and 5.11 constructions — and return the
/// one minimizing the chain bound. `None` if no candidate admits a finite
/// bound.
pub fn best_chain_bound(
    lat: &Lattice,
    inputs: &[ElemId],
    log_sizes: &[Rational],
) -> Option<ChainBound> {
    let mut candidates: Vec<Chain> = Vec::new();
    if lat.len() <= 24 {
        for c in lat.maximal_chains() {
            candidates.push(Chain::new(lat, c));
        }
    }
    candidates.push(cor59_chain(lat, inputs));
    candidates.push(cor511_chain(lat));
    let mut best: Option<ChainBound> = None;
    for c in candidates {
        if let Some(b) = chain_bound(lat, inputs, log_sizes, &c) {
            if best.as_ref().is_none_or(|cur| b.log_bound < cur.log_bound) {
                best = Some(b);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdjoin_bigint::rat;
    use fdjoin_query::examples;

    fn elem_named(lat: &Lattice, name: &str) -> ElemId {
        lat.elems()
            .find(|&e| lat.name(e) == name)
            .unwrap_or_else(|| panic!("no element named {name}"))
    }

    #[test]
    fn fig1_good_chain_gives_three_halves() {
        // Example 5.5: chain 0̂ ≺ y ≺ yz ≺ 1̂ has bound N^{3/2}.
        let q = examples::fig1_udf();
        let pres = q.lattice_presentation();
        let lat = &pres.lattice;
        let y = q.var_id("y").unwrap();
        let z = q.var_id("z").unwrap();
        let c1 = lat
            .elem_of_set(fdjoin_lattice::VarSet::singleton(y))
            .unwrap();
        let c2 = lat
            .elem_of_set(fdjoin_lattice::VarSet::from_vars([y, z]))
            .unwrap();
        let chain = Chain::new(lat, vec![lat.bottom(), c1, c2, lat.top()]);
        let b = chain_bound(lat, &pres.inputs, &vec![rat(2, 1); 3], &chain).unwrap();
        assert_eq!(b.log_bound, rat(3, 1)); // (3/2)·n, n = 2.
    }

    #[test]
    fn fig1_bad_chain_gives_two() {
        // Example 5.8: chain 0̂ ≺ x ≺ xu ≺ xyu ≺ 1̂ has bound N².
        let q = examples::fig1_udf();
        let pres = q.lattice_presentation();
        let lat = &pres.lattice;
        let v = |s: &str| q.var_id(s).unwrap();
        let vs = |v: &[u32]| fdjoin_lattice::VarSet::from_vars(v.iter().copied());
        let chain = Chain::new(
            lat,
            vec![
                lat.bottom(),
                lat.elem_of_set(vs(&[v("x")])).unwrap(),
                lat.elem_of_set(vs(&[v("x"), v("u")])).unwrap(),
                lat.elem_of_set(vs(&[v("x"), v("y"), v("u")])).unwrap(),
                lat.top(),
            ],
        );
        let b = chain_bound(lat, &pres.inputs, &vec![rat(2, 1); 3], &chain).unwrap();
        assert_eq!(b.log_bound, rat(4, 1)); // 2·n, n = 2.
    }

    #[test]
    fn fig1_best_chain_is_optimal() {
        let pres = examples::fig1_udf().lattice_presentation();
        let b = best_chain_bound(&pres.lattice, &pres.inputs, &vec![rat(2, 1); 3]).unwrap();
        assert_eq!(b.log_bound, rat(3, 1));
    }

    #[test]
    fn maximal_chains_are_good() {
        // Proposition 5.2: maximal chains are good for everything.
        let pres = examples::fig1_udf().lattice_presentation();
        for c in pres.lattice.maximal_chains() {
            let chain = Chain::new(&pres.lattice, c);
            assert!(chain.good_for_lattice(&pres.lattice));
        }
    }

    #[test]
    fn fig5_needs_cor59() {
        // Example 5.10: maximal chains have isolated vertices; the Cor 5.9
        // chain 0̂ ≺ x ≺ 1̂ (or symmetric) gives bound N².
        let q = examples::fig5_udf_product();
        let pres = q.lattice_presentation();
        let lat = &pres.lattice;
        // Maximal chains all hit z or xz first and leave isolated vertices.
        let finite_maximal = lat
            .maximal_chains()
            .into_iter()
            .filter_map(|c| {
                chain_bound(lat, &pres.inputs, &vec![rat(7, 1); 2], &Chain::new(lat, c))
            })
            .count();
        assert_eq!(
            finite_maximal, 0,
            "every maximal chain has an isolated vertex"
        );
        let c = cor59_chain(lat, &pres.inputs);
        let b = chain_bound(lat, &pres.inputs, &vec![rat(7, 1); 2], &c).unwrap();
        assert_eq!(b.log_bound, rat(14, 1)); // N².
        assert!(
            c.elems.len() == 3,
            "Cor 5.9 chain is non-maximal: {:?}",
            c.elems
        );
    }

    #[test]
    fn m3_chain_bound_is_tight_two() {
        // Example 5.12: chain 0̂ ≺ x ≺ 1̂ gives N².
        let pres = examples::m3_query().lattice_presentation();
        let b = best_chain_bound(&pres.lattice, &pres.inputs, &vec![rat(1, 1); 3]).unwrap();
        assert_eq!(b.log_bound, rat(2, 1));
    }

    #[test]
    fn fig4_every_chain_gives_three_halves() {
        // Example 5.18: chain bound is 3/2·n on all chains — not tight
        // (LLP gives 4/3·n).
        let pres = examples::fig4_query().lattice_presentation();
        let b = best_chain_bound(&pres.lattice, &pres.inputs, &vec![rat(2, 1); 4]).unwrap();
        assert_eq!(b.log_bound, rat(3, 1)); // (3/2)·2.
    }

    #[test]
    fn boolean_chain_recovers_shearer() {
        // Corollary 5.6: on a Boolean algebra the chain bound equals AGM.
        let q = examples::triangle();
        let pres = q.lattice_presentation();
        let b = best_chain_bound(&pres.lattice, &pres.inputs, &vec![rat(10, 1); 3]).unwrap();
        assert_eq!(b.log_bound, rat(15, 1));
    }

    #[test]
    fn distributive_chains_satisfy_tightness_condition() {
        // Corollary 5.15's proof: maximal chains on distributive lattices
        // satisfy condition (15).
        let pres = examples::triangle().lattice_presentation();
        for c in pres.lattice.maximal_chains() {
            let chain = Chain::new(&pres.lattice, c);
            assert!(chain.tightness_condition(&pres.lattice));
        }
    }

    #[test]
    fn fig6_condition_holds_on_fig1_lattice() {
        // Example 5.16 / Fig 6: the (non-distributive) Fig-1 lattice with
        // chain 0̂ ≺ y ≺ yz ≺ 1̂ satisfies condition (15).
        let q = examples::fig1_udf();
        let pres = q.lattice_presentation();
        let lat = &pres.lattice;
        assert!(!lat.is_distributive());
        let v = |s: &str| q.var_id(s).unwrap();
        let vs = |v: &[u32]| fdjoin_lattice::VarSet::from_vars(v.iter().copied());
        let chain = Chain::new(
            lat,
            vec![
                lat.bottom(),
                lat.elem_of_set(vs(&[v("y")])).unwrap(),
                lat.elem_of_set(vs(&[v("y"), v("z")])).unwrap(),
                lat.top(),
            ],
        );
        assert!(chain.tightness_condition(lat));
        // e-sets match Fig. 6: e(1̂) = {1,2,3}, e(y)={1}, e(z)={2}.
        assert_eq!(chain.e_set(lat, lat.top()), vec![1, 2, 3]);
        assert_eq!(
            chain.e_set(lat, lat.elem_of_set(vs(&[v("y")])).unwrap()),
            vec![1]
        );
        assert_eq!(
            chain.e_set(lat, lat.elem_of_set(vs(&[v("z")])).unwrap()),
            vec![2]
        );
    }

    #[test]
    fn cor511_reaches_bottom() {
        for q in [
            examples::triangle(),
            examples::fig1_udf(),
            examples::fig4_query(),
        ] {
            let pres = q.lattice_presentation();
            let c = cor511_chain(&pres.lattice);
            assert_eq!(c.elems[0], pres.lattice.bottom());
            assert_eq!(*c.elems.last().unwrap(), pres.lattice.top());
        }
    }

    #[test]
    fn chain_on_named_lattice() {
        // Fig 9: a maximal chain through M.
        let lat = fdjoin_lattice::build::fig9();
        let chain = Chain::new(
            &lat,
            vec![
                lat.bottom(),
                elem_named(&lat, "D"),
                elem_named(&lat, "G"),
                elem_named(&lat, "M"),
                elem_named(&lat, "U"),
                lat.top(),
            ],
        );
        assert!(chain.good_for_lattice(&lat));
    }
}
