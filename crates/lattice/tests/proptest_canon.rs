//! Property tests for canonical presentation fingerprints: invariance
//! under variable renaming and atom reordering, and iso-invariant
//! discrimination of structurally different presentations.

use fdjoin_lattice::{canonical_fingerprint, ElemId, Lattice, VarSet};
use proptest::prelude::*;

const NVARS: u32 = 4;

/// Close a random family of subsets of `{0..NVARS}` under intersection and
/// add the universe, yielding a valid closed-set lattice (≤ 16 elements).
fn close_family(seeds: &[u64]) -> Vec<VarSet> {
    let mut family: Vec<VarSet> = seeds
        .iter()
        .map(|&s| VarSet(s & (VarSet::full(NVARS).0)))
        .collect();
    family.push(VarSet::full(NVARS));
    family.sort();
    family.dedup();
    loop {
        let mut new = Vec::new();
        for i in 0..family.len() {
            for j in (i + 1)..family.len() {
                let inter = family[i].intersect(family[j]);
                if !family.contains(&inter) && !new.contains(&inter) {
                    new.push(inter);
                }
            }
        }
        if new.is_empty() {
            return family;
        }
        family.extend(new);
        family.sort();
        family.dedup();
    }
}

/// Apply a variable permutation to every set of a family.
fn permute_family(family: &[VarSet], perm: &[u32]) -> Vec<VarSet> {
    family
        .iter()
        .map(|s| VarSet::from_vars(s.iter().map(|v| perm[v as usize])))
        .collect()
}

/// A permutation of `0..NVARS` from a seed (Fisher–Yates with SplitMix).
fn permutation(seed: u64) -> Vec<u32> {
    let mut p: Vec<u32> = (0..NVARS).collect();
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    for i in (1..p.len()).rev() {
        state = state
            .wrapping_mul(0x5851_F42D_4C95_7F2D)
            .wrapping_add(0x1405_7B7E_F767_814F);
        let j = (state >> 33) as usize % (i + 1);
        p.swap(i, j);
    }
    p
}

/// Inputs: every maximal proper member plus the universe (a multiset that
/// maps through `elem_of_set` on both sides of the renaming).
fn pick_inputs(lat: &Lattice, family: &[VarSet], picks: &[usize]) -> Vec<ElemId> {
    picks
        .iter()
        .map(|&i| lat.elem_of_set(family[i % family.len()]).unwrap())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Renaming variables (lattice isomorphism) and reordering/renaming
    /// atoms (input permutation) leaves the fingerprint unchanged.
    #[test]
    fn fingerprint_is_isomorphism_invariant(
        seeds in collection::vec(any::<u64>(), 1..6),
        picks in collection::vec(0usize..32, 1..5),
        perm_seed in any::<u64>(),
        rot in 0usize..4,
    ) {
        let family = close_family(&seeds);
        let lat1 = Lattice::from_closed_sets(family.clone()).unwrap();
        let inputs1 = pick_inputs(&lat1, &family, &picks);
        let fp1 = canonical_fingerprint(&lat1, &inputs1);

        // Renamed lattice: same family under a variable permutation.
        let perm = permutation(perm_seed);
        let family2 = permute_family(&family, &perm);
        let lat2 = Lattice::from_closed_sets(family2.clone()).unwrap();
        // Same input multiset, transported through the renaming — and
        // rotated, since atom order must not matter.
        let mut inputs2: Vec<ElemId> = picks
            .iter()
            .map(|&i| {
                let s = family[i % family.len()];
                let perm_s = VarSet::from_vars(s.iter().map(|v| perm[v as usize]));
                lat2.elem_of_set(perm_s).unwrap()
            })
            .collect();
        let k = rot % inputs2.len().max(1);
        inputs2.rotate_left(k);
        let fp2 = canonical_fingerprint(&lat2, &inputs2);

        prop_assert_eq!(fp1.certificate(), fp2.certificate());
    }

    /// The fingerprint is deterministic, and its labeling is a valid
    /// permutation of the elements.
    #[test]
    fn fingerprint_is_deterministic_and_bijective(
        seeds in collection::vec(any::<u64>(), 1..6),
        picks in collection::vec(0usize..32, 1..5),
    ) {
        let family = close_family(&seeds);
        let lat = Lattice::from_closed_sets(family.clone()).unwrap();
        let inputs = pick_inputs(&lat, &family, &picks);
        let a = canonical_fingerprint(&lat, &inputs);
        let b = canonical_fingerprint(&lat, &inputs);
        prop_assert_eq!(a.certificate(), b.certificate());
        prop_assert_eq!(a.labels(), b.labels());
        let mut seen = vec![false; lat.len()];
        for e in lat.elems() {
            let c = a.label(e);
            prop_assert!(c < lat.len() && !seen[c], "labels must be a bijection");
            seen[c] = true;
            prop_assert_eq!(a.inverse_labels()[c], e);
        }
    }

    /// Equal certificates imply equal isomorphism invariants — a matching
    /// pair of presentations can differ in nothing structural. (The full
    /// converse, distinguishing known non-isomorphic shapes, is covered by
    /// the unit tests in `canon.rs`.)
    #[test]
    fn equal_certificates_imply_equal_invariants(
        seeds1 in collection::vec(any::<u64>(), 1..6),
        seeds2 in collection::vec(any::<u64>(), 1..6),
        picks in collection::vec(0usize..32, 1..5),
    ) {
        let f1 = close_family(&seeds1);
        let f2 = close_family(&seeds2);
        let l1 = Lattice::from_closed_sets(f1.clone()).unwrap();
        let l2 = Lattice::from_closed_sets(f2.clone()).unwrap();
        let in1 = pick_inputs(&l1, &f1, &picks);
        let in2 = pick_inputs(&l2, &f2, &picks);
        let fp1 = canonical_fingerprint(&l1, &in1);
        let fp2 = canonical_fingerprint(&l2, &in2);
        if fp1.certificate() == fp2.certificate() {
            prop_assert_eq!(l1.len(), l2.len());
            prop_assert_eq!(l1.join_irreducibles().len(), l2.join_irreducibles().len());
            prop_assert_eq!(l1.atoms().len(), l2.atoms().len());
            prop_assert_eq!(l1.maximal_chains().len(), l2.maximal_chains().len());
        } else {
            // Differing certificates claim nothing about the invariants.
            prop_assert!(fp1.certificate() != fp2.certificate());
        }
    }
}
