//! Canonical labeling of lattice presentations.
//!
//! Two queries whose lattice presentations `(L, R)` are isomorphic — same
//! lattice up to relabeling, same multiset of input elements — share every
//! data-independent plan: chains, LLP solutions, SM/CSM proof sequences are
//! all lattice-structural objects. [`canonical_fingerprint`] computes a
//! *canonical form* of a presentation:
//!
//! - a **certificate**: a byte string equal for two presentations **iff**
//!   they are isomorphic (the `≤` matrix under a canonical element order,
//!   plus the per-element input multiplicities). Certificates are exact —
//!   they are the full structure, not a hash — so using them as cache keys
//!   can never confuse two non-isomorphic presentations;
//! - the **canonical labeling** itself (`labels[e]` = canonical index of
//!   element `e`), which lets a plan computed for one presentation be
//!   relabeled into any isomorphic one.
//!
//! The algorithm is the textbook individualization–refinement scheme
//! (à la nauty, radically simplified): iterated color refinement over the
//! order/meet/join structure, branching on the first non-singleton color
//! class, taking the lexicographically least certificate over all leaves.
//! Every leaf attaining the least certificate is kept — together they are
//! the presentation's automorphism coset, which lets consumers canonicalize
//! *derived* keys (e.g. per-input size profiles) for symmetric
//! presentations too. Query lattices are small (a few dozen elements), so
//! the exponential worst case is irrelevant in practice; refinement alone
//! usually leaves only automorphic ties.

use crate::{ElemId, Lattice};

/// The canonical form of a lattice presentation `(L, R)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PresentationFingerprint {
    certificate: Vec<u8>,
    labelings: Vec<Vec<usize>>,
}

impl PresentationFingerprint {
    /// The canonical certificate: equal for two presentations iff they are
    /// isomorphic (same lattice up to relabeling, same input multiset).
    pub fn certificate(&self) -> &[u8] {
        &self.certificate
    }

    /// The canonical label (index) of element `e` under the primary
    /// labeling.
    pub fn label(&self, e: ElemId) -> usize {
        self.labels()[e]
    }

    /// `labels()[e]` is the canonical index of element `e` under the
    /// primary labeling. For two isomorphic presentations `p`, `q` the map
    /// `e ↦ q.labels().position_of(p.labels()[e])` is a lattice isomorphism
    /// carrying `p`'s inputs onto `q`'s.
    pub fn labels(&self) -> &[usize] {
        &self.labelings[0]
    }

    /// *All* optimal labelings — the coset of the presentation's
    /// automorphism group. Every entry is an equally canonical isomorphism
    /// onto the canonical form; consumers that attach extra data (e.g.
    /// per-element sizes) should minimize their derived key over these to
    /// stay canonical for symmetric presentations.
    pub fn labelings(&self) -> &[Vec<usize>] {
        &self.labelings
    }

    /// The inverse of a labeling: `inv[c]` is the element with canonical
    /// index `c`.
    pub fn invert(labels: &[usize]) -> Vec<ElemId> {
        let mut inv = vec![0; labels.len()];
        for (e, &c) in labels.iter().enumerate() {
            inv[c] = e;
        }
        inv
    }

    /// The inverse of the primary labeling.
    pub fn inverse_labels(&self) -> Vec<ElemId> {
        Self::invert(self.labels())
    }
}

/// Compute the canonical form of the presentation `(lat, inputs)`.
///
/// `inputs` is the atom-indexed list of input elements (repeats allowed —
/// the certificate records per-element *multiplicities*, so it is invariant
/// under atom reordering and renaming, and under any variable renaming that
/// induces a lattice isomorphism).
pub fn canonical_fingerprint(lat: &Lattice, inputs: &[ElemId]) -> PresentationFingerprint {
    let n = lat.len();
    let mut mult = vec![0u64; n];
    for &r in inputs {
        mult[r] += 1;
    }

    // Initial coloring: rank of the input multiplicity. (Everything else —
    // bottom/top, cover counts, levels — is discovered by refinement.)
    let mut ranks: Vec<u64> = mult.clone();
    ranks.sort_unstable();
    ranks.dedup();
    let init: Vec<usize> = mult
        .iter()
        .map(|m| ranks.binary_search(m).unwrap())
        .collect();

    let mut best: Option<(Vec<u8>, Vec<Vec<usize>>)> = None;
    search(lat, &mult, init, &mut best);
    let (certificate, mut labelings) = best.expect("at least one leaf labeling exists");
    // Distinct optimal leaves are exactly the automorphism coset; order
    // them deterministically and make `labels()` the lexicographic least.
    labelings.sort_unstable();
    labelings.dedup();
    PresentationFingerprint {
        certificate,
        labelings,
    }
}

impl Lattice {
    /// See [`canonical_fingerprint`].
    pub fn canonical_fingerprint(&self, inputs: &[ElemId]) -> PresentationFingerprint {
        canonical_fingerprint(self, inputs)
    }
}

/// One refinement pass: recolor every element by its (old color, multiset of
/// relations to every other element), then re-rank. Repeats to a fixpoint.
/// The signature is structural only, so the refined partition is identical
/// for isomorphic presentations.
fn refine(lat: &Lattice, colors: &mut Vec<usize>) {
    let n = lat.len();
    loop {
        let mut sigs: Vec<(Vec<u64>, usize)> = Vec::with_capacity(n);
        for e in 0..n {
            let mut rel: Vec<u64> = (0..n)
                .map(|f| {
                    let mut code = colors[f] as u64;
                    code = (code << 1) | lat.leq(e, f) as u64;
                    code = (code << 1) | lat.leq(f, e) as u64;
                    code = (code << 16) | colors[lat.meet(e, f)] as u64 & 0xFFFF;
                    code = (code << 16) | colors[lat.join(e, f)] as u64 & 0xFFFF;
                    code
                })
                .collect();
            rel.sort_unstable();
            rel.insert(0, colors[e] as u64);
            sigs.push((rel, e));
        }
        let mut sorted: Vec<&(Vec<u64>, usize)> = sigs.iter().collect();
        sorted.sort();
        let mut next = vec![0usize; n];
        let mut rank = 0usize;
        for (i, s) in sorted.iter().enumerate() {
            if i > 0 && sorted[i - 1].0 != s.0 {
                rank += 1;
            }
            next[s.1] = rank;
        }
        if next == *colors {
            return;
        }
        *colors = next;
    }
}

/// Individualization–refinement search for the lexicographically least
/// certificate, collecting *every* labeling that attains it (the
/// automorphism coset).
fn search(
    lat: &Lattice,
    mult: &[u64],
    mut colors: Vec<usize>,
    best: &mut Option<(Vec<u8>, Vec<Vec<usize>>)>,
) {
    refine(lat, &mut colors);
    let n = lat.len();
    // Find the first non-singleton color class (in color order).
    let mut class_size = vec![0usize; n];
    for &c in &colors {
        class_size[c] += 1;
    }
    let target = (0..n).find(|&c| class_size[c] > 1);
    match target {
        None => {
            // Discrete: colors are a labeling.
            let cert = certificate(lat, mult, &colors);
            match best {
                Some((b, labelings)) if *b == cert => labelings.push(colors),
                Some((b, _)) if *b < cert => {}
                _ => *best = Some((cert, vec![colors])),
            }
        }
        Some(cell) => {
            // Branch: individualize each member of the cell in turn by
            // giving it a color just below the rest of its class (shifting
            // later classes up by one keeps the ordering canonical).
            for e in 0..n {
                if colors[e] != cell {
                    continue;
                }
                let mut child = colors.clone();
                for v in child.iter_mut() {
                    if *v > cell {
                        *v += 1;
                    }
                }
                for (f, v) in child.iter_mut().enumerate() {
                    if *v == cell && f != e {
                        *v += 1;
                    }
                }
                search(lat, mult, child, best);
            }
        }
    }
}

/// The certificate under a discrete coloring: element count, the `≤` matrix
/// in canonical order (row-major, bit-packed), and the input multiplicities
/// in canonical order. Meet/join tables are determined by `≤`, so this is
/// the complete structure.
fn certificate(lat: &Lattice, mult: &[u64], labels: &[usize]) -> Vec<u8> {
    let n = lat.len();
    let mut inv = vec![0usize; n];
    for (e, &c) in labels.iter().enumerate() {
        inv[c] = e;
    }
    let mut out = Vec::with_capacity(2 + n * n / 8 + n);
    out.extend_from_slice(&(n as u32).to_le_bytes());
    let mut acc = 0u8;
    let mut bits = 0u8;
    for i in 0..n {
        for j in 0..n {
            acc = (acc << 1) | lat.leq(inv[i], inv[j]) as u8;
            bits += 1;
            if bits == 8 {
                out.push(acc);
                acc = 0;
                bits = 0;
            }
        }
    }
    if bits > 0 {
        out.push(acc << (8 - bits));
    }
    for i in 0..n {
        out.extend_from_slice(&mult[inv[i]].to_le_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build, VarSet};

    #[test]
    fn identical_presentations_agree() {
        let l = build::boolean(3);
        let inputs = l.coatoms();
        let a = canonical_fingerprint(&l, &inputs);
        let b = canonical_fingerprint(&l, &inputs);
        assert_eq!(a.certificate(), b.certificate());
        assert_eq!(a.labels(), b.labels());
    }

    #[test]
    fn atom_order_does_not_matter() {
        let l = build::boolean(3);
        let mut inputs = l.coatoms();
        let a = canonical_fingerprint(&l, &inputs);
        inputs.reverse();
        let b = canonical_fingerprint(&l, &inputs);
        assert_eq!(a.certificate(), b.certificate());
    }

    #[test]
    fn variable_renaming_does_not_matter() {
        // Boolean(3) built from closed sets vs the same with variables
        // permuted: the element ids differ but the certificates agree.
        let family = |p: &dyn Fn(u32) -> u32| -> Vec<VarSet> {
            VarSet::full(3)
                .subsets()
                .map(|s| VarSet::from_vars(s.iter().map(p)))
                .collect()
        };
        let l1 = Lattice::from_closed_sets(family(&|v| v)).unwrap();
        let l2 = Lattice::from_closed_sets(family(&|v| (v + 1) % 3)).unwrap();
        let in1 = vec![
            l1.elem_of_set(VarSet::from_vars([0, 1])).unwrap(),
            l1.elem_of_set(VarSet::from_vars([1, 2])).unwrap(),
        ];
        let in2 = vec![
            l2.elem_of_set(VarSet::from_vars([1, 2])).unwrap(),
            l2.elem_of_set(VarSet::from_vars([2, 0])).unwrap(),
        ];
        let a = canonical_fingerprint(&l1, &in1);
        let b = canonical_fingerprint(&l2, &in2);
        assert_eq!(a.certificate(), b.certificate());
    }

    #[test]
    fn different_lattices_differ() {
        let shapes: Vec<(Lattice, Vec<ElemId>)> = vec![
            (build::boolean(2), vec![]),
            (build::boolean(3), vec![]),
            (build::m3(), vec![]),
            (build::n5(), vec![]),
            (build::chain(5), vec![]),
        ];
        let prints: Vec<Vec<u8>> = shapes
            .iter()
            .map(|(l, i)| canonical_fingerprint(l, i).certificate().to_vec())
            .collect();
        for i in 0..prints.len() {
            for j in (i + 1)..prints.len() {
                assert_ne!(prints[i], prints[j], "shapes {i} and {j} collide");
            }
        }
    }

    #[test]
    fn input_multiset_matters() {
        let l = build::m3();
        let ats = l.atoms();
        let a = canonical_fingerprint(&l, &[ats[0], ats[1]]);
        let b = canonical_fingerprint(&l, &[ats[0], ats[1], ats[2]]);
        let c = canonical_fingerprint(&l, &[ats[0], ats[0], ats[1]]);
        assert_ne!(a.certificate(), b.certificate());
        assert_ne!(b.certificate(), c.certificate());
        // …but which atoms carry the multiplicity is symmetric in M3.
        let d = canonical_fingerprint(&l, &[ats[1], ats[2], ats[2]]);
        assert_eq!(c.certificate(), d.certificate());
    }

    #[test]
    fn automorphism_coset_is_enumerated() {
        // Boolean(3) with its three coatoms as inputs has the full S3
        // symmetry: six equally canonical labelings, all bijections, all
        // distinct.
        let l = build::boolean(3);
        let fp = canonical_fingerprint(&l, &l.coatoms());
        assert_eq!(fp.labelings().len(), 6);
        for labels in fp.labelings() {
            let inv = PresentationFingerprint::invert(labels);
            for e in l.elems() {
                assert_eq!(inv[labels[e]], e);
            }
        }
        // An asymmetric presentation pins the labeling down to one.
        let chain = build::chain(4);
        let bottom_heavy = canonical_fingerprint(&chain, &[1, 1, 2]);
        assert_eq!(bottom_heavy.labelings().len(), 1);
    }

    #[test]
    fn labels_compose_to_an_isomorphism() {
        // Two isomorphic presentations (a variable-renamed Boolean(3) pair,
        // as in `variable_renaming_does_not_matter`): composing one's
        // labeling with the other's inverse must be an order- and
        // input-preserving lattice isomorphism — the property the plan
        // relabeling machinery depends on.
        let family = |p: &dyn Fn(u32) -> u32| -> Vec<VarSet> {
            VarSet::full(3)
                .subsets()
                .map(|s| VarSet::from_vars(s.iter().map(p)))
                .collect()
        };
        let l1 = Lattice::from_closed_sets(family(&|v| v)).unwrap();
        let l2 = Lattice::from_closed_sets(family(&|v| (v + 2) % 3)).unwrap();
        let in1 = vec![
            l1.elem_of_set(VarSet::from_vars([0, 1])).unwrap(),
            l1.elem_of_set(VarSet::from_vars([2])).unwrap(),
        ];
        let in2 = vec![
            l2.elem_of_set(VarSet::from_vars([2, 0])).unwrap(),
            l2.elem_of_set(VarSet::from_vars([1])).unwrap(),
        ];
        let fp1 = canonical_fingerprint(&l1, &in1);
        let fp2 = canonical_fingerprint(&l2, &in2);
        assert_eq!(fp1.certificate(), fp2.certificate());
        // φ = fp2⁻¹ ∘ fp1 : L1 → L2.
        let inv2 = fp2.inverse_labels();
        let phi: Vec<ElemId> = l1.elems().map(|e| inv2[fp1.label(e)]).collect();
        for a in l1.elems() {
            for b in l1.elems() {
                assert_eq!(l1.leq(a, b), l2.leq(phi[a], phi[b]), "order preserved");
                assert_eq!(phi[l1.meet(a, b)], l2.meet(phi[a], phi[b]), "meet");
                assert_eq!(phi[l1.join(a, b)], l2.join(phi[a], phi[b]), "join");
            }
        }
        // φ carries the input multiset of (L1, R1) onto (L2, R2).
        let mut img: Vec<ElemId> = in1.iter().map(|&r| phi[r]).collect();
        let mut want = in2.clone();
        img.sort_unstable();
        want.sort_unstable();
        assert_eq!(img, want, "inputs carried by the isomorphism");
    }
}
