//! Functions on lattices: submodularity, monotonicity, Möbius/CMI inversion,
//! normality (Sec. 4), step-function decompositions, and Lovász
//! monotonization (Proposition B.1).

use fdjoin_bigint::Rational;
use fdjoin_lattice::{ElemId, Lattice};

/// A rational-valued function on the elements of a lattice (e.g. a
/// polymatroid `h` or its conditional mutual information `g`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatticeFn {
    /// `values[e]` is the function value at element `e`.
    pub values: Vec<Rational>,
}

impl LatticeFn {
    /// The zero function.
    pub fn zero(lat: &Lattice) -> LatticeFn {
        LatticeFn {
            values: vec![Rational::zero(); lat.len()],
        }
    }

    /// Build from explicit values.
    pub fn from_values(values: Vec<Rational>) -> LatticeFn {
        LatticeFn { values }
    }

    /// Value at an element.
    pub fn get(&self, e: ElemId) -> &Rational {
        &self.values[e]
    }

    /// Set the value at an element.
    pub fn set(&mut self, e: ElemId, v: Rational) {
        self.values[e] = v;
    }

    /// The *step function* `h_Z` at `Z` (Sec. 4): `h_Z(X) = 1` if `X ≰ Z`,
    /// else `0`. Step functions are the extreme rays of the normal cone.
    pub fn step(lat: &Lattice, z: ElemId) -> LatticeFn {
        let values = lat
            .elems()
            .map(|x| {
                if lat.leq(x, z) {
                    Rational::zero()
                } else {
                    Rational::one()
                }
            })
            .collect();
        LatticeFn { values }
    }

    /// All values non-negative?
    pub fn is_nonnegative(&self) -> bool {
        self.values.iter().all(|v| !v.is_negative())
    }

    /// Monotone on the lattice order?
    pub(crate) fn is_monotone(&self, lat: &Lattice) -> bool {
        for x in lat.elems() {
            for y in lat.elems() {
                if lat.leq(x, y) && self.values[x] > self.values[y] {
                    return false;
                }
            }
        }
        true
    }

    /// Submodular on the lattice
    /// (`h(X∧Y) + h(X∨Y) ≤ h(X) + h(Y)` for incomparable pairs)?
    /// Returns the first violating pair if any.
    pub fn submodularity_violation(&self, lat: &Lattice) -> Option<(ElemId, ElemId)> {
        for x in lat.elems() {
            for y in lat.elems() {
                if x < y && lat.incomparable(x, y) {
                    let lhs = &self.values[lat.meet(x, y)] + &self.values[lat.join(x, y)];
                    let rhs = &self.values[x] + &self.values[y];
                    if lhs > rhs {
                        return Some((x, y));
                    }
                }
            }
        }
        None
    }

    /// Is this a polymatroid (non-negative, monotone, submodular,
    /// `h(0̂)=0`)?
    pub fn is_polymatroid(&self, lat: &Lattice) -> bool {
        self.values[lat.bottom()].is_zero()
            && self.is_nonnegative()
            && self.is_monotone(lat)
            && self.submodularity_violation(lat).is_none()
    }

    /// Lovász monotonization (Proposition B.1): `h̄(X) = min_{Y ≥ X} h(Y)`
    /// (and `h̄(0̂)=0`). If `h` is non-negative submodular, `h̄` is a
    /// polymatroid with `h̄(1̂) = h(1̂)` and `h̄ ≤ h`.
    pub fn lovasz_monotonize(&self, lat: &Lattice) -> LatticeFn {
        let mut out = LatticeFn::zero(lat);
        for x in lat.elems() {
            if x == lat.bottom() {
                continue;
            }
            let m = lat
                .elems()
                .filter(|&y| lat.leq(x, y))
                .map(|y| self.values[y].clone())
                .min()
                .expect("x ≤ x");
            out.values[x] = m;
        }
        out
    }

    /// The Möbius inverse `g` of `h` over the *upper* order
    /// (Eq. 10): `h(X) = Σ_{Y ≥ X} g(Y)`, so
    /// `g(X) = Σ_{Y ≥ X} μ(X, Y) h(Y)`.
    ///
    /// When `h` is an entropy, `-g(X)` is the multivariate conditional
    /// mutual information `I(1̂ − X | X)` (CMI).
    pub(crate) fn mobius_inverse(&self, lat: &Lattice) -> LatticeFn {
        let mut g = LatticeFn::zero(lat);
        for x in lat.elems() {
            let row = lat.mobius_row(x);
            let mut acc = Rational::zero();
            for y in lat.elems() {
                if lat.leq(x, y) && row[y] != 0 {
                    let mu = Rational::from(row[y]);
                    acc += &(&mu * &self.values[y]);
                }
            }
            g.values[x] = acc;
        }
        g
    }

    /// Normality test (Lemma 4.2 / Sec. 4): `h` is a *normal* submodular
    /// function iff its Möbius inverse satisfies `g(Z) ≤ 0` for all
    /// `Z ≺ 1̂` and `h(0̂) = 0` (which encodes
    /// `g(1̂) = −Σ_{Z≺1̂} g(Z)`).
    pub fn is_normal(&self, lat: &Lattice) -> bool {
        if !self.values[lat.bottom()].is_zero() {
            return false;
        }
        let g = self.mobius_inverse(lat);
        lat.elems()
            .filter(|&z| z != lat.top())
            .all(|z| !g.values[z].is_positive())
    }

    /// Decompose a normal polymatroid into a non-negative combination of
    /// step functions: `h = Σ_Z a_Z h_Z` with `a_Z = −g(Z) ≥ 0` for
    /// `Z ≠ 1̂`. Returns `None` if `h` is not normal.
    pub fn normal_decomposition(&self, lat: &Lattice) -> Option<Vec<(ElemId, Rational)>> {
        if !self.is_normal(lat) {
            return None;
        }
        let g = self.mobius_inverse(lat);
        Some(
            lat.elems()
                .filter(|&z| z != lat.top())
                .filter(|&z| !g.values[z].is_zero())
                .map(|z| (z, -g.values[z].clone()))
                .collect(),
        )
    }

    /// Evaluate `Σ_j w_j · h(R_j) − h(1̂)`: the slack of output inequality
    /// (7). Non-negative for every polymatroid iff the inequality holds.
    pub fn output_inequality_slack(
        &self,
        lat: &Lattice,
        inputs: &[ElemId],
        weights: &[Rational],
    ) -> Rational {
        let mut acc = -self.values[lat.top()].clone();
        for (&r, w) in inputs.iter().zip(weights) {
            acc += &(w * &self.values[r]);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdjoin_bigint::rat;
    use fdjoin_lattice::build;

    #[test]
    fn step_functions_are_normal_polymatroids() {
        for lat in [build::boolean(3), build::m3(), build::n5(), build::fig9()] {
            for z in lat.elems() {
                if z == lat.top() {
                    let h = LatticeFn::step(&lat, z);
                    // h_1̂ is identically 0 except nothing — constant 0.
                    assert!(h.values.iter().all(|v| v.is_zero()));
                    continue;
                }
                let h = LatticeFn::step(&lat, z);
                assert!(
                    h.is_polymatroid(&lat),
                    "step at {} in {}-elem lattice",
                    z,
                    lat.len()
                );
                assert!(h.is_normal(&lat));
            }
        }
    }

    #[test]
    fn mobius_inversion_roundtrip() {
        let lat = build::fig9();
        let mut h = LatticeFn::zero(&lat);
        // Use the rank-ish function h(x) = number of elements below x.
        for x in lat.elems() {
            let below = lat.elems().filter(|&y| lat.lt(y, x)).count() as i64;
            h.set(x, rat(below, 1));
        }
        // Eq. 10 read backwards: h(X) = Σ_{Y ≥ X} g(Y).
        let g = h.mobius_inverse(&lat);
        for x in lat.elems() {
            let above = lat.elems().filter(|&y| lat.leq(x, y));
            let sum: Rational = above.map(|y| g.get(y).clone()).sum();
            assert_eq!(&sum, h.get(x));
        }
    }

    #[test]
    fn m3_parity_polymatroid_not_normal() {
        // Fig. 3 (right): h(atom) = 1, h(1̂) = 2, h(0̂) = 0 on M3 — the
        // entropy of the parity instance. Its CMI has g(0̂) = +1 > 0.
        let lat = build::m3();
        let mut h = LatticeFn::zero(&lat);
        for a in lat.atoms() {
            h.set(a, rat(1, 1));
        }
        h.set(lat.top(), rat(2, 1));
        assert!(h.is_polymatroid(&lat));
        assert!(!h.is_normal(&lat));
        let g = h.mobius_inverse(&lat);
        assert_eq!(g.values[lat.bottom()], rat(1, 1));
    }

    #[test]
    fn xor_function_on_boolean_not_normal() {
        // Footnote 6: XOR on three variables; h(S) = min(|S|, 2) scaled:
        // h(x)=h(y)=h(z)=1, h(pairs)=2, h(xyz)=2.
        let lat = build::boolean(3);
        let mut h = LatticeFn::zero(&lat);
        for e in lat.elems() {
            let k = lat.set_of(e).unwrap().len().min(2);
            h.set(e, rat(k as i64, 1));
        }
        assert!(h.is_polymatroid(&lat));
        assert!(!h.is_normal(&lat));
    }

    #[test]
    fn additive_function_on_boolean_is_strictly_normal() {
        // h(X) = Σ_{i∈X} v_i (Eq. 6) — the AGM-optimal polymatroid shape.
        let lat = build::boolean(3);
        let v = [rat(1, 2), rat(1, 3), rat(2, 1)];
        let mut h = LatticeFn::zero(&lat);
        for e in lat.elems() {
            let s = lat.set_of(e).unwrap();
            let val: Rational = s.iter().map(|i| v[i as usize].clone()).sum();
            h.set(e, val);
        }
        assert!(h.is_polymatroid(&lat));
        assert!(h.is_normal(&lat));
        // Decomposition: coefficients live on co-atoms only.
        let decomp = h.normal_decomposition(&lat).unwrap();
        let coatoms = lat.coatoms();
        for (z, a) in &decomp {
            assert!(coatoms.contains(z));
            assert!(a.is_positive());
        }
        // Reconstruct h from the decomposition.
        let mut h2 = LatticeFn::zero(&lat);
        for (z, a) in &decomp {
            let step = LatticeFn::step(&lat, *z);
            for e in lat.elems() {
                let add = a * &step.values[e];
                h2.values[e] += &add;
            }
        }
        assert_eq!(h, h2);
    }

    #[test]
    fn lovasz_monotonization_properties() {
        // Non-monotone submodular function: h from Fig. 3 (left), Boolean
        // algebra with h(1̂) = 2 < h(pairs)... Fig 3 left: atoms 1, pairs 2,
        // top 2, which IS monotone. Create artificial dip: top smaller.
        let lat = build::boolean(2);
        let mut h = LatticeFn::zero(&lat);
        let x = lat
            .elem_of_set(fdjoin_lattice::VarSet::singleton(0))
            .unwrap();
        let y = lat
            .elem_of_set(fdjoin_lattice::VarSet::singleton(1))
            .unwrap();
        h.set(x, rat(3, 1));
        h.set(y, rat(3, 1));
        h.set(lat.top(), rat(2, 1));
        assert!(h.submodularity_violation(&lat).is_none());
        assert!(!h.is_monotone(&lat));
        let hb = h.lovasz_monotonize(&lat);
        assert!(hb.is_polymatroid(&lat));
        assert_eq!(hb.values[lat.top()], h.values[lat.top()]);
        for e in lat.elems() {
            assert!(hb.values[e] <= h.values[e]);
        }
        assert_eq!(hb.values[x], rat(2, 1));
    }

    #[test]
    fn output_inequality_slack_triangle() {
        // Shearer: h(xy)+h(yz)+h(zx) ≥ 2 h(xyz) — slack ≥ 0 for the
        // uniform polymatroid.
        let lat = build::boolean(3);
        let mut h = LatticeFn::zero(&lat);
        for e in lat.elems() {
            h.set(e, rat(lat.set_of(e).unwrap().len() as i64, 1));
        }
        let vs = |v: &[u32]| fdjoin_lattice::VarSet::from_vars(v.iter().copied());
        let inputs = [
            lat.elem_of_set(vs(&[0, 1])).unwrap(),
            lat.elem_of_set(vs(&[1, 2])).unwrap(),
            lat.elem_of_set(vs(&[2, 0])).unwrap(),
        ];
        // Eq. (9) with w = (1,1,1) against 2·h(1̂): encode by halving.
        let w = [rat(1, 2), rat(1, 2), rat(1, 2)];
        let slack = h.output_inequality_slack(&lat, &inputs, &w);
        assert_eq!(slack, rat(0, 1)); // 3 - 3 = 0 (tight for uniform).
    }
}
