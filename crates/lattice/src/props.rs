//! Structural properties: distributivity, modularity, M3/N5 sublattice
//! detection, and the Möbius function.

use crate::{ElemId, Lattice};
use std::collections::HashMap;

impl Lattice {
    /// Distributivity: `a ∧ (b ∨ c) = (a ∧ b) ∨ (a ∧ c)` for all triples.
    ///
    /// Distributive lattices are exactly those on which the chain bound is
    /// tight and which are normal (Corollaries 5.15, 5.23).
    pub fn is_distributive(&self) -> bool {
        for a in 0..self.len() {
            for b in 0..self.len() {
                for c in 0..self.len() {
                    let lhs = self.meet(a, self.join(b, c));
                    let rhs = self.join(self.meet(a, b), self.meet(a, c));
                    if lhs != rhs {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Modularity: `a ≤ c` implies `a ∨ (b ∧ c) = (a ∨ b) ∧ c`.
    pub fn is_modular(&self) -> bool {
        for a in 0..self.len() {
            for c in 0..self.len() {
                if !self.leq(a, c) {
                    continue;
                }
                for b in 0..self.len() {
                    if self.join(a, self.meet(b, c)) != self.meet(self.join(a, b), c) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Find an `M3` sublattice `{u, x, y, z, t}`: three pairwise-incomparable
    /// elements with equal pairwise meets `u` and equal pairwise joins `t`.
    ///
    /// Returns `(u, x, y, z, t)` if found. A lattice is modular and
    /// non-distributive iff it contains `M3`.
    pub fn find_m3(&self) -> Option<(ElemId, ElemId, ElemId, ElemId, ElemId)> {
        let n = self.len();
        for x in 0..n {
            for y in (x + 1)..n {
                if !self.incomparable(x, y) {
                    continue;
                }
                let u = self.meet(x, y);
                let t = self.join(x, y);
                for z in (y + 1)..n {
                    if self.incomparable(x, z)
                        && self.incomparable(y, z)
                        && self.meet(x, z) == u
                        && self.meet(y, z) == u
                        && self.join(x, z) == t
                        && self.join(y, z) == t
                    {
                        return Some((u, x, y, z, t));
                    }
                }
            }
        }
        None
    }

    /// Find an `M3` sublattice whose top is the lattice top `1̂`
    /// (the hypothesis of Proposition 4.10: such lattices are non-normal
    /// w.r.t. inputs `{X, Y, Z}`).
    pub fn find_m3_with_top(&self) -> Option<(ElemId, ElemId, ElemId, ElemId)> {
        self.find_m3_with_join(self.top())
    }

    /// Find an `M3` sublattice whose pairwise join equals the given element.
    pub(crate) fn find_m3_with_join(&self, t: ElemId) -> Option<(ElemId, ElemId, ElemId, ElemId)> {
        let n = self.len();
        for x in 0..n {
            for y in (x + 1)..n {
                if !self.incomparable(x, y) || self.join(x, y) != t {
                    continue;
                }
                let u = self.meet(x, y);
                for z in (y + 1)..n {
                    if self.incomparable(x, z)
                        && self.incomparable(y, z)
                        && self.meet(x, z) == u
                        && self.meet(y, z) == u
                        && self.join(x, z) == t
                        && self.join(y, z) == t
                    {
                        return Some((u, x, y, z));
                    }
                }
            }
        }
        None
    }

    /// Find an `N5` sublattice `{o, a, b, c, t}` with `a < c`,
    /// `a ∧ b = c ∧ b = o`, `a ∨ b = c ∨ b = t`.
    ///
    /// A lattice is non-modular iff it contains `N5`.
    pub fn find_n5(&self) -> Option<(ElemId, ElemId, ElemId, ElemId, ElemId)> {
        let n = self.len();
        for a in 0..n {
            for c in 0..n {
                if !self.lt(a, c) {
                    continue;
                }
                for b in 0..n {
                    if self.incomparable(a, b)
                        && self.incomparable(c, b)
                        && self.meet(a, b) == self.meet(c, b)
                        && self.join(a, b) == self.join(c, b)
                    {
                        return Some((self.meet(a, b), a, b, c, self.join(a, b)));
                    }
                }
            }
        }
        None
    }

    /// The Möbius function `μ(x, y)` of the lattice order (Eq. (10)).
    ///
    /// `μ(x, x) = 1`; for `x < y`, `μ(x, y) = -Σ_{x ≤ z < y} μ(x, z)`; zero
    /// when `x ≰ y`.
    pub fn mobius(&self, x: ElemId, y: ElemId) -> i64 {
        let mut memo = HashMap::new();
        self.mobius_memo(x, y, &mut memo)
    }

    fn mobius_memo(&self, x: ElemId, y: ElemId, memo: &mut HashMap<(ElemId, ElemId), i64>) -> i64 {
        if !self.leq(x, y) {
            return 0;
        }
        if x == y {
            return 1;
        }
        if let Some(&v) = memo.get(&(x, y)) {
            return v;
        }
        let mut sum = 0i64;
        for z in 0..self.len() {
            if self.leq(x, z) && self.lt(z, y) {
                sum += self.mobius_memo(x, z, memo);
            }
        }
        memo.insert((x, y), -sum);
        -sum
    }

    /// The full Möbius row `μ(x, ·)` for all `y ≥ x` (more efficient than
    /// repeated single queries).
    pub fn mobius_row(&self, x: ElemId) -> Vec<i64> {
        let mut memo = HashMap::new();
        (0..self.len())
            .map(|y| self.mobius_memo(x, y, &mut memo))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::build;

    #[test]
    fn boolean_is_distributive_and_modular() {
        for k in 1..=4 {
            let l = build::boolean(k);
            assert!(l.is_distributive(), "2^{k} distributive");
            assert!(l.is_modular());
            assert!(l.find_m3().is_none());
            assert!(l.find_n5().is_none());
        }
    }

    #[test]
    fn m3_is_modular_not_distributive() {
        let l = build::m3();
        assert!(!l.is_distributive());
        assert!(l.is_modular());
        assert!(l.find_m3().is_some());
        assert!(l.find_n5().is_none());
        // M3's own top is the shared join.
        assert!(l.find_m3_with_top().is_some());
    }

    #[test]
    fn n5_is_neither() {
        let l = build::n5();
        assert!(!l.is_distributive());
        assert!(!l.is_modular());
        assert!(l.find_n5().is_some());
        assert!(l.find_m3().is_none());
    }

    #[test]
    fn chain_is_distributive() {
        let l = build::chain(6);
        assert!(l.is_distributive());
        assert!(l.is_modular());
    }

    #[test]
    fn fig9_contains_no_m3_at_top() {
        // Fig 9 is normal (paper remark), so Prop 4.10's obstruction must be
        // absent at the top.
        let l = build::fig9();
        assert!(l.find_m3_with_top().is_none());
    }

    #[test]
    fn mobius_on_boolean_is_alternating() {
        // μ(X, Y) = (-1)^{|Y \ X|} on a powerset.
        let l = build::boolean(3);
        for x in l.elems() {
            for y in l.elems() {
                if l.leq(x, y) {
                    let diff = l.set_of(y).unwrap().minus(l.set_of(x).unwrap()).len();
                    let expect = if diff.is_multiple_of(2) { 1 } else { -1 };
                    assert_eq!(l.mobius(x, y), expect, "μ({x},{y})");
                } else {
                    assert_eq!(l.mobius(x, y), 0);
                }
            }
        }
    }

    #[test]
    fn mobius_row_sums_to_zero() {
        // Σ_{z ≥ x} μ(x, z) = 0 whenever x ≠ 1̂ ... more precisely
        // Σ_{x ≤ z ≤ y} μ(x,z) = δ(x,y); take y = 1̂.
        for l in [build::boolean(3), build::m3(), build::n5(), build::fig9()] {
            for x in l.elems() {
                let row = l.mobius_row(x);
                let total: i64 = l.elems().filter(|&z| l.leq(x, z)).map(|z| row[z]).sum();
                let expect = if x == l.top() { 1 } else { 0 };
                assert_eq!(total, expect);
            }
        }
    }

    #[test]
    fn m3_mobius_bottom_to_top() {
        // In M3: μ(0̂,1̂) = -1 + 3·... : μ(0,atom)=-1 each, so μ(0,1) = -(1-3) = 2.
        let l = build::m3();
        assert_eq!(l.mobius(l.bottom(), l.top()), 2);
    }
}
