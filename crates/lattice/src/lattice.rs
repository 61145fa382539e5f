//! The core finite-lattice structure: order, meet/join tables, irreducibles,
//! chains, covers.

use crate::VarSet;
use std::collections::HashMap;
use std::fmt;

/// Index of a lattice element.
pub type ElemId = usize;

/// Errors raised when constructing a lattice from raw data.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LatticeError {
    /// The input order is not antisymmetric / contains a cycle.
    NotAPartialOrder,
    /// Some pair of elements has no (unique) greatest lower bound.
    NoMeet(ElemId, ElemId),
    /// Some pair of elements has no (unique) least upper bound.
    NoJoin(ElemId, ElemId),
    /// The closed-set family is not intersection-closed.
    NotIntersectionClosed(VarSet, VarSet),
    /// Duplicate element in the input.
    Duplicate,
    /// Empty input.
    Empty,
}

impl fmt::Display for LatticeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LatticeError::NotAPartialOrder => write!(f, "input order is not a partial order"),
            LatticeError::NoMeet(a, b) => write!(f, "elements {a} and {b} have no unique meet"),
            LatticeError::NoJoin(a, b) => write!(f, "elements {a} and {b} have no unique join"),
            LatticeError::NotIntersectionClosed(a, b) => {
                write!(f, "family not closed under intersection: {a} ∩ {b} missing")
            }
            LatticeError::Duplicate => write!(f, "duplicate element"),
            LatticeError::Empty => write!(f, "empty lattice"),
        }
    }
}

impl std::error::Error for LatticeError {}

/// A finite lattice with dense `≤`, meet, and join tables.
///
/// Elements are identified by [`ElemId`] indices `0..n`. When constructed
/// from a family of closed variable sets, each element carries its
/// [`VarSet`] label; abstract lattices (built from Hasse diagrams) carry
/// string names instead.
#[derive(Clone)]
pub struct Lattice {
    n: usize,
    leq: Vec<bool>,
    meet_tbl: Vec<u32>,
    join_tbl: Vec<u32>,
    bottom: ElemId,
    top: ElemId,
    sets: Option<Vec<VarSet>>,
    set_index: Option<HashMap<VarSet, ElemId>>,
    names: Vec<String>,
}

impl Lattice {
    /// Build a lattice from a family of closed sets.
    ///
    /// The family must be closed under intersection and contain a maximum
    /// set; this is exactly the family of closed sets of an FD set
    /// (Definition 3.1). The partial order is `⊆`, meet is `∩`, join of
    /// `X, Y` is the least member containing `X ∪ Y`.
    pub fn from_closed_sets(mut sets: Vec<VarSet>) -> Result<Lattice, LatticeError> {
        if sets.is_empty() {
            return Err(LatticeError::Empty);
        }
        sets.sort_by_key(|s| (s.len(), s.0));
        sets.dedup();
        let n = sets.len();

        // Verify intersection closure.
        let index: HashMap<VarSet, ElemId> =
            sets.iter().enumerate().map(|(i, &s)| (s, i)).collect();
        if index.len() != n {
            return Err(LatticeError::Duplicate);
        }
        for i in 0..n {
            for j in (i + 1)..n {
                let inter = sets[i].intersect(sets[j]);
                if !index.contains_key(&inter) {
                    return Err(LatticeError::NotIntersectionClosed(sets[i], sets[j]));
                }
            }
        }
        // Top must be the union of all (it is the largest closed set).
        let all = sets.iter().fold(VarSet::EMPTY, |a, &s| a.union(s));
        if !index.contains_key(&all) {
            return Err(LatticeError::NoJoin(0, n - 1));
        }

        let mut leq = vec![false; n * n];
        for i in 0..n {
            for j in 0..n {
                leq[i * n + j] = sets[i].is_subset(sets[j]);
            }
        }
        let mut meet_tbl = vec![0u32; n * n];
        let mut join_tbl = vec![0u32; n * n];
        for i in 0..n {
            for j in 0..n {
                meet_tbl[i * n + j] = index[&sets[i].intersect(sets[j])] as u32;
                // Join: least closed superset of the union; `sets` is sorted
                // by size, so the first superset found is the least.
                let u = sets[i].union(sets[j]);
                let join = sets
                    .iter()
                    .position(|s| u.is_subset(*s))
                    .expect("top contains every union");
                join_tbl[i * n + j] = join as u32;
            }
        }

        let names = sets.iter().map(|s| s.to_string()).collect();
        let lat = Lattice {
            n,
            leq,
            meet_tbl,
            join_tbl,
            bottom: 0,
            top: index[&all],
            sets: Some(sets),
            set_index: Some(index),
            names,
        };
        debug_assert!(lat.verify_lattice_axioms());
        Ok(lat)
    }

    /// Build an abstract lattice from named elements and Hasse-diagram cover
    /// edges `(lower, upper)`.
    ///
    /// Verifies that the transitive closure is a partial order with a unique
    /// meet and join for every pair.
    pub fn from_covers(names: &[&str], covers: &[(&str, &str)]) -> Result<Lattice, LatticeError> {
        let n = names.len();
        if n == 0 {
            return Err(LatticeError::Empty);
        }
        let idx: HashMap<&str, usize> = names.iter().enumerate().map(|(i, &s)| (s, i)).collect();
        if idx.len() != n {
            return Err(LatticeError::Duplicate);
        }
        let mut leq = vec![false; n * n];
        for i in 0..n {
            leq[i * n + i] = true;
        }
        for (lo, hi) in covers {
            leq[idx[lo] * n + idx[hi]] = true;
        }
        // Warshall transitive closure.
        for k in 0..n {
            for i in 0..n {
                if leq[i * n + k] {
                    for j in 0..n {
                        if leq[k * n + j] {
                            leq[i * n + j] = true;
                        }
                    }
                }
            }
        }
        // Antisymmetry.
        for i in 0..n {
            for j in 0..n {
                if i != j && leq[i * n + j] && leq[j * n + i] {
                    return Err(LatticeError::NotAPartialOrder);
                }
            }
        }
        Self::from_leq_matrix(leq, names.iter().map(|s| s.to_string()).collect())
    }

    fn from_leq_matrix(leq: Vec<bool>, names: Vec<String>) -> Result<Lattice, LatticeError> {
        let n = names.len();
        let le = |i: usize, j: usize| leq[i * n + j];
        let mut meet_tbl = vec![0u32; n * n];
        let mut join_tbl = vec![0u32; n * n];
        for i in 0..n {
            for j in 0..n {
                // Meet: the greatest common lower bound, if unique.
                let lowers: Vec<usize> = (0..n).filter(|&k| le(k, i) && le(k, j)).collect();
                let m = lowers
                    .iter()
                    .copied()
                    .find(|&m| lowers.iter().all(|&k| le(k, m)));
                match m {
                    Some(m) => meet_tbl[i * n + j] = m as u32,
                    None => return Err(LatticeError::NoMeet(i, j)),
                }
                let uppers: Vec<usize> = (0..n).filter(|&k| le(i, k) && le(j, k)).collect();
                let jn = uppers
                    .iter()
                    .copied()
                    .find(|&m| uppers.iter().all(|&k| le(m, k)));
                match jn {
                    Some(jn) => join_tbl[i * n + j] = jn as u32,
                    None => return Err(LatticeError::NoJoin(i, j)),
                }
            }
        }
        let bottom = (0..n)
            .find(|&b| (0..n).all(|j| le(b, j)))
            .ok_or(LatticeError::NoMeet(0, 0))?;
        let top = (0..n)
            .find(|&t| (0..n).all(|j| le(j, t)))
            .ok_or(LatticeError::NoJoin(0, 0))?;
        Ok(Lattice {
            n,
            leq,
            meet_tbl,
            join_tbl,
            bottom,
            top,
            sets: None,
            set_index: None,
            names,
        })
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` iff the lattice is trivial (this never happens for valid input,
    /// provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Iterate over all element ids.
    pub fn elems(&self) -> impl Iterator<Item = ElemId> {
        0..self.n
    }

    /// The minimum element `0̂`.
    pub fn bottom(&self) -> ElemId {
        self.bottom
    }

    /// The maximum element `1̂`.
    pub fn top(&self) -> ElemId {
        self.top
    }

    /// Order test `a ≤ b`.
    pub fn leq(&self, a: ElemId, b: ElemId) -> bool {
        self.leq[a * self.n + b]
    }

    /// Strict order test `a < b`.
    pub fn lt(&self, a: ElemId, b: ElemId) -> bool {
        a != b && self.leq(a, b)
    }

    /// Incomparability test (`a ∥ b` in the paper's notation `X ­ž Y`).
    pub fn incomparable(&self, a: ElemId, b: ElemId) -> bool {
        !self.leq(a, b) && !self.leq(b, a)
    }

    /// Greatest lower bound.
    pub fn meet(&self, a: ElemId, b: ElemId) -> ElemId {
        self.meet_tbl[a * self.n + b] as ElemId
    }

    /// Least upper bound.
    pub fn join(&self, a: ElemId, b: ElemId) -> ElemId {
        self.join_tbl[a * self.n + b] as ElemId
    }

    /// Join of an arbitrary collection (join of `∅` is `0̂`).
    pub fn join_all<I: IntoIterator<Item = ElemId>>(&self, elems: I) -> ElemId {
        elems.into_iter().fold(self.bottom, |a, b| self.join(a, b))
    }

    /// The closed-set label of an element, if this lattice was built from
    /// closed sets.
    pub fn set_of(&self, e: ElemId) -> Option<VarSet> {
        self.sets.as_ref().map(|s| s[e])
    }

    /// Look up the element for a closed set.
    pub fn elem_of_set(&self, s: VarSet) -> Option<ElemId> {
        self.set_index.as_ref()?.get(&s).copied()
    }

    /// Smallest element whose set contains `s` (the closure of `s`), for
    /// closed-set lattices.
    pub fn closure_of(&self, s: VarSet) -> Option<ElemId> {
        let sets = self.sets.as_ref()?;
        // `sets` is sorted by cardinality, so the first superset is least.
        sets.iter().position(|t| s.is_subset(*t))
    }

    /// Human-readable element name.
    pub fn name(&self, e: ElemId) -> &str {
        &self.names[e]
    }

    /// Elements covering `a` (upper covers in the Hasse diagram).
    pub(crate) fn upper_covers(&self, a: ElemId) -> Vec<ElemId> {
        (0..self.n)
            .filter(|&b| self.lt(a, b) && !(0..self.n).any(|c| self.lt(a, c) && self.lt(c, b)))
            .collect()
    }

    /// Elements covered by `a` (lower covers).
    pub fn lower_covers(&self, a: ElemId) -> Vec<ElemId> {
        (0..self.n)
            .filter(|&b| self.lt(b, a) && !(0..self.n).any(|c| self.lt(b, c) && self.lt(c, a)))
            .collect()
    }

    /// Atoms: elements covering `0̂`.
    pub fn atoms(&self) -> Vec<ElemId> {
        self.upper_covers(self.bottom)
    }

    /// Co-atoms: elements covered by `1̂`.
    pub fn coatoms(&self) -> Vec<ElemId> {
        self.lower_covers(self.top)
    }

    /// Join-irreducible elements: `X ≠ 0̂` with a single lower cover.
    ///
    /// Equivalently (finite case): `Y ∨ Z = X` implies `Y = X` or `Z = X`.
    pub fn join_irreducibles(&self) -> Vec<ElemId> {
        (0..self.n)
            .filter(|&x| x != self.bottom && self.lower_covers(x).len() == 1)
            .collect()
    }

    /// Meet-irreducible elements: `X ≠ 1̂` with a single upper cover.
    pub fn meet_irreducibles(&self) -> Vec<ElemId> {
        (0..self.n)
            .filter(|&x| x != self.top && self.upper_covers(x).len() == 1)
            .collect()
    }

    /// Join-irreducibles `≤ x` (the set `Λx` of the paper).
    pub fn irreducibles_below(&self, x: ElemId) -> Vec<ElemId> {
        self.join_irreducibles()
            .into_iter()
            .filter(|&j| self.leq(j, x))
            .collect()
    }

    /// All maximal chains `0̂ = C₀ ≺ C₁ ≺ … ≺ C_k = 1̂`, enumerated by DFS
    /// over the Hasse diagram. Exponential in general; fine for the small
    /// lattices of query presentations.
    pub fn maximal_chains(&self) -> Vec<Vec<ElemId>> {
        let mut out = Vec::new();
        let mut stack = vec![self.bottom];
        self.chains_dfs(&mut stack, &mut out);
        out
    }

    fn chains_dfs(&self, stack: &mut Vec<ElemId>, out: &mut Vec<Vec<ElemId>>) {
        let last = *stack.last().unwrap();
        if last == self.top {
            out.push(stack.clone());
            return;
        }
        for up in self.upper_covers(last) {
            stack.push(up);
            self.chains_dfs(stack, out);
            stack.pop();
        }
    }

    /// Check all lattice axioms by brute force (used in debug assertions and
    /// property tests).
    pub fn verify_lattice_axioms(&self) -> bool {
        let n = self.n;
        for a in 0..n {
            // Idempotence and bounds.
            if self.meet(a, a) != a || self.join(a, a) != a {
                return false;
            }
            if !self.leq(self.bottom, a) || !self.leq(a, self.top) {
                return false;
            }
            for b in 0..n {
                let m = self.meet(a, b);
                let j = self.join(a, b);
                // Commutativity.
                if m != self.meet(b, a) || j != self.join(b, a) {
                    return false;
                }
                // Meet is a lower bound, join an upper bound.
                if !self.leq(m, a) || !self.leq(m, b) || !self.leq(a, j) || !self.leq(b, j) {
                    return false;
                }
                // Absorption.
                if self.meet(a, j) != a || self.join(a, m) != a {
                    return false;
                }
                // Consistency with the order.
                if self.leq(a, b) && (m != a || j != b) {
                    return false;
                }
                for c in 0..n {
                    // Greatest/least among bounds.
                    if self.leq(c, a) && self.leq(c, b) && !self.leq(c, m) {
                        return false;
                    }
                    if self.leq(a, c) && self.leq(b, c) && !self.leq(j, c) {
                        return false;
                    }
                }
            }
        }
        true
    }
}

impl fmt::Debug for Lattice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Lattice({} elements)", self.n)?;
        for e in 0..self.n {
            writeln!(
                f,
                "  [{e}] {} covers {:?}",
                self.names[e],
                self.lower_covers(e)
                    .iter()
                    .map(|&c| self.name(c))
                    .collect::<Vec<_>>()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build;

    #[test]
    fn boolean_algebra_structure() {
        let l = build::boolean(3);
        assert_eq!(l.len(), 8);
        assert_eq!(l.atoms().len(), 3);
        assert_eq!(l.coatoms().len(), 3);
        assert_eq!(l.join_irreducibles().len(), 3);
        assert_eq!(l.meet_irreducibles().len(), 3);
        assert!(l.verify_lattice_axioms());
        // Meet/join are intersection/union.
        let x = l.elem_of_set(VarSet::from_vars([0])).unwrap();
        let y = l.elem_of_set(VarSet::from_vars([1])).unwrap();
        let xy = l.elem_of_set(VarSet::from_vars([0, 1])).unwrap();
        assert_eq!(l.join(x, y), xy);
        assert_eq!(l.meet(x, y), l.bottom());
        assert!(l.incomparable(x, y));
    }

    #[test]
    fn boolean_maximal_chains() {
        let l = build::boolean(3);
        // 3! maximal chains in 2^3.
        assert_eq!(l.maximal_chains().len(), 6);
        for c in l.maximal_chains() {
            assert_eq!(c.len(), 4);
            assert_eq!(c[0], l.bottom());
            assert_eq!(*c.last().unwrap(), l.top());
        }
    }

    #[test]
    fn m3_structure() {
        let l = build::m3();
        assert_eq!(l.len(), 5);
        assert_eq!(l.atoms().len(), 3);
        assert_eq!(l.coatoms().len(), 3);
        assert!(l.verify_lattice_axioms());
        let ats = l.atoms();
        for i in 0..3 {
            for j in (i + 1)..3 {
                assert_eq!(l.meet(ats[i], ats[j]), l.bottom());
                assert_eq!(l.join(ats[i], ats[j]), l.top());
            }
        }
    }

    #[test]
    fn n5_structure() {
        let l = build::n5();
        assert_eq!(l.len(), 5);
        assert!(l.verify_lattice_axioms());
        assert_eq!(l.atoms().len(), 2);
    }

    #[test]
    fn chain_lattice() {
        let l = build::chain(4);
        assert_eq!(l.len(), 4);
        assert_eq!(l.maximal_chains().len(), 1);
        assert_eq!(l.atoms().len(), 1);
        for a in l.elems() {
            for b in l.elems() {
                assert!(!l.incomparable(a, b));
            }
        }
    }

    #[test]
    fn closed_sets_must_be_intersection_closed() {
        // {x}, {y}, {x,y} misses the empty intersection... actually
        // {x} ∩ {y} = ∅ which is absent.
        let sets = vec![
            VarSet::from_vars([0]),
            VarSet::from_vars([1]),
            VarSet::from_vars([0, 1]),
        ];
        assert!(matches!(
            Lattice::from_closed_sets(sets),
            Err(LatticeError::NotIntersectionClosed(_, _))
        ));
    }

    #[test]
    fn from_covers_rejects_cycles() {
        let err = Lattice::from_covers(&["a", "b"], &[("a", "b"), ("b", "a")]);
        assert_eq!(err.unwrap_err(), LatticeError::NotAPartialOrder);
    }

    #[test]
    fn from_covers_rejects_non_lattice() {
        // Two maximal elements: no join.
        let err = Lattice::from_covers(&["bot", "a", "b"], &[("bot", "a"), ("bot", "b")]);
        assert!(matches!(err.unwrap_err(), LatticeError::NoJoin(_, _)));
    }

    #[test]
    fn closure_of_finds_least_superset() {
        // Closed sets of FD {0 -> 1}: ∅, {1}, {0,1}, and {2}? keep simple:
        // family {∅, {1}, {0,1}}.
        let l = Lattice::from_closed_sets(vec![
            VarSet::EMPTY,
            VarSet::from_vars([1]),
            VarSet::from_vars([0, 1]),
        ])
        .unwrap();
        let c = l.closure_of(VarSet::from_vars([0])).unwrap();
        assert_eq!(l.set_of(c), Some(VarSet::from_vars([0, 1])));
        let c1 = l.closure_of(VarSet::from_vars([1])).unwrap();
        assert_eq!(l.set_of(c1), Some(VarSet::from_vars([1])));
    }

    #[test]
    fn irreducibles_below_boolean() {
        let l = build::boolean(3);
        let xy = l.elem_of_set(VarSet::from_vars([0, 1])).unwrap();
        let below = l.irreducibles_below(xy);
        assert_eq!(below.len(), 2);
    }
}
