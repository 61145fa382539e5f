//! Sets of variables as 64-bit bitsets.

use std::fmt;

/// A set of variables, represented as a bitset over variable indices `0..64`.
///
/// Queries in this project have at most a handful of variables; 64 is far
/// beyond anything the paper (or a realistic conjunctive query) needs, and
/// the representation makes closures, meets (`&`) and unions (`|`) single
/// word operations.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct VarSet(pub u64);

impl VarSet {
    /// The empty set.
    pub const EMPTY: VarSet = VarSet(0);

    /// The singleton `{v}`.
    pub fn singleton(v: u32) -> VarSet {
        debug_assert!(v < 64);
        VarSet(1u64 << v)
    }

    /// The set `{0, 1, …, k-1}`.
    pub fn full(k: u32) -> VarSet {
        debug_assert!(k <= 64);
        if k == 64 {
            VarSet(u64::MAX)
        } else {
            VarSet((1u64 << k) - 1)
        }
    }

    /// Build from an iterator of variable indices.
    pub fn from_vars<I: IntoIterator<Item = u32>>(vars: I) -> VarSet {
        let mut s = VarSet::EMPTY;
        for v in vars {
            s = s.insert(v);
        }
        s
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of variables in the set.
    pub fn len(self) -> u32 {
        self.0.count_ones()
    }

    /// Membership test.
    pub fn contains(self, v: u32) -> bool {
        self.0 & (1u64 << v) != 0
    }

    /// `self ∪ {v}`.
    #[must_use]
    pub fn insert(self, v: u32) -> VarSet {
        VarSet(self.0 | (1u64 << v))
    }

    /// `self \ {v}`.
    #[must_use]
    pub fn remove(self, v: u32) -> VarSet {
        VarSet(self.0 & !(1u64 << v))
    }

    /// Set union.
    #[must_use]
    pub fn union(self, other: VarSet) -> VarSet {
        VarSet(self.0 | other.0)
    }

    /// Set intersection.
    #[must_use]
    pub fn intersect(self, other: VarSet) -> VarSet {
        VarSet(self.0 & other.0)
    }

    /// Set difference `self \ other`.
    #[must_use]
    pub fn minus(self, other: VarSet) -> VarSet {
        VarSet(self.0 & !other.0)
    }

    /// Subset test `self ⊆ other`.
    pub fn is_subset(self, other: VarSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// Iterate over member variable indices in increasing order.
    pub fn iter(self) -> impl Iterator<Item = u32> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let v = bits.trailing_zeros();
                bits &= bits - 1;
                Some(v)
            }
        })
    }

    /// All subsets of `self` (including `∅` and `self`). `O(2^len)`.
    pub fn subsets(self) -> impl Iterator<Item = VarSet> {
        // Standard subset-enumeration trick over a masked integer.
        let mask = self.0;
        let mut sub: u64 = 0;
        let mut done = false;
        std::iter::from_fn(move || {
            if done {
                return None;
            }
            let cur = VarSet(sub);
            if sub == mask {
                done = true;
            } else {
                sub = (sub.wrapping_sub(mask)) & mask;
            }
            Some(cur)
        })
    }
}

impl fmt::Debug for VarSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for VarSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<u32> for VarSet {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        VarSet::from_vars(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_ops() {
        let a = VarSet::from_vars([0, 2, 5]);
        let b = VarSet::from_vars([2, 3]);
        assert_eq!(a.len(), 3);
        assert!(a.contains(2) && !a.contains(1));
        assert_eq!(a.union(b), VarSet::from_vars([0, 2, 3, 5]));
        assert_eq!(a.intersect(b), VarSet::singleton(2));
        assert_eq!(a.minus(b), VarSet::from_vars([0, 5]));
        assert!(VarSet::singleton(2).is_subset(a));
        assert!(!a.is_subset(b));
        assert!(VarSet::EMPTY.is_subset(a));
    }

    #[test]
    fn iteration_order() {
        let a = VarSet::from_vars([5, 0, 2]);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![0, 2, 5]);
    }

    #[test]
    fn full_sets() {
        assert_eq!(VarSet::full(3), VarSet::from_vars([0, 1, 2]));
        assert_eq!(VarSet::full(0), VarSet::EMPTY);
        assert_eq!(VarSet::full(64).len(), 64);
    }

    #[test]
    fn subsets_enumeration() {
        let a = VarSet::from_vars([1, 3]);
        let subs: Vec<VarSet> = a.subsets().collect();
        assert_eq!(subs.len(), 4);
        assert!(subs.contains(&VarSet::EMPTY));
        assert!(subs.contains(&VarSet::singleton(1)));
        assert!(subs.contains(&VarSet::singleton(3)));
        assert!(subs.contains(&a));
        // Empty set has exactly one subset.
        assert_eq!(VarSet::EMPTY.subsets().count(), 1);
    }

    #[test]
    fn display_format() {
        assert_eq!(VarSet::from_vars([0, 2]).to_string(), "{0,2}");
        assert_eq!(VarSet::EMPTY.to_string(), "{}");
    }
}
