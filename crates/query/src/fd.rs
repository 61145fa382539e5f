//! Functional dependencies, closures, and closed-set enumeration.

use fdjoin_lattice::VarSet;

/// A functional dependency `lhs → rhs` over variable sets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Fd {
    /// Determinant.
    pub lhs: VarSet,
    /// Dependent set.
    pub rhs: VarSet,
}

impl Fd {
    /// Construct `lhs → rhs`.
    pub fn new(lhs: VarSet, rhs: VarSet) -> Fd {
        Fd { lhs, rhs }
    }

    /// A *simple* FD has single-variable determinant and dependent
    /// (Sec. 2: `u → v`). Simple FDs generate distributive lattices
    /// (Proposition 3.2).
    pub fn is_simple(&self) -> bool {
        self.lhs.len() == 1 && self.rhs.len() == 1
    }
}

/// A set of functional dependencies with closure operations.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FdSet {
    fds: Vec<Fd>,
}

impl FdSet {
    /// Empty FD set.
    pub fn new() -> FdSet {
        FdSet::default()
    }

    /// Add an FD.
    pub fn push(&mut self, fd: Fd) {
        self.fds.push(fd);
    }

    /// The dependencies.
    pub fn fds(&self) -> &[Fd] {
        &self.fds
    }

    /// Number of FDs.
    pub fn len(&self) -> usize {
        self.fds.len()
    }

    /// Whether there are no FDs.
    pub fn is_empty(&self) -> bool {
        self.fds.is_empty()
    }

    /// The closure `X⁺`: smallest superset of `x` closed under all FDs
    /// (standard fixpoint; Sec. 2 "Closure").
    pub fn closure(&self, x: VarSet) -> VarSet {
        let mut cur = x;
        loop {
            let mut next = cur;
            for fd in &self.fds {
                if fd.lhs.is_subset(cur) {
                    next = next.union(fd.rhs);
                }
            }
            if next == cur {
                return cur;
            }
            cur = next;
        }
    }

    /// Whether `x` is closed.
    pub(crate) fn is_closed(&self, x: VarSet) -> bool {
        self.closure(x) == x
    }

    /// Enumerate all closed subsets of `universe` (the elements of the FD
    /// lattice, Definition 3.1). Exponential in `|universe|`; queries here
    /// have at most a dozen variables.
    pub(crate) fn closed_sets(&self, universe: VarSet) -> Vec<VarSet> {
        assert!(
            universe.len() <= 22,
            "closed-set enumeration limited to 22 variables"
        );
        let mut out: Vec<VarSet> = universe
            .subsets()
            .filter(|&s| self.closure(s).is_subset(universe) && self.is_closed(s))
            .collect();
        out.sort_by_key(|s| (s.len(), s.0));
        out
    }

    /// Logical implication test: does this FD set imply `lhs → rhs`?
    pub fn implies(&self, fd: Fd) -> bool {
        fd.rhs.is_subset(self.closure(fd.lhs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vs(vars: &[u32]) -> VarSet {
        VarSet::from_vars(vars.iter().copied())
    }

    fn fd_set(fds: Vec<Fd>) -> FdSet {
        FdSet { fds }
    }

    #[test]
    fn closure_fixpoint() {
        // x -> y, y -> z.
        let fds = fd_set(vec![
            Fd::new(vs(&[0]), vs(&[1])),
            Fd::new(vs(&[1]), vs(&[2])),
        ]);
        assert_eq!(fds.closure(vs(&[0])), vs(&[0, 1, 2]));
        assert_eq!(fds.closure(vs(&[1])), vs(&[1, 2]));
        assert_eq!(fds.closure(vs(&[2])), vs(&[2]));
        assert!(fds.is_closed(vs(&[2])));
        assert!(!fds.is_closed(vs(&[0])));
    }

    #[test]
    fn closed_sets_of_fig1_fds() {
        // Variables x=0, y=1, z=2, u=3; FDs xz -> u, yu -> x.
        let fds = fd_set(vec![
            Fd::new(vs(&[0, 2]), vs(&[3])),
            Fd::new(vs(&[1, 3]), vs(&[0])),
        ]);
        let closed = fds.closed_sets(vs(&[0, 1, 2, 3]));
        // Paper Fig. 1: 12 closed sets.
        assert_eq!(closed.len(), 12);
        assert!(closed.contains(&vs(&[])));
        assert!(closed.contains(&vs(&[0, 1]))); // xy
        assert!(closed.contains(&vs(&[0, 3]))); // xu
        assert!(closed.contains(&vs(&[2, 3]))); // zu
        assert!(closed.contains(&vs(&[1, 2]))); // yz
        assert!(closed.contains(&vs(&[0, 1, 3]))); // xyu
        assert!(closed.contains(&vs(&[0, 2, 3]))); // xzu
        assert!(!closed.contains(&vs(&[0, 2]))); // xz not closed
        assert!(!closed.contains(&vs(&[1, 3]))); // yu not closed
    }

    #[test]
    fn implication() {
        let fds = fd_set(vec![
            Fd::new(vs(&[0]), vs(&[1])),
            Fd::new(vs(&[1]), vs(&[2])),
        ]);
        assert!(fds.implies(Fd::new(vs(&[0]), vs(&[2]))));
        assert!(fds.implies(Fd::new(vs(&[0]), vs(&[1, 2]))));
        assert!(!fds.implies(Fd::new(vs(&[2]), vs(&[0]))));
    }

    #[test]
    fn simple_classification() {
        assert!(Fd::new(vs(&[0]), vs(&[1])).is_simple());
        assert!(!Fd::new(vs(&[0, 1]), vs(&[2])).is_simple());
        assert!(!Fd::new(vs(&[0]), vs(&[1, 2])).is_simple());
    }

    #[test]
    fn empty_fdset_closed_sets_is_powerset() {
        let fds = FdSet::new();
        assert_eq!(fds.closed_sets(vs(&[0, 1, 2])).len(), 8);
    }
}
