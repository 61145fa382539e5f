//! User-defined functions backing unguarded functional dependencies.
//!
//! The paper (Sec. 1.1) models a UDF `u = f(x, z)` as an infinite relation
//! `F(x, z, u)` with FD `xz → u`, accessible only by binding the inputs.
//! From Sec. 5.1 on, the algorithms "have access to the UDFs that defined
//! the unguarded FDs"; the registry below is that access path.

use crate::Value;
use fdjoin_lattice::VarSet;
use std::sync::Arc;

/// A user-defined function: receives the argument values ordered by
/// ascending variable id and returns the output value.
pub type UdfFn = Arc<dyn Fn(&[Value]) -> Value + Send + Sync>;

/// Registry of UDFs keyed by `(argument variables, output variable)`.
#[derive(Clone, Default)]
pub struct UdfRegistry {
    /// Sorted by `(out, args)`: the functions computing one output are one
    /// contiguous run, and every lookup order is a function of the
    /// registered keys alone — never of a hash seed.
    entries: Vec<((u32, VarSet), UdfFn)>,
    version: u64,
}

impl UdfRegistry {
    /// Empty registry.
    pub fn new() -> UdfRegistry {
        UdfRegistry::default()
    }

    /// Register `out = f(args)`. `args` values are passed to `f` ordered by
    /// ascending variable id.
    pub fn register<F>(&mut self, args: VarSet, out: u32, f: F)
    where
        F: Fn(&[Value]) -> Value + Send + Sync + 'static,
    {
        let f: UdfFn = Arc::new(f);
        match self.position(args, out) {
            Ok(i) => self.entries[i].1 = f,
            Err(i) => self.entries.insert(i, ((out, args), f)),
        }
        self.version = crate::relation::next_version();
    }

    /// Registry version: a globally unique stamp refreshed on every
    /// [`UdfRegistry::register`], with the same clone-shares-until-mutated
    /// semantics as [`crate::Relation::version`]. Derivations whose output
    /// depends on UDFs (FD expansion) carry it in their cache keys.
    pub fn version(&self) -> u64 {
        self.version
    }

    fn position(&self, args: VarSet, out: u32) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&(out, args), |(k, _)| *k)
    }

    /// Look up a UDF.
    pub fn get(&self, args: VarSet, out: u32) -> Option<&UdfFn> {
        self.position(args, out).ok().map(|i| &self.entries[i].1)
    }

    /// Find the registered UDF for `out` whose arguments are a subset of
    /// `available`; returns the argument set and function. When several
    /// apply, the one with the least argument set (in [`VarSet`] order)
    /// wins — the same one in every registry holding the same keys.
    pub fn find_applicable(&self, available: VarSet, out: u32) -> Option<(VarSet, &UdfFn)> {
        let first = self.entries.partition_point(|((o, _), _)| *o < out);
        self.entries[first..]
            .iter()
            .take_while(|((o, _), _)| *o == out)
            .find(|((_, args), _)| args.is_subset(available))
            .map(|((_, args), f)| (*args, f))
    }

    /// Number of registered functions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl std::fmt::Debug for UdfRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "UdfRegistry({} fns)", self.entries.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_eval() {
        let mut reg = UdfRegistry::new();
        let args = VarSet::from_vars([0, 2]);
        reg.register(args, 3, |v| v[0] + v[1]);
        assert_eq!(reg.get(args, 3).unwrap()(&[1, 10]), 11);
        assert!(reg.get(args, 4).is_none());
    }

    #[test]
    fn arg_order_is_by_variable_id() {
        let mut reg = UdfRegistry::new();
        let args = VarSet::from_vars([5, 1]);
        reg.register(args, 7, |v| v[0] * 100 + v[1]);
        // Callers gather arguments by iterating the returned argument
        // set: var 1 comes first, whatever order it was written in.
        let (found, f) = reg.find_applicable(VarSet::full(6), 7).unwrap();
        assert_eq!(found.iter().collect::<Vec<_>>(), [1, 5]);
        assert_eq!(f(&[3, 2]), 302);
    }

    #[test]
    fn find_applicable_respects_subset() {
        let mut reg = UdfRegistry::new();
        let args = VarSet::from_vars([0, 1]);
        reg.register(args, 2, |v| v[0] ^ v[1]);
        assert!(reg
            .find_applicable(VarSet::from_vars([0, 1, 3]), 2)
            .is_some());
        assert!(reg.find_applicable(VarSet::from_vars([0, 3]), 2).is_none());
        assert!(reg.find_applicable(VarSet::from_vars([0, 1]), 5).is_none());
    }

    #[test]
    fn find_applicable_is_a_function_of_the_keys() {
        // Two functions compute var 4 and both apply; whichever order they
        // were registered in, the least argument set ({0} < {1,2} as
        // bitmasks) is the one chosen.
        let (small, large) = (VarSet::from_vars([0]), VarSet::from_vars([1, 2]));
        for flip in [false, true] {
            let mut reg = UdfRegistry::new();
            let mut keys = [(small, 10), (large, 20)];
            if flip {
                keys.reverse();
            }
            for (args, tag) in keys {
                reg.register(args, 4, move |_| tag);
                reg.register(args, 5, move |_| tag + 1);
            }
            let (args, f) = reg.find_applicable(VarSet::full(4), 4).unwrap();
            assert_eq!((args, f(&[])), (small, 10));
            assert_eq!(reg.len(), 4);
            // Re-registering a key replaces its function in place.
            reg.register(small, 4, |_| 99);
            assert_eq!(reg.len(), 4);
            assert_eq!(reg.get(small, 4).unwrap()(&[7]), 99);
        }
    }
}
