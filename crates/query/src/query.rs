//! Conjunctive queries with functional dependencies and their lattice
//! presentations (Definition 3.1).

use crate::{Fd, FdSet, Hypergraph};
use fdjoin_lattice::{ElemId, Lattice, VarSet};

/// One relational atom `R_j(X_j)` of a query body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Atom {
    /// Relation symbol.
    pub name: String,
    /// Attribute variables, in schema order.
    pub vars: Vec<u32>,
}

impl Atom {
    /// The attribute set `X_j`.
    pub fn var_set(&self) -> VarSet {
        VarSet::from_vars(self.vars.iter().copied())
    }
}

/// A full conjunctive query without self-joins (Eq. 3), paired with a set of
/// functional dependencies.
#[derive(Clone, Debug)]
pub struct Query {
    var_names: Vec<String>,
    atoms: Vec<Atom>,
    /// The functional dependencies (guarded or unguarded).
    pub fds: FdSet,
}

/// The lattice presentation `(L, R)` of a query (Definition 3.1): the
/// closed-set lattice plus the lattice element of each input's closure.
#[derive(Clone, Debug)]
pub struct LatticePresentation {
    /// The lattice of closed sets.
    pub lattice: Lattice,
    /// `inputs[j]` is the lattice element `R_j⁺` for atom `j`.
    pub inputs: Vec<ElemId>,
}

impl Query {
    /// Start building a query.
    pub fn builder() -> QueryBuilder {
        QueryBuilder::default()
    }

    /// Number of variables.
    pub fn n_vars(&self) -> usize {
        self.var_names.len()
    }

    /// Variable name.
    pub fn var_name(&self, v: u32) -> &str {
        &self.var_names[v as usize]
    }

    /// Variable id by name.
    pub fn var_id(&self, name: &str) -> Option<u32> {
        self.var_names
            .iter()
            .position(|n| n == name)
            .map(|i| i as u32)
    }

    /// The query body atoms.
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// Atom index by relation name.
    pub fn atom_index(&self, name: &str) -> Option<usize> {
        self.atoms.iter().position(|a| a.name == name)
    }

    /// The set of all variables.
    pub fn universe(&self) -> VarSet {
        VarSet::full(self.n_vars() as u32)
    }

    /// Closure `X⁺` under the query's FDs.
    pub fn closure(&self, x: VarSet) -> VarSet {
        self.fds.closure(x)
    }

    /// Whether an FD is *guarded* by some atom (its variables fall inside
    /// that atom's attribute set); returns the guarding atom index.
    pub fn guard_of(&self, fd: &Fd) -> Option<usize> {
        self.atoms
            .iter()
            .position(|a| fd.lhs.union(fd.rhs).is_subset(a.var_set()))
    }

    /// The query hypergraph `H_Q` (vertices = variables, edges = atoms).
    pub fn hypergraph(&self) -> Hypergraph {
        let mut h = Hypergraph::new(self.n_vars());
        h.vertices = self.var_names.clone();
        for a in &self.atoms {
            h.add_edge(a.name.clone(), a.vars.iter().map(|&v| v as usize).collect());
        }
        h
    }

    /// The lattice presentation `(L, R)` (Definition 3.1).
    ///
    /// `L` is the lattice of closed sets; `inputs[j]` is the element of
    /// `R_j⁺`. Per the paper we take the closures of the atoms as the
    /// inputs (w.l.o.g. all inputs are closed after expansion).
    pub fn lattice_presentation(&self) -> LatticePresentation {
        let closed = self.fds.closed_sets(self.universe());
        let lattice = Lattice::from_closed_sets(closed).expect("closed sets form a lattice");
        let inputs = self
            .atoms
            .iter()
            .map(|a| {
                lattice
                    .elem_of_set(self.closure(a.var_set()))
                    .expect("closure of an atom is a closed set")
            })
            .collect();
        LatticePresentation { lattice, inputs }
    }

    /// The closure query `Q⁺` (Sec. 2 "Closure"): each atom's attribute set
    /// replaced by its closure, all FDs forgotten. `AGM(Q⁺)` upper-bounds
    /// the output and is tight for simple keys.
    pub fn closure_query(&self) -> Query {
        let atoms = self
            .atoms
            .iter()
            .map(|a| {
                let closed = self.closure(a.var_set());
                Atom {
                    name: a.name.clone(),
                    vars: closed.iter().collect(),
                }
            })
            .collect();
        Query {
            var_names: self.var_names.clone(),
            atoms,
            fds: FdSet::new(),
        }
    }

    /// Pretty-print the query body.
    pub fn display_body(&self) -> String {
        let mut parts: Vec<String> = self
            .atoms
            .iter()
            .map(|a| {
                let vars: Vec<&str> = a.vars.iter().map(|&v| self.var_name(v)).collect();
                format!("{}({})", a.name, vars.join(","))
            })
            .collect();
        for fd in self.fds.fds() {
            let lhs: Vec<&str> = fd.lhs.iter().map(|v| self.var_name(v)).collect();
            let rhs: Vec<&str> = fd.rhs.iter().map(|v| self.var_name(v)).collect();
            parts.push(format!("{}→{}", lhs.join(""), rhs.join("")));
        }
        parts.join(", ")
    }
}

/// Incremental query construction.
#[derive(Default)]
pub struct QueryBuilder {
    var_names: Vec<String>,
    atoms: Vec<Atom>,
    fds: FdSet,
}

impl QueryBuilder {
    /// Get-or-create a variable by name; returns its id.
    pub fn var(&mut self, name: &str) -> u32 {
        if let Some(i) = self.var_names.iter().position(|n| n == name) {
            return i as u32;
        }
        assert!(self.var_names.len() < 64, "at most 64 variables supported");
        self.var_names.push(name.to_string());
        (self.var_names.len() - 1) as u32
    }

    /// Add an atom `name(vars…)`.
    pub fn atom(&mut self, name: &str, vars: &[u32]) -> &mut Self {
        self.atoms.push(Atom {
            name: name.to_string(),
            vars: vars.to_vec(),
        });
        self
    }

    /// Add an FD `lhs → rhs`.
    pub fn fd(&mut self, lhs: &[u32], rhs: &[u32]) -> &mut Self {
        self.fds.push(Fd::new(
            VarSet::from_vars(lhs.iter().copied()),
            VarSet::from_vars(rhs.iter().copied()),
        ));
        self
    }

    /// Finish, validating that every variable occurs in some atom or is
    /// determined by FDs from atom variables.
    pub fn build(self) -> Query {
        let q = Query {
            var_names: self.var_names,
            atoms: self.atoms,
            fds: self.fds,
        };
        let mut covered = VarSet::EMPTY;
        for a in &q.atoms {
            covered = covered.union(a.var_set());
        }
        let reachable = q.fds.closure(covered);
        assert_eq!(
            reachable,
            q.universe(),
            "every variable must appear in an atom or be FD-derivable from atom variables"
        );
        q
    }
}

/// Build a query from an abstract lattice presentation (Sec. 3.1's 1-1
/// correspondence): variables are the join-irreducibles of `L`; each input
/// `R ∈ R` becomes an atom over `ΛR`; the FD set forces the closed sets to
/// be exactly `{ΛU | U ∈ L}`.
///
/// Returns the query plus the mapping from lattice join-irreducibles to
/// variable ids.
pub(crate) fn query_from_lattice(lat: &Lattice, inputs: &[ElemId]) -> (Query, Vec<(ElemId, u32)>) {
    let irr = lat.join_irreducibles();
    assert!(irr.len() <= 64, "too many join-irreducibles");
    let mut b = Query::builder();
    let var_of: Vec<(ElemId, u32)> = irr.iter().map(|&j| (j, b.var(lat.name(j)))).collect();
    let vs_of = |e: ElemId| -> Vec<u32> {
        var_of
            .iter()
            .filter(|(j, _)| lat.leq(*j, e))
            .map(|(_, v)| *v)
            .collect()
    };
    for (k, &r) in inputs.iter().enumerate() {
        b.atom(&format!("T{k}_{}", lat.name(r)), &vs_of(r));
    }
    // FD rule 1: a join-irreducible determines everything below it.
    for &(j, _) in &var_of {
        let below = vs_of(j);
        let lhs = [var_of.iter().find(|(e, _)| *e == j).unwrap().1];
        b.fd(&lhs, &below);
    }
    // FD rule 2: Λ(A) ∪ Λ(B) → Λ(A ∨ B) for every pair of elements.
    for a in lat.elems() {
        for bb in lat.elems() {
            if a < bb {
                let join = lat.join(a, bb);
                let lhs: Vec<u32> = {
                    let mut l = vs_of(a);
                    l.extend(vs_of(bb));
                    l.sort_unstable();
                    l.dedup();
                    l
                };
                let rhs = vs_of(join);
                if !rhs.iter().all(|v| lhs.contains(v)) {
                    b.fd(&lhs, &rhs);
                }
            }
        }
    }
    (b.build(), var_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdjoin_lattice::build;

    fn fig1() -> Query {
        let mut b = Query::builder();
        let (x, y, z, u) = (b.var("x"), b.var("y"), b.var("z"), b.var("u"));
        b.atom("R", &[x, y]).atom("S", &[y, z]).atom("T", &[z, u]);
        b.fd(&[x, z], &[u]).fd(&[y, u], &[x]);
        b.build()
    }

    #[test]
    fn fig1_lattice_has_12_elements() {
        let q = fig1();
        let pres = q.lattice_presentation();
        assert_eq!(pres.lattice.len(), 12);
        assert_eq!(pres.inputs.len(), 3);
        // Inputs are xy, yz, zu — all already closed.
        for (j, atom) in q.atoms().iter().enumerate() {
            assert_eq!(
                pres.lattice.set_of(pres.inputs[j]),
                Some(atom.var_set()),
                "atom {} should be closed",
                atom.name
            );
        }
        // Join-irreducibles are exactly the 4 variables' closures (Sec 3.1).
        assert_eq!(pres.lattice.join_irreducibles().len(), 4);
    }

    #[test]
    fn closure_query_expands_atoms() {
        // Q :- R(x,y), S(y,z), T(z,u), K(u,x) with y -> z.
        let mut b = Query::builder();
        let (x, y, z, u) = (b.var("x"), b.var("y"), b.var("z"), b.var("u"));
        b.atom("R", &[x, y])
            .atom("S", &[y, z])
            .atom("T", &[z, u])
            .atom("K", &[u, x]);
        b.fd(&[y], &[z]);
        let q = b.build();
        let qp = q.closure_query();
        assert!(qp.fds.is_empty());
        // R(x,y) expands to R(x,y,z).
        assert_eq!(qp.atoms()[0].var_set(), VarSet::from_vars([0, 1, 2]));
        assert_eq!(qp.atoms()[1].var_set(), VarSet::from_vars([1, 2]));
    }

    #[test]
    fn guard_detection() {
        let mut b = Query::builder();
        let (x, y, z) = (b.var("x"), b.var("y"), b.var("z"));
        b.atom("T", &[x, y, z]).atom("R", &[x]);
        b.fd(&[x, y], &[z]);
        let q = b.build();
        let fd = q.fds.fds()[0];
        assert_eq!(q.guard_of(&fd), Some(0)); // guarded by T.

        let mut b2 = Query::builder();
        let (x, y, z) = (b2.var("x"), b2.var("y"), b2.var("z"));
        b2.atom("R", &[x]).atom("S", &[y]);
        b2.fd(&[x, y], &[z]);
        let q2 = b2.build();
        let fd2 = q2.fds.fds()[0];
        assert_eq!(q2.guard_of(&fd2), None); // unguarded (UDF).
    }

    #[test]
    fn builder_rejects_unreachable_variable() {
        let result = std::panic::catch_unwind(|| {
            let mut b = Query::builder();
            let x = b.var("x");
            let _orphan = b.var("orphan");
            b.atom("R", &[x]);
            b.build()
        });
        assert!(result.is_err());
    }

    #[test]
    fn udf_variable_is_reachable_through_fd() {
        // z appears in no atom but xy -> z makes it derivable (Fig. 5 query).
        let mut b = Query::builder();
        let (x, y) = (b.var("x"), b.var("y"));
        let z = b.var("z");
        b.atom("R", &[x]).atom("S", &[y]);
        b.fd(&[x, y], &[z]);
        let q = b.build();
        assert_eq!(q.n_vars(), 3);
        let pres = q.lattice_presentation();
        // Fig 5 lattice: 0̂, x, z, y, xz, yz, xyz — 7 elements.
        assert_eq!(pres.lattice.len(), 7);
    }

    #[test]
    fn m3_query_roundtrip_through_lattice() {
        // Build the M3 query from the M3 lattice; its lattice presentation
        // must be isomorphic to M3 (5 closed sets).
        let m3 = build::m3();
        let atoms_of_m3 = m3.atoms();
        let (q, _) = query_from_lattice(&m3, &atoms_of_m3);
        assert_eq!(q.n_vars(), 3);
        let pres = q.lattice_presentation();
        assert_eq!(pres.lattice.len(), 5);
        assert!(!pres.lattice.is_distributive());
        assert!(pres.lattice.find_m3().is_some());
    }

    #[test]
    fn fig9_query_roundtrip_through_lattice() {
        let l9 = build::fig9();
        let e = |s: &str| l9.elems().find(|&x| l9.name(x) == s).unwrap();
        let inputs = vec![e("M"), e("N"), e("O")];
        let (q, _) = query_from_lattice(&l9, &inputs);
        let pres = q.lattice_presentation();
        // The closed-set lattice must be isomorphic to Fig 9: 18 elements.
        assert_eq!(pres.lattice.len(), 18);
        // And non-distributive but with no M3 at top.
        assert!(!pres.lattice.is_distributive());
        assert!(pres.lattice.find_m3_with_top().is_none());
    }

    #[test]
    fn display_body_format() {
        let q = fig1();
        let s = q.display_body();
        assert!(s.contains("R(x,y)"));
        assert!(s.contains("xz→u"));
    }
}
