//! Hypergraphs and their fractional edge cover / vertex packing LPs (Sec. 2).

use fdjoin_bigint::Rational;
use fdjoin_lp::{solve, Cmp, Lp, LpError, Sense};

/// A hypergraph with named vertices and edges, used for query hypergraphs,
/// co-atomic hypergraphs (Definition 4.7), and chain hypergraphs
/// (Definition 5.1).
#[derive(Clone, Debug)]
pub struct Hypergraph {
    /// Vertex names (indices are vertex ids).
    pub vertices: Vec<String>,
    /// Each edge is a sorted list of vertex ids.
    pub edges: Vec<Vec<usize>>,
    /// Edge names, parallel to `edges`.
    pub edge_names: Vec<String>,
}

/// Result of the weighted fractional edge cover LP.
#[derive(Clone, Debug)]
pub struct EdgeCover {
    /// Optimal objective `Σ w_j n_j` (`ρ*` when all `n_j = 1`).
    pub value: Rational,
    /// Optimal weights, one per edge.
    pub weights: Vec<Rational>,
    /// Dual optimal: a fractional vertex packing of the same value.
    pub packing: Vec<Rational>,
}

impl Hypergraph {
    /// Build with `n` anonymous vertices.
    pub fn new(n: usize) -> Hypergraph {
        Hypergraph {
            vertices: (0..n).map(|i| format!("v{i}")).collect(),
            edges: Vec::new(),
            edge_names: Vec::new(),
        }
    }

    /// Add an edge; returns its index.
    pub fn add_edge(&mut self, name: impl Into<String>, mut verts: Vec<usize>) -> usize {
        verts.sort_unstable();
        verts.dedup();
        self.edges.push(verts);
        self.edge_names.push(name.into());
        self.edges.len() - 1
    }

    /// Vertices not contained in any edge. The fractional cover is infinite
    /// iff one exists (footnote 7 of the paper for chain hypergraphs).
    pub fn isolated_vertices(&self) -> Vec<usize> {
        (0..self.vertices.len())
            .filter(|v| !self.edges.iter().any(|e| e.contains(v)))
            .collect()
    }

    /// Solve the *weighted fractional edge cover* LP:
    /// `min Σ_j w_j n_j` s.t. every vertex is covered with total weight ≥ 1.
    ///
    /// The duals are the optimal *weighted fractional vertex packing*
    /// (Theorem 2.1's pair of LPs). Returns `None` if some vertex is
    /// isolated (cover infeasible).
    pub fn fractional_edge_cover(&self, log_sizes: &[Rational]) -> Option<EdgeCover> {
        assert_eq!(log_sizes.len(), self.edges.len());
        if !self.isolated_vertices().is_empty() {
            return None;
        }
        let mut lp = Lp::new(Sense::Min, self.edges.len());
        for (j, n) in log_sizes.iter().enumerate() {
            lp.set_objective(j, n.clone());
        }
        for v in 0..self.vertices.len() {
            let coeffs: Vec<(usize, Rational)> = self
                .edges
                .iter()
                .enumerate()
                .filter(|(_, e)| e.contains(&v))
                .map(|(j, _)| (j, Rational::one()))
                .collect();
            lp.add_constraint(coeffs, Cmp::Ge, Rational::one());
        }
        match solve(&lp) {
            Ok(sol) => Some(EdgeCover {
                value: sol.value,
                weights: sol.primal,
                packing: sol.dual,
            }),
            Err(LpError::Infeasible) | Err(LpError::Unbounded) => None,
        }
    }

    /// Whether the hypergraph is **α-acyclic**, by GYO reduction: repeat
    /// (a) delete vertices occurring in exactly one edge and (b) delete
    /// edges contained in another edge, until neither applies; the
    /// hypergraph is acyclic iff every edge has been emptied.
    ///
    /// For *full* conjunctive queries (every variable free — the only kind
    /// this repo evaluates) α-acyclicity of the query hypergraph is exactly
    /// the free-connex condition of constant-delay enumeration dichotomies
    /// (Bagan–Durand–Grandjean; Carmeli–Kröll for the FD-extended form
    /// decided by [`crate::Query::enumeration_class`]).
    pub(crate) fn is_acyclic(&self) -> bool {
        let mut edges: Vec<Vec<usize>> = self.edges.clone();
        loop {
            let mut changed = false;
            // (a) Drop vertices occurring in exactly one edge (ear tips).
            let mut occurrences = vec![0usize; self.vertices.len()];
            for e in &edges {
                for &v in e {
                    occurrences[v] += 1;
                }
            }
            for e in &mut edges {
                let before = e.len();
                e.retain(|&v| occurrences[v] > 1);
                changed |= e.len() != before;
            }
            // (b) Drop edges contained in another edge (ears proper).
            // Process one at a time so of two equal edges exactly one
            // survives each pass.
            let absorbed = (0..edges.len()).find(|&i| {
                (0..edges.len()).any(|j| j != i && edges[i].iter().all(|v| edges[j].contains(v)))
            });
            if let Some(i) = absorbed {
                edges.swap_remove(i);
                changed = true;
            }
            if !changed {
                return edges.iter().all(|e| e.is_empty());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdjoin_bigint::rat;

    fn triangle() -> Hypergraph {
        let mut h = Hypergraph::new(3);
        h.add_edge("R", vec![0, 1]);
        h.add_edge("S", vec![1, 2]);
        h.add_edge("T", vec![2, 0]);
        h
    }

    /// Unweighted `ρ*`: all log-sizes 1.
    fn rho_star(h: &Hypergraph) -> Option<Rational> {
        let ones = vec![Rational::one(); h.edges.len()];
        h.fractional_edge_cover(&ones).map(|c| c.value)
    }

    #[test]
    fn triangle_rho_star() {
        assert_eq!(rho_star(&triangle()).unwrap(), rat(3, 2));
    }

    #[test]
    fn weighted_cover_picks_cheap_edges() {
        // With |R| huge, the cover should avoid R: use S and T fully.
        let h = triangle();
        let cover = h
            .fractional_edge_cover(&[rat(100, 1), rat(1, 1), rat(1, 1)])
            .unwrap();
        assert_eq!(cover.value, rat(2, 1)); // w_S = w_T = 1.
        assert_eq!(cover.weights[0], rat(0, 1));
    }

    #[test]
    fn cover_equals_packing_by_duality() {
        let h = triangle();
        let logs = [rat(3, 1), rat(4, 1), rat(5, 1)];
        let cover = h.fractional_edge_cover(&logs).unwrap();
        // Dual of the cover LP is a feasible packing with the same value.
        let total: Rational = cover.packing.iter().sum();
        assert_eq!(total, cover.value);
    }

    #[test]
    fn isolated_vertex_means_no_cover() {
        let mut h = Hypergraph::new(3);
        h.add_edge("R", vec![0, 1]);
        assert_eq!(h.isolated_vertices(), vec![2]);
        assert!(h.fractional_edge_cover(&[rat(1, 1)]).is_none());
        assert!(rho_star(&h).is_none());
    }

    #[test]
    fn single_edge_cover() {
        let mut h = Hypergraph::new(2);
        h.add_edge("R", vec![0, 1]);
        assert_eq!(rho_star(&h).unwrap(), rat(1, 1));
    }

    #[test]
    fn gyo_classifies_acyclicity() {
        // The triangle is the canonical cyclic hypergraph.
        assert!(!triangle().is_acyclic());
        // A path is acyclic.
        let mut path = Hypergraph::new(4);
        path.add_edge("R", vec![0, 1]);
        path.add_edge("S", vec![1, 2]);
        path.add_edge("T", vec![2, 3]);
        assert!(path.is_acyclic());
        // A 4-cycle is cyclic even though it is Berge-/γ-cycle-free of
        // length 3: GYO gets stuck with all four edges intact.
        let mut cycle = Hypergraph::new(4);
        cycle.add_edge("R", vec![0, 1]);
        cycle.add_edge("S", vec![1, 2]);
        cycle.add_edge("T", vec![2, 3]);
        cycle.add_edge("K", vec![3, 0]);
        assert!(!cycle.is_acyclic());
        // A triangle absorbed by a covering 3-ary edge is acyclic (the
        // classic α- vs. cyclomatic distinction).
        let mut covered = triangle();
        covered.add_edge("W", vec![0, 1, 2]);
        assert!(covered.is_acyclic());
        // Duplicate edges reduce (exactly one survives each pass).
        let mut dup = Hypergraph::new(2);
        dup.add_edge("A", vec![0, 1]);
        dup.add_edge("B", vec![0, 1]);
        assert!(dup.is_acyclic());
        // Single edge and empty hypergraph are acyclic.
        let mut single = Hypergraph::new(3);
        single.add_edge("R", vec![0, 1, 2]);
        assert!(single.is_acyclic());
        assert!(Hypergraph::new(0).is_acyclic());
    }
}
