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
}
