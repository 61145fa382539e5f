//! An exact linear-programming solver over rationals.
//!
//! The planner LPs in this project (lattice LP, dual lattice LP, fractional
//! edge covers/packings, the normality LP of Theorem 4.9, the conditional LLP
//! of Section 5.3) are all small but must be solved *exactly*: their dual
//! vertices are the proof objects that drive algorithm construction.
//!
//! This crate implements a dense two-phase primal simplex with Bland's
//! pivoting rule (guaranteeing termination under degeneracy, which these
//! highly symmetric lattice LPs produce constantly) over word-sized exact
//! rationals with spill: a tableau entry is a 24-byte
//! [`fdjoin_bigint::Rational`] that the pivot updates in place, and the
//! arbitrary-precision form appears only if a pivot leaves 64 bits — the
//! solver never names it. Both primal and dual solutions are returned; the
//! dual values are extracted from the final tableau via the initial identity
//! columns (`y = c_B B^{-1}`).

#![forbid(unsafe_code)]

use fdjoin_bigint::Rational;
use std::fmt;

/// Optimization direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sense {
    /// Maximize the objective.
    Max,
    /// Minimize the objective.
    Min,
}

/// Constraint comparison operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cmp {
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `=`
    Eq,
}

/// A single linear constraint `sum coeffs . x  (cmp)  rhs`.
#[derive(Clone, Debug)]
pub struct Constraint {
    /// Sparse coefficients as `(variable index, coefficient)` pairs.
    pub coeffs: Vec<(usize, Rational)>,
    /// Comparison operator.
    pub cmp: Cmp,
    /// Right-hand side.
    pub rhs: Rational,
}

/// A linear program over `n_vars` non-negative variables.
#[derive(Clone, Debug)]
pub struct Lp {
    /// Optimization direction.
    pub sense: Sense,
    /// Number of decision variables (all constrained `>= 0`).
    pub n_vars: usize,
    /// Objective coefficients, one per variable.
    pub objective: Vec<Rational>,
    /// Constraint rows.
    pub constraints: Vec<Constraint>,
}

impl Lp {
    /// Create an LP with a zero objective over `n_vars` non-negative variables.
    pub fn new(sense: Sense, n_vars: usize) -> Self {
        Lp {
            sense,
            n_vars,
            objective: vec![Rational::zero(); n_vars],
            constraints: Vec::new(),
        }
    }

    /// Set the objective coefficient of variable `v`.
    pub fn set_objective(&mut self, v: usize, c: Rational) {
        self.objective[v] = c;
    }

    /// Add a constraint; returns its row index (for dual lookup).
    pub fn add_constraint(
        &mut self,
        coeffs: Vec<(usize, Rational)>,
        cmp: Cmp,
        rhs: Rational,
    ) -> usize {
        self.constraints.push(Constraint { coeffs, cmp, rhs });
        self.constraints.len() - 1
    }
}

/// Reasons an LP has no optimal solution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LpError {
    /// The feasible region is empty.
    Infeasible,
    /// The objective is unbounded over the feasible region.
    Unbounded,
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "linear program is infeasible"),
            LpError::Unbounded => write!(f, "linear program is unbounded"),
        }
    }
}

impl std::error::Error for LpError {}

/// An optimal LP solution: value, a primal vertex, and a dual vertex.
///
/// Dual sign conventions (verified by the duality tests):
/// - `Max`/`Le` rows: dual `>= 0`; `Min`/`Ge` rows: dual `>= 0`;
/// - `Max`/`Ge` rows: dual `<= 0`; `Min`/`Le` rows: dual `<= 0`;
/// - `Eq` rows: dual is free.
///
/// Strong duality holds exactly: `sum_i dual[i] * rhs[i] == value`.
#[derive(Clone, Debug)]
pub struct Solution {
    /// Optimal objective value.
    pub value: Rational,
    /// Optimal primal vertex (length `n_vars`).
    pub primal: Vec<Rational>,
    /// Dual value per constraint, in the order constraints were added.
    pub dual: Vec<Rational>,
}

/// Solve an [`Lp`] exactly. Returns an optimal [`Solution`] or an [`LpError`].
pub fn solve(lp: &Lp) -> Result<Solution, LpError> {
    Simplex::build(lp).solve()
}

/// Dense simplex tableau.
///
/// Column layout: `[decision vars | slacks/surpluses | artificials]`, with
/// `rhs` stored separately. `id_col[r]` names the column that held the `+1`
/// of row `r` in the *initial* identity (slack or artificial), so that after
/// pivoting, those columns contain `B^{-1}` and yield the duals.
struct Simplex {
    rows: Vec<Vec<Rational>>,
    rhs: Vec<Rational>,
    /// Phase-2 cost per column (internal max orientation).
    cost: Vec<Rational>,
    basis: Vec<usize>,
    n_cols: usize,
    n_user_vars: usize,
    first_artificial: usize,
    id_col: Vec<usize>,
    /// +1 if the user row was kept as-is, -1 if it was negated to make rhs >= 0.
    row_flip: Vec<i8>,
    user_sense: Sense,
}

impl Simplex {
    fn build(lp: &Lp) -> Simplex {
        let m = lp.constraints.len();
        let n = lp.n_vars;

        // First pass: normalize rows so rhs >= 0 and count extra columns.
        let mut norm: Vec<(Vec<Rational>, Cmp, Rational, i8)> = Vec::with_capacity(m);
        for c in &lp.constraints {
            let mut dense = vec![Rational::zero(); n];
            for (v, coef) in &c.coeffs {
                dense[*v] += coef;
            }
            if c.rhs.is_negative() {
                let flipped = match c.cmp {
                    Cmp::Le => Cmp::Ge,
                    Cmp::Ge => Cmp::Le,
                    Cmp::Eq => Cmp::Eq,
                };
                let dense: Vec<Rational> = dense.into_iter().map(|x| -x).collect();
                norm.push((dense, flipped, -c.rhs.clone(), -1));
            } else {
                norm.push((dense, c.cmp, c.rhs.clone(), 1));
            }
        }

        let n_slack: usize = norm.iter().filter(|r| r.1 != Cmp::Eq).count();
        let n_art: usize = norm.iter().filter(|r| r.1 != Cmp::Le).count();
        let n_cols = n + n_slack + n_art;
        let first_artificial = n + n_slack;

        let mut rows = vec![vec![Rational::zero(); n_cols]; m];
        let mut rhs = vec![Rational::zero(); m];
        let mut basis = vec![0usize; m];
        let mut id_col = vec![0usize; m];
        let mut row_flip = vec![0i8; m];

        let mut slack_at = n;
        let mut art_at = first_artificial;
        for (r, (dense, cmp, b, flip)) in norm.into_iter().enumerate() {
            rows[r][..n].clone_from_slice(&dense);
            rhs[r] = b;
            row_flip[r] = flip;
            match cmp {
                Cmp::Le => {
                    rows[r][slack_at] = Rational::one();
                    basis[r] = slack_at;
                    id_col[r] = slack_at;
                    slack_at += 1;
                }
                Cmp::Ge => {
                    rows[r][slack_at] = -Rational::one();
                    slack_at += 1;
                    rows[r][art_at] = Rational::one();
                    basis[r] = art_at;
                    id_col[r] = art_at;
                    art_at += 1;
                }
                Cmp::Eq => {
                    rows[r][art_at] = Rational::one();
                    basis[r] = art_at;
                    id_col[r] = art_at;
                    art_at += 1;
                }
            }
        }

        // Internal orientation is always "maximize".
        let mut cost = vec![Rational::zero(); n_cols];
        for (c, obj) in cost.iter_mut().zip(&lp.objective) {
            *c = match lp.sense {
                Sense::Max => obj.clone(),
                Sense::Min => -obj.clone(),
            };
        }

        Simplex {
            rows,
            rhs,
            cost,
            basis,
            n_cols,
            n_user_vars: n,
            first_artificial,
            id_col,
            row_flip,
            user_sense: lp.sense,
        }
    }

    fn solve(mut self) -> Result<Solution, LpError> {
        // Phase 1: maximize -(sum of artificials).
        if self.first_artificial < self.n_cols {
            let phase1_cost: Vec<Rational> = (0..self.n_cols)
                .map(|j| {
                    if j >= self.first_artificial {
                        -Rational::one()
                    } else {
                        Rational::zero()
                    }
                })
                .collect();
            let opt = self.run(&phase1_cost, self.n_cols)?;
            if !opt.is_zero() {
                return Err(LpError::Infeasible);
            }
        }
        // Phase 2: original objective; artificial columns may not enter.
        let cost = self.cost.clone();
        let value = self.run(&cost, self.first_artificial)?;

        let mut primal = vec![Rational::zero(); self.n_user_vars];
        for (r, &b) in self.basis.iter().enumerate() {
            if b < self.n_user_vars {
                primal[b] = self.rhs[r].clone();
            }
        }

        // Duals: y_i = c_B . (B^{-1})_{. i} read from the initial identity
        // column of row i, flipped back if the row was negated, then mapped
        // to the user's orientation.
        let mut dual = vec![Rational::zero(); self.rows.len()];
        for (i, d) in dual.iter_mut().enumerate() {
            let col = self.id_col[i];
            let mut y = Rational::zero();
            for (r, &b) in self.basis.iter().enumerate() {
                if !self.cost[b].is_zero() && !self.rows[r][col].is_zero() {
                    y += &(&self.cost[b] * &self.rows[r][col]);
                }
            }
            if self.row_flip[i] < 0 {
                y = -y;
            }
            if self.user_sense == Sense::Min {
                y = -y;
            }
            *d = y;
        }

        let user_value = match self.user_sense {
            Sense::Max => value,
            Sense::Min => -value,
        };
        Ok(Solution {
            value: user_value,
            primal,
            dual,
        })
    }

    /// Run simplex iterations maximizing `cost`, considering entering columns
    /// `< col_limit` only. Returns the optimal objective value.
    fn run(&mut self, cost: &[Rational], col_limit: usize) -> Result<Rational, LpError> {
        loop {
            // Reduced costs: r_j = cost_j - c_B . B^{-1} A_j. Bland: pick the
            // smallest j with r_j > 0.
            let mut entering = None;
            'cols: for j in 0..col_limit {
                if self.basis.contains(&j) {
                    continue;
                }
                let mut rj = cost[j].clone();
                for (r, &b) in self.basis.iter().enumerate() {
                    if !cost[b].is_zero() && !self.rows[r][j].is_zero() {
                        rj -= &(&cost[b] * &self.rows[r][j]);
                    }
                }
                if rj.is_positive() {
                    entering = Some(j);
                    break 'cols;
                }
            }
            let Some(e) = entering else {
                // Optimal: objective = c_B . x_B.
                let mut obj = Rational::zero();
                for (r, &b) in self.basis.iter().enumerate() {
                    if !cost[b].is_zero() {
                        obj += &(&cost[b] * &self.rhs[r]);
                    }
                }
                return Ok(obj);
            };

            // Ratio test with Bland's rule (ties broken by smallest basis var).
            let mut leaving: Option<(usize, Rational)> = None;
            for r in 0..self.rows.len() {
                if self.rows[r][e].is_positive() {
                    let ratio = &self.rhs[r] / &self.rows[r][e];
                    match &leaving {
                        None => leaving = Some((r, ratio)),
                        Some((lr, lratio)) => {
                            if ratio < *lratio
                                || (ratio == *lratio && self.basis[r] < self.basis[*lr])
                            {
                                leaving = Some((r, ratio));
                            }
                        }
                    }
                }
            }
            let Some((l, _)) = leaving else {
                return Err(LpError::Unbounded);
            };
            self.pivot(l, e);
        }
    }

    fn pivot(&mut self, row: usize, col: usize) {
        let inv = self.rows[row][col].recip();
        // The pivot row leaves the tableau while the other rows read it.
        let mut pivot_row = std::mem::take(&mut self.rows[row]);
        for x in pivot_row.iter_mut() {
            if !x.is_zero() {
                *x *= &inv;
            }
        }
        self.rhs[row] *= &inv;
        let pivot_rhs = self.rhs[row].clone();
        for r in 0..self.rows.len() {
            if r == row {
                continue;
            }
            let factor = self.rows[r][col].clone();
            if factor.is_zero() {
                continue;
            }
            for (x, p) in self.rows[r].iter_mut().zip(&pivot_row) {
                if !p.is_zero() {
                    *x -= &(&factor * p);
                }
            }
            self.rhs[r] -= &(&factor * &pivot_rhs);
        }
        self.rows[row] = pivot_row;
        self.basis[row] = col;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdjoin_bigint::rat;

    fn r(p: i64, q: i64) -> Rational {
        rat(p, q)
    }

    /// max x + y s.t. x <= 2, y <= 3, x + y <= 4.
    #[test]
    fn simple_max() {
        let mut lp = Lp::new(Sense::Max, 2);
        lp.set_objective(0, r(1, 1));
        lp.set_objective(1, r(1, 1));
        lp.add_constraint(vec![(0, r(1, 1))], Cmp::Le, r(2, 1));
        lp.add_constraint(vec![(1, r(1, 1))], Cmp::Le, r(3, 1));
        lp.add_constraint(vec![(0, r(1, 1)), (1, r(1, 1))], Cmp::Le, r(4, 1));
        let sol = solve(&lp).unwrap();
        assert_eq!(sol.value, r(4, 1));
        // Strong duality.
        let dual_val =
            &(&sol.dual[0] * &r(2, 1)) + &(&(&sol.dual[1] * &r(3, 1)) + &(&sol.dual[2] * &r(4, 1)));
        assert_eq!(dual_val, r(4, 1));
    }

    /// Fractional edge cover of the triangle: min w1+w2+w3 with pairwise
    /// coverage; optimum 3/2.
    #[test]
    fn triangle_edge_cover() {
        let mut lp = Lp::new(Sense::Min, 3);
        for v in 0..3 {
            lp.set_objective(v, r(1, 1));
        }
        // Node x covered by edges xy (0) and zx (2), etc.
        lp.add_constraint(vec![(0, r(1, 1)), (2, r(1, 1))], Cmp::Ge, r(1, 1));
        lp.add_constraint(vec![(0, r(1, 1)), (1, r(1, 1))], Cmp::Ge, r(1, 1));
        lp.add_constraint(vec![(1, r(1, 1)), (2, r(1, 1))], Cmp::Ge, r(1, 1));
        let sol = solve(&lp).unwrap();
        assert_eq!(sol.value, r(3, 2));
        assert_eq!(sol.primal, vec![r(1, 2), r(1, 2), r(1, 2)]);
        // Duals: fractional vertex packing, all 1/2, sum = 3/2.
        let s: Rational = sol.dual.iter().sum();
        assert_eq!(s, r(3, 2));
        for d in &sol.dual {
            assert!(!d.is_negative());
        }
    }

    #[test]
    fn infeasible() {
        let mut lp = Lp::new(Sense::Max, 1);
        lp.set_objective(0, r(1, 1));
        lp.add_constraint(vec![(0, r(1, 1))], Cmp::Le, r(1, 1));
        lp.add_constraint(vec![(0, r(1, 1))], Cmp::Ge, r(2, 1));
        assert_eq!(solve(&lp).unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn unbounded() {
        let mut lp = Lp::new(Sense::Max, 2);
        lp.set_objective(0, r(1, 1));
        lp.add_constraint(vec![(1, r(1, 1))], Cmp::Le, r(5, 1));
        assert_eq!(solve(&lp).unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn equality_constraints() {
        // max x + 2y s.t. x + y = 3, x <= 2: best x=0, y=3 -> 6.
        let mut lp = Lp::new(Sense::Max, 2);
        lp.set_objective(0, r(1, 1));
        lp.set_objective(1, r(2, 1));
        lp.add_constraint(vec![(0, r(1, 1)), (1, r(1, 1))], Cmp::Eq, r(3, 1));
        lp.add_constraint(vec![(0, r(1, 1))], Cmp::Le, r(2, 1));
        let sol = solve(&lp).unwrap();
        assert_eq!(sol.value, r(6, 1));
        assert_eq!(sol.primal, vec![r(0, 1), r(3, 1)]);
    }

    #[test]
    fn negative_rhs_normalization() {
        // min x s.t. -x <= -4  (i.e. x >= 4).
        let mut lp = Lp::new(Sense::Min, 1);
        lp.set_objective(0, r(1, 1));
        lp.add_constraint(vec![(0, r(-1, 1))], Cmp::Le, r(-4, 1));
        let sol = solve(&lp).unwrap();
        assert_eq!(sol.value, r(4, 1));
        assert_eq!(sol.primal[0], r(4, 1));
        // Strong duality: dual * (-4) = 4.
        assert_eq!(&sol.dual[0] * &r(-4, 1), r(4, 1));
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Multiple redundant constraints through the same vertex.
        let mut lp = Lp::new(Sense::Max, 2);
        lp.set_objective(0, r(1, 1));
        lp.set_objective(1, r(1, 1));
        for k in 1..=4 {
            lp.add_constraint(vec![(0, r(k, 1)), (1, r(k, 1))], Cmp::Le, r(2 * k, 1));
        }
        lp.add_constraint(vec![(0, r(1, 1))], Cmp::Le, r(2, 1));
        let sol = solve(&lp).unwrap();
        assert_eq!(sol.value, r(2, 1));
    }

    #[test]
    fn min_with_mixed_constraints() {
        // min 2x + 3y s.t. x + y >= 10, x - y = 2  => x=6,y=4 -> 24.
        let mut lp = Lp::new(Sense::Min, 2);
        lp.set_objective(0, r(2, 1));
        lp.set_objective(1, r(3, 1));
        lp.add_constraint(vec![(0, r(1, 1)), (1, r(1, 1))], Cmp::Ge, r(10, 1));
        lp.add_constraint(vec![(0, r(1, 1)), (1, r(-1, 1))], Cmp::Eq, r(2, 1));
        let sol = solve(&lp).unwrap();
        assert_eq!(sol.value, r(24, 1));
        assert_eq!(sol.primal, vec![r(6, 1), r(4, 1)]);
        // Strong duality.
        let dv = &(&sol.dual[0] * &r(10, 1)) + &(&sol.dual[1] * &r(2, 1));
        assert_eq!(dv, r(24, 1));
    }

    #[test]
    fn duplicate_coefficients_accumulate() {
        // Coefficients for the same variable must sum: x + x <= 4 -> x <= 2.
        let mut lp = Lp::new(Sense::Max, 1);
        lp.set_objective(0, r(1, 1));
        lp.add_constraint(vec![(0, r(1, 1)), (0, r(1, 1))], Cmp::Le, r(4, 1));
        let sol = solve(&lp).unwrap();
        assert_eq!(sol.value, r(2, 1));
    }

    /// A whole simplex run past 64 bits: a 6×6 Hilbert block with a
    /// dominant diagonal (so the optimum is the vertex where all six rows
    /// are tight, six pivots away) against right-hand sides that are
    /// distinct primes just under 2^61. The optimality certificate must hold
    /// exactly — primal and dual feasible, equal objectives — although the
    /// vertex itself does not fit machine words.
    #[test]
    fn pivots_past_64_bits_keep_the_certificate_exact() {
        const PRIMES: [i64; 6] = [
            2305843009213693951,
            2305843009213693921,
            2305843009213693907,
            2305843009213693723,
            2305843009213693693,
            2305843009213693669,
        ];
        let n = PRIMES.len();
        let hilbert = |i: usize, j: usize| {
            if i == j {
                r(2, 1)
            } else {
                r(1, (i + j + 1) as i64)
            }
        };
        let mut lp = Lp::new(Sense::Max, n);
        for j in 0..n {
            lp.set_objective(j, r(1, 1));
        }
        for (i, &p) in PRIMES.iter().enumerate() {
            let row = (0..n).map(|j| (j, hilbert(i, j))).collect();
            lp.add_constraint(row, Cmp::Le, r(p, 1));
        }
        let sol = solve(&lp).unwrap();

        // Primal feasible.
        for (i, &p) in PRIMES.iter().enumerate() {
            let lhs: Rational = (0..n).map(|j| &hilbert(i, j) * &sol.primal[j]).sum();
            assert!(lhs <= r(p, 1), "row {i}: {lhs}");
        }
        assert!(sol.primal.iter().all(|x| !x.is_negative()));
        let primal_value: Rational = sol.primal.iter().sum();
        assert_eq!(primal_value, sol.value);
        // Dual feasible, and strong duality holds exactly.
        assert!(sol.dual.iter().all(|y| !y.is_negative()));
        for j in 0..n {
            let lhs: Rational = (0..n).map(|i| &sol.dual[i] * &hilbert(i, j)).sum();
            assert!(lhs >= r(1, 1), "column {j}: {lhs}");
        }
        let dual_value: Rational = (0..n).map(|i| &sol.dual[i] * &r(PRIMES[i], 1)).sum();
        assert_eq!(dual_value, sol.value);
        // Every row is tight, and no coordinate fits machine words.
        assert!(sol.dual.iter().all(Rational::is_positive), "{:?}", sol.dual);
        assert!(
            sol.primal.iter().all(|x| x.numer_i64().is_none()),
            "{:?}",
            sol.primal
        );
    }

    #[test]
    fn zero_objective_feasibility_check() {
        let mut lp = Lp::new(Sense::Max, 2);
        lp.add_constraint(vec![(0, r(1, 1)), (1, r(1, 1))], Cmp::Eq, r(1, 1));
        let sol = solve(&lp).unwrap();
        assert_eq!(sol.value, r(0, 1));
    }
}
