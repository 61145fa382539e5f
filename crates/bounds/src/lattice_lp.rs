//! The one lattice program behind the LLP (Eq. 5), the CLLP (Sec. 5.3.1)
//! and Theorem 4.9's normality test: `max h(1̂)` over functions `h` on the
//! lattice with `h(0̂) = 0`, subject to the submodularity rows and each
//! program's own side rows.
//!
//! Each program adds its rows in its own order, and the order is part of
//! the result: the simplex's vertex and duals depend on it.

use crate::LatticeFn;
use fdjoin_bigint::Rational;
use fdjoin_lattice::{ElemId, Lattice};
use fdjoin_lp::{solve, Cmp, Lp, LpError, Sense};

/// A lattice program under construction: one LP variable per element
/// other than `0̂`, and the objective `h(1̂)`.
pub(crate) struct LatticeLp<'l> {
    lat: &'l Lattice,
    /// The LP variable of each element; `None` for `0̂`.
    var_of: Vec<Option<usize>>,
    lp: Lp,
}

/// An optimum of a [`LatticeLp`].
pub(crate) struct LatticeOptimum {
    /// `h*(1̂)`.
    pub value: Rational,
    /// The optimal vertex, read back onto the lattice.
    pub h: LatticeFn,
    /// One dual per row, in the order the rows were added.
    pub dual: Vec<Rational>,
}

impl<'l> LatticeLp<'l> {
    /// The objective `max h(1̂)`, with no rows yet.
    pub(crate) fn new(lat: &'l Lattice) -> Self {
        let bottom = lat.bottom();
        let mut var_of = vec![None; lat.len()];
        for (v, e) in lat.elems().filter(|&e| e != bottom).enumerate() {
            var_of[e] = Some(v);
        }
        let mut lp = Lp::new(Sense::Max, lat.len() - 1);
        if let Some(v) = var_of[lat.top()] {
            lp.set_objective(v, Rational::one());
        }
        LatticeLp { lat, var_of, lp }
    }

    /// Add the row `Σ c · h(e)  cmp  rhs`; a term on `0̂` is zero and
    /// drops out.
    pub(crate) fn row(
        &mut self,
        terms: impl IntoIterator<Item = (ElemId, Rational)>,
        cmp: Cmp,
        rhs: Rational,
    ) {
        let coeffs = terms
            .into_iter()
            .filter_map(|(e, c)| self.var_of[e].map(|v| (v, c)))
            .collect();
        self.lp.add_constraint(coeffs, cmp, rhs);
    }

    /// Add `h(X ∧ Y) + h(X ∨ Y) ≤ h(X) + h(Y)` for every incomparable pair
    /// `X < Y` (by id); returns the pairs in row order.
    pub(crate) fn submodularity(&mut self) -> Vec<(ElemId, ElemId)> {
        let lat = self.lat;
        let mut pairs = Vec::new();
        for x in lat.elems() {
            for y in lat.elems() {
                if x < y && lat.incomparable(x, y) {
                    let terms = [
                        (lat.meet(x, y), Rational::one()),
                        (lat.join(x, y), Rational::one()),
                        (x, -Rational::one()),
                        (y, -Rational::one()),
                    ];
                    self.row(terms, Cmp::Le, Rational::zero());
                    pairs.push((x, y));
                }
            }
        }
        pairs
    }

    /// Solve. On the one-element lattice (a query with no variables) the
    /// only function is `h ≡ 0`, and every dual is zero.
    pub(crate) fn solve(&self) -> Result<LatticeOptimum, LpError> {
        if self.lat.len() == 1 {
            return Ok(LatticeOptimum {
                value: Rational::zero(),
                h: LatticeFn::zero(self.lat),
                dual: vec![Rational::zero(); self.lp.constraints.len()],
            });
        }
        let sol = solve(&self.lp)?;
        let mut h = LatticeFn::zero(self.lat);
        for e in self.lat.elems() {
            if let Some(v) = self.var_of[e] {
                h.set(e, sol.primal[v].clone());
            }
        }
        Ok(LatticeOptimum {
            value: sol.value,
            h,
            dual: sol.dual,
        })
    }
}

/// The pairs whose dual (aligned with `pairs`) is positive, with it.
pub(crate) fn positive_duals(
    pairs: &[(ElemId, ElemId)],
    duals: &[Rational],
) -> Vec<((ElemId, ElemId), Rational)> {
    pairs
        .iter()
        .zip(duals)
        .filter(|(_, s)| s.is_positive())
        .map(|(&p, s)| (p, s.clone()))
        .collect()
}
