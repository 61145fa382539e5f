//! Canonical quasi-product instances (Definition 4.4 / Lemma 4.5).
//!
//! A normal polymatroid decomposes as `h = Σ_Z a_Z · h_Z` over step
//! functions. Materialization assigns every lattice element `Z ≠ 1̂` with
//! `a_Z > 0` a *coordinate* of `a_Z` bits. A database row is a choice of all
//! coordinates; variable `x` sees exactly the coordinates of the `Z`'s with
//! `x⁺ ≰ Z`, packed into fixed global bit fields. Then
//! `|Π_X(D)| = 2^{h(X)}` for every lattice element `X` — the entropy of the
//! instance *is* `h`, which is how all tight lower bounds are produced.
//!
//! The construction also registers a UDF for every unguarded FD: since
//! `lhs → v` implies each coordinate of `v` appears in some `lhs` variable,
//! the UDF simply re-packs bit fields. This is what lets the paper's
//! algorithms *execute* on abstract-lattice queries (Figs. 4, 7, 8, 9).

use fdjoin_bigint::Rational;
use fdjoin_lattice::{ElemId, Lattice};
use fdjoin_lp::{solve, Cmp, Lp, Sense};
use fdjoin_query::{LatticePresentation, Query};
use fdjoin_storage::{Database, Relation, Value};

/// The coordinate scheme: per step-function carrier `Z`, a bit field
/// `(offset, width)` inside every variable's packed value.
#[derive(Clone, Debug)]
pub struct CoordScheme {
    /// `(lattice element Z, bit offset, bit width a_Z)`.
    pub fields: Vec<(ElemId, u32, u32)>,
    /// Total bits = `h(1̂)`.
    pub total_bits: u32,
}

impl CoordScheme {
    /// Build from an integral normal decomposition `a_Z` (widths in bits).
    pub fn new(decomposition: &[(ElemId, u32)]) -> CoordScheme {
        let mut fields = Vec::with_capacity(decomposition.len());
        let mut offset = 0u32;
        for &(z, width) in decomposition {
            fields.push((z, offset, width));
            offset += width;
        }
        assert!(offset <= 63, "instance exponent too large for u64 values");
        CoordScheme {
            fields,
            total_bits: offset,
        }
    }

    /// The bit mask of coordinates visible to an element `e` (those `Z`
    /// with `e ≰ Z`).
    pub(crate) fn mask_of(&self, lat: &Lattice, e: ElemId) -> u64 {
        let mut mask = 0u64;
        for &(z, off, width) in &self.fields {
            if !lat.leq(e, z) {
                mask |= (((1u64 << width) - 1) << off) * u64::from(width > 0);
            }
        }
        mask
    }
}

/// Try to express the LLP optimum as an *integral strictly normal*
/// polymatroid: maximize `Σ a_i` over co-atom step coefficients subject to
/// `Σ {a_i : R_j ≰ Z_i} ≤ n_j` (the LP from Theorem 4.9's proof). Returns
/// the coefficients if the optimum matches `target` and is integral.
pub(crate) fn strictly_normal_coefficients(
    lat: &Lattice,
    inputs: &[ElemId],
    log_sizes: &[Rational],
    target: &Rational,
) -> Option<Vec<(ElemId, u32)>> {
    let coatoms = lat.coatoms();
    let mut lp = Lp::new(Sense::Max, coatoms.len());
    for i in 0..coatoms.len() {
        lp.set_objective(i, Rational::one());
    }
    for (&r, nj) in inputs.iter().zip(log_sizes) {
        let coeffs: Vec<(usize, Rational)> = coatoms
            .iter()
            .enumerate()
            .filter(|(_, &z)| !lat.leq(r, z))
            .map(|(i, _)| (i, Rational::one()))
            .collect();
        lp.add_constraint(coeffs, Cmp::Le, nj.clone());
    }
    let sol = solve(&lp).ok()?;
    if sol.value != *target {
        return None;
    }
    let mut out = Vec::new();
    for (i, a) in sol.primal.iter().enumerate() {
        if !a.is_integer() {
            return None;
        }
        let v = u32::try_from(a.numer_i64()?).ok()?;
        if v > 0 {
            out.push((coatoms[i], v));
        }
    }
    Some(out)
}

/// Materialize the quasi-product instance of an integral normal polymatroid
/// given by its step decomposition `a_Z` (bit widths). Returns the database
/// (each atom's relation is `Π_{vars}(D)` generated directly at size
/// `2^{h(R_j⁺)}`) with coordinate UDFs registered for every unguarded FD.
pub fn materialize(
    q: &Query,
    pres: &LatticePresentation,
    decomposition: &[(ElemId, u32)],
) -> Database {
    let lat = &pres.lattice;
    let scheme = CoordScheme::new(decomposition);
    let mut db = Database::new();

    // Per-variable visibility mask.
    let var_elem: Vec<ElemId> = (0..q.n_vars() as u32)
        .map(|v| {
            lat.closure_of(fdjoin_lattice::VarSet::singleton(v))
                .expect("variable closure is a lattice element")
        })
        .collect();
    let var_mask: Vec<u64> = var_elem.iter().map(|&e| scheme.mask_of(lat, e)).collect();

    // Generate each relation directly over its relevant coordinate fields.
    for (j, atom) in q.atoms().iter().enumerate() {
        let rj = pres.inputs[j];
        let relevant: Vec<(u32, u32)> = scheme
            .fields
            .iter()
            .filter(|&&(z, _, _)| !lat.leq(rj, z))
            .map(|&(_, off, w)| (off, w))
            .collect();
        let total: u32 = relevant.iter().map(|&(_, w)| w).sum();
        assert!(
            total <= 40,
            "relation {} would need 2^{total} rows",
            atom.name
        );
        let mut rel = Relation::new(atom.vars.clone());
        let mut row = vec![0 as Value; atom.vars.len()];
        for combo in 0u64..(1u64 << total) {
            // Scatter `combo`'s bits into the relevant global fields.
            let mut packed = 0u64;
            let mut consumed = 0u32;
            for &(off, w) in &relevant {
                let part = (combo >> consumed) & ((1u64 << w) - 1);
                packed |= part << off;
                consumed += w;
            }
            for (slot, &v) in row.iter_mut().zip(&atom.vars) {
                *slot = packed & var_mask[v as usize];
            }
            rel.push_row(&row);
        }
        rel.sort_dedup();
        db.insert(atom.name.clone(), rel);
    }

    register_coordinate_udfs(q, pres, &scheme, &mut db);
    db
}

/// Register a UDF for each unguarded FD `lhs → v`, reconstructing `v`'s
/// packed value from the coordinates embedded in the `lhs` values.
pub(crate) fn register_coordinate_udfs(
    q: &Query,
    pres: &LatticePresentation,
    scheme: &CoordScheme,
    db: &mut Database,
) {
    let lat = &pres.lattice;
    let var_elem: Vec<ElemId> = (0..q.n_vars() as u32)
        .map(|v| {
            lat.closure_of(fdjoin_lattice::VarSet::singleton(v))
                .unwrap()
        })
        .collect();
    for fd in q.fds.fds() {
        if q.guard_of(fd).is_some() {
            continue;
        }
        let lhs_vars: Vec<u32> = fd.lhs.iter().collect();
        for v in fd.rhs.minus(fd.lhs).iter() {
            // For each field visible to v, find an lhs variable that also
            // sees it (exists because lhs → v; see module docs).
            let ve = var_elem[v as usize];
            let mut plan: Vec<(usize, u32, u32)> = Vec::new(); // (arg idx, off, width)
            let mut ok = true;
            for &(z, off, w) in &scheme.fields {
                if lat.leq(ve, z) {
                    continue;
                }
                match lhs_vars
                    .iter()
                    .position(|&x| !lat.leq(var_elem[x as usize], z))
                {
                    Some(ai) => plan.push((ai, off, w)),
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if !ok {
                continue;
            }
            db.udfs.register(fd.lhs, v, move |args: &[Value]| {
                let mut out = 0u64;
                for &(ai, off, w) in &plan {
                    let mask = ((1u64 << w) - 1) << off;
                    out |= args[ai] & mask;
                }
                out
            });
        }
    }
}

/// One-call worst-case generator: solve the strictly-normal LP for the given
/// per-atom log sizes and materialize if the coefficients are integral and
/// attain `target` (callers pick sizes making this exact — e.g. `n` divisible
/// by the bound's denominator).
pub fn normal_worst_case(q: &Query, log_sizes: &[Rational], target: &Rational) -> Option<Database> {
    let pres = q.lattice_presentation();
    let coef = strictly_normal_coefficients(&pres.lattice, &pres.inputs, log_sizes, target)?;
    Some(materialize(q, &pres, &coef))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdjoin_bigint::rat;
    use fdjoin_query::examples;

    #[test]
    fn triangle_product_instance_from_decomposition() {
        // AGM worst case for the triangle: a_Z = n/2 on each co-atom;
        // with n = 4: each relation has 2^4 = 16 rows, output 2^6 = 64.
        let q = examples::triangle();
        let db = normal_worst_case(&q, &vec![rat(4, 1); 3], &rat(6, 1)).expect("integral");
        for name in ["R", "S", "T"] {
            assert_eq!(db.relation(name).unwrap().len(), 16, "{name}");
        }
        let out = crate::reference_join(&q, &db);
        assert_eq!(out.len(), 64);
    }

    #[test]
    fn fig4_worst_case_attains_four_thirds() {
        // Example 5.20: bound N^{4/3}; with n = 3 (N = 8): output 2^4 = 16.
        let q = examples::fig4_query();
        let db = normal_worst_case(&q, &vec![rat(3, 1); 4], &rat(4, 1)).expect("integral");
        for atom in q.atoms() {
            assert_eq!(db.relation(&atom.name).unwrap().len(), 8, "{}", atom.name);
        }
        let out = crate::reference_join(&q, &db);
        assert_eq!(out.len(), 16);
    }

    #[test]
    fn fig9_worst_case_attains_three_halves() {
        // Example 5.31: bound N^{3/2}; with n = 2 (N = 4): output 2^3 = 8.
        let q = examples::fig9_query();
        let db = normal_worst_case(&q, &vec![rat(2, 1); 3], &rat(3, 1)).expect("integral");
        for atom in q.atoms() {
            assert_eq!(db.relation(&atom.name).unwrap().len(), 4, "{}", atom.name);
        }
        let out = crate::reference_join(&q, &db);
        assert_eq!(out.len(), 8);
    }

    #[test]
    fn masks_respect_lattice_order() {
        let q = examples::fig1_udf();
        let pres = q.lattice_presentation();
        let lat = &pres.lattice;
        let coef: Vec<(ElemId, u32)> = lat.coatoms().into_iter().map(|z| (z, 1)).collect();
        let scheme = CoordScheme::new(&coef);
        // Monotone: e ≤ f implies mask(e) ⊆ mask(f).
        for e in lat.elems() {
            for f in lat.elems() {
                if lat.leq(e, f) {
                    let me = scheme.mask_of(lat, e);
                    let mf = scheme.mask_of(lat, f);
                    assert_eq!(me & !mf, 0, "mask not monotone at {e},{f}");
                }
            }
        }
        // Top sees all bits, bottom none.
        assert_eq!(scheme.mask_of(lat, lat.bottom()), 0);
        assert_eq!(
            scheme.mask_of(lat, lat.top()).count_ones(),
            scheme.total_bits
        );
    }
}
