//! Worst-case instances from tight chains (Theorem 5.14).
//!
//! When a chain is good for every lattice element and satisfies condition
//! (15) (`e(X∨Y) ⊆ e(X) ∪ e(Y)`), the optimal polymatroid can be replaced
//! by the *modular* function `u(X) = Σ_{i ∈ e(X)} (h*(C_i) − h*(C_{i-1}))`,
//! which is materializable by a product instance over the chain increments:
//! step `i` becomes a coordinate with `g(i) = h*(C_i) − h*(C_{i-1})` bits,
//! and element `X` sees the coordinates of the steps in `e(X)` — the
//! embedding `X ↦ e(X)` into the Boolean algebra `B_k` from the theorem's
//! proof.

use crate::coords::CoordScheme;
use fdjoin_bigint::Rational;
use fdjoin_bounds::chain::Chain;
use fdjoin_bounds::llp::solve_llp;
use fdjoin_lattice::ElemId;
use fdjoin_query::Query;
use fdjoin_storage::{Database, Relation, Value};

/// Materialize the Theorem 5.14 worst case for a chain-tight query: solves
/// the LLP, checks condition (15) for the chain, and builds the product
/// instance over chain increments. Returns `None` if the condition fails or
/// the increments are not integral.
pub(crate) fn chain_worst_case(
    q: &Query,
    chain: &Chain,
    log_sizes: &[Rational],
) -> Option<Database> {
    let pres = q.lattice_presentation();
    let lat = &pres.lattice;
    if !chain.tightness_condition(lat) {
        return None;
    }
    let h = solve_llp(lat, &pres.inputs, log_sizes).h_monotone;

    // Chain increments g(i) = h(C_i) − h(C_{i-1}), one coordinate per step.
    let mut widths: Vec<u32> = Vec::with_capacity(chain.steps());
    for i in 1..=chain.steps() {
        let g = h.get(chain.elems[i]) - h.get(chain.elems[i - 1]);
        if !g.is_integer() || g.is_negative() {
            return None;
        }
        widths.push(u32::try_from(g.numer_i64()?).ok()?);
    }
    let total: u32 = widths.iter().sum();
    if total > 40 {
        return None;
    }

    // Reuse the coordinate machinery, but with the e(·)-mask: element X
    // sees step i iff i ∈ e(X).
    let offsets: Vec<u32> = widths
        .iter()
        .scan(0u32, |acc, &w| {
            let off = *acc;
            *acc += w;
            Some(off)
        })
        .collect();
    let mask_of = |e: ElemId| -> u64 {
        let esteps = chain.e_set(lat, e);
        let mut mask = 0u64;
        for (idx, (&off, &w)) in offsets.iter().zip(&widths).enumerate() {
            if w > 0 && esteps.contains(&(idx + 1)) {
                mask |= ((1u64 << w) - 1) << off;
            }
        }
        mask
    };

    let var_mask: Vec<u64> = (0..q.n_vars() as u32)
        .map(|v| {
            let e = lat
                .closure_of(fdjoin_lattice::VarSet::singleton(v))
                .unwrap();
            mask_of(e)
        })
        .collect();

    let mut db = Database::new();
    for (j, atom) in q.atoms().iter().enumerate() {
        let rj_mask = mask_of(pres.inputs[j]);
        let mut rel = Relation::new(atom.vars.clone());
        let mut row = vec![0 as Value; atom.vars.len()];
        // Enumerate only the bits visible to R_j (compact enumeration).
        let bits: Vec<u32> = (0..total).filter(|b| rj_mask >> b & 1 == 1).collect();
        for combo in 0u64..(1u64 << bits.len()) {
            let mut packed = 0u64;
            for (pos, &b) in bits.iter().enumerate() {
                packed |= ((combo >> pos) & 1) << b;
            }
            for (slot, &v) in row.iter_mut().zip(&atom.vars) {
                *slot = packed & var_mask[v as usize];
            }
            rel.push_row(&row);
        }
        rel.sort_dedup();
        db.insert(atom.name.clone(), rel);
    }

    // Coordinate UDFs for unguarded FDs: reuse the generic registration by
    // wrapping the e(·)-mask scheme as a CoordScheme over pseudo-elements.
    // The plan logic only needs per-variable masks, so we register directly.
    register_mask_udfs(q, &pres, &var_mask, &offsets, &widths, &mut db, &mask_of);
    Some(db)
}

#[allow(clippy::too_many_arguments)]
fn register_mask_udfs(
    q: &Query,
    pres: &fdjoin_query::LatticePresentation,
    _var_mask: &[u64],
    offsets: &[u32],
    widths: &[u32],
    db: &mut Database,
    mask_of: &dyn Fn(ElemId) -> u64,
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
            let ve = var_elem[v as usize];
            let vmask = mask_of(ve);
            let mut plan: Vec<(usize, u32, u32)> = Vec::new();
            let mut ok = true;
            for ((&off, &w), _) in offsets.iter().zip(widths).zip(0..) {
                if w == 0 {
                    continue;
                }
                let field = ((1u64 << w) - 1) << off;
                if vmask & field == 0 {
                    continue;
                }
                match lhs_vars
                    .iter()
                    .position(|&x| mask_of(var_elem[x as usize]) & field != 0)
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
    // Silence unused warning path for CoordScheme linkage.
    let _ = CoordScheme::new(&[]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdjoin_bigint::rat;
    use fdjoin_bounds::chain::best_chain_bound;
    use fdjoin_query::examples;

    #[test]
    fn fig1_chain_worst_case_attains_three_halves() {
        // The Fig 6 chain on the Fig 1 lattice is tight; with n = 2 the
        // output must be 2^3 = N^{3/2}.
        let q = examples::fig1_udf();
        let pres = q.lattice_presentation();
        let logs = vec![rat(2, 1); 3];
        let cb = best_chain_bound(&pres.lattice, &pres.inputs, &logs).unwrap();
        let db = chain_worst_case(&q, &cb.chain, &logs).expect("chain is tight + integral");
        for name in ["R", "S", "T"] {
            assert!(db.relation(name).unwrap().len() <= 4, "{name} within N");
        }
        let out = crate::reference_join(&q, &db);
        assert_eq!(out.len(), 8, "output = 2^{{3/2·2}}");
        // And the chain algorithm computes it.
        let ca = fdjoin_core::chain_join(&q, &db).unwrap();
        assert_eq!(ca.output, out);
    }

    #[test]
    fn triangle_chain_worst_case_is_agm_product() {
        let q = examples::triangle();
        let pres = q.lattice_presentation();
        let logs = vec![rat(4, 1); 3];
        let cb = best_chain_bound(&pres.lattice, &pres.inputs, &logs).unwrap();
        let db = chain_worst_case(&q, &cb.chain, &logs).expect("Boolean chains are tight");
        let out = crate::reference_join(&q, &db);
        assert_eq!(out.len(), 64); // 2^6 = N^{3/2}, N = 16.
    }

    #[test]
    fn fig4_chain_is_not_tight() {
        // Condition (15) must fail on every candidate chain for Fig 4 —
        // consistent with Example 5.18 (chain bound not optimal there).
        let q = examples::fig4_query();
        let pres = q.lattice_presentation();
        let logs = vec![rat(3, 1); 4];
        let cb = best_chain_bound(&pres.lattice, &pres.inputs, &logs).unwrap();
        assert!(chain_worst_case(&q, &cb.chain, &logs).is_none());
    }
}
