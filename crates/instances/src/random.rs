//! Random FD-respecting instances for property-based testing.
//!
//! Sampling random tuples that satisfy arbitrary FDs is non-trivial (naive
//! rejection never terminates for composite FDs). We instead sample rows of
//! a *canonical quasi-product family*: give every lattice element `Z ≠ 1̂` a
//! small coordinate width, sample random coordinate vectors, and project —
//! the resulting relations satisfy every FD by construction (Prop. 3.6),
//! and random sub-sampling preserves that. UDFs are registered for all
//! unguarded FDs via the coordinate scheme.

use crate::coords::{register_coordinate_udfs, CoordScheme};
use fdjoin_lattice::ElemId;
use fdjoin_query::Query;
use fdjoin_storage::{Database, Relation, Value};
use rand::Rng;

/// Generate a random instance of `q` with roughly `rows` base tuples, then
/// randomly keep each projected tuple with probability `keep` (in percent).
pub fn random_instance<R: Rng>(q: &Query, rng: &mut R, rows: usize, keep_pct: u32) -> Database {
    let pres = q.lattice_presentation();
    let lat = &pres.lattice;
    // Coordinate widths: 2 bits per co-atom, 1 bit for every other proper
    // element, capped at 48 total bits.
    let mut decomposition: Vec<(ElemId, u32)> = Vec::new();
    let coatoms = lat.coatoms();
    let mut budget = 48u32;
    for z in lat.elems() {
        if z == lat.top() {
            continue;
        }
        let w = if coatoms.contains(&z) { 2 } else { 1 };
        let w = w.min(budget);
        if w == 0 {
            break;
        }
        decomposition.push((z, w));
        budget -= w;
    }
    let scheme = CoordScheme::new(&decomposition);

    let var_elem: Vec<ElemId> = (0..q.n_vars() as u32)
        .map(|v| {
            lat.closure_of(fdjoin_lattice::VarSet::singleton(v))
                .unwrap()
        })
        .collect();
    let var_mask: Vec<u64> = var_elem.iter().map(|&e| scheme.mask_of(lat, e)).collect();

    let mut db = Database::new();
    let full_mask = if scheme.total_bits >= 64 {
        u64::MAX
    } else {
        (1u64 << scheme.total_bits) - 1
    };
    let base: Vec<u64> = (0..rows).map(|_| rng.gen::<u64>() & full_mask).collect();
    for atom in q.atoms() {
        let mut rel = Relation::new(atom.vars.clone());
        let mut row = vec![0 as Value; atom.vars.len()];
        for &packed in &base {
            if rng.gen_range(0..100) >= keep_pct {
                continue;
            }
            for (slot, &v) in row.iter_mut().zip(&atom.vars) {
                *slot = packed & var_mask[v as usize];
            }
            rel.push_row(&row);
        }
        rel.sort_dedup();
        db.insert(atom.name.clone(), rel);
    }
    register_coordinate_udfs(q, &pres, &scheme, &mut db);
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdjoin_query::examples;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_instances_satisfy_guarded_fds() {
        let q = examples::composite_key(); // xy→z guarded in T.
        let mut rng = StdRng::seed_from_u64(7);
        let db = random_instance(&q, &mut rng, 50, 90);
        let t = db.relation("T").unwrap();
        // xy is a key of T.
        assert_eq!(t.max_degree(2).max(1), 1);
    }

    #[test]
    fn random_instances_run_through_naive() {
        let mut rng = StdRng::seed_from_u64(42);
        for q in [
            examples::triangle(),
            examples::fig1_udf(),
            examples::m3_query(),
        ] {
            let db = random_instance(&q, &mut rng, 30, 80);
            // Smoke: the reference evaluator accepts the instance, which
            // it refuses if a guard relation violates its FD.
            let _ = crate::reference_join(&q, &db);
        }
    }
}
