//! Reference evaluator: pairwise natural joins in atom order, then
//! expansion to all variables and full FD verification. Quadratic and
//! allocation-happy by design — it is the correctness oracle for the
//! property tests, nothing more.

use crate::engine::JoinError;
use crate::{AccessPaths, Expander, Stats};
use fdjoin_lattice::VarSet;
use fdjoin_query::Query;
use fdjoin_storage::{Database, Relation, Value};

/// Evaluate `q` on `db` naively. Output columns are all query variables in
/// ascending id order.
pub(crate) fn execute(
    q: &Query,
    db: &Database,
    paths: &AccessPaths<'_>,
    par: &crate::par::ParCtx,
) -> Result<(Relation, Stats), JoinError> {
    let mut stats = Stats::default();
    let ex = Expander::new(q, db, paths, &mut stats)?;
    let nv = q.n_vars();

    // Accumulate partial tuples as (bound set, values).
    let mut partials: Vec<(VarSet, Vec<Value>)> = vec![(VarSet::EMPTY, vec![0; nv])];
    for atom in q.atoms() {
        let rel = db.relation(&atom.name)?;
        // Each partial extends independently; fan out over contiguous
        // blocks of partials. Fragments concatenate in block order, so
        // `next` is byte-identical to the sequential accumulation.
        let parts =
            crate::par::for_blocks(par, partials.len(), None, &mut stats, |range, stats| {
                let mut next = Vec::new();
                for (bound, vals) in &partials[range] {
                    for row in rel.rows() {
                        stats.probes += 1;
                        let mut ok = true;
                        let mut nb = *bound;
                        let mut nv_ = vals.clone();
                        for (&v, &x) in atom.vars.iter().zip(row) {
                            if nb.contains(v) {
                                if nv_[v as usize] != x {
                                    ok = false;
                                    break;
                                }
                            } else {
                                nb = nb.insert(v);
                                nv_[v as usize] = x;
                            }
                        }
                        if ok {
                            next.push((nb, nv_));
                        }
                    }
                }
                next
            });
        partials = parts.into_iter().flatten().collect();
        stats.intermediate_tuples += partials.len() as u64;
    }

    // Every partial went through every atom, so all bind the atom variables.
    let atom_vars = q
        .atoms()
        .iter()
        .fold(VarSet::EMPTY, |s, a| s.union(a.var_set()));
    let program = ex.compile_fused(atom_vars, VarSet::full(nv as u32))?;
    let all: Vec<u32> = (0..nv as u32).collect();
    let parts = crate::par::for_blocks(par, partials.len(), None, &mut stats, |range, stats| {
        let mut part = Relation::new(all.clone());
        let mut scratch = program.scratch();
        for (_, vals) in &partials[range] {
            let mut vals = vals.clone();
            if program.run(&mut vals, &mut scratch, stats) {
                part.push_row(&vals);
                stats.output_tuples += 1;
            }
        }
        part
    });
    Ok((crate::par::merge(parts), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::naive_join;

    #[test]
    fn triangle_naive() {
        let q = fdjoin_query::examples::triangle();
        let mut db = Database::new();
        // Triangle on vertices {1,2,3} plus a dangling edge.
        db.insert("R", Relation::from_rows(vec![0, 1], [[1, 2], [1, 9]]));
        db.insert("S", Relation::from_rows(vec![1, 2], [[2, 3]]));
        db.insert("T", Relation::from_rows(vec![2, 0], [[3, 1]]));
        let out = naive_join(&q, &db).unwrap().output;
        assert_eq!(out.len(), 1);
        assert_eq!(out.row(0), &[1, 2, 3]);
    }

    #[test]
    fn fig1_naive_with_udfs() {
        let q = fdjoin_query::examples::fig1_udf();
        let mut db = Database::new();
        db.insert("R", Relation::from_rows(vec![0, 1], [[1, 2]]));
        db.insert("S", Relation::from_rows(vec![1, 2], [[2, 5]]));
        db.insert("T", Relation::from_rows(vec![2, 3], [[5, 1], [5, 2]]));
        db.udfs.register(VarSet::from_vars([0, 2]), 3, |v| v[0]); // u = x
        db.udfs.register(VarSet::from_vars([1, 3]), 0, |v| v[1]); // x = u
        let out = naive_join(&q, &db).unwrap().output;
        // x=1,y=2,z=5: u must equal f(1,5)=1 and g(2,1)=1=x. T(5,1) ✓;
        // T(5,2) fails u=f(x,z).
        assert_eq!(out.len(), 1);
        assert_eq!(out.row(0), &[1, 2, 5, 1]);
    }

    #[test]
    fn udf_only_variable_is_computed() {
        // Fig 5 query: z = f(x,y) appears in no atom.
        let q = fdjoin_query::examples::fig5_udf_product();
        let mut db = Database::new();
        db.insert("R", Relation::from_rows(vec![0], [[1], [2]]));
        db.insert("S", Relation::from_rows(vec![1], [[10], [20]]));
        db.udfs
            .register(VarSet::from_vars([0, 1]), 2, |v| v[0] + v[1]);
        let out = naive_join(&q, &db).unwrap().output;
        assert_eq!(out.len(), 4);
        assert!(out.contains_row(&[1, 10, 11]));
        assert!(out.contains_row(&[2, 20, 22]));
    }

    #[test]
    fn missing_relation_is_reported() {
        let q = fdjoin_query::examples::triangle();
        let mut db = Database::new();
        db.insert("R", Relation::from_rows(vec![0, 1], [[1, 2]]));
        // S and T absent.
        let err = naive_join(&q, &db).unwrap_err();
        assert!(matches!(err, crate::engine::JoinError::MissingRelation(ref n) if n == "S"));
    }
}
