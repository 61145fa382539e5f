//! Traditional left-deep binary join plans — the "query plan" baseline
//! whose intermediate results blow up to `Ω(N²)` on the paper's motivating
//! instances (Sec. 1.1). Build sides are cached trie indexes (shared
//! columns first) from the access-path layer; each pairwise join is one
//! [`extend`](crate::extend) step with the build side as its only side and
//! the empty program.

use crate::engine::JoinError;
use crate::extend::{extend, Side};
use crate::{AccessPaths, Expander, Stats};
use fdjoin_lattice::VarSet;
use fdjoin_query::Query;
use fdjoin_storage::{Database, Relation, Value};

/// Evaluate `q` with pairwise joins in the given atom order (default:
/// body order), then expansion + FD verification. Output columns are all
/// query variables in ascending id.
pub(crate) fn execute(
    q: &Query,
    db: &Database,
    atom_order: Option<&[usize]>,
    paths: &AccessPaths<'_>,
    par: &crate::par::ParCtx,
) -> Result<(Relation, Stats), JoinError> {
    let mut stats = Stats::default();
    let ex = Expander::new(q, db, paths, &mut stats)?;
    let default_order: Vec<usize> = (0..q.atoms().len()).collect();
    let order: &[usize] = atom_order.unwrap_or(&default_order);
    let nv = q.n_vars();

    // Left-deep: acc ⋈ atom ⋈ atom ⋈ …
    let mut acc = match order.first() {
        Some(&first) => {
            let atom = &q.atoms()[first];
            paths
                .base(&atom.name, db.relation(&atom.name)?, &atom.vars, &mut stats)
                .to_relation()
        }
        None => Relation::nullary_unit(),
    };
    for &ai in order.iter().skip(1) {
        let atom = &q.atoms()[ai];
        let rel = db.relation(&atom.name)?;
        let shared: Vec<u32> = atom
            .vars
            .iter()
            .copied()
            .filter(|&v| acc.col_of(v).is_some())
            .collect();
        let fresh: Vec<u32> = atom
            .vars
            .iter()
            .copied()
            .filter(|&v| acc.col_of(v).is_none())
            .collect();
        // Build side: the atom's relation indexed shared-columns-first,
        // served from (and cached in) the access-path layer.
        let build_order: Vec<u32> = shared.iter().chain(&fresh).copied().collect();
        let index = paths.base(&atom.name, rel, &build_order, &mut stats);
        let mut out_vars: Vec<u32> = acc.vars().to_vec();
        out_vars.extend(&fresh);
        // The empty program: FDs are not verified between joins — the
        // unbounded intermediates are the point of this baseline.
        let side = Side {
            trie: &index,
            key_cols: shared.iter().map(|&v| acc.col_of(v).unwrap()).collect(),
            program: ex.compile_fused(VarSet::EMPTY, VarSet::EMPTY)?,
        };
        acc = extend(par, &acc, &[side], false, &out_vars, nv, &mut stats);
    }

    // Expand to all variables and verify FDs / UDF predicates, fanned out
    // over blocks of accumulator rows like the join steps above.
    let program = ex.compile_fused(acc.var_set(), VarSet::full(nv as u32))?;
    let all: Vec<u32> = (0..nv as u32).collect();
    let parts = crate::par::for_blocks(par, acc.len(), None, &mut stats, |rows, stats| {
        let mut part = Relation::new(all.clone());
        let mut vals = vec![0 as Value; nv];
        let mut scratch = program.scratch();
        for row in rows.map(|ri| acc.row(ri)) {
            for (&v, &x) in acc.vars().iter().zip(row) {
                vals[v as usize] = x;
            }
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
    use crate::engine::{binary_join, naive_join, Algorithm, Engine, ExecOptions};

    #[test]
    fn matches_naive_on_triangle() {
        let q = fdjoin_query::examples::triangle();
        let mut db = Database::new();
        db.insert(
            "R",
            Relation::from_rows(vec![0, 1], [[1, 2], [1, 3], [2, 3]]),
        );
        db.insert("S", Relation::from_rows(vec![1, 2], [[2, 3], [3, 1]]));
        db.insert(
            "T",
            Relation::from_rows(vec![2, 0], [[3, 1], [1, 1], [1, 2]]),
        );
        let expect = naive_join(&q, &db).unwrap().output;
        let got = binary_join(&q, &db).unwrap();
        assert_eq!(got.output, expect);
        // Any atom order gives the same answer.
        let opts = ExecOptions::new()
            .algorithm(Algorithm::BinaryJoin)
            .atom_order(vec![2, 0, 1]);
        let got2 = Engine::new().execute(&q, &db, &opts).unwrap();
        assert_eq!(got2.output, expect);
    }

    #[test]
    fn intermediate_blowup_is_visible() {
        // The Sec. 1.1 blowup instance: R={(i,1)}, S={(1,1)}, T={(1,i)}.
        // Joining R ⋈ S ⋈ T materializes N² intermediates before the UDFs
        // filter them.
        let q = fdjoin_query::examples::fig1_udf();
        let n = 32u64;
        let mut db = Database::new();
        let r: Vec<[u64; 2]> = (1..=n).map(|i| [i, 1]).collect();
        let t: Vec<[u64; 2]> = (1..=n).map(|i| [1, i]).collect();
        db.insert("R", Relation::from_rows(vec![0, 1], r));
        db.insert("S", Relation::from_rows(vec![1, 2], [[1, 1]]));
        db.insert("T", Relation::from_rows(vec![2, 3], t));
        db.udfs.register(VarSet::from_vars([0, 2]), 3, |v| v[0]); // u = x
        db.udfs.register(VarSet::from_vars([1, 3]), 0, |v| v[1]); // x = u
        let out = binary_join(&q, &db).unwrap();
        // Output: for each x, tuple (x,1,1,x) — u=f(x,z)=x, x=g(y,u)=u ✓.
        assert_eq!(out.output.len(), n as usize);
        assert!(
            out.stats.intermediate_tuples >= n * n,
            "binary join must materialize the quadratic intermediate ({} < {})",
            out.stats.intermediate_tuples,
            n * n
        );
    }
}
