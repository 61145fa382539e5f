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
use std::borrow::Cow;

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

    // Left-deep: acc ⋈ atom ⋈ atom ⋈ …, from the first atom's rows as
    // stored when they are sorted in the atom's order (a view's Δ-first
    // plan starts from its Δ⁺ relation so), else read off its trie.
    let mut acc = match order.first() {
        Some(&first) => {
            let atom = &q.atoms()[first];
            let rel = db.relation(&atom.name)?;
            if rel.is_stored_in(&atom.vars) {
                Cow::Borrowed(rel)
            } else {
                let trie = paths.base(&atom.name, rel, &atom.vars, &mut stats);
                Cow::Owned(trie.to_relation())
            }
        }
        None => Cow::Owned(Relation::nullary_unit()),
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
        acc = Cow::Owned(extend(par, &acc, &[side], false, &out_vars, nv, &mut stats));
    }

    // Expand to all variables and verify FDs / UDF predicates, fanned out
    // over blocks of accumulator rows like the join steps above. Every row
    // holds a row of every atom, so the program leaves out the guard checks
    // whose guard relation satisfies its FD.
    let program = ex.compile_leaf(acc.var_set(), VarSet::full(nv as u32))?;
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
    use crate::engine::{binary_join, Algorithm, Engine, ExecOptions};
    use fdjoin_instances::reference_join;

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
        let expect = reference_join(&q, &db);
        let got = binary_join(&q, &db).unwrap();
        assert_eq!(got.output, expect);
        // Any atom order gives the same answer.
        let opts = ExecOptions::new()
            .algorithm(Algorithm::BinaryJoin)
            .atom_order(vec![2, 0, 1]);
        let got2 = Engine::new().execute(&q, &db, &opts).unwrap();
        assert_eq!(got2.output, expect);
    }

    /// The first atom's relation is read as stored when it is stored in
    /// the atom's order; stored in another order, it is read off its trie
    /// in the atom's order, one more build. The answer is the reference
    /// join's either way.
    #[test]
    fn the_first_atom_is_read_as_stored_only_in_atom_order() {
        let q = fdjoin_query::examples::triangle();
        let rows = [[1u64, 2], [1, 3], [2, 3], [3, 1]];
        let builds = |r: Relation| {
            let mut db = Database::new();
            db.insert("R", r);
            db.insert("S", Relation::from_rows(vec![1, 2], [[2, 3], [3, 1]]));
            db.insert(
                "T",
                Relation::from_rows(vec![2, 0], [[3, 1], [1, 1], [1, 2]]),
            );
            let opts = ExecOptions::new()
                .algorithm(Algorithm::BinaryJoin)
                .atom_order(vec![0, 1, 2]);
            let got = Engine::new().execute(&q, &db, &opts).unwrap();
            assert_eq!(got.output, reference_join(&q, &db));
            got.stats.index_builds
        };
        let stored = builds(Relation::from_rows(vec![0, 1], rows));
        assert_eq!(stored, 2, "S's and T's build sides only");
        let swapped = rows.iter().map(|&[x, y]| [y, x]);
        assert_eq!(builds(Relation::from_rows(vec![1, 0], swapped)), 3);
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
