//! Generic-Join (NPRR / LFTJ style): the FD-oblivious worst-case-optimal
//! baseline ([18, 19, 23] in the paper).
//!
//! The search itself is [`crate::descent`] — variables bound one at a time
//! in a fixed order, candidates at each level the leapfrog intersection of
//! every atom containing the variable, over cached trie indexes. This
//! module only materializes it: the sequential run pushes every answer of
//! `run(0, ..)` into the output, the parallel run fans the root values out.
//! Runs within the AGM bound of the FD-stripped query — and therefore
//! `Ω(N²)` on the paper's Fig. 1 instance, which is the point of
//! experiment E1.

use crate::descent::Descent;
use crate::{AccessPaths, Stats};
use fdjoin_query::Query;
use fdjoin_storage::{Database, Relation};
use std::ops::ControlFlow;

/// Evaluate `q` on `db` with Generic-Join, binding variables in `var_order`
/// (default: ascending id) and, with `bind_fds`, computing FD-determined
/// ones instead of intersecting (footnote 1 of the paper). Output columns
/// are all query variables in ascending id.
pub(crate) fn execute(
    q: &Query,
    db: &Database,
    var_order: Option<&[u32]>,
    bind_fds: bool,
    paths: &AccessPaths<'_>,
    par: &crate::par::ParCtx,
) -> Result<(Relation, Stats), crate::engine::JoinError> {
    let mut stats = Stats::default();
    let descent = Descent::open(q, db, paths, var_order, bind_fds, &mut stats)?;
    let all: Vec<u32> = (0..q.n_vars() as u32).collect();

    // Parallel path: intersect the first variable's domain on this thread
    // (depth 0 of the sequential search, counting the same probes), then
    // fan the matched root values out over tasks balanced by measured
    // child counts; each task searches below its values from fresh root
    // cursors.
    if par.tasks > 1 && descent.splits_at_root() {
        let (roots, weights) = descent.root_matches(&mut stats);
        let parts = crate::par::for_blocks(
            par,
            roots.len(),
            Some(&weights),
            &mut stats,
            |range, stats| {
                let mut part = Relation::new(all.clone());
                let (mut pos, mut scratch) = (descent.start(), descent.scratch());
                for &root in &roots[range] {
                    descent.bind_root(&mut pos, root, stats);
                    let _ = descent.run(&mut pos, 1, &mut scratch, stats, |row| {
                        part.push_row(row);
                        ControlFlow::Continue(())
                    });
                }
                part
            },
        );
        return Ok((crate::par::merge(parts), stats));
    }

    let mut out = Relation::new(all);
    let mut scratch = descent.scratch();
    let _ = descent.run(&mut descent.start(), 0, &mut scratch, &mut stats, |row| {
        out.push_row(row);
        ControlFlow::Continue(())
    });
    out.sort_dedup();
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use crate::engine::{generic_join, naive_join, Algorithm, Engine, ExecOptions};
    use fdjoin_lattice::VarSet;
    use fdjoin_storage::{Database, Relation};

    #[test]
    fn triangle_matches_naive() {
        let q = fdjoin_query::examples::triangle();
        let mut db = Database::new();
        db.insert(
            "R",
            Relation::from_rows(vec![0, 1], [[1, 2], [1, 3], [2, 3], [4, 5]]),
        );
        db.insert(
            "S",
            Relation::from_rows(vec![1, 2], [[2, 3], [3, 1], [5, 4]]),
        );
        db.insert(
            "T",
            Relation::from_rows(vec![2, 0], [[3, 1], [1, 1], [4, 4]]),
        );
        let expect = naive_join(&q, &db).unwrap().output;
        let got = generic_join(&q, &db).unwrap();
        assert_eq!(got.output, expect);
        assert!(got.stats.probes > 0);
        assert!(got.stats.index_builds > 0, "atom tries built");
    }

    #[test]
    fn fig1_with_and_without_fd_binding() {
        let q = fdjoin_query::examples::fig1_udf();
        let mut db = Database::new();
        db.insert("R", Relation::from_rows(vec![0, 1], [[1, 1], [2, 1]]));
        db.insert("S", Relation::from_rows(vec![1, 2], [[1, 1], [1, 2]]));
        db.insert("T", Relation::from_rows(vec![2, 3], [[1, 1], [2, 2]]));
        db.udfs.register(VarSet::from_vars([0, 2]), 3, |v| v[0]); // u = x
        db.udfs.register(VarSet::from_vars([1, 3]), 0, |v| v[1]); // x = u
        let expect = naive_join(&q, &db).unwrap().output;
        let plain = generic_join(&q, &db).unwrap();
        let fdbind = Engine::new()
            .execute(
                &q,
                &db,
                &ExecOptions::new()
                    .algorithm(Algorithm::GenericJoin)
                    .bind_fds(true),
            )
            .unwrap();
        assert_eq!(plain.output, expect);
        assert_eq!(fdbind.output, expect);
    }

    #[test]
    fn respects_variable_order() {
        let q = fdjoin_query::examples::triangle();
        let mut db = Database::new();
        db.insert("R", Relation::from_rows(vec![0, 1], [[1, 2]]));
        db.insert("S", Relation::from_rows(vec![1, 2], [[2, 3]]));
        db.insert("T", Relation::from_rows(vec![2, 0], [[3, 1]]));
        for order in [vec![0, 1, 2], vec![2, 1, 0], vec![1, 0, 2]] {
            let opts = ExecOptions::new()
                .algorithm(Algorithm::GenericJoin)
                .var_order(order);
            let out = Engine::new().execute(&q, &db, &opts).unwrap();
            assert_eq!(out.output.len(), 1);
            assert_eq!(out.output.row(0), &[1, 2, 3]);
        }
    }

    #[test]
    fn empty_relation_short_circuits() {
        let q = fdjoin_query::examples::triangle();
        let mut db = Database::new();
        db.insert("R", Relation::from_rows(vec![0, 1], [[1, 2]]));
        db.insert("S", Relation::new(vec![1, 2]));
        db.insert("T", Relation::from_rows(vec![2, 0], [[3, 1]]));
        let out = generic_join(&q, &db).unwrap();
        assert!(out.output.is_empty());
    }

    #[test]
    fn rerun_reuses_atom_tries() {
        let q = fdjoin_query::examples::triangle();
        let mut db = Database::new();
        db.insert("R", Relation::from_rows(vec![0, 1], [[1, 2], [2, 3]]));
        db.insert("S", Relation::from_rows(vec![1, 2], [[2, 3], [3, 1]]));
        db.insert("T", Relation::from_rows(vec![2, 0], [[3, 1], [1, 2]]));
        let prepared = Engine::new().prepare(&q);
        let opts = ExecOptions::new().algorithm(Algorithm::GenericJoin);
        let first = prepared.execute(&db, &opts).unwrap();
        let second = prepared.execute(&db, &opts).unwrap();
        assert!(first.stats.index_builds > 0);
        assert_eq!(second.stats.index_builds, 0, "all tries cached");
        assert_eq!(second.stats.index_hits, first.stats.index_gets());
        assert_eq!(first.output, second.output);
        assert_eq!(first.stats.deterministic(), second.stats.deterministic());
    }
}
