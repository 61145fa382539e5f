//! The reference evaluator every suite checks the engine against.
//!
//! [`reference_join`] uses only the query, storage and bounds crates, never
//! the engine it checks, and refuses by panicking what the paper's
//! guarantees do not cover.

use fdjoin_bigint::{rat, Rational};
use fdjoin_bounds::llp::solve_llp;
use fdjoin_lattice::VarSet;
use fdjoin_query::{Fd, Query};
use fdjoin_storage::{Database, Relation, UdfFn, Value};
use std::collections::HashMap;

/// Evaluate `q` on `db` from the definition: the natural join of the atoms,
/// each variable in no atom computed by a UDF, and every unguarded FD that
/// has a function checked. Each relation is read by its own column
/// variables, in whatever order it stores them. Columns are all variables
/// in ascending id; rows are sorted and deduplicated.
///
/// Panics if a relation is missing, a guarded FD fails on its guard
/// relation (naming the FD, the relation and two witness rows), a variable
/// is reached by no UDF (the engine's `MissingUdf`), or `log₂|Q(D)|`
/// exceeds the LLP bound of the relation sizes.
pub fn reference_join(q: &Query, db: &Database) -> Relation {
    let rels: Vec<&Relation> = q
        .atoms()
        .iter()
        .map(|a| db.relation(&a.name).expect("relation stored"))
        .collect();
    for fd in q.fds.fds() {
        if let Some(j) = q.guard_of(fd) {
            assert_fd_holds(q, j, rels[j], fd);
        }
    }

    // Join: extend each tuple by the rows of the next atom that agree with
    // it on the variables already bound.
    let (mut bound, mut tuples) = (VarSet::EMPTY, vec![vec![0; q.n_vars()]]);
    for (atom, rel) in q.atoms().iter().zip(&rels) {
        let shared: Vec<u32> = atom.var_set().intersect(bound).iter().collect();
        let mut index: HashMap<Vec<Value>, Vec<&[Value]>> = HashMap::new();
        for row in rel.rows() {
            index
                .entry(project(rel, row, &shared))
                .or_default()
                .push(row);
        }
        let mut next = Vec::new();
        for t in &tuples {
            let key: Vec<Value> = shared.iter().map(|&v| t[v as usize]).collect();
            'rows: for row in index.get(&key).into_iter().flatten() {
                let (mut ext, mut seen) = (t.clone(), bound);
                for (&v, &x) in rel.vars().iter().zip(row.iter()) {
                    if seen.contains(v) && ext[v as usize] != x {
                        continue 'rows;
                    }
                    (ext[v as usize], seen) = (x, seen.insert(v));
                }
                next.push(ext);
            }
        }
        (tuples, bound) = (next, bound.union(atom.var_set()));
    }

    // Fill the variables in no atom, one UDF at a time, then check.
    let unguarded: Vec<&Fd> = q
        .fds
        .fds()
        .iter()
        .filter(|fd| q.guard_of(fd).is_none())
        .collect();
    while bound != q.universe() {
        let mut todo = unguarded.iter().filter(|fd| fd.lhs.is_subset(bound));
        let Some((v, (args, f))) = todo.find_map(|fd| {
            let mut targets = fd.rhs.minus(bound).iter();
            targets.find_map(|v| Some((v, db.udfs.find_applicable(bound, v)?)))
        }) else {
            panic!("{} reaches no UDF: register one", q.universe().minus(bound));
        };
        for t in &mut tuples {
            t[v as usize] = call(f, args, t);
        }
        bound = bound.insert(v);
    }
    tuples.retain(|t| {
        unguarded.iter().all(|fd| {
            fd.rhs.iter().all(|v| {
                let udf = db.udfs.find_applicable(fd.lhs, v);
                udf.is_none_or(|(args, f)| t[v as usize] == call(f, args, t))
            })
        })
    });
    let mut out = Relation::from_rows((0..q.n_vars() as u32).collect(), tuples);
    out.sort_dedup();

    // The sandwich's upper clause: |Q(D)| ≤ 2^LLP on data satisfying its FDs.
    let pres = q.lattice_presentation();
    let logs: Vec<Rational> = rels.iter().map(|r| log2(r.len())).collect();
    let glvv = solve_llp(&pres.lattice, &pres.inputs, &logs).value;
    // `log2` rounds up by < 2^-16; tolerate that slack.
    let (rows, body) = (out.len(), q.display_body());
    assert!(
        log2(rows) <= &glvv + &rat(1, 4096),
        "{body}: {rows} rows exceed GLVV 2^{}",
        glvv.to_f64()
    );
    out
}

/// `log₂ max(n, 1)` from above, to 16 fractional bits.
fn log2(n: usize) -> Rational {
    Rational::log2_approx(n.max(1) as u64, 16)
}

/// `f` applied to `t`'s values of `args`.
fn call(f: &UdfFn, args: VarSet, t: &[Value]) -> Value {
    f(&args.iter().map(|u| t[u as usize]).collect::<Vec<_>>())
}

/// The values of `vars` in `row`, a row of `rel`.
fn project(rel: &Relation, row: &[Value], vars: &[u32]) -> Vec<Value> {
    vars.iter()
        .map(|&v| {
            row[rel
                .col_of(v)
                .expect("the relation stores the atom's variables")]
        })
        .collect()
}

/// Panic unless `fd` holds on `rel`, the relation of `q`'s atom `j`.
fn assert_fd_holds(q: &Query, j: usize, rel: &Relation, fd: &Fd) {
    let atom = &q.atoms()[j];
    let [lhs, rhs] = [fd.lhs, fd.rhs].map(|s| s.iter().collect::<Vec<_>>());
    let mut first: HashMap<Vec<Value>, &[Value]> = HashMap::new();
    for row in rel.rows() {
        let seen = *first.entry(project(rel, row, &lhs)).or_insert(row);
        if project(rel, seen, &rhs) != project(rel, row, &rhs) {
            let [l, r] =
                [&lhs, &rhs].map(|vs| vs.iter().map(|&v| q.var_name(v)).collect::<Vec<_>>());
            let (l, r, name) = (l.join(","), r.join(","), &atom.name);
            panic!("guarded FD {l} → {r} fails on {name}: rows {seen:?} and {row:?}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdjoin_query::examples;

    #[test]
    fn triangle_drops_a_dangling_edge() {
        let q = examples::triangle();
        let mut db = Database::new();
        db.insert("R", Relation::from_rows(vec![0, 1], [[1, 2], [1, 9]]));
        db.insert("S", Relation::from_rows(vec![1, 2], [[2, 3]]));
        db.insert("T", Relation::from_rows(vec![2, 0], [[3, 1]]));
        let out = reference_join(&q, &db);
        assert_eq!(out, Relation::from_rows(vec![0, 1, 2], [[1, 2, 3]]));
    }

    #[test]
    fn a_relation_is_read_by_its_own_columns() {
        let q = examples::triangle();
        let mut db = Database::new();
        db.insert("S", Relation::from_rows(vec![1, 2], [[2, 3], [3, 1]]));
        db.insert(
            "T",
            Relation::from_rows(vec![2, 0], [[3, 1], [1, 1], [1, 2]]),
        );
        db.insert(
            "R",
            Relation::from_rows(vec![0, 1], [[1, 2], [1, 3], [2, 3]]),
        );
        let want = reference_join(&q, &db);
        assert_eq!(want.len(), 3);
        // R(x, y) stored with its columns swapped: the same rows.
        db.insert(
            "R",
            Relation::from_rows(vec![1, 0], [[2, 1], [3, 1], [3, 2]]),
        );
        assert_eq!(reference_join(&q, &db), want);
    }

    #[test]
    fn fig1_keeps_only_tuples_its_udfs_agree_with() {
        let q = examples::fig1_udf();
        let mut db = Database::new();
        db.insert("R", Relation::from_rows(vec![0, 1], [[1, 2]]));
        db.insert("S", Relation::from_rows(vec![1, 2], [[2, 5]]));
        db.insert("T", Relation::from_rows(vec![2, 3], [[5, 1], [5, 2]]));
        db.udfs.register(VarSet::from_vars([0, 2]), 3, |v| v[0]); // u = x
        db.udfs.register(VarSet::from_vars([1, 3]), 0, |v| v[1]); // x = u
                                                                  // x=1,y=2,z=5: u must equal f(1,5)=1 and g(2,1)=1=x. T(5,1) ✓;
                                                                  // T(5,2) fails u=f(x,z).
        let out = reference_join(&q, &db);
        assert_eq!(out, Relation::from_rows(vec![0, 1, 2, 3], [[1, 2, 5, 1]]));
    }

    #[test]
    fn udf_only_variable_is_computed() {
        // Fig 5 query: z = f(x,y) appears in no atom.
        let q = examples::fig5_udf_product();
        let mut db = fig5_db();
        db.udfs
            .register(VarSet::from_vars([0, 1]), 2, |v| v[0] + v[1]);
        let out = reference_join(&q, &db);
        assert_eq!(out.len(), 4);
        assert!(out.contains_row(&[1, 10, 11]));
        assert!(out.contains_row(&[2, 20, 22]));
    }

    #[test]
    #[should_panic(expected = "reaches no UDF")]
    fn an_unreached_variable_is_refused() {
        reference_join(&examples::fig5_udf_product(), &fig5_db());
    }

    /// The triangle with `y → z` on data whose `S` violates it: the engine
    /// keeps `(0,1,1)` and drops `(0,1,2)` without a word.
    #[test]
    #[should_panic(expected = "guarded FD y → z fails on S: rows [1, 1] and [1, 2]")]
    fn a_violated_guarded_fd_is_refused() {
        let mut b = Query::builder();
        let (x, y, z) = (b.var("x"), b.var("y"), b.var("z"));
        b.atom("R", &[x, y]).atom("S", &[y, z]).atom("T", &[z, x]);
        b.fd(&[y], &[z]);
        let q = b.build();
        let mut db = Database::new();
        db.insert("R", Relation::from_rows(vec![0, 1], [[0, 1]]));
        db.insert("S", Relation::from_rows(vec![1, 2], [[1, 1], [1, 2]]));
        db.insert("T", Relation::from_rows(vec![2, 0], [[1, 0], [2, 0]]));
        reference_join(&q, &db);
    }

    fn fig5_db() -> Database {
        let mut db = Database::new();
        db.insert("R", Relation::from_rows(vec![0], [[1], [2]]));
        db.insert("S", Relation::from_rows(vec![1], [[10], [20]]));
        db
    }
}
