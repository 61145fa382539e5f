//! The Expansion procedure (Sec. 2) — cross-crate semantics tests:
//! guarded vs unguarded FDs, dangling-tuple removal, consistency filtering,
//! and the interaction with each algorithm's final verification.

use fdjoin::core::{naive_join, AccessPaths, Expander, Stats};
use fdjoin::lattice::VarSet;
use fdjoin::query::Query;
use fdjoin::storage::IndexSet;
use fdjoin::storage::{Database, Relation};

/// Q :- R(x,y), S(y,z), T(z,u), K(u,x) with y→z guarded in S.
fn four_cycle() -> (Query, Database) {
    let q = fdjoin::query::examples::four_cycle_key();
    let mut db = Database::new();
    db.insert("R", Relation::from_rows(vec![0, 1], [[1, 10], [2, 20]]));
    db.insert("S", Relation::from_rows(vec![1, 2], [[10, 100], [20, 200]]));
    db.insert("T", Relation::from_rows(vec![2, 3], [[100, 7], [200, 8]]));
    db.insert("K", Relation::from_rows(vec![3, 0], [[7, 1], [8, 2]]));
    (q, db)
}

#[test]
fn guarded_expansion_follows_key() {
    let (q, db) = four_cycle();
    let set = IndexSet::new();
    let paths = AccessPaths::new(&set, &q, &db).unwrap();
    let mut stats = Stats::default();
    let ex = Expander::new(&q, &db, &paths, &mut stats).unwrap();
    // Expanding R over {x,y} adds z via the key y→z in S.
    let rel = db.relation("R").unwrap();
    let expanded = ex.expand_relation(rel, &mut stats);
    assert_eq!(expanded.vars(), &[0, 1, 2]);
    assert!(expanded.contains_row(&[1, 10, 100]));
    assert!(expanded.contains_row(&[2, 20, 200]));
}

#[test]
fn dangling_tuples_dropped_by_expansion() {
    let (q, mut db) = four_cycle();
    // Add an R-tuple whose y has no S-entry: expansion must drop it.
    let mut r = db.relation("R").unwrap().clone();
    r.push_row(&[3, 30]);
    db.insert("R", r);
    let set = IndexSet::new();
    let paths = AccessPaths::new(&set, &q, &db).unwrap();
    let mut stats = Stats::default();
    let ex = Expander::new(&q, &db, &paths, &mut stats).unwrap();
    let expanded = ex.expand_relation(db.relation("R").unwrap(), &mut stats);
    assert_eq!(expanded.len(), 2, "dangling (3,30) removed");
}

#[test]
fn full_query_on_four_cycle() {
    let (q, db) = four_cycle();
    let out = naive_join(&q, &db).unwrap().output;
    assert_eq!(out.len(), 2);
    assert!(out.contains_row(&[1, 10, 100, 7]));
    let ca = fdjoin::core::chain_join(&q, &db).unwrap();
    assert_eq!(ca.output, out);
    let csma = fdjoin::core::csma_join(&q, &db).unwrap();
    assert_eq!(csma.output, out);
}

#[test]
fn udf_consistency_filters_contradictions() {
    // z = f(x,y) where relations also constrain z: contradictory tuples die.
    let mut b = Query::builder();
    let (x, y, z) = (b.var("x"), b.var("y"), b.var("z"));
    b.atom("R", &[x, y]).atom("W", &[z]);
    b.fd(&[x, y], &[z]);
    let q = b.build();
    let mut db = Database::new();
    db.insert("R", Relation::from_rows(vec![0, 1], [[1, 1], [2, 2]]));
    // f(x,y) = x + y; W only contains 2, so only (1,1) survives.
    db.insert("W", Relation::from_rows(vec![2], [[2], [5]]));
    db.udfs
        .register(VarSet::from_vars([0, 1]), 2, |v| v[0] + v[1]);
    let out = naive_join(&q, &db).unwrap().output;
    assert_eq!(out.len(), 1);
    assert_eq!(out.row(0), &[1, 1, 2]);
}

#[test]
fn verify_fds_rejects_planted_violations() {
    let (q, db) = four_cycle();
    let set = IndexSet::new();
    let paths = AccessPaths::new(&set, &q, &db).unwrap();
    let mut stats = Stats::default();
    let ex = Expander::new(&q, &db, &paths, &mut stats).unwrap();
    let all = VarSet::full(4);
    // Correct tuple.
    assert!(ex.verify_fds(all, &[1, 10, 100, 7], &mut stats));
    // z value contradicting y→z.
    assert!(!ex.verify_fds(all, &[1, 10, 200, 7], &mut stats));
}

#[test]
#[should_panic(expected = "register UDFs")]
fn missing_udf_backing_panics_loudly() {
    // An unguarded FD without a registered UDF must fail fast, not silently
    // drop tuples.
    let q = fdjoin::query::examples::fig5_udf_product();
    let mut db = Database::new();
    db.insert("R", Relation::from_rows(vec![0], [[1]]));
    db.insert("S", Relation::from_rows(vec![1], [[2]]));
    // no UDF for xy→z
    let _ = naive_join(&q, &db);
}

#[test]
fn expansion_idempotent_on_closed_relations() {
    let (q, db) = four_cycle();
    let set = IndexSet::new();
    let paths = AccessPaths::new(&set, &q, &db).unwrap();
    let mut stats = Stats::default();
    let ex = Expander::new(&q, &db, &paths, &mut stats).unwrap();
    let once = ex.expand_relation(db.relation("R").unwrap(), &mut stats);
    let twice = ex.expand_relation(&once, &mut stats);
    assert_eq!(once, twice);
}

/// Which UDF expands a tuple is a function of the registered keys, not of
/// the registry instance: on the Fig. 9 worst case (69 UDFs, several of
/// them applicable to most tuples) `UdfRegistry::find_applicable` used to
/// return whichever entry a per-instance hash seed put first, and
/// Generic-Join's `expansions` differed from one database build to the next.
#[test]
fn udf_choice_is_the_same_in_every_registry_instance() {
    use fdjoin::bigint::rat;
    use fdjoin::core::{Algorithm, Engine, ExecOptions};
    let q = fdjoin::query::examples::fig9_query();
    let opts = ExecOptions::new().algorithm(Algorithm::GenericJoin);
    let runs: Vec<_> = (0..8)
        .map(|_| {
            let db = fdjoin::instances::normal_worst_case(&q, &vec![rat(4, 1); 3], &rat(6, 1))
                .expect("integral");
            assert!(db.udfs.len() > 60, "{} UDFs", db.udfs.len());
            let r = Engine::new().execute(&q, &db, &opts).unwrap();
            (r.stats.deterministic(), r.output)
        })
        .collect();
    assert!(runs[0].0.expansions > 0);
    for (i, run) in runs.iter().enumerate() {
        assert_eq!(run, &runs[0], "instance {i} ran differently");
    }
}
