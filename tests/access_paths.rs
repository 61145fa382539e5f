//! Acceptance tests for the shared access-path layer: trie indexes are
//! built once per (relation version, column order) and provably reused —
//! across repeated executions of one `PreparedQuery`, across
//! `Executor` pool workers, and across delta batches — with rebuilds
//! happening exactly when a relation's content version moves.

use fdjoin::core::{Algorithm, Engine, ExecOptions};
use fdjoin::delta::{DeltaBatch, DeltaOptions, MaterializedView};
use fdjoin::exec::Executor;
use fdjoin::query::examples;
use fdjoin::storage::{Database, Relation};
use std::sync::Arc;

fn fig1_db() -> Database {
    let mut db = Database::new();
    db.insert(
        "R",
        Relation::from_rows(vec![0, 1], [[1, 1], [2, 1], [1, 2], [3, 2]]),
    );
    db.insert(
        "S",
        Relation::from_rows(vec![1, 2], [[1, 1], [2, 1], [1, 2]]),
    );
    db.insert(
        "T",
        Relation::from_rows(vec![2, 3], [[1, 1], [1, 2], [2, 1], [2, 3]]),
    );
    db.udfs
        .register(fdjoin::lattice::VarSet::from_vars([0, 2]), 3, |v| v[0]);
    db.udfs
        .register(fdjoin::lattice::VarSet::from_vars([1, 3]), 0, |v| v[1]);
    db
}

/// The headline acceptance criterion: a second execution of the same
/// `PreparedQuery` builds **zero** new indexes, for every algorithm.
#[test]
fn second_execution_builds_zero_indexes() {
    let q = examples::fig1_udf();
    let db = fig1_db();
    for alg in [
        Algorithm::Chain,
        Algorithm::Sma,
        Algorithm::Csma,
        Algorithm::GenericJoin,
        Algorithm::BinaryJoin,
        Algorithm::Auto,
    ] {
        let prepared = Engine::new().prepare(&q);
        let opts = ExecOptions::new().algorithm(alg);
        let first = prepared.execute(&db, &opts).unwrap();
        let warm = prepared.prep_stats();
        let second = prepared.execute(&db, &opts).unwrap();
        let window = prepared.prep_stats().since(&warm);
        assert_eq!(
            window.index_builds, 0,
            "{alg}: second execution must not build any index"
        );
        assert_eq!(first.output, second.output, "{alg}");
        // Per-run stats tell the same story: the second run's acquisitions
        // are all hits.
        assert_eq!(second.stats.index_builds, 0, "{alg}");
        assert_eq!(second.stats.index_hits, first.stats.index_gets(), "{alg}");
    }
}

/// Index reuse across `Executor::submit`: the concurrent batch over
/// already served databases acquires every index from the cache.
#[test]
fn batch_execution_reuses_indexes() {
    let q = examples::triangle();
    let mut dbs = Vec::new();
    for k in 0..4u64 {
        let mut db = Database::new();
        db.insert(
            "R",
            Relation::from_rows(vec![0, 1], [[1, 2], [2, 3], [k + 3, 1]]),
        );
        db.insert("S", Relation::from_rows(vec![1, 2], [[2, 3], [3, 1]]));
        db.insert("T", Relation::from_rows(vec![2, 0], [[3, 1], [1, 2]]));
        dbs.push(db);
    }
    let dbs = Arc::new(dbs);
    let prepared = Arc::new(Engine::new().prepare(&q));
    let opts = ExecOptions::new();
    // Warm serially (4 databases × their relation versions).
    let serial: Vec<_> = dbs
        .iter()
        .map(|db| prepared.execute(db, &opts).unwrap())
        .collect();
    let warm = prepared.prep_stats();
    assert!(warm.index_builds > 0, "first pass builds the tries");
    // Two concurrent batch rounds over the same databases: zero rebuilds.
    for threads in [2, 4] {
        let batch = Executor::with_threads(threads)
            .submit(&prepared, &dbs, &opts)
            .wait();
        assert_eq!(batch.stats.failed, 0);
        for (r, s) in batch.results.iter().zip(&serial) {
            assert_eq!(r.as_ref().unwrap().output, s.output);
        }
    }
    let window = prepared.prep_stats().since(&warm);
    assert_eq!(window.index_builds, 0, "batch served entirely from cache");
    assert!(window.index_hits > 0);
}

/// Index reuse across delta batches, and rebuild-on-version-bump: a delta
/// that touches one relation invalidates only the entries whose derivation
/// read it; a no-change replay rebuilds nothing.
#[test]
fn delta_batches_rebuild_only_what_changed() {
    let q = examples::triangle();
    let mut db = Database::new();
    db.insert(
        "R",
        Relation::from_rows(vec![0, 1], [[1, 2], [2, 3], [4, 1]]),
    );
    db.insert("S", Relation::from_rows(vec![1, 2], [[2, 3], [3, 1]]));
    db.insert("T", Relation::from_rows(vec![2, 0], [[3, 1], [1, 2]]));

    let prepared = Arc::new(Engine::new().prepare(&q));
    // Pin the chain algorithm so every delta join replays the same plan
    // shape — the reuse below is then exactly "which relations' expanded
    // tries survived the delta".
    let opts = DeltaOptions::new().exec(ExecOptions::new().algorithm(Algorithm::Chain));
    let mut view = MaterializedView::materialize(Arc::clone(&prepared), db, opts).unwrap();
    let after_materialize = prepared.prep_stats();
    assert!(after_materialize.index_builds > 0);

    // A delta touching R: its relations' versions move, so *some* indexes
    // rebuild — but strictly fewer than materialization built, because the
    // untouched relations' tries keep hitting.
    let delta = DeltaBatch::new().insert("R", [9u64, 2]);
    view.apply_delta(&delta).unwrap();
    let after_delta = prepared.prep_stats();
    let window = after_delta.since(&after_materialize);
    assert!(window.index_builds > 0, "R's version bump must rebuild");
    assert!(
        window.index_builds < after_materialize.index_builds,
        "untouched relations reuse their tries ({} rebuilt of {})",
        window.index_builds,
        after_materialize.index_builds
    );
    assert!(window.index_hits > 0, "S/T tries served from cache");

    // Replaying a no-op delta (same row again) leaves every version in
    // place: zero index builds across the whole delta pass.
    let replay = DeltaBatch::new().insert("R", [9u64, 2]);
    view.apply_delta(&replay).unwrap();
    let window = prepared.prep_stats().since(&after_delta);
    assert_eq!(
        window.index_builds, 0,
        "no content change ⇒ no version bump ⇒ no rebuild"
    );

    // The view still agrees with a fresh join.
    let fresh = prepared
        .execute(view.database(), &ExecOptions::new())
        .unwrap();
    assert_eq!(view.output(), &fresh.output);
}

/// A derived trie's key is what its expansion read — the atom's own
/// version plus every guard relation's — so a delta to a plain atom
/// rebuilds that atom's `R_j⁺` tries only, while a delta to the guard
/// relation rebuilds every atom's: `R(x,y), S(y,z), T(z,u)` with `y → z`
/// guarded by `S`.
#[test]
fn guard_delta_rebuilds_exactly_the_tries_that_read_it() {
    let q = examples::simple_fd_path();
    let mut db = Database::new();
    db.insert(
        "R",
        Relation::from_rows(vec![0, 1], [[1, 1], [2, 1], [3, 2]]),
    );
    db.insert("S", Relation::from_rows(vec![1, 2], [[1, 5], [2, 6]]));
    db.insert("T", Relation::from_rows(vec![2, 3], [[5, 9], [6, 8]]));
    let prepared = Engine::new().prepare(&q);
    let opts = ExecOptions::new().algorithm(Algorithm::Chain);
    // Index builds of one execution over `db` with `name` grown by `row`,
    // in a `PrepStats::since` window; everything else stays warm.
    let builds_after_touching = |name: &str, row: [u64; 2]| {
        let mut touched = db.clone();
        touched
            .relation_mut(name)
            .unwrap()
            .apply_delta([row], [] as [&[u64]; 0]);
        let before = prepared.prep_stats();
        prepared.execute(&touched, &opts).unwrap();
        prepared.prep_stats().since(&before).index_builds
    };

    let cold = prepared.execute(&db, &opts).unwrap().stats.index_builds;
    let r = builds_after_touching("R", [4, 2]);
    let t = builds_after_touching("T", [6, 7]);
    let s = builds_after_touching("S", [3, 7]);
    assert!(r > 0 && t > 0, "a touched atom rebuilds its own tries");
    // The guard's version is in every atom's key: all of it rebuilds —
    // S's base guard trie and every derived trie.
    assert_eq!(s, cold, "touching the guard rebuilds everything");
    // R's and T's deltas rebuilt disjoint derived tries and nothing of S:
    // what is left of a cold run is S's guard trie plus S⁺'s own.
    assert!(r + t + 2 <= cold, "R: {r}, T: {t}, cold: {cold}");
}

/// The cache is engine-wide: a second `PreparedQuery` (same or different
/// query text) probing the same relation versions reuses the base tries
/// the first one built — while query-dependent *expanded* tries never
/// alias across queries (each carries its own expansion token).
#[test]
fn sibling_prepared_queries_share_base_tries() {
    let q = examples::triangle();
    let mut db = Database::new();
    db.insert("R", Relation::from_rows(vec![0, 1], [[1, 2], [2, 3]]));
    db.insert("S", Relation::from_rows(vec![1, 2], [[2, 3], [3, 1]]));
    db.insert("T", Relation::from_rows(vec![2, 0], [[3, 1], [1, 2]]));
    let engine = Engine::new();
    let opts = ExecOptions::new().algorithm(Algorithm::GenericJoin);

    let first = engine.prepare(&q);
    let r1 = first.execute(&db, &opts).unwrap();
    assert!(r1.stats.index_builds > 0);

    // A sibling prepared from the same engine: Generic-Join probes only
    // base tries, which are shared by (name, version, order).
    let second = engine.prepare(&q);
    let r2 = second.execute(&db, &opts).unwrap();
    assert_eq!(r2.stats.index_builds, 0, "sibling reuses base tries");
    assert_eq!(r1.output, r2.output);
    // And the sibling's PrepStats window starts at its own prepare time.
    assert_eq!(second.prep_stats().index_builds, 0);
}

/// Clones share content versions until they diverge, so serving the same
/// logical database through a cloned handle costs no rebuilds.
#[test]
fn cloned_databases_share_indexes() {
    let q = examples::triangle();
    let mut db = Database::new();
    db.insert("R", Relation::from_rows(vec![0, 1], [[1, 2], [2, 3]]));
    db.insert("S", Relation::from_rows(vec![1, 2], [[2, 3], [3, 1]]));
    db.insert("T", Relation::from_rows(vec![2, 0], [[3, 1], [1, 2]]));
    let prepared = Engine::new().prepare(&q);
    prepared.execute(&db, &ExecOptions::new()).unwrap();
    let warm = prepared.prep_stats();

    let clone = db.clone();
    prepared.execute(&clone, &ExecOptions::new()).unwrap();
    let window = prepared.prep_stats().since(&warm);
    assert_eq!(window.index_builds, 0, "clone shares every content version");

    // Mutating the clone diverges it; only then do rebuilds happen.
    let mut diverged = clone.clone();
    diverged
        .relation_mut("R")
        .unwrap()
        .apply_delta([[7u64, 8]], [] as [&[u64]; 0]);
    prepared.execute(&diverged, &ExecOptions::new()).unwrap();
    let window = prepared.prep_stats().since(&warm);
    assert!(window.index_builds > 0, "diverged content rebuilds");
}
