//! Incremental maintenance end to end: correctness vs. fresh joins, the
//! fallback threshold, plan reuse observability, serving-layer streams,
//! and the error contract.

use fdjoin_core::{Algorithm, Engine, ExecOptions, JoinError, PlanCache};
use fdjoin_delta::{DeltaBatch, DeltaOptions, MaterializedView, SubmitDeltas};
use fdjoin_exec::Executor;
use fdjoin_instances::{random_instance, reference_join};
use fdjoin_lattice::VarSet;
use fdjoin_query::examples;
use fdjoin_storage::{Database, Relation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn triangle_db(seed: u64, rows: usize) -> Database {
    let q = examples::triangle();
    let mut rng = StdRng::seed_from_u64(seed);
    random_instance(&q, &mut rng, rows, 85)
}

fn assert_consistent(view: &MaterializedView, ctx: &str) {
    let q = view.prepared().query();
    let fresh = reference_join(q, view.database());
    assert_eq!(view.output(), &fresh, "{ctx}: view must equal a fresh join");
}

#[test]
fn inserts_and_deletes_maintain_the_output() {
    let q = examples::triangle();
    let db = triangle_db(5, 30);
    let prepared = Arc::new(Engine::new().prepare(&q));
    let mut view = MaterializedView::materialize(
        Arc::clone(&prepared),
        db.clone(),
        DeltaOptions::new().max_delta_fraction(1.0),
    )
    .unwrap();
    assert_consistent(&view, "materialize");

    // Insert edges that close new triangles, delete an existing R edge.
    let before_len = view.output().len() as u64;
    let r0: Vec<u64> = db.relation("R").unwrap().row(0).to_vec();
    let delta = DeltaBatch::new()
        .insert("R", [101, 102])
        .insert("S", [102, 103])
        .insert("T", [103, 101])
        .delete("R", r0.clone());
    let bs = view.apply_delta(&delta).unwrap();
    assert_consistent(&view, "after mixed delta");
    assert!(view.output().contains_row(&[101, 102, 103]));
    assert_eq!(bs.full_recomputes, 0);
    assert_eq!(bs.delta_joins, 3);
    assert_eq!(bs.deletes_applied, 1);
    assert_eq!(bs.inserts_applied, 3);
    assert!(bs.tuples_added >= 1);
    assert_eq!(
        bs.revalidated, before_len,
        "a batch with deletes revalidates every materialized tuple"
    );
    assert!(bs.tuples_touched() >= bs.tuples_added + bs.tuples_removed);

    // Deleting one of the new edges removes exactly that triangle.
    let bs = view
        .apply_delta(&DeltaBatch::new().delete("S", [102, 103]))
        .unwrap();
    assert_consistent(&view, "after delete");
    assert!(!view.output().contains_row(&[101, 102, 103]));
    assert_eq!(bs.delta_joins, 0, "deletes alone need no delta join");
    assert!(bs.revalidated > 0, "deletes revalidate the materialization");

    // Cumulative stats accrued.
    let total = view.stats();
    assert_eq!(total.batches, 2);
    assert_eq!(total.deletes_applied, 2);
}

/// The triangle `(1, 2, 3)` plus a few edges that close nothing.
fn one_triangle_db() -> Database {
    let mut db = Database::new();
    db.insert("R", Relation::from_rows(vec![0, 1], [[1, 2], [7, 8]]));
    db.insert("S", Relation::from_rows(vec![1, 2], [[2, 3], [8, 9]]));
    db.insert("T", Relation::from_rows(vec![2, 0], [[3, 1], [9, 6]]));
    db
}

#[test]
fn a_triangle_closed_by_two_inserts_is_added_once() {
    let q = examples::triangle();
    let prepared = Arc::new(Engine::new().prepare(&q));
    let opts = DeltaOptions::new().max_delta_fraction(1.0);
    let mut view =
        MaterializedView::materialize(Arc::clone(&prepared), one_triangle_db(), opts).unwrap();
    // R(1,5) and S(5,3) with the stored T(3,1) close (1,5,3): both Δ⁺
    // joins run against final versions, so both produce it.
    let delta = DeltaBatch::new().insert("R", [1, 5]).insert("S", [5, 3]);
    let bs = view.apply_delta(&delta).unwrap();
    assert_consistent(&view, "two inserts, one triangle");
    assert_eq!(bs.delta_joins, 2);
    assert_eq!(
        bs.tuples_added, 1,
        "the doubly produced triangle counts once"
    );
    assert_eq!(view.output().len(), 2);
    assert!(view.output().contains_row(&[1, 5, 3]));
}

#[test]
fn a_row_deleted_and_reinserted_in_one_batch_keeps_its_tuples() {
    let q = examples::triangle();
    let prepared = Arc::new(Engine::new().prepare(&q));
    let opts = DeltaOptions::new().max_delta_fraction(1.0);
    let mut view =
        MaterializedView::materialize(Arc::clone(&prepared), one_triangle_db(), opts).unwrap();
    // R(1,2) leaves and comes back; S(8,9) really leaves, so the batch
    // revalidates the materialization.
    let delta = DeltaBatch::new()
        .delete("R", [1, 2])
        .insert("R", [1, 2])
        .delete("S", [8, 9]);
    let bs = view.apply_delta(&delta).unwrap();
    assert_consistent(&view, "delete + re-insert");
    assert!(view.output().contains_row(&[1, 2, 3]));
    assert_eq!((bs.inserts_applied, bs.deletes_applied), (0, 1));
    assert_eq!((bs.tuples_added, bs.tuples_removed), (0, 0));
    assert_eq!(bs.revalidated, 1);
}

#[test]
fn delta_sequences_work_with_fds_and_udfs() {
    // fig1 has two unguarded FDs (UDF-backed); composite_key a guarded one.
    for q in [examples::fig1_udf(), examples::composite_key()] {
        let mut rng = StdRng::seed_from_u64(77);
        let db = random_instance(&q, &mut rng, 24, 80);
        // Draw FD-consistent inserts from the same coordinate scheme.
        let mut rng2 = StdRng::seed_from_u64(978);
        let pool = random_instance(&q, &mut rng2, 24, 80);
        let prepared = Arc::new(Engine::new().prepare(&q));
        let mut view = MaterializedView::materialize(
            Arc::clone(&prepared),
            db,
            DeltaOptions::new().max_delta_fraction(1.0),
        )
        .unwrap();
        assert_consistent(&view, "materialize");
        let mut rng3 = StdRng::seed_from_u64(3);
        for step in 0..4 {
            let mut delta = DeltaBatch::new();
            for atom in q.atoms() {
                let pool_rel = pool.relation(&atom.name).unwrap();
                if !pool_rel.is_empty() {
                    let i = rng3.gen_range(0..pool_rel.len());
                    delta.push_insert(&atom.name, pool_rel.row(i).to_vec());
                }
                let cur = view.database().relation(&atom.name).unwrap();
                if !cur.is_empty() && rng3.gen_range(0..2) == 0 {
                    let i = rng3.gen_range(0..cur.len());
                    delta.push_delete(&atom.name, cur.row(i).to_vec());
                }
            }
            view.apply_delta(&delta).unwrap();
            assert_consistent(&view, &format!("{} step {step}", q.display_body()));
        }
    }
}

#[test]
fn oversized_deltas_fall_back_to_recompute() {
    let q = examples::triangle();
    let db = triangle_db(9, 20);
    let prepared = Arc::new(Engine::new().prepare(&q));
    // Default threshold: 25%.
    let mut view =
        MaterializedView::materialize(Arc::clone(&prepared), db, DeltaOptions::new()).unwrap();
    let mut delta = DeltaBatch::new();
    for k in 0..40u64 {
        delta.push_insert("R", [1000 + k, 2000 + k]);
    }
    let bs = view.apply_delta(&delta).unwrap();
    assert_eq!(bs.full_recomputes, 1, "40 rows ≫ 25% of the database");
    assert_eq!(bs.delta_joins, 0);
    assert_eq!(bs.inserts_applied, 40);
    assert_consistent(&view, "after fallback");

    // A 1-row delta afterwards goes back to the incremental path.
    let bs = view
        .apply_delta(&DeltaBatch::new().insert("S", [1, 2]))
        .unwrap();
    assert_eq!(bs.full_recomputes, 0);
    assert_eq!(bs.delta_joins, 1);
    assert_consistent(&view, "after small delta");
}

#[test]
fn stable_profiles_reuse_plans_with_zero_replanning() {
    let q = examples::triangle();
    let db = triangle_db(13, 40);
    let cache = Arc::new(PlanCache::new());
    let prepared = Arc::new(Engine::with_plan_cache(cache.clone()).prepare(&q));
    // Specialization off (no data-dependent decisions): this test observes
    // the *plan replay* machinery, and a Δ-specialized binary join would
    // (correctly) need no plans at all — see tests/cost_model.rs for the
    // specialized path.
    let mut view = MaterializedView::materialize(
        Arc::clone(&prepared),
        db,
        DeltaOptions::new()
            .max_delta_fraction(1.0)
            .exec(ExecOptions::new().cost_tiebreak(false)),
    )
    .unwrap();

    // Size-stable deltas: each batch inserts one R row and deletes another,
    // so every delta join sees the same (1, |S|, |T|) profile.
    let mut last = [9001u64, 9002];
    let mut first_solves = None;
    for step in 0..5u64 {
        let next = [9100 + step, 9200 + step];
        let delta = DeltaBatch::new().insert("R", next).delete("R", last);
        last = next;
        let bs = view.apply_delta(&delta).unwrap();
        assert_eq!(bs.full_recomputes, 0);
        match first_solves {
            None => first_solves = Some(bs.planning_solves),
            Some(_) => {
                assert_eq!(
                    bs.planning_solves, 0,
                    "step {step}: stable delta profile must replay cached plans"
                );
                assert_eq!(bs.plans_reused, 1);
            }
        }
        assert_consistent(&view, "stable-profile step");
    }
    assert!(
        first_solves.unwrap() > 0,
        "the first delta profile pays for planning once"
    );
    // Zero re-preparation throughout: one presentation, one fingerprint,
    // and the shared shape entry never left the cache.
    let ps = prepared.prep_stats();
    assert_eq!(ps.lattice_presentations, 1);
    assert_eq!(ps.fingerprints, 1);
    assert_eq!(cache.stats().shapes, 1);
    assert_eq!(cache.stats().evictions, 0);
}

#[test]
fn streams_absorb_updates_concurrently() {
    let q = examples::triangle();
    let prepared = Arc::new(Engine::new().prepare(&q));
    let exec = Executor::with_threads(4);

    let mut handles = Vec::new();
    for tenant in 0..4u64 {
        let view = MaterializedView::materialize(
            Arc::clone(&prepared),
            triangle_db(100 + tenant, 25),
            DeltaOptions::new().max_delta_fraction(1.0),
        )
        .unwrap();
        let deltas: Vec<DeltaBatch> = (0..6)
            .map(|k| {
                DeltaBatch::new()
                    .insert("R", [tenant * 50 + k, tenant * 50 + k + 1])
                    .insert("S", [tenant * 50 + k + 1, tenant * 50 + k + 2])
                    .insert("T", [tenant * 50 + k + 2, tenant * 50 + k])
            })
            .collect();
        handles.push(exec.submit_deltas(view, deltas));
    }
    for (tenant, handle) in handles.into_iter().enumerate() {
        let (view, results) = handle.wait().unwrap();
        assert_eq!(results.len(), 6);
        for r in &results {
            r.as_ref().unwrap();
        }
        assert_consistent(&view, &format!("tenant {tenant} stream"));
        assert_eq!(view.stats().batches, 6);
        // Every tenant's inserted triangles materialized.
        let t = tenant as u64;
        for k in 0..6u64 {
            assert!(view
                .output()
                .contains_row(&[t * 50 + k, t * 50 + k + 1, t * 50 + k + 2]));
        }
    }
}

/// A UDF that panics while a delta stream applies on a pool worker is a
/// typed error on the waiter carrying the UDF's own message — the job owned
/// the view, so none comes back — and the worker that caught it serves the
/// next stream.
#[test]
fn panicking_delta_stream_is_a_typed_error_on_the_waiter() {
    // R(x), S(y), z = f(x, y) by UDF — which gives up on the x a later
    // delta inserts.
    let q = examples::fig5_udf_product();
    let mut db = Database::new();
    db.insert("R", Relation::from_rows(vec![0], [[1], [2]]));
    db.insert("S", Relation::from_rows(vec![1], [[10], [20]]));
    db.udfs.register(VarSet::from_vars([0, 1]), 2, |v| {
        assert_ne!(v[0], 666, "udf exploded");
        v[0] * 1000 + v[1]
    });
    let prepared = Arc::new(Engine::new().prepare(&q));
    let fresh_view = || {
        MaterializedView::materialize(
            Arc::clone(&prepared),
            db.clone(),
            DeltaOptions::new().max_delta_fraction(1.0),
        )
        .unwrap()
    };

    let exec = Executor::with_threads(1);
    let poisoned = DeltaBatch::new().insert("R", [666]);
    let outcome = exec.submit_deltas(fresh_view(), vec![poisoned]).wait();
    assert!(
        matches!(&outcome, Err(JoinError::WorkerPanicked(m)) if m.contains("udf exploded")),
        "{:?}",
        outcome.map(|(_, results)| results)
    );

    let benign = DeltaBatch::new().insert("R", [3]).insert("S", [30]);
    let (view, results) = exec
        .submit_deltas(fresh_view(), vec![benign])
        .wait()
        .unwrap();
    results[0].as_ref().unwrap();
    assert_consistent(&view, "stream after a panicked one");
}

/// One batch hits every view: one `submit_deltas` per view on a shared
/// pool, so the views absorb it concurrently.
#[test]
fn one_delta_fans_out_across_views() {
    let q = examples::triangle();
    let prepared = Arc::new(Engine::new().prepare(&q));
    let exec = Executor::with_threads(4);
    let delta = DeltaBatch::new()
        .insert("R", [7, 8])
        .insert("S", [8, 9])
        .insert("T", [9, 7]);
    let handles: Vec<_> = (0..6)
        .map(|i| {
            let view = MaterializedView::materialize(
                Arc::clone(&prepared),
                triangle_db(200 + i, 20),
                DeltaOptions::new().max_delta_fraction(1.0),
            )
            .unwrap();
            exec.submit_deltas(view, vec![delta.clone()])
        })
        .collect();
    for (i, handle) in handles.into_iter().enumerate() {
        let (view, results) = handle.wait().unwrap();
        assert_eq!(results.len(), 1);
        let bs = results[0].as_ref().unwrap();
        assert_eq!(bs.batches, 1);
        assert!(view.output().contains_row(&[7, 8, 9]), "view {i}");
        assert_consistent(&view, &format!("fanned view {i}"));
    }
}

#[test]
fn explicit_algorithms_maintain_too() {
    let q = examples::simple_fd_path();
    let mut rng = StdRng::seed_from_u64(31);
    let db = random_instance(&q, &mut rng, 20, 85);
    let mut rng2 = StdRng::seed_from_u64(32);
    let pool = random_instance(&q, &mut rng2, 20, 85);
    for alg in [
        Algorithm::Chain,
        Algorithm::Sma,
        Algorithm::Csma,
        Algorithm::GenericJoin,
        Algorithm::BinaryJoin,
    ] {
        let opts = DeltaOptions::new()
            .exec(ExecOptions::new().algorithm(alg))
            .max_delta_fraction(1.0);
        let prepared = Arc::new(Engine::new().prepare(&q));
        let materialized = MaterializedView::materialize(Arc::clone(&prepared), db.clone(), opts);
        let mut view = match materialized {
            Ok(v) => v,
            Err(JoinError::NoGoodChain | JoinError::NoGoodProof) => continue,
            Err(e) => panic!("{alg}: {e}"),
        };
        let mut delta = DeltaBatch::new();
        for atom in q.atoms() {
            let pool_rel = pool.relation(&atom.name).unwrap();
            delta.push_insert(&atom.name, pool_rel.row(0).to_vec());
        }
        view.apply_delta(&delta).unwrap();
        assert_consistent(&view, &format!("{alg}"));
    }
}

#[test]
fn replayed_batches_are_cheap_noops() {
    // At-least-once delivery: a client replaying an already-applied batch
    // must not trip the recompute threshold (effective rows are counted,
    // not raw rows) and must do essentially zero maintenance work.
    let q = examples::triangle();
    let db = triangle_db(33, 30);
    let prepared = Arc::new(Engine::new().prepare(&q));
    let mut view =
        MaterializedView::materialize(Arc::clone(&prepared), db, DeltaOptions::new()).unwrap();

    // Large enough that its *raw* row count exceeds 25% of the profile.
    let mut batch = DeltaBatch::new();
    for k in 0..30u64 {
        batch.push_insert("R", [500 + k, 600 + k]);
    }
    let first = view.apply_delta(&batch).unwrap();
    assert_eq!(first.inserts_applied, 30);
    assert_eq!(
        first.full_recomputes, 1,
        "30 fresh rows exceed the threshold"
    );
    let after_first = view.output().clone();

    let replay = view.apply_delta(&batch).unwrap();
    assert_eq!(replay.full_recomputes, 0, "replay must not recompute");
    assert_eq!(replay.delta_joins, 0);
    assert_eq!(replay.inserts_applied, 0);
    assert_eq!(replay.revalidated, 0);
    assert_eq!(replay.join_work, 0);
    assert_eq!(view.output(), &after_first);
    assert_consistent(&view, "after replay");

    // Duplicates inside one batch count once: one absent row repeated 40
    // times is one effective row, not a threshold-tripping forty.
    let mut dup = DeltaBatch::new();
    for _ in 0..40 {
        dup.push_insert("R", [7777, 8888]);
    }
    let bs = view.apply_delta(&dup).unwrap();
    assert_eq!(bs.full_recomputes, 0, "deduped counting stays incremental");
    assert_eq!(bs.delta_joins, 1);
    assert_eq!(bs.inserts_applied, 1);
    assert_consistent(&view, "after duplicate-heavy batch");

    // Delete + re-insert of a present row is batch-atomic: the row stays,
    // and the counters are identical to what the fallback path reports.
    let r0 = view.database().relation("R").unwrap().row(0).to_vec();
    let bs = view
        .apply_delta(&DeltaBatch::new().delete("R", r0.clone()).insert("R", r0))
        .unwrap();
    assert_eq!((bs.inserts_applied, bs.deletes_applied), (0, 0));
    assert_eq!(bs.delta_joins, 0);
    assert_eq!(
        bs.revalidated, 0,
        "nothing was deleted, nothing revalidated"
    );
    assert_consistent(&view, "after delete+reinsert");
}

#[test]
fn non_atom_relations_never_trigger_maintenance_work() {
    // The database carries an auxiliary relation the query never reads:
    // deltas against it must not run delta joins, must not revalidate the
    // materialization, and must not count toward the size threshold.
    let q = examples::triangle();
    let mut db = triangle_db(21, 30);
    db.insert(
        "Audit",
        Relation::from_rows(vec![5], (0..200u64).map(|k| [k])),
    );
    let prepared = Arc::new(Engine::new().prepare(&q));
    let profile: u64 = prepared.size_profile(&db).unwrap().iter().sum();
    assert_eq!(
        profile as usize,
        db.total_tuples() - 200,
        "the size profile covers the atoms only"
    );
    let mut view =
        MaterializedView::materialize(Arc::clone(&prepared), db, DeltaOptions::new()).unwrap();
    let before = view.output().clone();

    // 60 Audit rows ≫ 25% of the *database*, but the threshold is measured
    // against the query's profile and the batch still takes the
    // incremental path — where it does zero join work.
    let mut delta = DeltaBatch::new();
    for k in 0..30u64 {
        delta.push_insert("Audit", [1000 + k]);
        delta.push_delete("Audit", [k]);
    }
    let bs = view.apply_delta(&delta).unwrap();
    assert_eq!(bs.full_recomputes, 0);
    assert_eq!(bs.delta_joins, 0);
    assert_eq!(bs.revalidated, 0, "no atom changed, nothing to revalidate");
    assert_eq!(bs.join_work, 0);
    assert_eq!(bs.inserts_applied, 30);
    assert_eq!(bs.deletes_applied, 30);
    assert_eq!(view.output(), &before);
    assert_consistent(&view, "after auxiliary-only delta");
    // The auxiliary relation itself was maintained.
    assert!(view
        .database()
        .relation("Audit")
        .unwrap()
        .contains_row(&[1005]));
    assert!(!view
        .database()
        .relation("Audit")
        .unwrap()
        .contains_row(&[5]));
}

#[test]
fn error_contract() {
    let q = examples::triangle();
    let db = triangle_db(1, 10);
    let prepared = Arc::new(Engine::new().prepare(&q));
    let mut view =
        MaterializedView::materialize(Arc::clone(&prepared), db.clone(), DeltaOptions::new())
            .unwrap();

    // Unknown relation.
    let err = view
        .apply_delta(&DeltaBatch::new().insert("Nope", [1, 2]))
        .unwrap_err();
    assert!(matches!(err, JoinError::MissingRelation(ref n) if n == "Nope"));

    // Arity mismatch.
    let err = view
        .apply_delta(&DeltaBatch::new().insert("R", [1, 2, 3]))
        .unwrap_err();
    assert!(matches!(err, JoinError::InvalidOptions(_)));

    // Validation failures leave the view untouched and consistent.
    assert_consistent(&view, "after rejected deltas");
    assert_eq!(view.stats().batches, 0);

    // Empty batches are counted no-ops.
    let bs = view.apply_delta(&DeltaBatch::new()).unwrap();
    assert_eq!(
        bs,
        fdjoin_delta::DeltaStats {
            batches: 1,
            ..Default::default()
        }
    );
    assert_eq!(view.stats().batches, 1);

    // refresh() restores the invariant by construction.
    let bs = view.refresh().unwrap();
    assert_eq!(bs.full_recomputes, 1);
    assert_consistent(&view, "after refresh");

    // A fallback threshold that is not a non-negative number: NaN never
    // falls back, a negative one always would.
    for fraction in [f64::NAN, -0.5] {
        let opts = DeltaOptions::new().max_delta_fraction(fraction);
        let err = MaterializedView::materialize(Arc::clone(&prepared), db.clone(), opts)
            .err()
            .expect("rejected");
        assert!(matches!(err, JoinError::InvalidOptions(_)), "{fraction}");
    }
}

#[test]
fn inserting_into_empty_view_builds_the_output() {
    let q = examples::triangle();
    let mut db = Database::new();
    db.insert("R", Relation::new(vec![0, 1]));
    db.insert("S", Relation::new(vec![1, 2]));
    db.insert("T", Relation::new(vec![2, 0]));
    let prepared = Arc::new(Engine::new().prepare(&q));
    // An empty database always trips the fraction threshold; that is the
    // right call (there is nothing to maintain *from*).
    let mut view =
        MaterializedView::materialize(Arc::clone(&prepared), db, DeltaOptions::new()).unwrap();
    assert!(view.output().is_empty());
    let bs = view
        .apply_delta(
            &DeltaBatch::new()
                .insert("R", [1, 2])
                .insert("S", [2, 3])
                .insert("T", [3, 1]),
        )
        .unwrap();
    assert_eq!(bs.full_recomputes, 1);
    assert_eq!(view.output().len(), 1);
    assert_consistent(&view, "bootstrap");
}

/// Per-batch counters of a seeded sequence, pinned to literals, for an
/// `Auto` view (its delta joins specialize) and a `Chain` view (they replay
/// the view's plans). Every batch deletes and re-inserts a stored row per
/// atom, names no-op rows (a stored row inserted, an absent row deleted),
/// inserts edges drawn from stored values, deletes a stored row and edits
/// the auxiliary `Audit` relation; one batch is large enough to fall back
/// to a recompute.
#[test]
fn a_seeded_sequence_counts_the_pinned_stats() {
    let q = examples::triangle();
    let mut db = triangle_db(48, 40);
    db.insert(
        "Audit",
        Relation::from_rows(vec![5], (0..20u64).map(|k| [k])),
    );
    let prepared = Arc::new(Engine::new().prepare(&q));
    let mut views: Vec<MaterializedView> = [Algorithm::Auto, Algorithm::Chain]
        .into_iter()
        .map(|algorithm| {
            let exec = ExecOptions::new().algorithm(algorithm);
            let opts = DeltaOptions::new().exec(exec);
            MaterializedView::materialize(Arc::clone(&prepared), db.clone(), opts).unwrap()
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(48);
    let mut counts = Vec::new();
    for b in 0..8u64 {
        let db = views[0].database();
        let row = |rng: &mut StdRng, name: &str| {
            let rel = db.relation(name).unwrap();
            rel.row(rng.gen_range(0..rel.len())).to_vec()
        };
        let mut delta = DeltaBatch::new();
        for (name, next) in [("R", "S"), ("S", "T"), ("T", "R")] {
            let kept = row(&mut rng, name);
            delta.push_delete(name, kept.clone());
            delta.push_insert(name, kept);
            delta.push_insert(name, row(&mut rng, name));
            delta.push_delete(name, [u64::MAX, u64::MAX]);
            delta.push_delete(name, row(&mut rng, name));
            for _ in 0..if b == 5 { 12 } else { 2 } {
                let edge = [row(&mut rng, name)[0], row(&mut rng, next)[0]];
                delta.push_insert(name, edge);
            }
        }
        delta.push_insert("Audit", [100 + b]);
        delta.push_delete("Audit", [b]);
        for view in &mut views {
            let bs = view.apply_delta(&delta).unwrap();
            assert_consistent(view, &format!("batch {b}"));
            counts.push(bs.to_string());
        }
    }
    // Auto and Chain alternate, batch by batch.
    let pinned = [
        "batches=1 rows=7+/4- joins=3 (specialized=3) recomputes=0 revalidated=27 output=0+/2- work=109 solves=0 reused=0",
        "batches=1 rows=7+/4- joins=3 (specialized=0) recomputes=0 revalidated=27 output=0+/2- work=445 solves=3 reused=0",
        "batches=1 rows=7+/4- joins=3 (specialized=3) recomputes=0 revalidated=25 output=2+/2- work=107 solves=0 reused=0",
        "batches=1 rows=7+/4- joins=3 (specialized=0) recomputes=0 revalidated=25 output=2+/2- work=453 solves=3 reused=0",
        "batches=1 rows=6+/4- joins=3 (specialized=3) recomputes=0 revalidated=25 output=1+/3- work=101 solves=0 reused=0",
        "batches=1 rows=6+/4- joins=3 (specialized=0) recomputes=0 revalidated=25 output=1+/3- work=422 solves=3 reused=0",
        "batches=1 rows=7+/4- joins=3 (specialized=3) recomputes=0 revalidated=23 output=0+/2- work=107 solves=0 reused=0",
        "batches=1 rows=7+/4- joins=3 (specialized=0) recomputes=0 revalidated=23 output=0+/2- work=434 solves=3 reused=0",
        "batches=1 rows=6+/4- joins=3 (specialized=3) recomputes=0 revalidated=21 output=1+/2- work=94 solves=0 reused=0",
        "batches=1 rows=6+/4- joins=3 (specialized=0) recomputes=0 revalidated=21 output=1+/2- work=427 solves=3 reused=0",
        "batches=1 rows=32+/4- joins=0 (specialized=0) recomputes=1 revalidated=0 output=8+/1- work=499 solves=1 reused=0",
        "batches=1 rows=32+/4- joins=0 (specialized=0) recomputes=1 revalidated=0 output=8+/1- work=499 solves=0 reused=1",
        "batches=1 rows=6+/4- joins=3 (specialized=3) recomputes=0 revalidated=27 output=5+/1- work=142 solves=0 reused=0",
        "batches=1 rows=6+/4- joins=3 (specialized=0) recomputes=0 revalidated=27 output=5+/1- work=544 solves=3 reused=0",
        "batches=1 rows=5+/3- joins=3 (specialized=3) recomputes=0 revalidated=31 output=3+/1- work=122 solves=0 reused=0",
        "batches=1 rows=5+/3- joins=3 (specialized=0) recomputes=0 revalidated=31 output=3+/1- work=522 solves=3 reused=0",
    ];
    assert_eq!(counts, pinned);
}

/// An Auto view's Δ-first plans read each Δ⁺ relation as stored. Over eight
/// batches of four inserts and four deletes per relation, every delta join
/// is Δ-first, each batch builds exactly one trie per relation it changed —
/// the stored-order base trie carried from the predecessor version, which
/// it replaces, so the resident count stands still — and the index set
/// evicts nothing.
#[test]
fn delta_first_plans_build_only_the_carried_tries() {
    let q = examples::triangle();
    let mut rng = StdRng::seed_from_u64(49);
    let mut edge = move || [rng.gen_range(0..64u64), rng.gen_range(0..64u64)];
    let mut db = Database::new();
    for atom in q.atoms() {
        let rows: Vec<[u64; 2]> = (0..512).map(|_| edge()).collect();
        db.insert(
            atom.name.clone(),
            Relation::from_rows(atom.vars.clone(), rows),
        );
    }
    let prepared = Arc::new(Engine::new().prepare(&q));
    let mut view =
        MaterializedView::materialize(Arc::clone(&prepared), db, DeltaOptions::new()).unwrap();
    let set = Arc::clone(prepared.index_set());
    let start = set.stats();
    let mut resident = None;
    for batch in 0..8 {
        let mut delta = DeltaBatch::new();
        for atom in q.atoms() {
            let rel = view.database().relation(&atom.name).unwrap();
            let mut inserts = Vec::new();
            while inserts.len() < 4 {
                let row = edge();
                if !rel.contains_row(&row) && !inserts.contains(&row) {
                    inserts.push(row);
                }
            }
            for row in inserts {
                delta.push_insert(atom.name.clone(), row);
            }
            for i in 0..4 {
                delta.push_delete(atom.name.clone(), rel.row(i * rel.len() / 4).to_vec());
            }
        }
        let before = set.stats();
        let bs = view.apply_delta(&delta).unwrap();
        let window = set.stats().since(&before);
        assert_eq!(
            (bs.delta_joins, bs.specialized_deltas),
            (3, 3),
            "batch {batch}"
        );
        assert_eq!(
            window.builds, 3,
            "batch {batch}: one carried trie per relation"
        );
        assert_eq!(window.evictions, 0, "batch {batch}");
        // From the second batch on, each build replaced its predecessor.
        let now = set.len();
        assert_eq!(*resident.get_or_insert(now), now, "batch {batch}");
        assert_consistent(&view, "Δ-first batch");
    }
    assert_eq!(set.stats().since(&start).evictions, 0);
}
