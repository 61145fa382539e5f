//! The serving layer end to end: cross-query plan reuse through the shared
//! `PlanCache`, batch execution equivalence, and concurrency stress.

use fdjoin_core::{
    Algorithm, Engine, ExecOptions, JoinError, JoinResult, PlanCache, PreparedQuery,
    UserDegreeBound,
};
use fdjoin_exec::{Executor, StreamBudget};
use fdjoin_instances::reference_join;
use fdjoin_lattice::VarSet;
use fdjoin_query::{examples, Query};
use fdjoin_storage::{Database, Relation};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{mpsc, Arc, Mutex};

// ---------------------------------------------------------------------------
// Isomorphic query pair: Fig. 1 and a renamed twin. The twin permutes the
// variable ids (x,y,z,u ↦ ids 2,3,0,1), the atom order (T,R,S), and every
// name, so rehydrating its plans exercises both the element and the slot
// relabelings nontrivially.
// ---------------------------------------------------------------------------

fn fig1() -> (Query, Database) {
    let q = examples::fig1_udf();
    let mut db = Database::new();
    db.insert(
        "R",
        Relation::from_rows(vec![0, 1], [[1, 1], [2, 1], [1, 2]]),
    );
    db.insert(
        "S",
        Relation::from_rows(vec![1, 2], [[1, 1], [2, 1], [1, 2]]),
    );
    db.insert(
        "T",
        Relation::from_rows(vec![2, 3], [[1, 1], [1, 2], [2, 1]]),
    );
    // u = f(x,z) = x and x = g(y,u) = u, as in tests/engine_api.rs.
    db.udfs.register(VarSet::from_vars([0, 2]), 3, |v| v[0]);
    db.udfs.register(VarSet::from_vars([1, 3]), 0, |v| v[1]);
    (q, db)
}

/// Fig. 1 with variables declared in the order z,u,x,y (so x,y,z,u get ids
/// 2,3,0,1), atoms reordered to T,R,S, and everything renamed.
fn fig1_twin() -> (Query, Database) {
    let mut b = Query::builder();
    let (z, u, x, y) = (b.var("zz"), b.var("uu"), b.var("xx"), b.var("yy"));
    b.atom("T2", &[z, u])
        .atom("R2", &[x, y])
        .atom("S2", &[y, z]);
    b.fd(&[x, z], &[u]).fd(&[y, u], &[x]);
    let q = b.build();

    let mut db = Database::new();
    // Same tuples as `fig1`, columns laid out for the new ids (ascending).
    db.insert(
        "T2",
        Relation::from_rows(vec![0, 1], [[1, 1], [1, 2], [2, 1]]),
    );
    db.insert(
        "R2",
        Relation::from_rows(vec![2, 3], [[1, 1], [2, 1], [1, 2]]),
    );
    // S holds (y,z) rows; ascending ids are (z=0, y=3).
    db.insert(
        "S2",
        Relation::from_rows(vec![0, 3], [[1, 1], [1, 2], [2, 1]]),
    );
    // u = f(x,z): args {x=2, z=0} arrive ascending as (z, x) ⇒ x is v[1].
    db.udfs.register(VarSet::from_vars([2, 0]), 1, |v| v[1]);
    // x = g(y,u): args {y=3, u=1} arrive ascending as (u, y) ⇒ u is v[0].
    db.udfs.register(VarSet::from_vars([3, 1]), 2, |v| v[0]);
    (q, db)
}

fn opts(alg: Algorithm) -> ExecOptions {
    ExecOptions::new().algorithm(alg)
}

const PLANNED_ALGS: [Algorithm; 4] = [
    Algorithm::Auto,
    Algorithm::Chain,
    Algorithm::Sma,
    Algorithm::Csma,
];

/// The acceptance criterion: preparing two structurally isomorphic but
/// differently-named queries through one shared `PlanCache` makes the
/// second query's planning free — zero chain/LLP/SM/CLLP solves, only
/// shared-cache hits — while producing correct (reference-verified) output.
#[test]
fn isomorphic_queries_share_plans() {
    let cache = Arc::new(PlanCache::new());
    let engine = Engine::with_plan_cache(cache.clone());

    let (q1, db1) = fig1();
    let p1 = engine.prepare(&q1);
    for alg in PLANNED_ALGS {
        let r = p1.execute(&db1, &opts(alg)).unwrap();
        assert_eq!(r.output, reference_join(&q1, &db1));
    }
    let s1 = p1.prep_stats();
    assert!(s1.solves() > 0, "first query pays for planning");
    assert_eq!(s1.shared_hits, 0, "nothing to reuse yet");

    let (q2, db2) = fig1_twin();
    let p2 = engine.prepare(&q2);
    for alg in PLANNED_ALGS {
        let r = p2.execute(&db2, &opts(alg)).unwrap();
        assert_eq!(
            r.output,
            reference_join(&q2, &db2),
            "{alg}: rehydrated plan must compute the right answer"
        );
    }
    let s2 = p2.prep_stats();
    assert_eq!(
        s2.solves(),
        0,
        "isomorphic query must do zero chain/LLP/SM/CLLP solves: {s2:?}"
    );
    assert!(s2.shared_hits >= 4, "chain, LLP, SMA, CSMA all rehydrated");
    assert_eq!(s2.shared_misses, 0);
    assert_eq!(s2.fingerprints, 1);

    // One shape, prepared twice: one miss (insert), one hit.
    let cs = cache.stats();
    assert_eq!(cs.shapes, 1);
    assert_eq!(cs.shape_misses, 1);
    assert_eq!(cs.shape_hits, 1);
    assert_eq!(cs.evictions, 0);

    // The twin's Auto decision matches the original's (the rehydrated
    // bounds are the relabeled originals).
    let r1 = p1.execute(&db1, &opts(Algorithm::Auto)).unwrap();
    let r2 = p2.execute(&db2, &opts(Algorithm::Auto)).unwrap();
    let (d1, d2) = (r1.auto.unwrap(), r2.auto.unwrap());
    assert_eq!(d1.reason, d2.reason);
    assert_eq!(d1.chain_log_bound, d2.chain_log_bound);
    assert_eq!(d1.llp_log_bound, d2.llp_log_bound);
}

/// The triangle and a renamed twin (x,y,z ↦ ids 1,2,0, atoms reordered to
/// T,R,S), each over the same tuples.
fn triangle_pair() -> [(Query, Database); 2] {
    let r = [[1, 2], [1, 3], [2, 3], [7, 8]];
    let s = [[2, 3], [3, 1], [8, 9]];
    let t = [[3, 1], [1, 1], [9, 7]];
    let mut db = Database::new();
    db.insert("R", Relation::from_rows(vec![0, 1], r));
    db.insert("S", Relation::from_rows(vec![1, 2], s));
    db.insert("T", Relation::from_rows(vec![2, 0], t));

    let mut b = Query::builder();
    let (z, x, y) = (b.var("zz"), b.var("xx"), b.var("yy"));
    b.atom("T2", &[z, x])
        .atom("R2", &[x, y])
        .atom("S2", &[y, z]);
    let twin = b.build();
    let mut twin_db = Database::new();
    twin_db.insert("R2", Relation::from_rows(vec![1, 2], r));
    twin_db.insert("S2", Relation::from_rows(vec![2, 0], s));
    twin_db.insert("T2", Relation::from_rows(vec![0, 1], t));
    [(examples::triangle(), db), (twin, twin_db)]
}

/// Plans pinned by user degree bounds are in one query's own coordinates:
/// they never reach the shared tier — neither published nor rehydrated —
/// so an isomorphic twin solves its own.
#[test]
fn pinned_plans_never_reach_the_shared_tier() {
    let engine = Engine::with_plan_cache(Arc::new(PlanCache::new()));
    for (i, (q, db)) in triangle_pair().into_iter().enumerate() {
        let p = engine.prepare(&q);
        let atom = q
            .atoms()
            .iter()
            .position(|a| a.name.starts_with('R'))
            .unwrap();
        let bound = UserDegreeBound {
            atom,
            on: vec![q.atoms()[atom].vars[0]],
            max_degree: 2,
        };
        let pinned = opts(Algorithm::Csma).degree_bound(bound);
        let before = p.prep_stats();
        let r = p.execute(&db, &pinned).unwrap();
        assert_eq!(r.output, reference_join(&q, &db));
        let first = p.prep_stats().since(&before);
        assert_eq!(
            first.shared_hits + first.shared_misses,
            0,
            "query {i}: pinned plans stay local: {first:?}"
        );
        // Query 1 is the twin: had query 0 published its pinned plan, the
        // twin would have rehydrated it instead of solving.
        assert_eq!(first.cllp_solves, 1, "query {i}: {first:?}");
        let after_first = p.prep_stats();
        p.execute(&db, &pinned).unwrap();
        let repeat = p.prep_stats().since(&after_first);
        assert_eq!(repeat.solves(), 0, "query {i}: pinned plans cache locally");
        assert_eq!(repeat.shared_hits + repeat.shared_misses, 0);
    }
}

/// Plan sharing must never *change answers*: sweep every planned algorithm
/// over both queries with and without the shared cache.
#[test]
fn shared_cache_is_semantically_transparent() {
    let cache = Arc::new(PlanCache::new());
    let shared = Engine::with_plan_cache(cache);
    let plain = Engine::new();
    for (q, db) in [fig1(), fig1_twin()] {
        for alg in PLANNED_ALGS {
            let a = shared.execute(&q, &db, &opts(alg)).unwrap();
            let b = plain.execute(&q, &db, &opts(alg)).unwrap();
            assert_eq!(a.output, b.output, "{alg} on {}", q.display_body());
            assert_eq!(a.algorithm_used, b.algorithm_used);
            assert_eq!(a.predicted_log_bound, b.predicted_log_bound);
        }
    }
}

/// Non-isomorphic queries must not collide in the cache.
#[test]
fn distinct_shapes_get_distinct_entries() {
    let cache = Arc::new(PlanCache::new());
    let engine = Engine::with_plan_cache(cache.clone());
    for q in [
        examples::triangle(),
        examples::fig1_udf(),
        examples::m3_query(),
        examples::fig4_query(),
        examples::simple_fd_path(),
    ] {
        engine.prepare(&q);
    }
    assert_eq!(cache.stats().shapes, 5);
    assert_eq!(cache.stats().shape_hits, 0);
}

/// Churn regression: a capacity-1 cache hammered by alternating
/// non-isomorphic queries must keep the PR 2 accounting reconciled —
/// every prepare is exactly one shape hit or miss, every shape miss
/// surfaces as a shared-plan miss (and exactly one local solve) on the
/// query's `PrepStats`, and every inserted shape is either still resident
/// or counted evicted. One shape fits, so every round evicts the other.
#[test]
fn capacity_one_churn_reconciles_with_prep_stats() {
    let cache = Arc::new(PlanCache::with_capacity(1));
    let engine = Engine::with_plan_cache(cache.clone());
    let (qa, dba) = fig1();
    let qb = examples::triangle();
    let mut dbb = Database::new();
    dbb.insert("R", Relation::from_rows(vec![0, 1], [[1, 2]]));
    dbb.insert("S", Relation::from_rows(vec![1, 2], [[2, 3]]));
    dbb.insert("T", Relation::from_rows(vec![2, 0], [[3, 1]]));

    let rounds = 8u64;
    let (mut hits, mut misses, mut solves) = (0u64, 0u64, 0u64);
    for round in 0..rounds {
        let (q, db) = if round % 2 == 0 {
            (&qa, &dba)
        } else {
            (&qb, &dbb)
        };
        // Fresh prepare every round: all reuse must come from the shared
        // cache, so its eviction decisions are what PrepStats reflects.
        let p = engine.prepare(q);
        p.execute(db, &opts(Algorithm::Chain)).unwrap();
        let s = p.prep_stats();
        assert_eq!(s.fingerprints, 1, "round {round}: one fingerprint");
        assert_eq!(
            s.shared_hits + s.shared_misses,
            1,
            "round {round}: the chain plan makes exactly one shared lookup"
        );
        assert_eq!(
            s.chain_searches, s.shared_misses,
            "round {round}: a shared miss is solved locally, a hit is not"
        );
        hits += s.shared_hits;
        misses += s.shared_misses;
        solves += s.solves();
    }

    let cs = cache.stats();
    // Prepare traffic: one shape lookup per round.
    assert_eq!(cs.prepares(), rounds);
    // A shape hit means the entry (with its published chain plan for this
    // fixed profile) was resident ⇒ shared hit; a shape miss means a fresh
    // entry ⇒ shared miss. The two ledgers must agree exactly.
    assert_eq!(cs.shape_hits, hits, "{cs:?}");
    assert_eq!(cs.shape_misses, misses, "{cs:?}");
    // Solves happen exactly on shared misses.
    assert_eq!(solves, misses);
    // Every inserted shape is accounted for: still resident or evicted.
    assert_eq!(cs.shapes as u64 + cs.evictions, cs.shape_misses, "{cs:?}");
    // Capacity 1 holds one shape: each round evicts the other one.
    assert_eq!(cs.shape_misses, rounds, "{cs:?}");
    assert_eq!(cs.evictions, rounds - 1, "{cs:?}");
    assert_eq!(cs.shapes, 1, "{cs:?}");
}

/// A capacity is the total it names: eight shapes fit in sixteen.
#[test]
fn eviction_respects_capacity() {
    let cache = Arc::new(PlanCache::with_capacity(16));
    let engine = Engine::with_plan_cache(cache.clone());
    let queries = [
        examples::triangle(),
        examples::fig1_udf(),
        examples::m3_query(),
        examples::fig4_query(),
        examples::fig9_query(),
        examples::simple_fd_path(),
        examples::four_cycle_key(),
        examples::composite_key(),
    ];
    for _ in 0..3 {
        for q in &queries {
            engine.prepare(q);
        }
    }
    let s = cache.stats();
    assert_eq!(s.shape_misses, 8, "{s:?}");
    assert_eq!(s.shape_hits, 16, "{s:?}");
    assert_eq!(s.evictions, 0, "{s:?}");
    assert_eq!(s.shapes, 8, "{s:?}");
}

// ---------------------------------------------------------------------------
// Batch execution: equivalence with serial loops, and stress.
// ---------------------------------------------------------------------------

fn triangle_dbs(n: usize) -> Vec<Database> {
    let q = examples::triangle();
    (0..n)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(1000 + i as u64);
            fdjoin_instances::random_instance(&q, &mut rng, 8 + (i % 5), 70)
        })
        .collect()
}

fn assert_batch_matches_serial(
    prepared: &PreparedQuery,
    dbs: &[Database],
    opts: &ExecOptions,
    batch: &[Result<JoinResult, fdjoin_core::JoinError>],
) {
    assert_eq!(batch.len(), dbs.len());
    for (i, db) in dbs.iter().enumerate() {
        let serial = prepared.execute(db, opts).unwrap();
        let b = batch[i].as_ref().unwrap();
        assert_eq!(b.output, serial.output, "db {i}: outputs must be identical");
        // Work counters match modulo index-cache warmth (the serial pass
        // built the tries the batch pass then hits).
        assert_eq!(
            b.stats.deterministic(),
            serial.stats.deterministic(),
            "db {i}: work counters too"
        );
        assert_eq!(b.stats.index_gets(), serial.stats.index_gets(), "db {i}");
        assert_eq!(b.algorithm_used, serial.algorithm_used);
    }
}

/// The acceptance criterion: `Executor::submit` over ≥ 4 databases is
/// bit-identical to a serial `execute` loop, errors included (a database
/// missing a relation fails *its* slot only).
#[test]
fn executor_submit_collects_per_database_results() {
    let q = examples::triangle();
    let prepared = Arc::new(Engine::new().prepare(&q));
    let mut dbs = triangle_dbs(5);
    let mut broken = Database::new();
    broken.insert("R", Relation::from_rows(vec![0, 1], [[1, 2]]));
    dbs.push(broken); // index 5: S and T missing.
    let dbs = Arc::new(dbs);

    let exec = Executor::with_threads(4);
    assert_eq!(exec.threads(), 4);
    let handle = exec.submit(&prepared, &dbs, &ExecOptions::new());
    assert_eq!(handle.len(), 6);
    let batch = handle.wait();
    assert_eq!(batch.stats.databases, 6);
    assert_eq!(batch.stats.succeeded, 5);
    assert_eq!(batch.stats.failed, 1);
    assert!(matches!(
        batch.results[5],
        Err(fdjoin_core::JoinError::MissingRelation(ref n)) if n == "S"
    ));
    assert_batch_matches_serial(
        &prepared,
        &dbs[..5],
        &ExecOptions::new(),
        &batch.results[..5],
    );
    let expected_tuples: u64 = batch
        .results
        .iter()
        .flatten()
        .map(|r| r.output.len() as u64)
        .sum();
    assert_eq!(batch.stats.output_tuples, expected_tuples);

    // The pool survives its first batch: submit another.
    let batch2 = exec.submit(&prepared, &dbs, &ExecOptions::new()).wait();
    assert_eq!(batch2.stats.succeeded, 5);
}

/// A UDF that panics on a pool worker fails *its* execution with a typed
/// error carrying the UDF's message — batch slot or stream handle, on the
/// worker's own thread or inside an intra-query fan-out block — and
/// neither the waiting thread, the pool, nor the other databases of the
/// batch go down with it.
#[test]
fn panicking_udf_is_a_typed_error_on_the_waiter() {
    let explode = |db: &mut Database| {
        db.udfs.register(VarSet::from_vars([0, 2]), 3, |_| -> u64 {
            panic!("udf exploded")
        })
    };
    let (q, good) = fig1();
    let (_, mut bad) = fig1();
    explode(&mut bad);
    let prepared = Arc::new(Engine::new().prepare(&q));
    let dbs = Arc::new(vec![good.clone(), bad.clone()]);
    let expected = reference_join(&q, &good);

    // One worker: the thread that caught the panic serves everything after.
    let exec = Executor::with_threads(1);
    let batch = exec.submit(&prepared, &dbs, &opts(Algorithm::Chain)).wait();
    assert_eq!(batch.results[0].as_ref().unwrap().output, expected);
    assert!(
        matches!(&batch.results[1], Err(JoinError::WorkerPanicked(m)) if m.contains("udf exploded")),
        "{:?}",
        batch.results[1]
    );
    assert_eq!((batch.stats.succeeded, batch.stats.failed), (1, 1));

    let streamed = exec
        .submit_stream(&prepared, &Arc::new(bad.clone()), StreamBudget::new())
        .wait();
    assert!(
        matches!(&streamed, Err(JoinError::WorkerPanicked(m)) if m.contains("udf exploded")),
        "{streamed:?}"
    );

    let next = exec
        .submit(
            &prepared,
            &Arc::new(vec![good.clone()]),
            &opts(Algorithm::Chain),
        )
        .wait();
    assert_eq!(next.results[0].as_ref().unwrap().output, expected);

    // Two workers, the panicking database between two good ones: both
    // neighbours equal a serial execute.
    let chain = opts(Algorithm::Chain);
    let serial = prepared.execute(&good, &chain).unwrap().output;
    let dbs = Arc::new(vec![good.clone(), bad, good]);
    let batch = Executor::with_threads(2)
        .submit(&prepared, &dbs, &chain)
        .wait();
    assert_eq!(batch.results[0].as_ref().unwrap().output, serial);
    assert!(
        matches!(&batch.results[1], Err(JoinError::WorkerPanicked(m)) if m.contains("udf exploded")),
        "{:?}",
        batch.results[1]
    );
    assert_eq!(batch.results[2].as_ref().unwrap().output, serial);
    assert_eq!((batch.stats.succeeded, batch.stats.failed), (2, 1));

    // Inside a fan-out: Chain's extend step splits the 64-row instance
    // into two scoped blocks, and the block's own message reaches the slot.
    let mut wide = fdjoin_instances::fig1_tight(8);
    explode(&mut wide);
    let split = exec
        .submit(&prepared, &Arc::new(vec![wide]), &chain.parallelism(2))
        .wait();
    assert!(
        matches!(&split.results[0], Err(JoinError::WorkerPanicked(m)) if m.contains("udf exploded")),
        "{:?}",
        split.results[0]
    );
}

/// The pool has one FIFO queue shared by its workers: with both workers
/// parked, four queued jobs run in submission order on whichever worker is
/// released first.
#[test]
fn jobs_start_in_submission_order() {
    let exec = Executor::with_threads(2);
    let (started_tx, started) = mpsc::channel();
    let mut releases = Vec::new();
    let mut parked = Vec::new();
    for _ in 0..2 {
        let (release, latch) = mpsc::channel::<()>();
        let started_tx = started_tx.clone();
        parked.push(exec.spawn(move || {
            started_tx.send(()).unwrap();
            latch.recv().unwrap();
            Ok(())
        }));
        releases.push(release);
    }
    // Both workers hold a parked job, so nothing below starts yet.
    started.recv().unwrap();
    started.recv().unwrap();

    let order = Arc::new(Mutex::new(Vec::new()));
    let jobs: Vec<_> = ["A", "B", "C", "D"]
        .into_iter()
        .map(|name| {
            let order = Arc::clone(&order);
            exec.spawn(move || {
                order.lock().unwrap().push(name);
                Ok(())
            })
        })
        .collect();
    releases[0].send(()).unwrap();
    for job in jobs {
        job.wait().unwrap();
    }
    assert_eq!(*order.lock().unwrap(), ["A", "B", "C", "D"]);

    releases[1].send(()).unwrap();
    for job in parked {
        job.wait().unwrap();
    }
}

/// Stress: many databases × several algorithms × repeated rounds, wide
/// worker counts, one shared `PreparedQuery` — results must stay
/// bit-identical to serial execution every time.
#[test]
fn concurrent_execution_stress() {
    for (q, db_count) in [
        (examples::triangle(), 16),
        (examples::fig1_udf(), 8),
        (examples::fig4_query(), 6),
    ] {
        let cache = Arc::new(PlanCache::new());
        let prepared = Arc::new(Engine::with_plan_cache(cache).prepare(&q));
        let dbs: Arc<Vec<Database>> = Arc::new(
            (0..db_count)
                .map(|i| {
                    let mut rng = StdRng::seed_from_u64(7 * i as u64 + 3);
                    fdjoin_instances::random_instance(&q, &mut rng, 6 + (i % 4), 75)
                })
                .collect(),
        );
        let o = ExecOptions::new();
        // Serial baseline (also warms the plan caches deterministically).
        let serial: Vec<JoinResult> = dbs
            .iter()
            .map(|db| prepared.execute(db, &o).unwrap())
            .collect();
        let warmed = prepared.prep_stats();
        for round in 0..4 {
            let threads = [1, 2, 4, 8][round % 4];
            let batch = Executor::with_threads(threads)
                .submit(&prepared, &dbs, &o)
                .wait();
            assert_eq!(batch.stats.failed, 0, "{}", q.display_body());
            for (i, r) in batch.results.iter().enumerate() {
                let r = r.as_ref().unwrap();
                assert_eq!(r.output, serial[i].output, "round {round}, db {i}");
                assert_eq!(
                    r.stats.deterministic(),
                    serial[i].stats.deterministic(),
                    "round {round}, db {i}"
                );
                assert_eq!(r.stats.index_gets(), serial[i].stats.index_gets());
            }
        }
        // Concurrency re-used the warmed plans and warmed trie indexes;
        // no re-planning and no index rebuild happened.
        let window = prepared.prep_stats().since(&warmed);
        assert_eq!(window.solves(), 0, "{}", q.display_body());
        assert_eq!(window.index_builds, 0, "{}", q.display_body());
    }
}

/// Hammer one `PreparedQuery` from raw threads (not the batch driver) so
/// plan lookups race on a *cold* cache; every thread must see the same
/// answers as a serial loop.
#[test]
fn cold_cache_racing_executions_agree() {
    let q = examples::fig1_udf();
    let dbs = {
        let (_, db) = fig1();
        vec![db]
    };
    let o = ExecOptions::new();
    let expect = {
        let p = Engine::new().prepare(&q);
        p.execute(&dbs[0], &o).unwrap()
    };
    for _ in 0..8 {
        let prepared = Engine::new().prepare(&q); // cold every iteration
        std::thread::scope(|s| {
            for _ in 0..8 {
                let (p, db, o, expect) = (&prepared, &dbs[0], &o, &expect);
                s.spawn(move || {
                    let r = p.execute(db, o).unwrap();
                    assert_eq!(r.output, expect.output);
                    assert_eq!(r.stats.deterministic(), expect.stats.deterministic());
                    assert_eq!(r.stats.index_gets(), expect.stats.index_gets());
                });
            }
        });
        // Exactly one planning pass happened despite the race.
        let s = prepared.prep_stats();
        assert_eq!(s.chain_searches, 1, "no double-compute under contention");
    }
}

// ---------------------------------------------------------------------------
// Data-dependent planning surfaces through serving results.
// ---------------------------------------------------------------------------

/// One prepared query served over two databases with the *same size
/// profile* but different skew: the batch results carry per-database
/// `AutoDecision`s whose measured estimates differ — and may even resolve
/// to different algorithms — while the plan cache sees one shape and one
/// profile throughout.
#[test]
fn batch_results_surface_data_dependent_decisions() {
    let q = examples::fig4_query();
    let mut rng = StdRng::seed_from_u64(1);
    let pool = fdjoin_instances::random_instance(&q, &mut rng, 4000, 100);
    let k = 64usize;
    let subset = |spread: bool| {
        let mut db = pool.clone();
        for a in q.atoms() {
            let rel = pool.relation(&a.name).unwrap();
            let n = rel.len();
            let rows: Vec<usize> = if spread {
                (0..k).map(|i| i * n / k).collect()
            } else {
                (0..k).collect()
            };
            db.insert(a.name.clone(), rel.select_rows(rows));
        }
        db
    };
    let dbs = vec![subset(true), subset(false)];

    let dbs = Arc::new(dbs);
    let cache = Arc::new(PlanCache::new());
    let prepared = Arc::new(Engine::with_plan_cache(cache).prepare(&q));
    let batch = Executor::with_threads(2)
        .submit(&prepared, &dbs, &ExecOptions::new())
        .wait();
    assert_eq!(batch.stats.succeeded, 2);

    let decisions: Vec<_> = batch
        .results
        .iter()
        .map(|r| r.as_ref().unwrap().auto.clone().unwrap())
        .collect();
    // Same worst-case bounds (same size profile), different measured
    // estimates — the data-dependent record flows through serving results.
    assert_eq!(decisions[0].llp_log_bound, decisions[1].llp_log_bound);
    assert_eq!(decisions[0].chain_log_bound, decisions[1].chain_log_bound);
    assert!(decisions.iter().all(|d| d.estimate_log_max.is_some()));
    assert_ne!(
        decisions[0].estimate_log_max, decisions[1].estimate_log_max,
        "same profile, different data ⇒ different recorded estimates"
    );
    assert_ne!(
        decisions[0].algorithm, decisions[1].algorithm,
        "the skewed database resolves to a different algorithm"
    );

    // The serving layer can also read the estimate directly, e.g. for
    // admission decisions, without executing.
    let e0 = prepared.estimate(&dbs[0]).unwrap();
    let e1 = prepared.estimate(&dbs[1]).unwrap();
    assert!(e1.skew_gap() > e0.skew_gap());
}
