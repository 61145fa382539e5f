//! Streaming semantics against the materializing engine: the cursor must
//! enumerate exactly the set the reference evaluator and every one of the
//! five algorithms compute, a
//! checkpoint pause/resume at any point must neither drop nor duplicate a
//! row, and pruned consumption (`exists`, `limit`) must do strictly less
//! deterministic work than materializing the full answer.

use fdjoin_core::{Algorithm, Engine, ExecOptions, JoinError, PreparedQuery};
use fdjoin_lattice::VarSet;
use fdjoin_query::{examples, Query};
use fdjoin_storage::{Database, Relation, Value};
use fdjoin_stream::ResultStream;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const ALL_FIVE: [Algorithm; 5] = [
    Algorithm::Chain,
    Algorithm::Sma,
    Algorithm::Csma,
    Algorithm::GenericJoin,
    Algorithm::BinaryJoin,
];

fn instance(q: &Query, seed: u64, rows: usize, keep: u32) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    fdjoin_instances::random_instance(q, &mut rng, rows, keep)
}

/// Differential acceptance: on random Fig. 4 and Fig. 9 instances, a
/// drained `ResultStream` equals the reference evaluator's answer and the
/// output of every algorithm in the engine — chain, SMA, CSMA,
/// Generic-Join and binary plans.
#[test]
fn stream_agrees_with_all_six_algorithms() {
    for (q, rows) in [(examples::fig4_query(), 25), (examples::fig9_query(), 40)] {
        for seed in [3u64, 17, 90] {
            let db = instance(&q, seed, rows, 80);
            let prepared = Engine::new().prepare(&q);
            let streamed = ResultStream::open(&prepared, &db)
                .expect("open")
                .collect_rows();
            assert_eq!(
                streamed,
                fdjoin_instances::reference_join(&q, &db),
                "stream vs reference on {} (seed {seed})",
                q.display_body()
            );
            let mut compared = 0;
            for alg in ALL_FIVE {
                let r = match prepared.execute(&db, &ExecOptions::new().algorithm(alg)) {
                    Ok(r) => r,
                    // Chain/SMA legitimately refuse some lattice/profile
                    // combinations (Example 5.31 etc.); every other error
                    // is a real failure.
                    Err(JoinError::NoGoodChain | JoinError::NoGoodProof) => continue,
                    Err(e) => panic!("{alg} failed on seed {seed}: {e}"),
                };
                assert_eq!(
                    streamed,
                    r.output,
                    "stream vs {alg} on {} (seed {seed})",
                    q.display_body()
                );
                compared += 1;
            }
            // CSMA, Generic-Join and binary plans never refuse.
            assert!(compared >= 3, "only {compared} algorithms compared");
        }
    }
}

/// The work-pruning acceptance criterion: on a Fig. 4-scale instance,
/// `exists()` and `limit(k)` each cost strictly less deterministic work
/// than materializing the full answer.
#[test]
fn pruned_consumption_beats_materialization() {
    let q = examples::fig4_query();
    let db = instance(&q, 42, 40, 80);
    let prepared = Engine::new().prepare(&q);

    let full = prepared
        .execute(&db, &ExecOptions::new().algorithm(Algorithm::GenericJoin))
        .expect("materialize");
    assert!(full.output.len() > 8, "instance must be non-trivial");
    let full_work = full.stats.deterministic().work();

    let mut probe = ResultStream::open(&prepared, &db).expect("open");
    assert!(probe.exists());
    let exists_work = probe.stats().deterministic().work();
    assert!(
        exists_work < full_work,
        "exists must prune: {exists_work} vs {full_work}"
    );

    let mut page = ResultStream::open(&prepared, &db).expect("open");
    let rows = page.limit(4);
    assert_eq!(rows.len(), 4);
    let limit_work = page.stats().deterministic().work();
    assert!(
        limit_work < full_work,
        "limit(4) must prune: {limit_work} vs {full_work}"
    );
    assert!(exists_work <= limit_work, "one row costs at most four");
}

fn drain(stream: &mut ResultStream<'_>) -> Vec<Vec<Value>> {
    let mut rows = Vec::new();
    while let Some(r) = stream.next_row() {
        rows.push(r.to_vec());
    }
    rows
}

fn paginate(prepared: &PreparedQuery, db: &Database, pause_after: usize) -> Vec<Vec<Value>> {
    let mut first = ResultStream::open(prepared, db).expect("open");
    let mut rows = Vec::new();
    for _ in 0..pause_after {
        match first.next_row() {
            Some(r) => rows.push(r.to_vec()),
            None => break,
        }
    }
    let ck = first.checkpoint();
    drop(first);
    let mut second = ResultStream::resume(prepared, db, &ck).expect("resume");
    rows.extend(drain(&mut second));
    rows
}

/// Checkpoints hold trie-*node* coordinates of the columnar level-trie
/// layout, so they are only sound if node ids are a deterministic function
/// of relation content — not of any particular build. Exercise exactly
/// that: pause at every row boundary, then resume each checkpoint through
/// a *freshly prepared* query whose access-path cache is empty, forcing
/// every index to be rebuilt before the cursor reattaches. The resumed
/// enumeration must continue row-exact, and the deterministic work
/// counters carried through the checkpoint must land on the same totals
/// as the uninterrupted drain.
#[test]
fn checkpoint_survives_fresh_index_builds_at_every_boundary() {
    let q = examples::fig4_query();
    let db = instance(&q, 7, 20, 85);
    let prepared = Engine::new().prepare(&q);

    let mut baseline = ResultStream::open(&prepared, &db).expect("open");
    let uninterrupted = drain(&mut baseline);
    let full_stats = baseline.stats().deterministic();
    assert!(uninterrupted.len() > 4, "instance must be non-trivial");

    for pause_after in 0..=uninterrupted.len() {
        let mut first = ResultStream::open(&prepared, &db).expect("open");
        let mut rows = Vec::new();
        for _ in 0..pause_after {
            rows.push(
                first
                    .next_row()
                    .expect("pause point within bounds")
                    .to_vec(),
            );
        }
        let ck = first.checkpoint();
        assert_eq!(ck.rows_streamed(), pause_after as u64);
        drop(first);

        // A fresh engine: empty IndexSet, every trie rebuilt from content.
        let fresh = Engine::new().prepare(&q);
        let mut second = ResultStream::resume(&fresh, &db, &ck).expect("resume");
        rows.extend(drain(&mut second));
        assert_eq!(
            rows, uninterrupted,
            "resume after {pause_after} rows through rebuilt indexes"
        );
        assert_eq!(
            second.stats().deterministic(),
            full_stats,
            "deterministic work must be pause-invariant (pause at {pause_after})"
        );
    }
}

/// A query with a UDF-only variable (`z` of `fig5_udf_product` occurs in no
/// atom, so the search never binds it — expansion fills it in place at each
/// leaf): detaching and reattaching the position after *every* row must
/// neither disturb the rows nor the work, and the drained stream must have
/// done exactly the Generic-Join run's deterministic work.
#[test]
fn udf_only_variable_survives_a_checkpoint_after_every_row() {
    let q = examples::fig5_udf_product();
    let mut db = Database::new();
    db.insert("R", Relation::from_rows(vec![0], [[1], [2], [3], [4]]));
    db.insert("S", Relation::from_rows(vec![1], [[10], [20], [30]]));
    db.udfs
        .register(VarSet::from_vars([0, 1]), 2, |v| v[0] + v[1]);
    let prepared = Engine::new().prepare(&q);

    let mut undisturbed = ResultStream::open(&prepared, &db).expect("open");
    let rows = drain(&mut undisturbed);
    assert_eq!(rows.len(), 12);
    assert!(rows.iter().all(|r| r[2] == r[0] + r[1]), "z = x + y");

    let mut stream = ResultStream::open(&prepared, &db).expect("open");
    let mut paged = Vec::new();
    while let Some(row) = stream.next_row() {
        paged.push(row.to_vec());
        let ck = stream.checkpoint();
        stream = ResultStream::resume(&prepared, &db, &ck).expect("resume");
    }
    assert_eq!(paged, rows);
    let mut stats = stream.stats().deterministic();
    assert_eq!(stats, undisturbed.stats().deterministic());

    let gj = prepared
        .execute(&db, &ExecOptions::new().algorithm(Algorithm::GenericJoin))
        .expect("materialize");
    assert_eq!(gj.output.rows().collect::<Vec<_>>(), rows);
    stats.rows_streamed = 0;
    assert_eq!(stats, gj.stats.deterministic());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Pausing after a random number of rows and resuming from the
    /// checkpoint in a fresh cursor yields exactly the uninterrupted
    /// enumeration — same rows, same order, nothing dropped or repeated.
    #[test]
    fn checkpoint_resume_never_drops_or_duplicates(
        seed in 0u64..6,
        pause_after in 0usize..40,
    ) {
        let q = examples::fig4_query();
        let db = instance(&q, 100 + seed, 20, 85);
        let prepared = Engine::new().prepare(&q);

        let uninterrupted = drain(&mut ResultStream::open(&prepared, &db).expect("open"));
        let paged = paginate(&prepared, &db, pause_after);
        prop_assert_eq!(paged, uninterrupted);
    }
}
