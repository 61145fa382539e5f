//! The budgeted streaming service end to end: exhaustion equivalence,
//! every budget ending, cancellation that preserves warm plans/tries, and
//! estimate-driven admission for both streams and batches.

use fdjoin_bigint::Rational;
use fdjoin_core::{Engine, ExecOptions, JoinError, PreparedQuery};
use fdjoin_exec::{Admission, Executor, StreamBudget, StreamEnd};
use fdjoin_query::examples;
use fdjoin_storage::Database;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

fn fig4_setup() -> (Executor, Arc<PreparedQuery>, Arc<Database>) {
    let q = examples::fig4_query();
    let prepared = Arc::new(Engine::new().prepare(&q));
    let mut rng = StdRng::seed_from_u64(42);
    let db = Arc::new(fdjoin_instances::random_instance(&q, &mut rng, 40, 80));
    (Executor::with_threads(2), prepared, db)
}

/// An uncapped stream drains to exactly the materialized answer, in
/// enumeration order, and reports its delivery through the streaming
/// counters.
#[test]
fn uncapped_stream_matches_materialized_answer() {
    let (exec, prepared, db) = fig4_setup();
    let outcome = exec
        .submit_stream(&prepared, &db, StreamBudget::new())
        .wait()
        .unwrap();
    assert_eq!(outcome.end, StreamEnd::Exhausted);

    let materialized = prepared.execute(&db, &ExecOptions::new()).unwrap();
    let mut sorted = outcome.rows.clone();
    sorted.sort_dedup();
    assert_eq!(sorted, materialized.output);
    // No dedup happened: delivery already enumerated distinct rows.
    assert_eq!(outcome.rows.len(), materialized.output.len());
    assert_eq!(outcome.stats.rows_streamed, outcome.rows.len() as u64);
    assert_eq!(outcome.stats.stream_pauses, outcome.rows.len() as u64);
}

/// Each cap produces its own ending: a row budget delivers exactly the
/// first k rows of the enumeration order, a byte budget stops at the row
/// that crosses the cap, and an already-expired deadline cancels before
/// the first row.
#[test]
fn budget_endings_truncate_deterministically() {
    let (exec, prepared, db) = fig4_setup();
    let full = exec
        .submit_stream(&prepared, &db, StreamBudget::new())
        .wait()
        .unwrap();
    assert!(full.rows.len() > 3, "need a non-trivial result to truncate");

    let capped = exec
        .submit_stream(&prepared, &db, StreamBudget::new().max_rows(3))
        .wait()
        .unwrap();
    assert_eq!(capped.end, StreamEnd::RowBudget);
    assert_eq!(capped.rows.len(), 3);
    let full_rows: Vec<_> = full.rows.rows().take(3).collect();
    let capped_rows: Vec<_> = capped.rows.rows().collect();
    assert_eq!(capped_rows, full_rows, "row budget delivers a prefix");
    // The capped stream did strictly less enumeration work.
    assert!(capped.stats.work() < full.stats.work());

    let tiny = exec
        .submit_stream(&prepared, &db, StreamBudget::new().max_bytes(1))
        .wait()
        .unwrap();
    assert_eq!(tiny.end, StreamEnd::ByteBudget);
    assert_eq!(tiny.rows.len(), 1, "the crossing row is still delivered");

    let expired = exec
        .submit_stream(&prepared, &db, StreamBudget::new().deadline(Duration::ZERO))
        .wait()
        .unwrap();
    assert_eq!(expired.end, StreamEnd::Deadline);
    assert!(expired.rows.is_empty());
}

/// The tentpole cancellation property: abandoning a stream mid-flight
/// discards neither the prepared plans nor the cached tries. After a warm
/// run, a budget-cancelled stream and a subsequent full stream cost zero
/// plan solves and zero index builds — only cache hits and cursor grants.
#[test]
fn cancellation_preserves_plans_and_tries() {
    let (exec, prepared, db) = fig4_setup();
    let warm = exec
        .submit_stream(&prepared, &db, StreamBudget::new())
        .wait()
        .unwrap();
    assert_eq!(warm.end, StreamEnd::Exhausted);

    let before = prepared.prep_stats();
    let cancelled = exec
        .submit_stream(&prepared, &db, StreamBudget::new().max_rows(2))
        .wait()
        .unwrap();
    assert_eq!(cancelled.end, StreamEnd::RowBudget);
    let resumed = exec
        .submit_stream(&prepared, &db, StreamBudget::new())
        .wait()
        .unwrap();
    assert_eq!(resumed.rows, warm.rows, "nothing was lost to the abandon");

    let window = prepared.prep_stats().since(&before);
    assert_eq!(window.solves(), 0, "plans survived: {window:?}");
    assert_eq!(window.index_builds, 0, "tries survived: {window:?}");
    assert_eq!(window.stream_cursors, 2, "two cursors were granted");
    assert!(window.index_hits > 0, "both cursors ran on cached tries");
}

/// Stream admission: a cap below the data-dependent estimate rejects the
/// submission with `JoinError::Budget` carrying both sides of the
/// comparison — before any cursor or trie work happens.
#[test]
fn stream_admission_rejects_over_estimate_queries() {
    let (exec, prepared, db) = fig4_setup();
    let estimate = prepared.estimate(&db).unwrap().log_max;
    assert!(estimate > Rational::zero(), "instance must be non-trivial");

    let before = prepared.prep_stats();
    let err = exec
        .submit_stream(
            &prepared,
            &db,
            StreamBudget::new().admit_below(Rational::zero()),
        )
        .wait()
        .unwrap_err();
    match err {
        JoinError::Budget {
            estimate_log_max,
            budget_log,
        } => {
            assert_eq!(*estimate_log_max, estimate);
            assert_eq!(*budget_log, Rational::zero());
        }
        other => panic!("expected Budget rejection, got {other:?}"),
    }
    let window = prepared.prep_stats().since(&before);
    assert_eq!(window.stream_cursors, 0, "no cursor was opened");
    assert_eq!(window.index_builds, 0, "no trie was built");

    // A generous cap admits the same submission.
    let ok = exec
        .submit_stream(
            &prepared,
            &db,
            StreamBudget::new().admit_below(estimate.clone()),
        )
        .wait()
        .unwrap();
    assert_eq!(ok.end, StreamEnd::Exhausted);
}

/// Batch admission: one prepared query over two databases, with the cap
/// set exactly at the small database's estimate — the small one executes,
/// the skewed one fails fast with `JoinError::Budget` instead of running.
#[test]
fn batch_admission_fails_fast_per_database() {
    let q = examples::triangle();
    let prepared = Arc::new(Engine::new().prepare(&q));
    let small = {
        let mut rng = StdRng::seed_from_u64(7);
        fdjoin_instances::random_instance(&q, &mut rng, 3, 100)
    };
    let big = {
        let mut rng = StdRng::seed_from_u64(8);
        fdjoin_instances::random_instance(&q, &mut rng, 200, 100)
    };
    let e_small = prepared.estimate(&small).unwrap().log_max;
    let e_big = prepared.estimate(&big).unwrap().log_max;
    assert!(e_big > e_small, "the big instance must estimate larger");

    let dbs = Arc::new(vec![small, big]);
    let exec = Executor::with_threads(2);
    let batch = exec
        .submit_with_admission(
            &prepared,
            &dbs,
            &ExecOptions::new(),
            &Admission::below(e_small),
        )
        .wait();
    assert_eq!(batch.stats.succeeded, 1);
    assert_eq!(batch.stats.failed, 1);
    let expect = prepared.execute(&dbs[0], &ExecOptions::new()).unwrap();
    assert_eq!(batch.results[0].as_ref().unwrap().output, expect.output);
    assert!(matches!(batch.results[1], Err(JoinError::Budget { .. })));
}
