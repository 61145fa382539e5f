//! Streaming enumeration tour: first rows on demand, pruned aggregates,
//! resumable pagination, and budgeted serving.
//!
//! A Fig. 4 instance is enumerated through a `ResultStream` cursor instead
//! of a materializing join: the first rows arrive without computing the
//! rest, `exists`/`count`/`limit` prune the descent (visibly less work
//! than a full run), a checkpoint pages through the answer across cursor
//! lifetimes — and goes stale the moment the data changes — and the
//! serving layer drives the same cursor under row/deadline budgets with
//! estimate-driven admission control.
//!
//! Run with: `cargo run --example streaming`

use fdjoin::bigint::Rational;
use fdjoin::core::{Engine, ExecOptions};
use fdjoin::exec::{Executor, StreamBudget, StreamEnd};
use fdjoin::query::examples;
use fdjoin::stream::{ResultStream, StreamError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn main() {
    let q = examples::fig4_query();
    let mut rng = StdRng::seed_from_u64(12);
    let db = Arc::new(fdjoin::instances::random_instance(&q, &mut rng, 120, 85));
    let prepared = Arc::new(Engine::new().prepare(&q));

    println!("query: {}", q.display_body());

    // ---- first rows, no materialization --------------------------------
    let mut stream = ResultStream::open(&prepared, &db).expect("open");
    print!("first rows:");
    for _ in 0..3 {
        match stream.next_row() {
            Some(row) => print!(" {row:?}"),
            None => break,
        }
    }
    let first_work = stream.stats().work();
    println!("\nwork after 3 rows: {first_work}");

    // ---- pruned aggregates vs. the full join ---------------------------
    let mut probe = ResultStream::open(&prepared, &db).expect("open");
    let found = probe.exists();
    let exists_work = probe.stats().work();
    let full = prepared.execute(&db, &ExecOptions::new()).expect("execute");
    println!(
        "exists = {found}: {exists_work} work vs {} for the full join",
        full.stats.work()
    );
    let mut counter = ResultStream::open(&prepared, &db).expect("open");
    println!(
        "count  = {} (full join: {} rows)",
        counter.count(),
        full.output.len()
    );

    // ---- pagination with a resumable checkpoint ------------------------
    let mut page1 = ResultStream::open(&prepared, &db).expect("open");
    let rows1 = page1.limit(4);
    let cursor = page1.checkpoint();
    drop(page1); // the cursor outlives the stream: plain data + versions
    let mut page2 = ResultStream::resume(&prepared, &db, &cursor).expect("resume");
    let rows2 = page2.limit(4);
    println!(
        "\npage 1: {} rows, page 2 (resumed at row {}): {} rows",
        rows1.len(),
        cursor.rows_streamed(),
        rows2.len()
    );

    // A checkpoint is validated against relation versions: mutate the
    // database and the stale cursor is rejected instead of paging wrong.
    let mut drifted = (*db).clone();
    drifted
        .relation_mut("T0_abc")
        .expect("T0_abc")
        .apply_delta([[999u64, 999, 999]], [] as [&[u64]; 0]);
    match ResultStream::resume(&prepared, &drifted, &cursor) {
        Err(StreamError::StaleCheckpoint { relation }) => {
            println!("after an update to {relation}: checkpoint correctly stale");
        }
        other => panic!("expected a stale checkpoint, got {other:?}"),
    }

    // ---- budgeted serving ----------------------------------------------
    let exec = Executor::new();
    let outcome = exec
        .submit_stream(&prepared, &db, StreamBudget::new().max_rows(10))
        .wait()
        .expect("admitted");
    println!(
        "\nserved {} rows, ended by {:?} ({} µs)",
        outcome.rows.len(),
        outcome.end,
        outcome.wall.as_micros(),
    );
    assert_eq!(outcome.end, StreamEnd::RowBudget);

    // Admission control: a log₂-zero output budget rejects this instance
    // before any cursor or trie work is spent.
    let rejected = exec
        .submit_stream(
            &prepared,
            &db,
            StreamBudget::new().admit_below(Rational::zero()),
        )
        .wait();
    println!("zero-budget admission: {}", rejected.unwrap_err());
}
