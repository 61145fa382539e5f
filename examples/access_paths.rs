//! The shared access-path layer under a served workload: trie indexes are
//! built once per (relation version, column order) and reused across
//! repeated executions, concurrent batches, and delta batches — observable
//! through the build/hit counters on `PrepStats` and per-run `Stats`.
//!
//! Run with `cargo run --release --example access_paths`.

use fdjoin::core::{Algorithm, Engine, ExecOptions};
use fdjoin::delta::{DeltaBatch, DeltaOptions, MaterializedView};
use fdjoin::exec::Executor;
use fdjoin::instances::bounded_degree_triangle;
use fdjoin::query::examples;
use std::sync::Arc;

fn main() {
    let q = examples::triangle();
    let prepared = Arc::new(Engine::new().prepare(&q));
    let opts = ExecOptions::new().algorithm(Algorithm::GenericJoin);

    // A small fleet of databases, as a serving layer would hold per tenant.
    let dbs: Arc<Vec<_>> = Arc::new(
        (1..=4u64)
            .map(|k| bounded_degree_triangle(64 * k, 8))
            .collect(),
    );

    println!("== cold pass: every (relation, order) trie is built once ==");
    for (i, db) in dbs.iter().enumerate() {
        let r = prepared.execute(db, &opts).unwrap();
        println!(
            "db {i}: |out| = {:3}  index builds = {:2}  hits = {:2}",
            r.output.len(),
            r.stats.index_builds,
            r.stats.index_hits
        );
    }
    let warm = prepared.prep_stats();
    println!(
        "cache after cold pass: builds = {}, hits = {}, resident = {} ({} bytes)\n",
        warm.index_builds,
        warm.index_hits,
        prepared.index_set().len(),
        prepared.index_set().memory_bytes()
    );

    println!("== warm batch (4 threads): zero rebuilds, all hits ==");
    let batch = Executor::with_threads(4)
        .submit(&prepared, &dbs, &opts)
        .wait();
    assert_eq!(batch.stats.failed, 0);
    let window = prepared.prep_stats().since(&warm);
    println!(
        "batch of {}: index builds = {}, hits = {}\n",
        dbs.len(),
        window.index_builds,
        window.index_hits
    );
    assert_eq!(window.index_builds, 0, "warm batch must not rebuild");

    println!("== delta batches: rebuild only what a delta touched ==");
    let view_opts = DeltaOptions::new().exec(ExecOptions::new().algorithm(Algorithm::Chain));
    let mut view = MaterializedView::materialize(Arc::clone(&prepared), dbs[0].clone(), view_opts)
        .expect("materialize");
    let before = prepared.prep_stats();
    let delta = DeltaBatch::new().insert("R", [1u64, 2]).delete("R", [2, 3]);
    view.apply_delta(&delta).expect("apply_delta");
    let window = prepared.prep_stats().since(&before);
    println!(
        "1 delta on R: index builds = {} (R-derived tries), hits = {} (S/T reused)",
        window.index_builds, window.index_hits
    );

    let before = prepared.prep_stats();
    view.apply_delta(&DeltaBatch::new().insert("R", [1u64, 2]))
        .expect("no-op replay");
    let window = prepared.prep_stats().since(&before);
    println!(
        "no-op replay: index builds = {} (version unchanged)",
        window.index_builds
    );
    assert_eq!(window.index_builds, 0);

    let total = prepared.prep_stats();
    println!(
        "\ntotal: {} builds amortized over {} acquisitions ({:.1}% hit rate)",
        total.index_builds,
        total.index_builds + total.index_hits,
        100.0 * total.index_hits as f64 / (total.index_builds + total.index_hits).max(1) as f64
    );
}
