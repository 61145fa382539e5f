//! Incremental maintenance tour: prepare once, stream deltas, watch the
//! counters.
//!
//! A long-lived triangle view absorbs a stream of single-edge updates.
//! Every batch is maintained by delta joins against the current relations
//! — the prepared query's plans are reused, nothing is re-prepared — and
//! `DeltaStats` shows the join work staying orders of magnitude below a
//! full recompute. A final bulk load trips the size threshold and falls
//! back to one recompute, also visible in the stats.
//!
//! Run with: `cargo run --example incremental`

use fdjoin::core::{Engine, ExecOptions};
use fdjoin::delta::{DeltaBatch, DeltaOptions, MaterializedView};
use fdjoin::storage::{Database, Relation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn random_graph_db(seed: u64, edges: usize, vertices: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    for (name, vars) in [("R", vec![0, 1]), ("S", vec![1, 2]), ("T", vec![2, 0])] {
        let rows: Vec<[u64; 2]> = (0..edges)
            .map(|_| [rng.gen_range(0..vertices), rng.gen_range(0..vertices)])
            .collect();
        db.insert(name, Relation::from_rows(vars, rows));
    }
    db
}

fn main() {
    let q = fdjoin::query::examples::triangle();
    let db = random_graph_db(7, 3000, 200);

    // Prepare once; the lattice presentation and all per-profile plans
    // live on this handle for the lifetime of the view.
    let prepared = Arc::new(Engine::new().prepare(&q));
    let mut view = MaterializedView::materialize(Arc::clone(&prepared), db, DeltaOptions::new())
        .expect("materialize");
    println!(
        "materialized {} triangles over {} edges ({} ran)\n",
        view.output().len(),
        view.database().total_tuples(),
        view.algorithm_used(),
    );

    // What would a from-scratch evaluation cost? (For comparison only.)
    let full = Engine::new()
        .execute(&q, view.database(), &ExecOptions::new())
        .expect("full join");
    println!("full recompute work: {:>8}", full.stats.work());

    // Stream 12 single-edge updates: insert an edge, retire another.
    let mut rng = StdRng::seed_from_u64(99);
    for step in 0..12u64 {
        let delta = DeltaBatch::new()
            .insert("R", [rng.gen_range(0..200), rng.gen_range(0..200)])
            .delete(
                "R",
                view.database()
                    .relation("R")
                    .unwrap()
                    .row(step as usize)
                    .to_vec(),
            );
        let bs = view.apply_delta(&delta).expect("apply_delta");
        println!(
            "step {step:>2}: work {:>6}  (delta joins {}, revalidated {}, \
             +{} / -{} tuples, plans {})",
            bs.join_work,
            bs.delta_joins,
            bs.revalidated,
            bs.tuples_added,
            bs.tuples_removed,
            if bs.planning_solves == 0 {
                "reused".to_string()
            } else {
                format!("{} new solves", bs.planning_solves)
            },
        );
    }

    // A bulk load exceeds the delta threshold: one recompute, by design.
    let mut bulk = DeltaBatch::new();
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..4000 {
        bulk.push_insert("S", [rng.gen_range(0..200), rng.gen_range(0..200)]);
    }
    let bs = view.apply_delta(&bulk).expect("bulk load");
    println!(
        "\nbulk load of {} rows: full_recomputes={} (threshold fallback), work {}",
        bulk.rows(),
        bs.full_recomputes,
        bs.join_work
    );

    let total = view.stats();
    println!(
        "\nlifetime: {} batches, {} delta joins, {} recomputes, \
         {} tuples touched, join work {}",
        total.batches,
        total.delta_joins,
        total.full_recomputes,
        total.tuples_touched(),
        total.join_work
    );
    println!(
        "prepared once: {} lattice presentation(s), {} total solves",
        prepared.prep_stats().lattice_presentations,
        prepared.prep_stats().solves()
    );
}
