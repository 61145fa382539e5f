//! The data-dependent cost model, end to end: watch measured degree/skew
//! statistics flip an `Algorithm::Auto` decision between two databases
//! with *identical size profiles*, then watch a materialized view pick
//! delta-specialized plans per delta join.
//!
//! Run with: `cargo run --example cost_model`

use fdjoin::core::{Engine, ExecOptions};
use fdjoin::delta::{ApplyDelta, DeltaBatch, DeltaOptions};
use fdjoin::instances::random_instance;
use fdjoin::storage::{Database, Relation};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Subsets of one FD-consistent pool instance: `spread` picks every
/// (n/k)-th sorted row (low skew), otherwise the first k rows pile onto
/// few prefix values (high skew). Same row count either way.
fn subset(rel: &Relation, k: usize, spread: bool) -> Relation {
    let n = rel.len();
    if spread {
        rel.select_rows((0..k).map(|i| i * n / k))
    } else {
        rel.select_rows(0..k)
    }
}

fn main() {
    // ----------------------------------------------------------------- //
    // Part 1: the Auto tie-break. Fig. 4 is the paper's chain-not-tight
    // query (chain bound 3/2·n vs. LLP optimum 4/3·n): worst-case
    // analysis alone cannot close the gap, so the measured statistics
    // decide.
    // ----------------------------------------------------------------- //
    let q = fdjoin::query::examples::fig4_query();
    let mut rng = StdRng::seed_from_u64(1);
    let pool = random_instance(&q, &mut rng, 4000, 100);
    let k = 64usize;
    let mk = |spread: bool| -> Database {
        let mut db = pool.clone();
        for a in q.atoms() {
            db.insert(
                a.name.clone(),
                subset(pool.relation(&a.name).unwrap(), k, spread),
            );
        }
        db
    };
    let uniform = mk(true);
    let skewed = mk(false);

    let engine = Engine::new();
    let prepared = engine.prepare(&q);
    println!("query: {}", q.display_body());
    println!(
        "size profiles: uniform {:?}, skewed {:?} (identical)\n",
        prepared.size_profile(&uniform).unwrap(),
        prepared.size_profile(&skewed).unwrap(),
    );
    for (tag, db) in [("uniform", &uniform), ("skewed ", &skewed)] {
        let r = prepared.execute(db, &ExecOptions::new()).unwrap();
        let d = r.auto.expect("Auto records a decision");
        let f = |x: &Option<fdjoin::bigint::Rational>| {
            x.as_ref().map(|v| v.to_f64()).unwrap_or(f64::NAN)
        };
        println!(
            "{tag}: ran {:<5} ({})\n         worst case: chain 2^{:.2} vs LLP 2^{:.2}",
            d.algorithm.to_string(),
            d.reason,
            f(&d.chain_log_bound),
            f(&d.llp_log_bound),
        );
        println!(
            "         measured:   avg 2^{:.2}, skew-pessimistic 2^{:.2}  (gap {:.2})",
            f(&d.estimate_log_avg),
            f(&d.estimate_log_max),
            f(&d.estimate_log_max) - f(&d.estimate_log_avg),
        );
        println!("         output: {} tuples\n", r.output.len());
    }

    // ----------------------------------------------------------------- //
    // Part 2: delta-specialized plan selection. The same cost model
    // prices each delta join; a 1-tuple delta runs a Δ-first binary plan
    // instead of the view's full plan, and DeltaStats shows the saving.
    // ----------------------------------------------------------------- //
    let tri = fdjoin::query::examples::triangle();
    let mut rng = StdRng::seed_from_u64(4242);
    let db = random_instance(&tri, &mut rng, 400, 90);
    let prepared = Arc::new(Engine::new().prepare(&tri));
    let mut view = prepared
        .materialize(db.clone(), DeltaOptions::new())
        .unwrap();
    let mut plain = prepared
        .materialize(
            db,
            DeltaOptions::new().exec(ExecOptions::new().cost_tiebreak(false)),
        )
        .unwrap();
    println!("triangle view: {} tuples materialized", view.output().len());
    for step in 0..4u64 {
        let delta = DeltaBatch::new().insert("R", [900 + step, 901 + step]);
        let bs = view.apply_delta(&delta).unwrap();
        let bp = plain.apply_delta(&delta).unwrap();
        println!(
            "delta {step}: specialized ran {:?} (work {:>3}) vs view plan {:?} (work {:>3})",
            view.delta_algorithms(),
            bs.join_work,
            plain.delta_algorithms(),
            bp.join_work,
        );
        assert_eq!(view.output(), plain.output());
    }
    let total = view.stats();
    println!(
        "\nlifetime: {} delta joins, {} specialized, join work {} \
         (vs {} without specialization)",
        total.delta_joins,
        total.specialized_deltas,
        total.join_work,
        plain.stats().join_work,
    );
}
