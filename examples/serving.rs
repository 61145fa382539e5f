//! Serving-layer tour: prepare once, execute everywhere.
//!
//! Simulates a multi-tenant serving scenario: several tenants issue
//! *structurally identical* queries over their own schemas (different
//! variable and relation names), each against many databases. A shared
//! `PlanCache` keyed by lattice-presentation isomorphism means only the
//! first tenant pays for planning; the `Executor` then fans each
//! prepared query across its databases concurrently.
//!
//! Run with: `cargo run --example serving`

use fdjoin::core::{Engine, ExecOptions, PlanCache};
use fdjoin::exec::Executor;
use fdjoin::query::Query;
use fdjoin::storage::Database;
use std::sync::Arc;

/// Tenant `t`'s triangle query: same shape, tenant-specific names, and a
/// tenant-specific atom rotation (the cache must see through both).
fn tenant_query(t: usize) -> Query {
    let mut b = Query::builder();
    let names = [format!("a{t}"), format!("b{t}"), format!("c{t}")];
    let v: Vec<u32> = names.iter().map(|n| b.var(n)).collect();
    let atoms = [
        (format!("Edges{t}"), [v[0], v[1]]),
        (format!("Links{t}"), [v[1], v[2]]),
        (format!("Ties{t}"), [v[2], v[0]]),
    ];
    for i in 0..3 {
        let (name, vars) = &atoms[(i + t) % 3];
        b.atom(name, vars);
    }
    b.build()
}

/// Tenant databases holding the *same* logical graph (so profiles across
/// tenants are isomorphic), keyed by each tenant's relation names. Role:
/// `Edges*` = 0, `Links*` = 1, `Ties*` = 2.
fn tenant_dbs(q: &Query, n: usize, seed: u64) -> Vec<Database> {
    use fdjoin::storage::Relation;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    (0..n)
        .map(|i| {
            let mut db = Database::new();
            for a in q.atoms() {
                let role = match a.name.as_bytes()[0] {
                    b'E' => 0,
                    b'L' => 1,
                    _ => 2,
                };
                // Per-(database, role) rows, independent of the tenant.
                let mut rng = StdRng::seed_from_u64(seed + 101 * i as u64 + role);
                let rows: Vec<[u64; 2]> = (0..14)
                    .map(|_| [rng.gen_range(0..8), rng.gen_range(0..8)])
                    .collect();
                db.insert(&a.name, Relation::from_rows(a.vars.clone(), rows));
            }
            db
        })
        .collect()
}

fn main() {
    let cache = Arc::new(PlanCache::new());
    let engine = Engine::with_plan_cache(cache.clone());
    let opts = ExecOptions::new();

    println!("=== cross-query plan reuse ===");
    let mut prepared = Vec::new();
    for t in 0..3 {
        let q = tenant_query(t);
        let p = Arc::new(engine.prepare(&q));
        prepared.push((q, p));
    }
    for (t, (q, p)) in prepared.iter().enumerate() {
        // Execute once so the per-size-profile plans materialize.
        let dbs = tenant_dbs(q, 1, 42);
        let r = p.execute(&dbs[0], &opts).unwrap();
        let s = p.prep_stats();
        println!(
            "tenant {t}: {:28} ran {} ({}), solves={}, shared hits={}",
            q.display_body(),
            r.algorithm_used,
            r.auto
                .as_ref()
                .map(|d| d.reason.to_string())
                .unwrap_or_default(),
            s.solves(),
            s.shared_hits,
        );
    }
    let cs = cache.stats();
    println!(
        "cache: {} shape(s), {} hit(s), {} miss(es)  — tenants 1,2 planned for free\n",
        cs.shapes, cs.shape_hits, cs.shape_misses
    );

    println!("=== batch execution (submit / wait) ===");
    let exec = Executor::new();
    let (q0, p0) = &prepared[0];
    let dbs = Arc::new(tenant_dbs(q0, 24, 7));
    let batch = exec.submit(p0, &dbs, &opts).wait();
    println!(
        "{} databases: {} ok / {} failed, {} output tuples, {:.1?} wall, {:.0} db/s",
        batch.stats.databases,
        batch.stats.succeeded,
        batch.stats.failed,
        batch.stats.output_tuples,
        batch.stats.wall,
        batch.stats.throughput(),
    );
    // One solve per *distinct canonical size profile*; profiles that are
    // automorphic images of an earlier one rehydrate from the shared cache
    // (shared_hits), everything else is a pure local-cache read.
    println!("prep stats after batch: {:?}\n", p0.prep_stats());

    println!("=== overlapping batches on one executor ===");
    let (q1, _) = &prepared[1];
    let p1 = Arc::new(engine.prepare(q1));
    let dbs1 = Arc::new(tenant_dbs(q1, 16, 99));
    let h1 = exec.submit(&p1, &dbs1, &opts);
    let h2 = exec.submit(&p1, &dbs1, &opts); // overlapping batches
    let (b1, b2) = (h1.wait(), h2.wait());
    println!(
        "two overlapping batches on {} workers: {}+{} databases, {:.0} + {:.0} db/s",
        exec.threads(),
        b1.stats.databases,
        b2.stats.databases,
        b1.stats.throughput(),
        b2.stats.throughput(),
    );
    assert_eq!(
        b1.results.len(),
        b2.results.len(),
        "same batch, same results"
    );
}
