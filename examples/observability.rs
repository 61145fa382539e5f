//! Observability end to end: one traced serving request, exported two
//! ways and counted per algorithm, plus EXPLAIN / EXPLAIN ANALYZE.
//!
//! The flow mirrors a serving deployment: attach one [`Observer`] to the
//! engine and the executor, wrap a request in a caller-defined `request`
//! root span, prepare + submit a batch, and then read everything back —
//! the span tree (text and JSON-lines), a per-algorithm count of its
//! `solve` spans, and the planner's own EXPLAIN report. The JSON-lines
//! export is validated with the checker shipped in `fdjoin::obs`.
//!
//! Run with: `cargo run --example observability`

use fdjoin::core::{Engine, ExecOptions};
use fdjoin::exec::Executor;
use fdjoin::instances::random_instance;
use fdjoin::obs::{export_jsonl, render_text_tree, validate_jsonl, Observer, SpanKind};
use fdjoin::query::examples;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::Arc;

fn main() {
    // One recorder for the whole stack: engine, prepared queries, and the
    // executor all emit into it (clones share one span ring).
    let obs = Observer::enabled();

    // The Fig. 4 query (Examples 5.18–5.20): chain bound N^{3/2}, LLP
    // optimum N^{4/3} — a query where the planner has real work to trace.
    let q = examples::fig4_query();
    let mut rng = StdRng::seed_from_u64(7);
    let dbs = Arc::new(vec![
        random_instance(&q, &mut rng, 600, 100),
        random_instance(&q, &mut rng, 600, 90),
        random_instance(&q, &mut rng, 600, 80),
    ]);

    // --- one request, one span tree -------------------------------------
    let engine = Engine::new().observe(obs.clone());
    let exec = Executor::with_threads(2).observe(obs.clone());
    let batch = {
        // A caller-defined root: prepare and submit both nest under it, so
        // the whole request — prepare → index builds → solves — is one
        // coherent tree even though the solves ran on pool workers.
        let mut request = obs.span(SpanKind::Request, "serve fig4");
        let prepared = Arc::new(engine.prepare(&q));
        let batch = exec.submit(&prepared, &dbs, &ExecOptions::new()).wait();
        request.field("databases", batch.stats.databases);
        request.field("output_tuples", batch.stats.output_tuples);
        batch
    };
    println!("batch: {}", batch.stats);
    for (i, r) in batch.results.iter().enumerate() {
        let r = r.as_ref().expect("fig4 executes on random instances");
        println!("  db{i}: {} via {}", r.output.len(), r.algorithm_used);
    }

    // --- the span tree, two exports -------------------------------------
    let spans = obs.drain_spans();
    println!("\nspan tree ({} spans):", spans.len());
    print!("{}", render_text_tree(&spans));

    let jsonl = export_jsonl(&spans);
    let lines = validate_jsonl(&jsonl).expect("exported JSONL parses");
    println!("JSON-lines export: {lines} valid records");

    // --- executions per algorithm, read off the same spans ---------------
    let mut solves: BTreeMap<String, usize> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.kind == SpanKind::Solve) {
        let algorithm = s
            .field("algorithm")
            .expect("solve spans name their algorithm");
        *solves.entry(algorithm.to_string()).or_default() += 1;
    }
    println!("\nsolve spans per algorithm:");
    for (algorithm, n) in &solves {
        println!("  {algorithm}: {n}");
    }
    assert_eq!(solves.values().sum::<usize>(), batch.results.len());

    // --- EXPLAIN / EXPLAIN ANALYZE --------------------------------------
    // Needs no observer at all: ANALYZE traces its one execution under a
    // private recorder and renders the tree inline.
    let prepared = Engine::new().prepare(&q);
    let report = prepared.explain_analyze(&dbs[0]).unwrap();
    println!("\n{report}");
}
