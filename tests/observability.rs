//! Observability acceptance: span trees from concurrent serving are
//! well-formed, the metrics registry reconciles *exactly* with the
//! engine's own deterministic counters, exports validate, and EXPLAIN /
//! EXPLAIN ANALYZE name everything the planner knew.

use fdjoin::core::{Engine, ExecOptions};
use fdjoin::delta::{ApplyDelta, DeltaBatch, DeltaOptions};
use fdjoin::exec::{Executor, StreamBudget, StreamEnd};
use fdjoin::instances::random_instance;
use fdjoin::obs::{
    export_jsonl, validate_json, validate_jsonl, validate_prometheus, Observer, SpanKind,
    SpanRecord,
};
use fdjoin::query::examples;
use fdjoin::storage::{Database, Relation};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

fn fig4_dbs(count: usize, rows: usize) -> Vec<Database> {
    let q = examples::fig4_query();
    let mut rng = StdRng::seed_from_u64(99);
    (0..count)
        .map(|i| random_instance(&q, &mut rng, rows, 100 - (i as u32 % 4) * 5))
        .collect()
}

fn triangle_db() -> Database {
    let mut db = Database::new();
    db.insert(
        "R",
        Relation::from_rows(vec![0, 1], [[1, 2], [1, 3], [2, 3]]),
    );
    db.insert("S", Relation::from_rows(vec![1, 2], [[2, 3], [3, 1]]));
    db.insert("T", Relation::from_rows(vec![2, 0], [[3, 1], [1, 1]]));
    db
}

/// Structural invariants of a drained span set: unique ids, every parent
/// present (no orphans), children fully contained in their parents'
/// intervals (parents close after children).
fn assert_well_formed(spans: &[SpanRecord]) {
    let mut by_id: HashMap<u64, &SpanRecord> = HashMap::new();
    for s in spans {
        assert!(
            by_id.insert(s.id, s).is_none(),
            "duplicate span id {}",
            s.id
        );
        assert!(
            s.end_ns >= s.start_ns,
            "span {} ends before it starts",
            s.id
        );
    }
    for s in spans {
        if let Some(p) = s.parent {
            let parent = by_id
                .get(&p)
                .unwrap_or_else(|| panic!("span {} has unrecorded parent {p}", s.id));
            assert!(
                parent.end_ns >= s.end_ns,
                "parent {} ({}) closed before child {} ({})",
                parent.id,
                parent.kind.name(),
                s.id,
                s.kind.name()
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Acceptance: one submit on fig4 = one coherent span tree.
// ---------------------------------------------------------------------------

#[test]
fn one_submit_yields_one_well_formed_span_tree() {
    let obs = Observer::enabled();
    let q = examples::fig4_query();
    let dbs = Arc::new(fig4_dbs(3, 400));

    let engine = Engine::new().observe(obs.clone());
    let exec = Executor::with_threads(2).observe(obs.clone());
    {
        let mut request = obs.span(SpanKind::Request, "test request");
        let prepared = Arc::new(engine.prepare(&q));
        let batch = exec.submit(&prepared, &dbs, &ExecOptions::new()).wait();
        assert_eq!(batch.stats.succeeded, 3);
        request.field("databases", batch.stats.databases);
    }
    let spans = obs.drain_spans();
    assert_eq!(obs.dropped_spans(), 0, "ring did not overflow");
    assert_well_formed(&spans);

    // Exactly one root — the request — and everything else reachable
    // from it: prepare and submit beneath the request, batches beneath
    // the submit, solves beneath the batches, index builds beneath solves.
    let roots: Vec<&SpanRecord> = spans.iter().filter(|s| s.parent.is_none()).collect();
    assert_eq!(roots.len(), 1, "single tree");
    assert_eq!(roots[0].kind, SpanKind::Request);
    let count = |k: SpanKind| spans.iter().filter(|s| s.kind == k).count();
    assert_eq!(count(SpanKind::Prepare), 1);
    assert_eq!(count(SpanKind::Submit), 1);
    assert_eq!(count(SpanKind::Batch), 3, "one batch span per database");
    assert_eq!(count(SpanKind::Solve), 3, "one solve span per database");
    assert!(count(SpanKind::IndexBuild) > 0, "index builds traced");
    for s in &spans {
        let parent_kind = s
            .parent
            .map(|p| spans.iter().find(|x| x.id == p).expect("no orphans").kind);
        match s.kind {
            SpanKind::Prepare | SpanKind::Submit => {
                assert_eq!(parent_kind, Some(SpanKind::Request))
            }
            SpanKind::Batch => assert_eq!(parent_kind, Some(SpanKind::Submit)),
            SpanKind::Solve => assert_eq!(parent_kind, Some(SpanKind::Batch)),
            SpanKind::IndexBuild => assert_eq!(parent_kind, Some(SpanKind::Solve)),
            _ => {}
        }
    }

    // The solve spans carry the decision record.
    for s in spans.iter().filter(|s| s.kind == SpanKind::Solve) {
        assert!(s.field("algorithm").is_some());
        assert!(s.field("auto_reason").is_some());
        assert!(s.field("work").is_some());
    }

    // Both exports of this tree validate.
    let jsonl = export_jsonl(&spans);
    assert_eq!(validate_jsonl(&jsonl).unwrap(), spans.len());
}

// ---------------------------------------------------------------------------
// Acceptance: registry totals reconcile exactly with the engine's own
// deterministic counters.
// ---------------------------------------------------------------------------

#[test]
fn registry_reconciles_with_stats_and_prep_stats() {
    let obs = Observer::enabled();
    let q = examples::fig4_query();
    let dbs = fig4_dbs(4, 350);

    let engine = Engine::new().observe(obs.clone());
    let prepared = engine.prepare(&q);
    let mut work = 0u64;
    let mut probes = 0u64;
    let mut output = 0u64;
    let mut builds = 0u64;
    let mut hits = 0u64;
    let mut runs = 0u64;
    for db in &dbs {
        let r = prepared.execute(db, &ExecOptions::new()).unwrap();
        work += r.stats.work();
        probes += r.stats.probes;
        output += r.stats.output_tuples;
        builds += r.stats.index_builds;
        hits += r.stats.index_hits;
        runs += 1;
    }

    let m = obs.metrics();
    let c = |name: &str| m.counter_value(name, &[]);
    assert_eq!(c("fdjoin_prepares_total"), 1);
    assert_eq!(c("fdjoin_work_total"), work);
    assert_eq!(c("fdjoin_probes_total"), probes);
    assert_eq!(c("fdjoin_output_tuples_total"), output);
    assert_eq!(c("fdjoin_index_builds_total"), builds);
    assert_eq!(c("fdjoin_index_hits_total"), hits);
    // Executions split by algorithm sums to the run count, and the
    // latency/work histograms saw exactly one observation per run.
    let by_alg: u64 = [
        "chain",
        "sma",
        "csma",
        "generic-join",
        "binary-join",
        "naive",
    ]
    .iter()
    .map(|a| m.counter_value("fdjoin_executions_total", &[("algorithm", a)]))
    .sum();
    assert_eq!(by_alg, runs);
    assert_eq!(m.histogram("fdjoin_work", &[]).count(), runs);
    assert_eq!(m.histogram("fdjoin_solve_latency_ns", &[]).count(), runs);
    // Every execution fed the estimate-calibration loop.
    assert_eq!(
        m.histogram("fdjoin_estimate_abs_error_millilog2", &[])
            .count(),
        runs
    );
    assert!(m.estimate_calibration_log2().is_some());
    // Plan-solve events were counted at exactly the PrepStats bump sites.
    assert_eq!(
        c("fdjoin_plan_solves_total"),
        prepared.prep_stats().solves()
    );

    // Both registry exports validate.
    validate_prometheus(&m.to_prometheus()).unwrap();
    validate_json(&m.to_json()).unwrap();
}

// ---------------------------------------------------------------------------
// Concurrency stress: many submits racing on a small pool still produce
// well-formed trees, and per-submit subtrees stay disjoint.
// ---------------------------------------------------------------------------

#[test]
fn stressed_executor_produces_well_formed_trees() {
    let obs = Observer::enabled();
    let q = examples::triangle();
    let mut rng = StdRng::seed_from_u64(3);
    let dbs = Arc::new(
        (0..12)
            .map(|_| random_instance(&q, &mut rng, 200, 95))
            .collect::<Vec<_>>(),
    );

    let engine = Engine::new().observe(obs.clone());
    let prepared = Arc::new(engine.prepare(&q));
    let exec = Executor::with_threads(4).observe(obs.clone());
    let handles: Vec<_> = (0..4)
        .map(|_| exec.submit(&prepared, &dbs, &ExecOptions::new()))
        .collect();
    for h in handles {
        assert_eq!(h.wait().stats.failed, 0);
    }

    let spans = obs.drain_spans();
    assert_eq!(obs.dropped_spans(), 0);
    assert_well_formed(&spans);
    let submits: Vec<u64> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Submit)
        .map(|s| s.id)
        .collect();
    assert_eq!(submits.len(), 4);
    let batches: Vec<&SpanRecord> = spans.iter().filter(|s| s.kind == SpanKind::Batch).collect();
    assert_eq!(batches.len(), 4 * 12);
    let submit_set: HashSet<u64> = submits.iter().copied().collect();
    for b in &batches {
        assert!(
            submit_set.contains(&b.parent.expect("batch spans have parents")),
            "every batch hangs off one of the submits"
        );
    }
    assert_eq!(
        spans.iter().filter(|s| s.kind == SpanKind::Solve).count(),
        4 * 12
    );
}

// ---------------------------------------------------------------------------
// Parallel-solve stress: many concurrent 8-way solves with tiny sub-ranges
// — no deadlock, no dropped sub-range (outputs stay byte-identical to the
// sequential run), and every solve_part span parents under a solve span in
// a well-formed tree.
// ---------------------------------------------------------------------------

#[test]
fn stressed_parallel_solves_stay_deterministic_and_well_parented() {
    let obs = Observer::enabled();
    let q = examples::triangle();
    let mut rng = StdRng::seed_from_u64(17);
    // Small instances: 8-way fan-out over a handful of root children makes
    // the sub-ranges tiny, maximizing scheduling churn per unit work.
    let dbs = Arc::new(
        (0..8)
            .map(|_| random_instance(&q, &mut rng, 60, 90))
            .collect::<Vec<_>>(),
    );

    let engine = Engine::new().observe(obs.clone());
    let prepared = Arc::new(engine.prepare(&q));
    // Sequential references, traced through a separate observer so the
    // stressed observer sees only the parallel runs.
    let reference: Vec<_> = {
        let plain = Arc::new(Engine::new().prepare(&q));
        dbs.iter()
            .map(|db| {
                plain
                    .execute(db, &ExecOptions::new().parallelism(1))
                    .unwrap()
            })
            .collect()
    };

    // 3 concurrent submits × 8 databases × 8-way solves on a 4-thread pool:
    // worker threads fan out scoped sub-range tasks from inside pool jobs.
    let exec = Executor::with_threads(4).observe(obs.clone());
    let opts = ExecOptions::new().parallelism(8);
    let handles: Vec<_> = (0..3)
        .map(|_| exec.submit(&prepared, &dbs, &opts))
        .collect();
    for h in handles {
        let batch = h.wait();
        assert_eq!(batch.stats.failed, 0, "no solve deadlocked or died");
        for (r, seq) in batch.results.iter().zip(&reference) {
            let r = r.as_ref().unwrap();
            assert_eq!(r.output, seq.output, "a dropped sub-range changes output");
            assert_eq!(r.stats.deterministic(), seq.stats.deterministic());
        }
    }

    let spans = obs.drain_spans();
    assert_eq!(obs.dropped_spans(), 0);
    assert_well_formed(&spans);
    let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
    let parts: Vec<&SpanRecord> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::SolvePart)
        .collect();
    assert!(!parts.is_empty(), "8-way solves must emit solve_part spans");
    for p in &parts {
        let parent = by_id[&p.parent.expect("solve_part spans have parents")];
        assert_eq!(
            parent.kind,
            SpanKind::Solve,
            "solve_part parents under its solve, not the worker's span"
        );
        assert!(p.field("items").is_some(), "solve_part records its size");
    }
    // No dropped sub-range in the trace either: a solve may fan out several
    // times (per chain level / per atom), but within each fan-out of `t`
    // parts, every index 1..=t must appear — and equally often across
    // repeated fan-outs of the same width.
    let mut fanouts: HashMap<(u64, usize), HashMap<usize, usize>> = HashMap::new();
    for p in &parts {
        let (i, t) = p
            .label
            .strip_prefix("part ")
            .and_then(|l| l.split_once('/'))
            .map(|(i, t)| (i.parse().unwrap(), t.parse().unwrap()))
            .expect("solve_part labels are `part i/total`");
        *fanouts
            .entry((p.parent.unwrap(), t))
            .or_default()
            .entry(i)
            .or_default() += 1;
    }
    for ((solve, t), seen) in fanouts {
        let runs = seen.values().copied().max().unwrap();
        for i in 1..=t {
            assert_eq!(
                seen.get(&i).copied().unwrap_or(0),
                runs,
                "solve {solve}: part {i}/{t} dropped"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Streaming + delta layers emit through the same observer.
// ---------------------------------------------------------------------------

#[test]
fn stream_and_delta_metrics_flow_through_one_observer() {
    let obs = Observer::enabled();
    let q = examples::triangle();
    let engine = Engine::new().observe(obs.clone());
    let prepared = Arc::new(engine.prepare(&q));
    let db = Arc::new(triangle_db());

    // A row-budgeted stream: one delivered row, ended by the budget. The
    // executor has no observer of its own — submissions fall back to the
    // prepared query's.
    let exec = Executor::with_threads(2);
    let outcome = exec
        .submit_stream(&prepared, &db, StreamBudget::new().max_rows(1))
        .wait()
        .unwrap();
    assert_eq!(outcome.end, StreamEnd::RowBudget);
    assert_eq!(outcome.rows.len(), 1);
    let m = obs.metrics();
    assert_eq!(m.counter_value("fdjoin_stream_rows_total", &[]), 1);
    assert_eq!(m.counter_value("fdjoin_stream_pauses_total", &[]), 1);
    assert_eq!(
        m.counter_value("fdjoin_stream_endings_total", &[("end", "row-budget")]),
        1
    );
    assert_eq!(m.histogram("fdjoin_first_row_latency_ns", &[]).count(), 1);

    // Display satellites: one-line summaries render non-empty.
    assert!(outcome.to_string().contains("end=row-budget"));
    assert!(outcome.stats.to_string().contains("work="));

    // A delta batch through a materialized view.
    let mut view = prepared
        .materialize(triangle_db(), DeltaOptions::new())
        .unwrap();
    let ds = view
        .apply_delta(&DeltaBatch::new().insert("R", [3, 1]))
        .unwrap();
    assert_eq!(m.counter_value("fdjoin_delta_batches_total", &[]), 1);
    assert!(ds.to_string().contains("batches=1"));

    let spans = obs.drain_spans();
    assert_well_formed(&spans);
    let kinds: HashSet<&str> = spans.iter().map(|s| s.kind.name()).collect();
    for k in ["submit", "batch", "stream_advance", "delta_apply"] {
        assert!(kinds.contains(k), "missing span kind {k}");
    }
}

// ---------------------------------------------------------------------------
// EXPLAIN / EXPLAIN ANALYZE name the decision, the bounds and the
// estimate.
// ---------------------------------------------------------------------------

#[test]
fn explain_analyze_names_everything() {
    let q = examples::fig4_query();
    let db = fig4_dbs(1, 400).pop().unwrap();
    let prepared = Engine::new().prepare(&q);

    let plan = prepared.explain(&db).unwrap();
    assert!(plan.analyze.is_none());
    let text = plan.to_string();
    // The auto decision and its reason, verbatim.
    assert!(text.contains(&plan.decision.algorithm.to_string()));
    assert!(text.contains(&plan.decision.reason.to_string()));
    // Both worst-case bounds plus the measured estimate.
    assert!(text.contains("bounds(log2): chain="));
    assert!(text.contains(" llp="));
    assert!(text.contains("estimate(log2): avg="));

    let analyzed = prepared.explain_analyze(&db).unwrap();
    let a = analyzed.analyze.as_ref().expect("analysis attached");
    let report = analyzed.to_string();
    assert!(report.contains("ANALYZE"));
    assert!(report.contains(&a.algorithm.to_string()));
    assert!(a.rows > 0);
    assert!(a.span_tree.contains("solve"), "trace rendered inline");
    // ANALYZE ran on warm plans: the window shows zero new solves.
    assert_eq!(a.prep_window.solves(), 0);

    // Consistency with a plain execution under default options.
    let r = prepared.execute(&db, &ExecOptions::new()).unwrap();
    assert_eq!(r.algorithm_used, a.algorithm);
    assert_eq!(r.output.len(), a.rows);
}
