//! The unified `Engine` API: auto-planning, option routing, prepared-query
//! plan reuse, and the shared `JoinResult`/`JoinError` contract.

use fdjoin::core::{
    binary_join, chain_join, chain_join_no_argmin, csma_join, generic_join, sma_join, Algorithm,
    AutoReason, Engine, ExecOptions, JoinError, JoinResult, UserDegreeBound,
};
use fdjoin::delta::{DeltaOptions, MaterializedView};
use fdjoin::instances::reference_join;
use fdjoin::query::{examples, Query};
use fdjoin::storage::{Database, Relation};
use fdjoin::stream::ResultStream;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn triangle_db() -> Database {
    let mut db = Database::new();
    db.insert(
        "R",
        Relation::from_rows(vec![0, 1], [[1, 2], [1, 3], [2, 3], [7, 8]]),
    );
    db.insert(
        "S",
        Relation::from_rows(vec![1, 2], [[2, 3], [3, 1], [8, 9]]),
    );
    db.insert(
        "T",
        Relation::from_rows(vec![2, 0], [[3, 1], [1, 1], [9, 7]]),
    );
    db
}

fn fig1_db() -> Database {
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
    db.udfs
        .register(fdjoin::lattice::VarSet::from_vars([0, 2]), 3, |v| v[0]);
    db.udfs
        .register(fdjoin::lattice::VarSet::from_vars([1, 3]), 0, |v| v[1]);
    db
}

// ---------------------------------------------------------------------------
// Auto selection is bound-driven.
// ---------------------------------------------------------------------------

#[test]
fn auto_picks_chain_on_triangle() {
    // No FDs ⇒ Boolean (distributive) lattice ⇒ the chain bound is tight.
    let q = examples::triangle();
    let db = triangle_db();
    let r = Engine::new().execute(&q, &db, &ExecOptions::new()).unwrap();
    assert_eq!(r.algorithm_used, Algorithm::Chain);
    assert!(r.chain().is_some(), "chain plan must be recorded");
    assert_eq!(r.output, reference_join(&q, &db));
}

#[test]
fn auto_picks_chain_on_fd_examples() {
    // simple_fd_path: simple FDs ⇒ distributive (Prop. 3.2).
    // fig1_udf: non-distributive, but the best chain matches the LLP value
    // (the Fig. 6 tightness situation) — the planner detects it.
    for (q, db) in [
        (examples::simple_fd_path(), {
            let mut db = Database::new();
            db.insert(
                "R",
                Relation::from_rows(vec![0, 1], [[1, 1], [2, 1], [3, 2]]),
            );
            db.insert("S", Relation::from_rows(vec![1, 2], [[1, 5], [2, 6]]));
            db.insert(
                "T",
                Relation::from_rows(vec![2, 3], [[5, 9], [6, 8], [7, 7]]),
            );
            db
        }),
        (examples::fig1_udf(), fig1_db()),
    ] {
        let r = Engine::new().execute(&q, &db, &ExecOptions::new()).unwrap();
        assert_eq!(
            r.algorithm_used,
            Algorithm::Chain,
            "auto must pick chain on {}",
            q.display_body()
        );
        assert_eq!(r.output, reference_join(&q, &db));
    }
}

#[test]
fn auto_falls_back_to_sma_then_csma() {
    // Fig 4: chain bound 3/2·n strictly above the LLP 4/3·n, but a good
    // SM-proof exists ⇒ SMA. The data-dependent tie-break is disabled so
    // the selection is a pure function of the worst-case bounds (with it
    // on, a low-skew instance may legitimately run the chain instead —
    // see tests/cost_model.rs).
    let q4 = examples::fig4_query();
    let mut rng = StdRng::seed_from_u64(11);
    let db4 = fdjoin::instances::random_instance(&q4, &mut rng, 10, 85);
    let r4 = Engine::new()
        .execute(&q4, &db4, &ExecOptions::new().cost_tiebreak(false))
        .unwrap();
    assert_eq!(r4.algorithm_used, Algorithm::Sma);
    assert!(r4.sm_proof().is_some());
    assert_eq!(r4.output, reference_join(&q4, &db4));

    // Fig 9: no good SM proof exists (Example 5.31) ⇒ CSMA.
    let q9 = examples::fig9_query();
    let mut rng = StdRng::seed_from_u64(11);
    let db9 = fdjoin::instances::random_instance(&q9, &mut rng, 8, 85);
    let r9 = Engine::new()
        .execute(&q9, &db9, &ExecOptions::new().cost_tiebreak(false))
        .unwrap();
    assert_eq!(r9.algorithm_used, Algorithm::Csma);
    assert!(r9.csm_sequence().is_some());
    assert_eq!(r9.output, reference_join(&q9, &db9));
}

// ---------------------------------------------------------------------------
// Auto records a structured decision (what, why, and the compared bounds).
// ---------------------------------------------------------------------------

#[test]
fn auto_decision_records_reason_and_bounds() {
    let engine = Engine::new();

    // Distributive lattice: chain picked before any LLP solve.
    let q = examples::triangle();
    let db = triangle_db();
    let r = engine.execute(&q, &db, &ExecOptions::new()).unwrap();
    let d = r.auto.expect("Auto records a decision");
    assert_eq!(d.algorithm, Algorithm::Chain);
    assert_eq!(d.reason, AutoReason::DistributiveTightChain);
    assert_eq!(d.chain_log_bound, r.predicted_log_bound);
    assert_eq!(d.llp_log_bound, None);

    // Fig 1: non-distributive, chain bound == LLP optimum.
    let q1 = examples::fig1_udf();
    let db1 = fig1_db();
    let r1 = engine.execute(&q1, &db1, &ExecOptions::new()).unwrap();
    let d1 = r1.auto.unwrap();
    assert_eq!(d1.reason, AutoReason::ChainMatchesLlpOptimum);
    assert_eq!(d1.chain_log_bound, d1.llp_log_bound.clone());

    // Fig 4: chain bound strictly above the LLP optimum, good proof ⇒ SMA
    // (tie-break disabled: the decision documents the worst-case rules;
    // with it enabled, the measured estimates join the record — see
    // tests/cost_model.rs).
    let q4 = examples::fig4_query();
    let mut rng = StdRng::seed_from_u64(11);
    let db4 = fdjoin::instances::random_instance(&q4, &mut rng, 10, 85);
    let r4 = engine
        .execute(&q4, &db4, &ExecOptions::new().cost_tiebreak(false))
        .unwrap();
    let d4 = r4.auto.unwrap();
    assert_eq!(d4.algorithm, Algorithm::Sma);
    assert_eq!(d4.reason, AutoReason::GoodSmProof);
    assert_eq!(
        (&d4.estimate_log_avg, &d4.estimate_log_max),
        (&None, &None),
        "tie-break disabled: no estimates were consulted or recorded"
    );
    let (cb, llp) = (d4.chain_log_bound.unwrap(), d4.llp_log_bound.unwrap());
    assert!(cb > llp, "SMA chosen because the chain bound is not tight");
    assert_eq!(Some(llp), r4.predicted_log_bound);

    // Fig 9: no good proof ⇒ CSMA fallback, both bounds recorded.
    let q9 = examples::fig9_query();
    let mut rng = StdRng::seed_from_u64(11);
    let db9 = fdjoin::instances::random_instance(&q9, &mut rng, 8, 85);
    let r9 = engine
        .execute(&q9, &db9, &ExecOptions::new().cost_tiebreak(false))
        .unwrap();
    let d9 = r9.auto.unwrap();
    assert_eq!(d9.algorithm, Algorithm::Csma);
    assert_eq!(d9.reason, AutoReason::CsmaFallback);
    assert!(d9.llp_log_bound.is_some());
}

/// Coverage: every `AutoReason` variant fires at least once, and the
/// bounds the planner records are exactly the ones the `bounds` crate
/// computes from the same lattice presentation and log sizes — the
/// decision record is auditable, not just a label.
#[test]
fn auto_decision_covers_every_rule_with_bounds_crate_values() {
    use fdjoin::bounds::chain::best_chain_bound;
    use fdjoin::bounds::llp::solve_llp;
    use fdjoin::core::atom_log_sizes;
    use std::collections::BTreeSet;

    let engine = Engine::new();
    let mut seen: BTreeSet<String> = BTreeSet::new();

    // The four bound-driven rules, each on the query/database that the
    // paper associates with it.
    let mut rng = StdRng::seed_from_u64(11);
    let db4 = fdjoin::instances::random_instance(&examples::fig4_query(), &mut rng, 10, 85);
    let mut rng = StdRng::seed_from_u64(11);
    let db9 = fdjoin::instances::random_instance(&examples::fig9_query(), &mut rng, 8, 85);
    // The worst-case rules run with the data-dependent tie-break disabled
    // (their outcome must be a function of the bounds alone); the
    // EstimatedTightChain case re-runs Fig. 4 with it enabled — the same
    // database that SMA serves under worst-case rules is low-skew enough
    // that the measured estimate licenses the chain algorithm.
    let cases: [(
        Query,
        fdjoin::storage::Database,
        ExecOptions,
        AutoReason,
        Algorithm,
    ); 5] = [
        (
            examples::triangle(),
            triangle_db(),
            ExecOptions::new().cost_tiebreak(false),
            AutoReason::DistributiveTightChain,
            Algorithm::Chain,
        ),
        (
            examples::fig1_udf(),
            fig1_db(),
            ExecOptions::new().cost_tiebreak(false),
            AutoReason::ChainMatchesLlpOptimum,
            Algorithm::Chain,
        ),
        (
            examples::fig4_query(),
            db4.clone(),
            ExecOptions::new().cost_tiebreak(false),
            AutoReason::GoodSmProof,
            Algorithm::Sma,
        ),
        (
            examples::fig4_query(),
            db4,
            ExecOptions::new(),
            AutoReason::EstimatedTightChain,
            Algorithm::Chain,
        ),
        (
            examples::fig9_query(),
            db9,
            ExecOptions::new().cost_tiebreak(false),
            AutoReason::CsmaFallback,
            Algorithm::Csma,
        ),
    ];
    for (q, db, opts, reason, algorithm) in cases {
        let r = engine.execute(&q, &db, &opts).unwrap();
        let d = r.auto.expect("Auto records a decision");
        assert_eq!(d.reason, reason, "on {}", q.display_body());
        assert_eq!(d.algorithm, algorithm, "on {}", q.display_body());
        assert_eq!(d.algorithm, r.algorithm_used);
        seen.insert(d.reason.to_string());

        // Recompute the compared bounds directly from the bounds crate.
        let pres = q.lattice_presentation();
        let logs = atom_log_sizes(&q, &db).unwrap();
        let expect_chain =
            best_chain_bound(&pres.lattice, &pres.inputs, &logs).map(|cb| cb.log_bound);
        let expect_llp = solve_llp(&pres.lattice, &pres.inputs, &logs).value;
        if let Some(recorded) = &d.chain_log_bound {
            assert_eq!(
                Some(recorded),
                expect_chain.as_ref(),
                "{}: recorded chain bound must be the bounds crate's",
                q.display_body()
            );
        } else {
            assert!(
                expect_chain.is_none(),
                "{}: chain bound omitted only when no good chain exists",
                q.display_body()
            );
        }
        if let Some(recorded) = &d.llp_log_bound {
            assert_eq!(
                recorded,
                &expect_llp,
                "{}: recorded LLP optimum must be the bounds crate's",
                q.display_body()
            );
        } else {
            // Only the distributive shortcut skips the LLP solve.
            assert_eq!(d.reason, AutoReason::DistributiveTightChain);
        }
        if d.reason == AutoReason::EstimatedTightChain {
            // The tie-break fired: both measured estimates are on record,
            // and the pessimistic one sits within the LLP optimum — the
            // very condition that licensed the chain.
            let est_max = d.estimate_log_max.as_ref().expect("estimate recorded");
            assert!(d.estimate_log_avg.is_some());
            assert!(est_max <= d.llp_log_bound.as_ref().unwrap());
        }
    }

    // The option-pinned rule.
    let q = examples::triangle();
    let db = triangle_db();
    let with_bound = ExecOptions::new().degree_bound(UserDegreeBound {
        atom: 0,
        on: vec![0],
        max_degree: 2,
    });
    let d = engine.execute(&q, &db, &with_bound).unwrap().auto.unwrap();
    assert_eq!(d.reason, AutoReason::DegreeBoundsPinCsma);
    assert_eq!((&d.chain_log_bound, &d.llp_log_bound), (&None, &None));
    seen.insert(d.reason.to_string());

    let all: BTreeSet<String> = [
        AutoReason::DegreeBoundsPinCsma,
        AutoReason::DistributiveTightChain,
        AutoReason::ChainMatchesLlpOptimum,
        AutoReason::EstimatedTightChain,
        AutoReason::GoodSmProof,
        AutoReason::CsmaFallback,
    ]
    .iter()
    .map(|r| r.to_string())
    .collect();
    assert_eq!(seen, all, "every AutoReason variant exercised");
}

/// The full decision record, one row per `AutoReason`: the chosen
/// algorithm, and exactly which of the compared bounds (chain, LLP) and
/// measured estimates (avg, max) each rule leaves on record.
#[test]
fn auto_decision_record_is_exact_per_rule() {
    let mut rng = StdRng::seed_from_u64(11);
    let db4 = fdjoin::instances::random_instance(&examples::fig4_query(), &mut rng, 10, 85);
    let mut rng = StdRng::seed_from_u64(11);
    let db9 = fdjoin::instances::random_instance(&examples::fig9_query(), &mut rng, 8, 85);
    let triangle = examples::triangle();
    let degree_bound = UserDegreeBound {
        atom: 0,
        on: vec![0],
        max_degree: 2,
    };
    let worst_case = || ExecOptions::new().cost_tiebreak(false);
    // (query, db, options, algorithm, reason, [chain, llp, est_avg, est_max] recorded)
    let rows: [(
        Query,
        Database,
        ExecOptions,
        Algorithm,
        AutoReason,
        [bool; 4],
    ); 6] = [
        (
            triangle.clone(),
            triangle_db(),
            ExecOptions::new().degree_bound(degree_bound),
            Algorithm::Csma,
            AutoReason::DegreeBoundsPinCsma,
            [false, false, false, false],
        ),
        (
            triangle,
            triangle_db(),
            ExecOptions::new(),
            Algorithm::Chain,
            AutoReason::DistributiveTightChain,
            [true, false, false, false],
        ),
        // With the tie-break on: rule 2 fires before any estimate is taken.
        (
            examples::fig1_udf(),
            fig1_db(),
            ExecOptions::new(),
            Algorithm::Chain,
            AutoReason::ChainMatchesLlpOptimum,
            [true, true, false, false],
        ),
        (
            examples::fig4_query(),
            db4.clone(),
            ExecOptions::new(),
            Algorithm::Chain,
            AutoReason::EstimatedTightChain,
            [true, true, true, true],
        ),
        (
            examples::fig4_query(),
            db4,
            worst_case(),
            Algorithm::Sma,
            AutoReason::GoodSmProof,
            [true, true, false, false],
        ),
        (
            examples::fig9_query(),
            db9,
            worst_case(),
            Algorithm::Csma,
            AutoReason::CsmaFallback,
            [true, true, false, false],
        ),
    ];
    for (q, db, opts, algorithm, reason, recorded) in rows {
        let prepared = Engine::new().prepare(&q);
        let r = prepared.execute(&db, &opts).unwrap();
        let d = r.auto.expect("Auto records a decision");
        assert_eq!((d.algorithm, d.reason), (algorithm, reason));
        assert_eq!(r.algorithm_used, algorithm);
        assert_eq!(
            [
                d.chain_log_bound.is_some(),
                d.llp_log_bound.is_some(),
                d.estimate_log_avg.is_some(),
                d.estimate_log_max.is_some(),
            ],
            recorded,
            "{reason}"
        );
    }
}

#[test]
fn auto_decision_reports_pinning_options() {
    let q = examples::triangle();
    let db = triangle_db();
    let engine = Engine::new();

    let with_bound = ExecOptions::new().degree_bound(UserDegreeBound {
        atom: 0,
        on: vec![0],
        max_degree: 2,
    });
    let d = engine.execute(&q, &db, &with_bound).unwrap().auto.unwrap();
    assert_eq!(d.algorithm, Algorithm::Csma);
    assert_eq!(d.reason, AutoReason::DegreeBoundsPinCsma);
}

#[test]
fn explicit_algorithms_record_no_auto_decision() {
    let q = examples::triangle();
    let db = triangle_db();
    for alg in [Algorithm::Chain, Algorithm::GenericJoin] {
        let r = Engine::new()
            .execute(&q, &db, &ExecOptions::new().algorithm(alg))
            .unwrap();
        assert!(r.auto.is_none(), "{alg}: explicit choice is not Auto's");
    }
}

// ---------------------------------------------------------------------------
// Every explicit variant matches its free-function shim.
// ---------------------------------------------------------------------------

#[test]
fn explicit_variants_match_free_functions() {
    let q = examples::fig1_udf();
    let db = fig1_db();
    let engine = Engine::new();
    let cases: Vec<(Algorithm, JoinResult)> = vec![
        (Algorithm::Chain, chain_join(&q, &db).unwrap()),
        (
            Algorithm::ChainNoArgmin,
            chain_join_no_argmin(&q, &db).unwrap(),
        ),
        (Algorithm::Sma, sma_join(&q, &db).unwrap()),
        (Algorithm::Csma, csma_join(&q, &db).unwrap()),
        (Algorithm::GenericJoin, generic_join(&q, &db).unwrap()),
        (Algorithm::BinaryJoin, binary_join(&q, &db).unwrap()),
    ];
    for (alg, free) in cases {
        let via_engine = engine
            .execute(&q, &db, &ExecOptions::new().algorithm(alg))
            .unwrap();
        assert_eq!(via_engine.algorithm_used, alg);
        assert_eq!(free.algorithm_used, alg);
        assert_eq!(via_engine.output, free.output, "{alg} output mismatch");
        // The engine's index cache warms across the loop; compare the
        // cache-independent counters plus total acquisitions.
        assert_eq!(
            via_engine.stats.deterministic(),
            free.stats.deterministic(),
            "{alg} stats mismatch"
        );
        assert_eq!(via_engine.stats.index_gets(), free.stats.index_gets());
        assert_eq!(
            via_engine.predicted_log_bound, free.predicted_log_bound,
            "{alg} bound mismatch"
        );
    }
}

// ---------------------------------------------------------------------------
// PreparedQuery reuses plans and reproduces direct-call results exactly.
// ---------------------------------------------------------------------------

#[test]
fn prepared_query_skips_recomputation() {
    let q = examples::fig1_udf();
    let db = fig1_db();
    let prepared = Engine::new().prepare(&q);
    assert_eq!(prepared.prep_stats().lattice_presentations, 1);
    assert_eq!(
        prepared.prep_stats().total(),
        1,
        "prepare does no size-dependent work"
    );

    for alg in [
        Algorithm::Chain,
        Algorithm::Sma,
        Algorithm::Csma,
        Algorithm::Auto,
    ] {
        let opts = ExecOptions::new().algorithm(alg);
        let first = prepared.execute(&db, &opts).unwrap();
        let after_first = prepared.prep_stats();
        let second = prepared.execute(&db, &opts).unwrap();
        let after_second = prepared.prep_stats();

        // Re-execution reuses every cached plan and every cached trie
        // index: no solves, no index builds — only index hits may grow.
        let window = after_second.since(&after_first);
        assert_eq!(
            window.solves(),
            0,
            "{alg}: second execution must not re-plan (lattice/LLP/chain/proof)"
        );
        assert_eq!(
            window.index_builds, 0,
            "{alg}: second execution must not rebuild any trie index"
        );
        assert!(
            window.index_hits > 0,
            "{alg}: second execution must serve probes from cached indexes"
        );
        // And the results are deterministic (the index build/hit split
        // reflects cache warmth, so compare the cache-independent part
        // plus the total number of index acquisitions).
        assert_eq!(first.output, second.output);
        assert_eq!(
            first.stats.deterministic(),
            second.stats.deterministic(),
            "{alg}: identical work counters across reruns"
        );
        assert_eq!(first.stats.index_gets(), second.stats.index_gets());

        // The prepared path is execution-equivalent to two direct calls.
        let direct = Engine::new().execute(&q, &db, &opts).unwrap();
        assert_eq!(first.output, direct.output);
        assert_eq!(
            first.stats.deterministic(),
            direct.stats.deterministic(),
            "{alg}: prepared Stats == direct Stats"
        );
    }

    // Only one lattice presentation was ever computed.
    assert_eq!(prepared.prep_stats().lattice_presentations, 1);
}

#[test]
fn prepared_query_replans_for_new_size_profile() {
    let q = examples::triangle();
    let prepared = Engine::new().prepare(&q);
    let db1 = triangle_db();
    prepared.execute(&db1, &ExecOptions::new()).unwrap();
    let after_db1 = prepared.prep_stats();

    // A database with a different size profile needs (and gets) a new plan…
    let mut db2 = triangle_db();
    db2.insert("R", Relation::from_rows(vec![0, 1], [[1, 2]]));
    prepared.execute(&db2, &ExecOptions::new()).unwrap();
    let after_db2 = prepared.prep_stats();
    assert!(after_db2.chain_searches > after_db1.chain_searches);

    // …but re-running either database stays cached (no solves, no index
    // rebuilds — the databases' relation versions are unchanged).
    prepared.execute(&db1, &ExecOptions::new()).unwrap();
    prepared.execute(&db2, &ExecOptions::new()).unwrap();
    let window = prepared.prep_stats().since(&after_db2);
    assert_eq!(window.solves(), 0);
    assert_eq!(window.index_builds, 0);
}

// ---------------------------------------------------------------------------
// The shared error type.
// ---------------------------------------------------------------------------

#[test]
fn missing_relation_is_a_join_error_everywhere() {
    let q = examples::triangle();
    let mut db = Database::new();
    db.insert("R", Relation::from_rows(vec![0, 1], [[1, 2]]));
    // S and T absent.
    for alg in [
        Algorithm::Auto,
        Algorithm::Chain,
        Algorithm::Sma,
        Algorithm::Csma,
        Algorithm::GenericJoin,
        Algorithm::BinaryJoin,
    ] {
        let err = Engine::new()
            .execute(&q, &db, &ExecOptions::new().algorithm(alg))
            .unwrap_err();
        assert!(
            matches!(err, JoinError::MissingRelation(ref name) if name == "S"),
            "{alg}: expected MissingRelation(S), got {err:?}"
        );
    }
}

#[test]
fn schema_mismatch_is_a_join_error_everywhere() {
    // The triangle with R stored over (x, z) instead of (x, y).
    let triangle = examples::triangle();
    let mut skewed_r = triangle_db();
    skewed_r.insert("R", Relation::from_rows(vec![0, 2], [[1, 3]]));
    // A self-join E(x,y), E(y,z): `Query::build` accepts it, but no stored
    // relation is over both atoms' variables.
    let mut b = Query::builder();
    let (x, y, z) = (b.var("x"), b.var("y"), b.var("z"));
    b.atom("E", &[x, y]).atom("E", &[y, z]);
    let self_join = b.build();
    let mut edges = Database::new();
    edges.insert("E", Relation::from_rows(vec![0, 1], [[1, 2], [2, 3]]));

    let mismatch =
        |relation: &str, atom_vars: Vec<u32>, relation_vars: Vec<u32>| JoinError::SchemaMismatch {
            relation: relation.to_string(),
            atom_vars,
            relation_vars,
        };
    for (q, db, expect) in [
        (&triangle, &skewed_r, mismatch("R", vec![0, 1], vec![0, 2])),
        (&self_join, &edges, mismatch("E", vec![1, 2], vec![0, 1])),
    ] {
        let prepared = Arc::new(Engine::new().prepare(q));
        for alg in [
            Algorithm::Auto,
            Algorithm::Chain,
            Algorithm::Sma,
            Algorithm::Csma,
            Algorithm::GenericJoin,
            Algorithm::BinaryJoin,
        ] {
            let got = prepared.execute(db, &ExecOptions::new().algorithm(alg));
            assert_eq!(got.err(), Some(expect.clone()), "execute with {alg}");
        }
        assert_eq!(
            ResultStream::open(&prepared, db).err(),
            Some(expect.clone())
        );
        let view =
            MaterializedView::materialize(Arc::clone(&prepared), db.clone(), DeltaOptions::new());
        assert_eq!(view.err(), Some(expect.clone()));
        assert!(expect.to_string().contains("stored over variables"));
    }
}

#[test]
fn sma_refusal_is_typed() {
    // Fig 9 admits no good SM-proof sequence (Example 5.31).
    let q = examples::fig9_query();
    let mut rng = StdRng::seed_from_u64(3);
    let db = fdjoin::instances::random_instance(&q, &mut rng, 6, 90);
    assert_eq!(sma_join(&q, &db).unwrap_err(), JoinError::NoGoodProof);
}

#[test]
fn invalid_options_are_rejected() {
    let q = examples::triangle();
    let db = triangle_db();
    let engine = Engine::new();

    let bad_atom = ExecOptions::new()
        .algorithm(Algorithm::BinaryJoin)
        .atom_order(vec![0, 1]);
    assert!(matches!(
        engine.execute(&q, &db, &bad_atom).unwrap_err(),
        JoinError::InvalidOptions(_)
    ));

    let bad_bound = ExecOptions::new()
        .algorithm(Algorithm::Csma)
        .degree_bound(UserDegreeBound {
            atom: 9,
            on: vec![0],
            max_degree: 1,
        });
    assert!(matches!(
        engine.execute(&q, &db, &bad_bound).unwrap_err(),
        JoinError::InvalidOptions(_)
    ));

    // Out-of-range conditioning variable in a degree bound.
    let bad_on = ExecOptions::new()
        .algorithm(Algorithm::Csma)
        .degree_bound(UserDegreeBound {
            atom: 0,
            on: vec![77],
            max_degree: 1,
        });
    assert!(matches!(
        engine.execute(&q, &db, &bad_on).unwrap_err(),
        JoinError::InvalidOptions(_)
    ));

    // An option the chosen algorithm never reads is rejected, not dropped:
    // a valid degree bound with any algorithm but CSMA or Auto, a valid
    // atom order with any algorithm but binary join (Auto included).
    let bound = UserDegreeBound {
        atom: 0,
        on: vec![0],
        max_degree: 2,
    };
    for alg in [
        Algorithm::Chain,
        Algorithm::ChainNoArgmin,
        Algorithm::Sma,
        Algorithm::GenericJoin,
        Algorithm::BinaryJoin,
    ] {
        let unread_bound = ExecOptions::new()
            .algorithm(alg)
            .degree_bound(bound.clone());
        assert!(
            matches!(
                engine.execute(&q, &db, &unread_bound).unwrap_err(),
                JoinError::InvalidOptions(_)
            ),
            "degree bound with {alg}"
        );
    }
    for alg in [
        Algorithm::Auto,
        Algorithm::Chain,
        Algorithm::ChainNoArgmin,
        Algorithm::Sma,
        Algorithm::Csma,
        Algorithm::GenericJoin,
    ] {
        let unread_order = ExecOptions::new().algorithm(alg).atom_order(vec![2, 0, 1]);
        assert!(
            matches!(
                engine.execute(&q, &db, &unread_order).unwrap_err(),
                JoinError::InvalidOptions(_)
            ),
            "atom order with {alg}"
        );
    }
}

#[test]
fn auto_honors_algorithm_specific_options() {
    let q = examples::triangle();
    let db = triangle_db();
    let engine = Engine::new();

    // Degree bounds are a CSMA-only constraint: Auto must not drop them.
    let with_bound = ExecOptions::new().degree_bound(UserDegreeBound {
        atom: 0,
        on: vec![0],
        max_degree: 2,
    });
    let r = engine.execute(&q, &db, &with_bound).unwrap();
    assert_eq!(r.algorithm_used, Algorithm::Csma);
}

// ---------------------------------------------------------------------------
// Option routing through the one options struct.
// ---------------------------------------------------------------------------

#[test]
fn degree_bounds_tighten_the_csma_budget() {
    let q = examples::triangle();
    let db = fdjoin::instances::bounded_degree_triangle(64, 2);
    let real_d = db.relation("R").unwrap().max_degree(1) as u64;
    let with_bound = ExecOptions::new()
        .algorithm(Algorithm::Csma)
        .degree_bound(UserDegreeBound {
            atom: 0,
            on: vec![0],
            max_degree: real_d,
        });
    let bounded = Engine::new().execute(&q, &db, &with_bound).unwrap();
    let plain = csma_join(&q, &db).unwrap();
    assert_eq!(bounded.output, plain.output);
    assert!(bounded.predicted_log_bound.unwrap() < plain.predicted_log_bound.unwrap());
}

// ---------------------------------------------------------------------------
// Equivalence sweep through the engine across all algorithms and queries.
// ---------------------------------------------------------------------------

#[test]
fn engine_matches_naive_across_algorithms_and_queries() {
    let queries: Vec<Query> = vec![
        examples::triangle(),
        examples::fig1_udf(),
        examples::four_cycle_key(),
        examples::composite_key(),
        examples::simple_fd_path(),
        examples::fig4_query(),
    ];
    let engine = Engine::new();
    for q in &queries {
        let mut rng = StdRng::seed_from_u64(42);
        let db = fdjoin::instances::random_instance(q, &mut rng, 14, 80);
        let expect = reference_join(q, &db);
        let prepared = engine.prepare(q);
        for alg in [
            Algorithm::Auto,
            Algorithm::Chain,
            Algorithm::ChainNoArgmin,
            Algorithm::Sma,
            Algorithm::Csma,
            Algorithm::GenericJoin,
            Algorithm::BinaryJoin,
        ] {
            match prepared.execute(&db, &ExecOptions::new().algorithm(alg)) {
                Ok(r) => assert_eq!(r.output, expect, "{alg} mismatch on {}", q.display_body()),
                // Chain/SMA may legitimately refuse on some lattices.
                Err(JoinError::NoGoodChain) | Err(JoinError::NoGoodProof) => {}
                Err(e) => panic!("{alg} failed on {}: {e}", q.display_body()),
            }
        }
    }
}
