//! Cross-algorithm equivalence: on random FD-respecting instances, every
//! algorithm (Chain, SMA, CSMA, Generic-Join, binary join) must produce exactly the reference evaluator's answer.

use fdjoin::core::{
    binary_join, chain_join, csma_join, generic_join, sma_join, Algorithm, Engine, ExecOptions,
    JoinError,
};
use fdjoin::instances::{random_instance, reference_join};
use fdjoin::query::{examples, Query};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn check_all(q: &Query, db: &fdjoin::storage::Database) {
    let expect = reference_join(q, db);

    let gj = generic_join(q, db).unwrap();
    assert_eq!(
        gj.output,
        expect,
        "generic join mismatch on {}",
        q.display_body()
    );

    let bj = binary_join(q, db).unwrap();
    assert_eq!(
        bj.output,
        expect,
        "binary join mismatch on {}",
        q.display_body()
    );

    match chain_join(q, db) {
        Ok(ca) => {
            assert_eq!(
                ca.output,
                expect,
                "chain algorithm mismatch on {}",
                q.display_body()
            )
        }
        Err(JoinError::NoGoodChain) => {}
        Err(e) => panic!("unexpected chain error on {}: {e}", q.display_body()),
    }

    match sma_join(q, db) {
        Ok(sma) => assert_eq!(sma.output, expect, "SMA mismatch on {}", q.display_body()),
        Err(JoinError::NoGoodProof) => {} // Example 5.31 queries; CSMA covers them.
        Err(e) => panic!("unexpected SMA error on {}: {e}", q.display_body()),
    }

    let csma = csma_join(q, db).expect("CSMA sequence");
    assert_eq!(csma.output, expect, "CSMA mismatch on {}", q.display_body());

    // The auto-planner must agree too, whatever it picked.
    let auto = Engine::new().execute(q, db, &ExecOptions::new()).unwrap();
    assert_eq!(
        auto.output,
        expect,
        "auto ({}) mismatch on {}",
        auto.algorithm_used,
        q.display_body()
    );
    assert_ne!(
        auto.algorithm_used,
        Algorithm::Auto,
        "auto must record its decision"
    );
}

fn queries() -> Vec<Query> {
    vec![
        examples::triangle(),
        examples::fig1_udf(),
        examples::four_cycle_key(),
        examples::composite_key(),
        examples::fig5_udf_product(),
        examples::m3_query(),
        examples::simple_fd_path(),
        examples::fig4_query(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn all_algorithms_agree_on_random_instances(
        seed in any::<u64>(),
        rows in 5usize..40,
        keep in 40u32..100,
    ) {
        for q in queries() {
            let mut rng = StdRng::seed_from_u64(seed);
            let db = random_instance(&q, &mut rng, rows, keep);
            check_all(&q, &db);
        }
    }

    #[test]
    fn fig9_csma_agrees_on_random_instances(
        seed in any::<u64>(),
        rows in 3usize..16,
    ) {
        // Fig 9 is the query with no good SM proof: CSMA is the only paper
        // algorithm that meets its bound; check it against the reference.
        let q = examples::fig9_query();
        let mut rng = StdRng::seed_from_u64(seed);
        let db = random_instance(&q, &mut rng, rows, 85);
        let expect = reference_join(&q, &db);
        let csma = csma_join(&q, &db).expect("sequence exists");
        prop_assert_eq!(csma.output, expect);
    }
}

#[test]
fn all_algorithms_agree_on_worst_case_instances() {
    use fdjoin::bigint::rat;
    // Tight instances stress different code paths than random ones.
    let cases: Vec<(Query, fdjoin::storage::Database)> = vec![
        (
            examples::triangle(),
            fdjoin::instances::normal_worst_case(
                &examples::triangle(),
                &vec![rat(4, 1); 3],
                &rat(6, 1),
            )
            .unwrap(),
        ),
        (
            examples::fig4_query(),
            fdjoin::instances::normal_worst_case(
                &examples::fig4_query(),
                &vec![rat(3, 1); 4],
                &rat(4, 1),
            )
            .unwrap(),
        ),
        (examples::fig1_udf(), fdjoin::instances::fig1_tight(3)),
        (
            examples::fig1_udf(),
            fdjoin::instances::fig1_adversarial(16),
        ),
        (examples::m3_query(), fdjoin::instances::m3_parity(5)),
    ];
    for (q, db) in &cases {
        check_all(q, db);
    }
}

#[test]
fn fig9_worst_case_all_consistent() {
    use fdjoin::bigint::rat;
    let q = examples::fig9_query();
    let db = fdjoin::instances::normal_worst_case(&q, &vec![rat(2, 1); 3], &rat(3, 1)).unwrap();
    let expect = reference_join(&q, &db);
    assert_eq!(expect.len(), 8); // 2^{3/2 · 2}
    let csma = csma_join(&q, &db).unwrap();
    assert_eq!(csma.output, expect);
    // SMA must *refuse* (no good proof sequence) — Example 5.31.
    assert_eq!(sma_join(&q, &db).unwrap_err(), JoinError::NoGoodProof);
}

/// A nullary atom `E()` holds `()` or nothing, and the triangle's answer
/// survives only in the first case: Sec. 5.1's `Q₀ = ⋈_j Π_{R_j ∧ 0̂}(R_j)`
/// is `{()}` only when every input is non-empty. Every algorithm at
/// parallelism 1 and 2, a drained stream and a view that toggles `E`
/// through its batches agree with the reference evaluator.
#[test]
fn a_nullary_atom_gates_the_answer() {
    use fdjoin::delta::{DeltaBatch, DeltaOptions, MaterializedView};
    use fdjoin::storage::{Database, Relation};
    use fdjoin::stream::ResultStream;
    use std::sync::Arc;

    let mut b = Query::builder();
    let (x, y, z) = (b.var("x"), b.var("y"), b.var("z"));
    b.atom("R", &[x, y])
        .atom("S", &[y, z])
        .atom("T", &[z, x])
        .atom("E", &[]);
    let q = b.build();
    let mut db = Database::new();
    db.insert(
        "R",
        Relation::from_rows(vec![x, y], [[1, 2], [2, 2], [4, 4]]),
    );
    db.insert("S", Relation::from_rows(vec![y, z], [[2, 3], [4, 5]]));
    db.insert(
        "T",
        Relation::from_rows(vec![z, x], [[3, 1], [3, 2], [5, 7]]),
    );
    let prepared = Arc::new(Engine::new().prepare(&q));
    let algorithms = [
        Algorithm::Auto,
        Algorithm::Chain,
        Algorithm::ChainNoArgmin,
        Algorithm::Sma,
        Algorithm::Csma,
        Algorithm::GenericJoin,
        Algorithm::BinaryJoin,
    ];
    for (e, rows) in [(Relation::new(vec![]), 0), (Relation::nullary_unit(), 2)] {
        db.insert("E", e);
        let want = reference_join(&q, &db);
        assert_eq!(want.len(), rows);
        for alg in algorithms {
            for tasks in [1, 2] {
                let opts = ExecOptions::new().algorithm(alg).parallelism(tasks);
                let got = prepared.execute(&db, &opts).unwrap().output;
                assert_eq!(got, want, "{alg} at parallelism {tasks}, {rows} rows");
            }
        }
        let mut stream = ResultStream::open(&prepared, &db).unwrap();
        assert_eq!(stream.collect_rows(), want, "stream, {rows} rows");
    }

    db.insert("E", Relation::new(vec![]));
    let unit = Vec::<u64>::new;
    for alg in algorithms {
        let opts = DeltaOptions::new().exec(ExecOptions::new().algorithm(alg));
        let mut view =
            MaterializedView::materialize(Arc::clone(&prepared), db.clone(), opts).unwrap();
        for (batch, rows) in [
            (DeltaBatch::new().insert("E", unit()), 2),
            (DeltaBatch::new().delete("E", unit()).delete("R", [2, 2]), 0),
            (DeltaBatch::new().insert("E", unit()), 1),
        ] {
            view.apply_delta(&batch).unwrap();
            let want = reference_join(&q, view.database());
            assert_eq!(view.output(), &want, "{alg} view");
            assert_eq!(want.len(), rows);
        }
    }
}

/// A query with no variables, `Q() :- E(), F()`: its lattice is the one
/// element `0̂ = 1̂`, so its chain has no step and its LLP and CLLP are
/// `h ≡ 0`. The answer is `{()}` when both relations hold `()`.
#[test]
fn a_query_with_no_variables_answers_the_empty_tuple() {
    use fdjoin::delta::{DeltaBatch, DeltaOptions, MaterializedView};
    use fdjoin::storage::{Database, Relation};
    use fdjoin::stream::ResultStream;
    use std::sync::Arc;

    let mut b = Query::builder();
    b.atom("E", &[]).atom("F", &[]);
    let q = b.build();
    let algorithms = [
        Algorithm::Auto,
        Algorithm::Chain,
        Algorithm::ChainNoArgmin,
        Algorithm::Sma,
        Algorithm::Csma,
        Algorithm::GenericJoin,
        Algorithm::BinaryJoin,
    ];
    // SMA has no proof to run on `0̂ = 1̂` and may only decline.
    let declined = |alg: Algorithm, e: &JoinError| {
        alg == Algorithm::Sma && matches!(e, JoinError::NoGoodProof)
    };
    let holds = |unit: bool| {
        if unit {
            Relation::nullary_unit()
        } else {
            Relation::new(vec![])
        }
    };
    for (e, f) in [(true, true), (true, false), (false, true), (false, false)] {
        let mut db = Database::new();
        db.insert("E", holds(e));
        db.insert("F", holds(f));
        let want = reference_join(&q, &db);
        assert_eq!(want.len(), usize::from(e && f));
        let prepared = Arc::new(Engine::new().prepare(&q));
        for alg in algorithms {
            for tasks in [1, 2] {
                let opts = ExecOptions::new().algorithm(alg).parallelism(tasks);
                match prepared.execute(&db, &opts) {
                    Ok(r) => assert_eq!(r.output, want, "{alg} at parallelism {tasks}"),
                    Err(err) => assert!(declined(alg, &err), "{alg}: {err}"),
                }
            }
        }
        let mut stream = ResultStream::open(&prepared, &db).unwrap();
        assert_eq!(stream.collect_rows(), want, "stream, E {e}, F {f}");

        // A plan that panicked while being solved would poison the plan
        // map for every later request: Auto after Chain on one prepare.
        let fresh = Engine::new().prepare(&q);
        for alg in [Algorithm::Chain, Algorithm::Auto] {
            let opts = ExecOptions::new().algorithm(alg);
            assert_eq!(fresh.execute(&db, &opts).unwrap().output, want, "{alg}");
        }
    }

    let mut db = Database::new();
    db.insert("E", Relation::new(vec![]));
    db.insert("F", Relation::nullary_unit());
    let prepared = Arc::new(Engine::new().prepare(&q));
    let unit = Vec::<u64>::new;
    for alg in algorithms {
        let opts = DeltaOptions::new().exec(ExecOptions::new().algorithm(alg));
        let mut view = match MaterializedView::materialize(Arc::clone(&prepared), db.clone(), opts)
        {
            Ok(view) => view,
            Err(err) => {
                assert!(declined(alg, &err), "{alg} view: {err}");
                continue;
            }
        };
        for (batch, rows) in [
            (DeltaBatch::new().insert("E", unit()), 1),
            (DeltaBatch::new().delete("E", unit()), 0),
            (DeltaBatch::new().insert("E", unit()), 1),
        ] {
            view.apply_delta(&batch).unwrap();
            let want = reference_join(&q, view.database());
            assert_eq!(view.output(), &want, "{alg} view");
            assert_eq!(want.len(), rows);
        }
    }
}
