//! Differential testing of intra-query parallelism: for random instances
//! of the example queries (including the paper's Fig. 4 and Fig. 9
//! families), every algorithm run at parallelism 1, 2, and 8 must yield
//! byte-identical output, identical [`Stats::deterministic`] totals, and —
//! under [`Algorithm::Auto`] — the same [`AutoDecision`] as the sequential
//! run. Outputs are sorted + deduplicated relations, so `Relation`
//! equality *is* the byte comparison — and every output must say so itself:
//! `is_sorted()`, with lazy statistics equal to the from-scratch ones, however
//! many fragments it was merged from.

use fdjoin::core::{Algorithm, Engine, ExecOptions, JoinError, JoinResult};
use fdjoin::instances::random_instance;
use fdjoin::lattice::VarSet;
use fdjoin::query::{examples, Query};
use fdjoin::storage::{Database, Relation, RelationStats};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const ALGORITHMS: [Algorithm; 5] = [
    Algorithm::Chain,
    Algorithm::Sma,
    Algorithm::Csma,
    Algorithm::GenericJoin,
    Algorithm::BinaryJoin,
];

const PARALLELISMS: [usize; 3] = [1, 2, 8];

fn queries() -> Vec<Query> {
    vec![
        examples::triangle(),
        examples::fig1_udf(),
        examples::four_cycle_key(),
        examples::composite_key(),
        examples::simple_fd_path(),
        examples::fig4_query(),
        examples::fig9_query(),
    ]
}

/// Run `q` with `opts`, treating a planner refusal (Chain/SMA on bad
/// lattices) as "skip" — refusal must not depend on parallelism, which the
/// caller checks by skipping only when the sequential run also refused.
fn run(q: &Query, db: &Database, opts: &ExecOptions) -> Option<JoinResult> {
    match Engine::new().execute(q, db, opts) {
        Ok(r) => Some(r),
        Err(JoinError::NoGoodChain | JoinError::NoGoodProof) => None,
        Err(e) => panic!("{}: {e}", q.display_body()),
    }
}

/// Check one (query, instance, algorithm): the sequential run is the
/// reference; every parallelism level must reproduce it exactly. Returns
/// whether the algorithm accepted the query.
fn check_algorithm(q: &Query, db: &Database, alg: Algorithm, seed: u64) -> bool {
    let opts = ExecOptions::new().algorithm(alg);
    let seq = run(q, db, &opts.clone().parallelism(1));
    for p in PARALLELISMS {
        let par = run(q, db, &opts.clone().parallelism(p));
        match (&seq, par) {
            (Some(seq), Some(par)) => {
                assert_eq!(
                    par.output,
                    seq.output,
                    "{alg} on {} at parallelism {p} changed the output (seed {seed})",
                    q.display_body()
                );
                assert!(
                    par.output.is_sorted(),
                    "{alg} on {} at parallelism {p} returned unordered output (seed {seed})",
                    q.display_body()
                );
                assert_eq!(
                    par.output.stats(),
                    Some(&RelationStats::of(&par.output)),
                    "{alg} on {} at parallelism {p}: output statistics (seed {seed})",
                    q.display_body()
                );
                assert_eq!(
                    par.stats.deterministic(),
                    seq.stats.deterministic(),
                    "{alg} on {} at parallelism {p} changed deterministic stats (seed {seed})",
                    q.display_body()
                );
            }
            (None, None) => {}
            (seq, par) => panic!(
                "{alg} on {} refused at one parallelism only (seq ok: {}, p={p} ok: {}, seed {seed})",
                q.display_body(),
                seq.is_some(),
                par.is_some()
            ),
        }
    }
    seq.is_some()
}

/// Under [`Algorithm::Auto`], the planner's decision record must be
/// byte-identical at every parallelism level — the task count is resolved
/// strictly after the algorithm choice.
fn check_auto(q: &Query, db: &Database, seed: u64) {
    let seq = run(q, db, &ExecOptions::new().parallelism(1)).expect("auto never refuses");
    let seq_auto = seq.auto.as_ref().expect("auto records a decision");
    for p in PARALLELISMS {
        let par = run(q, db, &ExecOptions::new().parallelism(p)).expect("auto never refuses");
        assert_eq!(
            par.auto.as_ref(),
            Some(seq_auto),
            "auto on {} decided differently at parallelism {p} (seed {seed})",
            q.display_body()
        );
        assert_eq!(par.output, seq.output);
        assert_eq!(par.stats.deterministic(), seq.stats.deterministic());
    }
}

proptest! {
    // 6 cases × 7 queries × (5 algorithms + auto) × {1,2,8}-way runs.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn parallelism_is_observationally_sequential(
        seed in any::<u64>(),
        rows in 6usize..16,
    ) {
        let mut accepted = 0usize;
        for q in queries() {
            let mut rng = StdRng::seed_from_u64(seed);
            let db = random_instance(&q, &mut rng, rows, 80);
            for alg in ALGORITHMS {
                accepted += check_algorithm(&q, &db, alg, seed) as usize;
            }
            check_auto(&q, &db, seed);
        }
        // Vacuous-green guard: Chain/SMA may refuse some lattices, but
        // CSMA, Generic-Join and binary join never do.
        prop_assert!(accepted >= 21, "only {accepted} (query, algorithm) pairs ran");
    }
}

/// Larger single-seed instances: enough rows that 2- and 8-way runs really
/// fan out (the proptest instances can be small enough that a block merge
/// degenerates to one block). Sizes are per query: the quadratic baseline
/// (binary join) stays tractable on the 7-atom Fig. 9 query only at small
/// row counts.
#[test]
fn parallel_runs_match_on_larger_instances() {
    let cases = [
        (examples::triangle(), 300),
        (examples::fig4_query(), 80),
        (examples::fig9_query(), 24),
    ];
    for (q, rows) in cases {
        let mut rng = StdRng::seed_from_u64(0xF149);
        let db = random_instance(&q, &mut rng, rows, 85);
        for alg in ALGORITHMS {
            check_algorithm(&q, &db, alg, 0);
        }
        check_auto(&q, &db, 0);
    }
}

/// Queries with one search variable, so the root is also the deepest
/// depth: Generic-Join's fan-out binds it per root value (`bind_root`),
/// and must bind it as the sequential run does — without narrowing into a
/// level below it — or the parallel runs count descends the sequential run
/// never makes. The second query computes a UDF-only `y = x + 1`, so the
/// leaf program runs right under the root.
#[test]
fn a_root_that_is_the_deepest_depth_fans_out_like_the_sequential_run() {
    let mut b = Query::builder();
    let x = b.var("x");
    b.atom("R", &[x]).atom("S", &[x]);
    let one_variable = b.build();
    let mut b = Query::builder();
    let (x, y) = (b.var("x"), b.var("y"));
    b.atom("R", &[x]).atom("S", &[x]).fd(&[x], &[y]);
    let udf_under_root = b.build();

    let mut db = Database::new();
    db.insert("R", Relation::from_rows(vec![0], (0..100).map(|v| [v])));
    db.insert("S", Relation::from_rows(vec![0], (0..100).map(|v| [2 * v])));
    db.udfs.register(VarSet::singleton(x), y, |v| v[0] + 1);
    for q in [one_variable, udf_under_root] {
        for alg in ALGORITHMS {
            check_algorithm(&q, &db, alg, 0);
        }
        check_auto(&q, &db, 0);
    }
}
