//! The data-dependent cost model end to end: measured degree/skew
//! statistics flip `Algorithm::Auto` decisions between databases with
//! *identical size profiles*, the decision record carries both the
//! worst-case bounds and the measured estimates, and `fdjoin_delta` uses
//! the same model to run delta-specialized plans whose saved work is
//! visible in `DeltaStats`.

use fdjoin::core::{Algorithm, AutoReason, Engine, ExecOptions};
use fdjoin::delta::{DeltaBatch, DeltaOptions, MaterializedView};
use fdjoin::instances::{random_instance, reference_join};
use fdjoin::query::examples;
use fdjoin::storage::{Database, Relation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Spread subset: every (len/k)-th row of the sorted relation — close to
/// the relation's own value distribution, low skew.
fn spread_subset(rel: &Relation, k: usize) -> Relation {
    let n = rel.len();
    assert!(n >= k, "pool too small: {n} < {k}");
    rel.select_rows((0..k).map(|i| i * n / k))
}

/// Concentrated subset: the first k sorted rows — shared prefixes pile up
/// on few values, high skew.
fn head_subset(rel: &Relation, k: usize) -> Relation {
    rel.select_rows(0..k)
}

/// Two databases for `q` with identical size profiles (`k` rows per atom)
/// but different degree skew, both FD-consistent: row subsets of one
/// quasi-product pool instance (subsets of FD-satisfying relations satisfy
/// the FDs, and the pool's UDF registry rides along on the clone).
fn same_profile_different_skew(
    q: &fdjoin::query::Query,
    seed: u64,
    k: usize,
) -> (Database, Database) {
    let mut rng = StdRng::seed_from_u64(seed);
    let pool = random_instance(q, &mut rng, 4000, 100);
    let mut uniform = pool.clone();
    let mut skewed = pool.clone();
    for a in q.atoms() {
        let rel = pool.relation(&a.name).unwrap();
        uniform.insert(a.name.clone(), spread_subset(rel, k));
        skewed.insert(a.name.clone(), head_subset(rel, k));
    }
    (uniform, skewed)
}

// ---------------------------------------------------------------------------
// The headline flip: same size profile, different skew ⇒ different choice.
// ---------------------------------------------------------------------------

#[test]
fn same_size_profile_different_skew_flips_the_auto_choice() {
    // Fig. 4 is the paper's chain-not-tight query: chain bound 3/2·n,
    // LLP optimum 4/3·n — the worst-case rules cannot close the gap, so
    // the measured statistics get to decide.
    let q = examples::fig4_query();
    let (uniform, skewed) = same_profile_different_skew(&q, 1, 64);

    let engine = Engine::new();
    let prepared = engine.prepare(&q);
    assert_eq!(
        prepared.size_profile(&uniform).unwrap(),
        prepared.size_profile(&skewed).unwrap(),
        "the two databases present the identical size profile"
    );

    let ru = prepared.execute(&uniform, &ExecOptions::new()).unwrap();
    let rs = prepared.execute(&skewed, &ExecOptions::new()).unwrap();
    let du = ru.auto.expect("auto decision recorded");
    let ds = rs.auto.expect("auto decision recorded");

    // Identical worst-case analysis…
    assert_eq!(du.chain_log_bound, ds.chain_log_bound);
    assert_eq!(du.llp_log_bound, ds.llp_log_bound);
    assert!(du.chain_log_bound.clone().unwrap() > du.llp_log_bound.clone().unwrap());

    // …but the measured data flips the algorithm.
    assert_eq!(du.algorithm, Algorithm::Chain);
    assert_eq!(du.reason, AutoReason::EstimatedTightChain);
    assert_eq!(ds.algorithm, Algorithm::Sma);
    assert_eq!(ds.reason, AutoReason::GoodSmProof);
    assert_ne!(
        du.algorithm, ds.algorithm,
        "skew-dependent tie flips the choice"
    );

    // Both decisions record the estimates they weighed, and the estimates
    // order exactly as the rule demands: the uniform database's pessimistic
    // estimate fits within the LLP optimum, the skewed one's does not.
    let llp = du.llp_log_bound.as_ref().unwrap();
    assert!(du.estimate_log_max.as_ref().unwrap() <= llp);
    assert!(ds.estimate_log_max.as_ref().unwrap() > llp);
    // Skew is the discriminator: zero gap on the spread subset, positive on
    // the concentrated one.
    assert_eq!(du.estimate_log_avg, du.estimate_log_max);
    assert!(ds.estimate_log_max.as_ref().unwrap() > ds.estimate_log_avg.as_ref().unwrap());

    // Either way the answers are correct.
    assert_eq!(ru.output, reference_join(&q, &uniform));
    assert_eq!(rs.output, reference_join(&q, &skewed));
}

#[test]
fn disabling_the_tiebreak_restores_worst_case_selection() {
    let q = examples::fig4_query();
    let (uniform, _) = same_profile_different_skew(&q, 7, 32);
    let r = Engine::new()
        .execute(&q, &uniform, &ExecOptions::new().cost_tiebreak(false))
        .unwrap();
    let d = r.auto.unwrap();
    // Without the data-dependent rule, the same database goes to SMA on
    // worst-case grounds and no estimates are consulted.
    assert_eq!(d.algorithm, Algorithm::Sma);
    assert_eq!(d.reason, AutoReason::GoodSmProof);
    assert_eq!(d.estimate_log_avg, None);
    assert_eq!(d.estimate_log_max, None);
}

// ---------------------------------------------------------------------------
// The estimate surface: PreparedQuery::estimate and cost::estimate_join.
// ---------------------------------------------------------------------------

#[test]
fn prepared_query_surfaces_estimates() {
    use fdjoin::bigint::Rational;
    let q = examples::fig4_query();
    let (uniform, skewed) = same_profile_different_skew(&q, 42, 32);
    let prepared = Engine::new().prepare(&q);
    let eu = prepared.estimate(&uniform).unwrap();
    let es = prepared.estimate(&skewed).unwrap();
    assert_eq!(eu, fdjoin::core::cost::estimate_join(&q, &uniform).unwrap());
    assert_eq!(eu.skew_gap(), Rational::zero());
    assert!(es.skew_gap() > Rational::zero());
    assert!(es.log_max > eu.log_max);
    assert!(!eu.factors.is_empty());
}

// ---------------------------------------------------------------------------
// Delta-profile-specialized plan selection.
// ---------------------------------------------------------------------------

/// The acceptance claim: with specialization on, a 1-tuple delta runs a
/// Δ-first plan and no longer pays for the view's full plan — strictly
/// less `DeltaStats::join_work` than the identical view with
/// specialization off, on deterministic counters.
#[test]
fn one_tuple_delta_stops_paying_for_the_full_plan() {
    for q in [examples::triangle(), examples::fig4_query()] {
        let mut rng = StdRng::seed_from_u64(4242);
        let db = random_instance(&q, &mut rng, 400, 90);
        let atom0 = q.atoms()[0].name.clone();
        let row: Vec<u64> = vec![987_654_321; q.atoms()[0].vars.len()];
        let prepared = Arc::new(Engine::new().prepare(&q));

        let run = |on: bool| {
            let mut view = MaterializedView::materialize(
                Arc::clone(&prepared),
                db.clone(),
                DeltaOptions::new().exec(ExecOptions::new().cost_tiebreak(on)),
            )
            .unwrap();
            let bs = view
                .apply_delta(&DeltaBatch::new().insert(&atom0, row.clone()))
                .unwrap();
            assert_eq!(bs.full_recomputes, 0);
            assert_eq!(bs.delta_joins, 1);
            (bs, view)
        };
        let (spec, spec_view) = run(true);
        let (plain, plain_view) = run(false);

        // Identical answers, both equal to a fresh join.
        assert_eq!(spec_view.output(), plain_view.output());
        let fresh = reference_join(&q, spec_view.database());
        assert_eq!(spec_view.output(), &fresh, "on {}", q.display_body());

        // The specialized view ran a Δ-first binary plan and its recorded
        // join work is strictly below replaying the view's full plan.
        assert_eq!(spec.specialized_deltas, 1, "on {}", q.display_body());
        assert_eq!(spec_view.delta_algorithms(), &[Algorithm::BinaryJoin]);
        // A plan-less binary join neither solves nor *reuses* plans.
        assert_eq!(spec.planning_solves, 0);
        assert_eq!(spec.plans_reused, 0);
        assert_eq!(plain.specialized_deltas, 0);
        assert_ne!(plain_view.delta_algorithms(), &[Algorithm::BinaryJoin]);
        assert!(
            spec.join_work < plain.join_work,
            "specialized delta work ({}) must be strictly below the view plan's ({}) on {}",
            spec.join_work,
            plain.join_work,
            q.display_body()
        );
    }
}

/// `cost_tiebreak(false)` promises size-profile-deterministic selection;
/// that covers the view's delta joins too: it is the one switch that turns
/// specialization off.
#[test]
fn profile_deterministic_options_disable_delta_specialization() {
    let q = examples::triangle();
    let mut rng = StdRng::seed_from_u64(7);
    let db = random_instance(&q, &mut rng, 200, 90);
    let prepared = Arc::new(Engine::new().prepare(&q));
    let opts = DeltaOptions::new().exec(ExecOptions::new().cost_tiebreak(false));
    let mut view = MaterializedView::materialize(Arc::clone(&prepared), db, opts).unwrap();
    let bs = view
        .apply_delta(&DeltaBatch::new().insert("R", [11, 12]))
        .unwrap();
    assert_eq!(bs.delta_joins, 1);
    assert_eq!(bs.specialized_deltas, 0);
    assert_ne!(view.delta_algorithms(), &[Algorithm::BinaryJoin]);
}

#[test]
fn pinned_algorithms_never_specialize() {
    let q = examples::triangle();
    let mut rng = StdRng::seed_from_u64(7);
    let db = random_instance(&q, &mut rng, 200, 90);
    let prepared = Arc::new(Engine::new().prepare(&q));
    let opts = DeltaOptions::new().exec(ExecOptions::new().algorithm(Algorithm::Chain));
    let mut view = MaterializedView::materialize(Arc::clone(&prepared), db, opts).unwrap();
    let bs = view
        .apply_delta(&DeltaBatch::new().insert("R", [11, 12]))
        .unwrap();
    assert_eq!(bs.delta_joins, 1);
    assert_eq!(bs.specialized_deltas, 0, "explicit algorithm is honored");
    assert_eq!(view.delta_algorithms(), &[Algorithm::Chain]);
}

/// Large deltas price like full joins: the cost model declines to
/// specialize and the view's own plan runs.
#[test]
fn bulk_deltas_keep_the_view_plan() {
    let q = examples::triangle();
    let mut rng = StdRng::seed_from_u64(9);
    let db = random_instance(&q, &mut rng, 60, 90);
    let mut rng2 = StdRng::seed_from_u64(9 ^ 0xD1F7);
    let pool = random_instance(&q, &mut rng2, 60, 90);
    let prepared = Arc::new(Engine::new().prepare(&q));
    let mut view = MaterializedView::materialize(
        Arc::clone(&prepared),
        db,
        DeltaOptions::new().max_delta_fraction(1.0),
    )
    .unwrap();
    // Insert an entire second instance's R: the delta is as large as the
    // base relation, so the Δ-first estimate cannot beat a base scan.
    let mut delta = DeltaBatch::new();
    for row in pool.relation("R").unwrap().rows() {
        delta.push_insert("R", row.to_vec());
    }
    let bs = view.apply_delta(&delta).unwrap();
    if bs.delta_joins > 0 {
        assert_eq!(
            bs.specialized_deltas, 0,
            "a base-relation-sized delta must not look like a cheap delta"
        );
    }
    let fresh = reference_join(&q, view.database());
    assert_eq!(view.output(), &fresh);
}

/// Differential guard: specialized and unspecialized views agree with a
/// fresh reference join across a random insert/delete stream (the cost model
/// changes plans, never answers).
#[test]
fn specialized_views_track_naive_under_random_streams() {
    let q = examples::triangle();
    let mut rng = StdRng::seed_from_u64(31337);
    let db = random_instance(&q, &mut rng, 24, 85);
    let mut rng2 = StdRng::seed_from_u64(31337 ^ 0xD1F7);
    let pool = random_instance(&q, &mut rng2, 24, 85);
    let prepared = Arc::new(Engine::new().prepare(&q));
    let mut spec = MaterializedView::materialize(
        Arc::clone(&prepared),
        db.clone(),
        DeltaOptions::new().max_delta_fraction(1.0),
    )
    .unwrap();
    let mut plain = MaterializedView::materialize(
        Arc::clone(&prepared),
        db,
        DeltaOptions::new()
            .max_delta_fraction(1.0)
            .exec(ExecOptions::new().cost_tiebreak(false)),
    )
    .unwrap();
    for step in 0..8 {
        let mut delta = DeltaBatch::new();
        for atom in q.atoms() {
            let pool_rel = pool.relation(&atom.name).unwrap();
            for _ in 0..rng.gen_range(0..3) {
                let i = rng.gen_range(0..pool_rel.len());
                delta.push_insert(&atom.name, pool_rel.row(i).to_vec());
            }
            let cur = spec.database().relation(&atom.name).unwrap();
            if !cur.is_empty() {
                let i = rng.gen_range(0..cur.len());
                delta.push_delete(&atom.name, cur.row(i).to_vec());
            }
        }
        spec.apply_delta(&delta).unwrap();
        plain.apply_delta(&delta).unwrap();
        let fresh = reference_join(&q, spec.database());
        assert_eq!(spec.output(), &fresh, "specialized view diverged at {step}");
        assert_eq!(plain.output(), &fresh, "plain view diverged at {step}");
    }
    assert!(
        spec.stats().specialized_deltas > 0,
        "the stream exercised specialized delta joins"
    );
}
