//! Bound soundness: on every instance we can generate, the measured output
//! size must respect GLVV ≤ chain-bound and GLVV ≤ AGM(Q⁺) ≤ AGM, and the
//! actual output must fit under GLVV (asserted inside `reference_join`).

use fdjoin::bigint::Rational;
use fdjoin::bounds::chain::best_chain_bound;
use fdjoin::bounds::llp::solve_llp;
use fdjoin::instances::{random_instance, reference_join};
use fdjoin::query::{examples, Query};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn log_sizes(q: &Query, db: &fdjoin::storage::Database) -> Vec<Rational> {
    q.atoms()
        .iter()
        .map(|a| Rational::log2_approx(db.relation(&a.name).unwrap().len().max(1) as u64, 16))
        .collect()
}

fn check_bound_order(q: &Query, db: &fdjoin::storage::Database) {
    let pres = q.lattice_presentation();
    let logs = log_sizes(q, db);
    let glvv = solve_llp(&pres.lattice, &pres.inputs, &logs).value;

    // Output within GLVV: the reference evaluator asserts it on every call.
    reference_join(q, db);

    // GLVV ≤ chain bound (when a finite chain exists).
    if let Some(cb) = best_chain_bound(&pres.lattice, &pres.inputs, &logs) {
        assert!(
            glvv <= cb.log_bound,
            "{}: GLVV above chain bound",
            q.display_body()
        );
    }

    // GLVV ≤ AGM(Q⁺) ≤ AGM (when covers exist).
    let agm = fdjoin::bounds::agm::agm_log_bound(q, &logs);
    let agm_plus = fdjoin::bounds::agm::agm_closure_log_bound(q, &logs);
    if let (Some(a), Some(ap)) = (agm, agm_plus) {
        assert!(
            ap.value <= a.value,
            "{}: AGM(Q⁺) above AGM",
            q.display_body()
        );
        assert!(glvv <= ap.value, "{}: GLVV above AGM(Q⁺)", q.display_body());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn bound_order_on_random_instances(seed in any::<u64>(), rows in 4usize..32) {
        for q in [
            examples::triangle(),
            examples::fig1_udf(),
            examples::four_cycle_key(),
            examples::composite_key(),
            examples::m3_query(),
            examples::simple_fd_path(),
            examples::fig4_query(),
        ] {
            let mut rng = StdRng::seed_from_u64(seed);
            let db = random_instance(&q, &mut rng, rows, 75);
            check_bound_order(&q, &db);
        }
    }
}

#[test]
fn bound_order_on_worst_cases() {
    use fdjoin::bigint::rat;
    let q = examples::fig4_query();
    let db = fdjoin::instances::normal_worst_case(&q, &vec![rat(3, 1); 4], &rat(4, 1)).unwrap();
    check_bound_order(&q, &db);
    let q = examples::fig1_udf();
    check_bound_order(&q, &fdjoin::instances::fig1_tight(3));
    check_bound_order(&q, &fdjoin::instances::fig1_adversarial(12));
    let q = examples::m3_query();
    check_bound_order(&q, &fdjoin::instances::m3_parity(6));
}

#[test]
fn glvv_is_monotone_in_cardinalities() {
    use fdjoin::bigint::rat;
    let q = examples::fig1_udf();
    let pres = q.lattice_presentation();
    let mut prev = Rational::zero();
    for n in 1..=6 {
        let v = solve_llp(&pres.lattice, &pres.inputs, &vec![rat(n, 1); 3]).value;
        assert!(v >= prev, "GLVV not monotone at n={n}");
        prev = v;
    }
    // And exactly (3/2)·n throughout.
    assert_eq!(prev, rat(9, 1));
}
