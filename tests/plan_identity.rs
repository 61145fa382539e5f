//! Plan identity: the exact numbers planning rests on, pinned as literals.
//!
//! Exact arithmetic makes an LP vertex, its dual and everything read off
//! them independent of how a rational is represented, so a change to
//! `fdjoin_bigint` or to the simplex's inner loops must reproduce these
//! strings character for character. The literals were printed by the commit
//! *before* `Rational` moved to machine words (`41a5e40`, two `BigInt`s per
//! value); a pivot-rule or tie-break change would move them, a
//! representation change must not.
//!
//! The CSM lengths were re-printed when `csm_sequence` stopped emitting
//! the CC rules that derive a cardinality term along a pair `(0̂, R_j)`:
//! `h(R_j | 0̂) = h(R_j)` is the input's own table, which CSMA holds from
//! the start. Fig. 1 4 → 2, Fig. 4 5 → 3, Fig. 9 11 → 8, Fig. 7
//! 4 → 2, Fig. 8 3 → 1, M3 3 → 1, the triangle 4 → 2 and the keyed
//! four-cycle 4 → 2; every other number is as printed.

use fdjoin::bigint::Rational;
use fdjoin::bounds::chain::best_chain_bound;
use fdjoin::bounds::cllp::solve_cllp;
use fdjoin::bounds::csm::csm_sequence;
use fdjoin::bounds::llp::solve_llp;
use fdjoin::bounds::smproof::{scale_weights, search_good_sm_proof};
use fdjoin::bounds::DegreePair;
use fdjoin::lattice::ElemId;
use fdjoin::query::{examples, Query};
use std::collections::BTreeMap;

/// Rows per atom of the fixed size profile; `log₂ 48` is not dyadic-exact,
/// so every right-hand side is a rounded-up `k / 2¹⁶` as in a live request.
const LEN: u64 = 48;

/// One line per planning entry point `cold_plan` exercises.
fn plan(q: &Query) -> String {
    let pres = q.lattice_presentation();
    let (lat, inputs) = (&pres.lattice, &pres.inputs);
    let logs = vec![Rational::log2_approx(LEN, 16); inputs.len()];

    let llp = solve_llp(lat, inputs, &logs);
    let chain = best_chain_bound(lat, inputs, &logs)
        .map(|b| format!("{} via {:?}", b.log_bound, b.chain.elems));
    let pairs: Vec<DegreePair> = inputs
        .iter()
        .zip(&logs)
        .map(|(&e, log)| DegreePair::cardinality(lat, e, log.clone()))
        .collect();
    let csm = csm_sequence(lat, &pairs, &solve_cllp(lat, &pairs)).map(|s| s.rules.len());
    format!(
        "llp {} duals {:?} | chain {:?} | scale {:?} | csm {:?}",
        llp.value,
        llp.input_duals,
        chain,
        scale_weights(&llp.input_duals),
        csm
    )
}

/// The other two planning outputs `cold_plan` reads: the good SM proof
/// searched on the scaled LLP duals (merged per lattice element, as SMA
/// plans it), and the CLLP over the cardinality pairs (as CSMA plans it).
fn proof_and_cllp(q: &Query) -> String {
    let pres = q.lattice_presentation();
    let (lat, inputs) = (&pres.lattice, &pres.inputs);
    let logs = vec![Rational::log2_approx(LEN, 16); inputs.len()];

    let (qmul, d) = scale_weights(&solve_llp(lat, inputs, &logs).input_duals);
    let mut acc: BTreeMap<ElemId, u64> = BTreeMap::new();
    for (&e, &m) in inputs.iter().zip(&qmul) {
        if m > 0 {
            *acc.entry(e).or_default() += m;
        }
    }
    let multiset: Vec<(ElemId, u64)> = acc.into_iter().collect();
    let proof = search_good_sm_proof(lat, &multiset, d)
        .map(|p| p.steps.iter().map(|s| (s.x, s.y)).collect::<Vec<_>>());
    let pairs: Vec<DegreePair> = inputs
        .iter()
        .zip(&logs)
        .map(|(&e, log)| DegreePair::cardinality(lat, e, log.clone()))
        .collect();
    let cllp = solve_cllp(lat, &pairs);
    format!(
        "proof {:?} | cllp {} duals {:?}",
        proof, cllp.value, cllp.pair_duals
    )
}

/// The eight queries `cold_plan` prepares.
fn cold_plan_queries() -> [(&'static str, Query); 8] {
    [
        ("fig1_udf", examples::fig1_udf()),
        ("fig4_query", examples::fig4_query()),
        ("fig9_query", examples::fig9_query()),
        ("fig7_query", examples::fig7_query()),
        ("fig8_query", examples::fig8_query()),
        ("m3_query", examples::m3_query()),
        ("triangle", examples::triangle()),
        ("four_cycle_key", examples::four_cycle_key()),
    ]
}

/// Printed before the LLP, the CLLP and the normality test shared one
/// lattice-program skeleton and the two SM-proof searches became one.
#[test]
fn cold_plan_queries_prove_and_condition_to_the_pinned_numbers() {
    let expected: [&str; 8] = [
        "proof Some([(5, 6), (2, 8)]) | cllp 1098051/131072 duals [1/2, 1/2, 1/2]",
        "proof Some([(7, 8), (9, 10), (1, 6)]) | cllp 366017/49152 duals [1/3, 1/3, 1/3, 1/3]",
        "proof None | cllp 1098051/131072 duals [1/2, 1/2, 1/2]",
        "proof Some([(4, 5), (1, 3)]) | cllp 1098051/131072 duals [1/2, 0, 1/2, 1/2]",
        "proof Some([(3, 5)]) | cllp 366017/32768 duals [1, 0, 1, 0]",
        "proof Some([(1, 2)]) | cllp 366017/32768 duals [1, 1, 0]",
        "proof Some([(4, 5), (1, 6)]) | cllp 1098051/131072 duals [1/2, 1/2, 1/2]",
        "proof None | cllp 366017/32768 duals [1, 0, 0, 1]",
    ];
    for ((name, q), expected) in cold_plan_queries().iter().zip(expected) {
        assert_eq!(proof_and_cllp(q), expected, "{name}");
    }
}

#[test]
fn cold_plan_queries_plan_to_the_pinned_numbers() {
    let cases: [(&str, Query, &str); 8] = [
        (
            "fig1_udf",
            examples::fig1_udf(),
            r#"llp 1098051/131072 duals [1/2, 1/2, 1/2] | chain Some("1098051/131072 via [0, 2, 6, 11]") | scale ([1, 1, 1], 2) | csm Some(2)"#,
        ),
        (
            "fig4_query",
            examples::fig4_query(),
            r#"llp 366017/49152 duals [1/3, 1/3, 1/3, 1/3] | chain Some("1098051/131072 via [0, 1, 7, 11]") | scale ([1, 1, 1, 1], 3) | csm Some(3)"#,
        ),
        (
            "fig9_query",
            examples::fig9_query(),
            r#"llp 1098051/131072 duals [1/2, 1/2, 1/2] | chain Some("366017/32768 via [0, 1, 4, 8, 14, 17]") | scale ([1, 1, 1], 2) | csm Some(8)"#,
        ),
        (
            "fig7_query",
            examples::fig7_query(),
            r#"llp 1098051/131072 duals [1/2, 0, 1/2, 1/2] | chain Some("366017/32768 via [0, 1, 4, 7, 9]") | scale ([1, 0, 1, 1], 2) | csm Some(2)"#,
        ),
        (
            "fig8_query",
            examples::fig8_query(),
            r#"llp 366017/32768 duals [1, 0, 1, 0] | chain Some("1098051/65536 via [0, 1, 3, 7, 9]") | scale ([1, 0, 1, 0], 1) | csm Some(1)"#,
        ),
        (
            "m3_query",
            examples::m3_query(),
            r#"llp 366017/32768 duals [1, 1, 0] | chain Some("366017/32768 via [0, 1, 4]") | scale ([1, 1, 0], 1) | csm Some(1)"#,
        ),
        (
            "triangle",
            examples::triangle(),
            r#"llp 1098051/131072 duals [1/2, 1/2, 1/2] | chain Some("1098051/131072 via [0, 1, 4, 7]") | scale ([1, 1, 1], 2) | csm Some(2)"#,
        ),
        (
            "four_cycle_key",
            examples::four_cycle_key(),
            r#"llp 366017/32768 duals [1, 0, 0, 1] | chain Some("366017/32768 via [0, 1, 4, 8, 11]") | scale ([1, 0, 0, 1], 1) | csm Some(2)"#,
        ),
    ];
    for (name, q, expected) in &cases {
        assert_eq!(plan(q), *expected, "{name}");
    }
}
