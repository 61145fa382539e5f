//! End-to-end verification of the paper's quantitative claims, one test per
//! figure, example or equation, on instances small enough for the tier-1
//! gate. `cargo test --test paper_claims` is where the claims are checked;
//! the `benchmark/` harness tracks the same exponents at scale
//! (`core.work_exponent`, `core.baseline_work_exponent`).

use fdjoin::bigint::{rat, Rational};
use fdjoin::bounds::chain::best_chain_bound;
use fdjoin::bounds::llp::solve_llp;
use fdjoin::bounds::normal::is_normal_lattice;
use fdjoin::bounds::smproof::{search_good_sm_proof, search_sm_proof};
use fdjoin::core::{
    chain_join, csma_join, generic_join, Algorithm, Engine, ExecOptions, UserDegreeBound,
};
use fdjoin::instances::reference_join;
use fdjoin::lattice::build::order_ideals;
use fdjoin::query::examples;

/// E1: the Fig. 1 UDF query — GLVV = N^{3/2}; chain algorithm does
/// ~N^{3/2} work on the adversarial instance while FD-oblivious GJ does
/// Ω(N²).
#[test]
fn e1_chain_beats_generic_join_on_adversarial_instance() {
    let q = examples::fig1_udf();
    let (n1, n2) = (64u64, 256u64);
    let work = |n: u64| {
        let db = fdjoin::instances::fig1_adversarial(n);
        let ca = chain_join(&q, &db).unwrap();
        let gj = generic_join(&q, &db).unwrap();
        assert_eq!(ca.output, gj.output);
        (ca.stats.work(), gj.stats.work())
    };
    let (ca1, gj1) = work(n1);
    let (ca2, gj2) = work(n2);
    // Exponent estimates over a 4× size increase.
    let ca_exp = ((ca2 as f64) / (ca1 as f64)).log2() / 2.0;
    let gj_exp = ((gj2 as f64) / (gj1 as f64)).log2() / 2.0;
    assert!(
        ca_exp < 1.75,
        "chain algorithm exponent ~1.5, got {ca_exp:.2}"
    );
    assert!(gj_exp > 1.75, "generic join exponent ~2, got {gj_exp:.2}");
}

/// E1 (bound side): output on the tight instance is exactly N^{3/2}.
#[test]
fn e1_tight_instance_attains_bound() {
    let q = examples::fig1_udf();
    for s in [2u64, 4] {
        let db = fdjoin::instances::fig1_tight(s);
        let ca = chain_join(&q, &db).unwrap();
        assert_eq!(ca.output.len() as u64, s * s * s);
    }
}

/// A1: the per-tuple argmin is the "crucial fact" of Sec. 5.1 that carries
/// Theorem 5.7 — on the adversarial instance the Chain Algorithm's work is
/// linear with it and near-quadratic with a fixed covering atom per level.
#[test]
fn a1_argmin_carries_theorem_5_7() {
    let prepared = Engine::new().prepare(&examples::fig1_udf());
    let exponent = |alg: Algorithm| {
        let run = |n: u64| {
            let db = fdjoin::instances::fig1_adversarial(n);
            prepared
                .execute(&db, &ExecOptions::new().algorithm(alg))
                .unwrap()
        };
        let (small, large) = (run(64), run(256));
        let exp = (large.stats.work() as f64 / small.stats.work() as f64).log2() / 2.0;
        (exp, large.output)
    };
    let (with, out_with) = exponent(Algorithm::Chain);
    let (without, out_without) = exponent(Algorithm::ChainNoArgmin);
    assert_eq!(out_with, out_without);
    assert!(with < 1.25, "argmin work exponent ~1, got {with:.2}");
    assert!(
        without > 1.6,
        "fixed-atom work exponent ~2, got {without:.2}"
    );
}

/// E2: Eq. (2) through the engine — a user degree bound `d` on `R(x → y)`
/// reaches the conditional LLP, whose optimum tracks
/// `min(3/2·log N, log N + log d)`, and the output respects it.
#[test]
fn e2_degree_bound_tracks_eq2_through_the_engine() {
    let q = examples::triangle();
    let prepared = Engine::new().prepare(&q);
    for (n, degrees) in [
        (256u64, [1u64, 2, 4, 16, 64, 256]),
        (512, [1, 2, 8, 32, 128, 512]),
    ] {
        for d in degrees {
            let db = fdjoin::instances::bounded_degree_triangle(n, d);
            for name in ["R", "S", "T"] {
                assert_eq!(db.relation(name).unwrap().len() as u64, n);
            }
            let real_d = db.relation("R").unwrap().max_degree(1) as u64;
            let opts =
                ExecOptions::new()
                    .algorithm(Algorithm::Csma)
                    .degree_bound(UserDegreeBound {
                        atom: 0,
                        on: vec![q.var_id("x").unwrap()],
                        max_degree: real_d,
                    });
            let out = prepared.execute(&db, &opts).unwrap();
            let bound = out.predicted_log_bound.as_ref().unwrap().to_f64();
            let log_n = (n as f64).log2();
            let eq2 = (1.5 * log_n).min(log_n + (real_d as f64).log2());
            // Logs are rounded up to 16 fractional bits before the LP.
            assert!(
                eq2 <= bound && bound <= eq2 + 3.0 / 65536.0,
                "N = {n}, d = {real_d}: CLLP bound {bound}, Eq. (2) {eq2}"
            );
            assert!(out.output.len() as f64 <= bound.exp2());
            assert_eq!(out.output, reference_join(&q, &db));
        }
    }
}

/// E3: LLP on a Boolean algebra equals the AGM bound for arbitrary
/// cardinalities (Sec. 3.3).
#[test]
fn e3_llp_equals_agm_on_boolean_algebra() {
    let q = examples::triangle();
    let pres = q.lattice_presentation();
    for logs in [[3i64, 3, 3], [1, 5, 9], [2, 2, 8], [0, 4, 4]] {
        let lr: Vec<Rational> = logs.iter().map(|&v| rat(v, 1)).collect();
        let llp = solve_llp(&pres.lattice, &pres.inputs, &lr);
        let agm = fdjoin::bounds::agm::agm_log_bound(&q, &lr).unwrap();
        assert_eq!(llp.value, agm.value, "sizes {logs:?}");
    }
}

/// E4: the closure technique works for simple keys and fails for composite
/// keys (Sec. 2).
#[test]
fn e4_closure_bound_vs_glvv() {
    // Composite key: GLVV = N² but AGM(Q⁺) = M.
    let q = examples::composite_key();
    let logs = vec![rat(5, 1), rat(5, 1), rat(30, 1)];
    let agm_plus = fdjoin::bounds::agm::agm_closure_log_bound(&q, &logs).unwrap();
    let pres = q.lattice_presentation();
    let glvv = solve_llp(&pres.lattice, &pres.inputs, &logs).value;
    assert_eq!(agm_plus.value, rat(30, 1));
    assert_eq!(glvv, rat(10, 1));
    assert!(glvv < agm_plus.value);
}

/// E5: simple FDs ⇒ distributive lattice ⇒ tight chain bound = LLP.
#[test]
fn e5_simple_fds_chain_equals_llp() {
    let q = examples::simple_fd_path();
    let pres = q.lattice_presentation();
    assert!(pres.lattice.is_distributive());
    // Proposition 3.2, concretely: every FD is simple, and the closed sets
    // are the order ideals of the FD poset (`y → z` puts z below y).
    assert!(q.fds.fds().iter().all(|fd| fd.is_simple()));
    let ideals = order_ideals(4, &[(2, 1)]);
    assert_eq!(pres.lattice.len(), ideals.len());
    for e in ideals.elems() {
        let ideal = ideals.set_of(e).unwrap();
        assert!(pres.lattice.elem_of_set(ideal).is_some(), "{ideal:?}");
    }
    for logs in [[4i64, 4, 4], [2, 6, 3]] {
        let lr: Vec<Rational> = logs.iter().map(|&v| rat(v, 1)).collect();
        let llp = solve_llp(&pres.lattice, &pres.inputs, &lr).value;
        let chain = best_chain_bound(&pres.lattice, &pres.inputs, &lr)
            .unwrap()
            .log_bound;
        assert_eq!(llp, chain, "sizes {logs:?}");
    }
}

/// E6: M3 — parity instance attains the N² GLVV bound; the co-atomic cover
/// bound N^{3/2} is invalid; the lattice is non-normal.
#[test]
fn e6_m3_parity() {
    let q = examples::m3_query();
    let pres = q.lattice_presentation();
    assert!(!is_normal_lattice(&pres.lattice, &pres.inputs));
    let n = 8u64;
    let db = fdjoin::instances::m3_parity(n);
    let out = reference_join(&q, &db);
    assert_eq!(out.len() as u64, n * n);
    // N² > N^{3/2}: the co-atomic cover bound is genuinely violated.
    assert!((out.len() as f64) > (n as f64).powf(1.5));
    // CSMA computes it within the N² budget.
    let csma = csma_join(&q, &db).unwrap();
    assert_eq!(csma.output.len() as u64, n * n);
}

/// E7: Fig 4 — chain bound 3/2 strictly above LLP/SM bound 4/3; a good
/// SM-proof exists; the worst case attains N^{4/3}.
#[test]
fn e7_fig4_gap_and_tightness() {
    let q = examples::fig4_query();
    let pres = q.lattice_presentation();
    let logs = vec![rat(3, 1); 4];
    let chain = best_chain_bound(&pres.lattice, &pres.inputs, &logs)
        .unwrap()
        .log_bound;
    let llp = solve_llp(&pres.lattice, &pres.inputs, &logs).value;
    assert_eq!(chain, rat(9, 2)); // (3/2)·3
    assert_eq!(llp, rat(4, 1)); // (4/3)·3
    let multiset: Vec<(usize, u64)> = pres.inputs.iter().map(|&e| (e, 1)).collect();
    assert!(search_good_sm_proof(&pres.lattice, &multiset, 3).is_some());
    let db = fdjoin::instances::normal_worst_case(&q, &logs, &llp).unwrap();
    let out = reference_join(&q, &db);
    assert_eq!(out.len(), 16); // 2^4 = N^{4/3} with N = 8.
}

/// E8: Fig 5 — every maximal chain has an isolated vertex; the Cor. 5.9
/// chain works and the chain algorithm computes the N² product.
#[test]
fn e8_fig5_good_chain() {
    let q = examples::fig5_udf_product();
    let mut db = fdjoin::storage::Database::new();
    let rows: Vec<[u64; 1]> = (0..10).map(|i| [i]).collect();
    db.insert(
        "R",
        fdjoin::storage::Relation::from_rows(vec![0], rows.clone()),
    );
    db.insert("S", fdjoin::storage::Relation::from_rows(vec![1], rows));
    db.udfs
        .register(fdjoin::lattice::VarSet::from_vars([0, 1]), 2, |v| {
            v[0] * 100 + v[1]
        });
    let ca = chain_join(&q, &db).unwrap();
    assert_eq!(ca.output.len(), 100);
    // The selected chain is non-maximal (3 elements: 0̂ ≺ atom ≺ 1̂).
    let chain = ca.chain().expect("chain algorithm ran");
    assert!(chain.elems.len() <= 3, "chain {:?}", chain.elems);
}

/// E12: Fig 9 — no SM proof at d = 2, but CSMA handles the query; the
/// lattice is normal and its worst case attains N^{3/2}.
#[test]
fn e12_fig9_needs_csma() {
    let q = examples::fig9_query();
    let pres = q.lattice_presentation();
    let multiset: Vec<(usize, u64)> = pres.inputs.iter().map(|&e| (e, 1)).collect();
    assert!(search_sm_proof(&pres.lattice, &multiset, 2).is_none());
    assert!(is_normal_lattice(&pres.lattice, &pres.inputs));
    let logs = vec![rat(2, 1); 3];
    let db = fdjoin::instances::normal_worst_case(&q, &logs, &rat(3, 1)).unwrap();
    let csma = csma_join(&q, &db).unwrap();
    assert_eq!(csma.output.len(), 8);
    assert_eq!(csma.predicted_log_bound, Some(rat(3, 1)));
}

/// E13/E15: the lattice classification of Fig. 10 — inclusion chain and
/// strictness witnesses.
#[test]
fn e13_fig10_classification() {
    use fdjoin::lattice::build;
    // Boolean ⊂ distributive: all Boolean algebras distributive.
    assert!(build::boolean(3).is_distributive());
    // Simple FDs ⇒ distributive (Prop. 3.2) — witnessed by simple_fd_path.
    assert!(examples::simple_fd_path()
        .lattice_presentation()
        .lattice
        .is_distributive());
    // Distributive ⊊ normal: Fig 1's lattice is normal but not distributive.
    let fig1 = examples::fig1_udf().lattice_presentation();
    assert!(!fig1.lattice.is_distributive());
    assert!(is_normal_lattice(&fig1.lattice, &fig1.inputs));
    // N5 normal, M3 not (E14/E15).
    let n5 = build::n5();
    let e = |s: &str| n5.elems().find(|&x| n5.name(x) == s).unwrap();
    assert!(is_normal_lattice(&n5, &[e("a"), e("b"), e("c")]));
    let m3 = build::m3();
    assert!(!is_normal_lattice(&m3, &m3.atoms()));
}

/// Chain-bound tightness boundary: tight on distributive lattices and on
/// the Fig. 6 chain, not tight on Fig. 4.
#[test]
fn chain_tightness_boundary() {
    use fdjoin::bounds::chain::Chain;
    // Fig 6 = Fig 1 lattice with chain 0̂ ≺ y ≺ yz ≺ 1̂: condition (15) holds.
    let q = examples::fig1_udf();
    let pres = q.lattice_presentation();
    let lat = &pres.lattice;
    let y = q.var_id("y").unwrap();
    let z = q.var_id("z").unwrap();
    let vs = |v: &[u32]| fdjoin::lattice::VarSet::from_vars(v.iter().copied());
    let chain = Chain::new(
        lat,
        vec![
            lat.bottom(),
            lat.elem_of_set(vs(&[y])).unwrap(),
            lat.elem_of_set(vs(&[y, z])).unwrap(),
            lat.top(),
        ],
    );
    assert!(chain.tightness_condition(lat));
    // Fig 4: no candidate chain matches the LLP value (Example 5.18).
    let q4 = examples::fig4_query();
    let p4 = q4.lattice_presentation();
    let logs = vec![rat(6, 1); 4];
    let cb = best_chain_bound(&p4.lattice, &p4.inputs, &logs)
        .unwrap()
        .log_bound;
    let llp = solve_llp(&p4.lattice, &p4.inputs, &logs).value;
    assert!(cb > llp);
}
