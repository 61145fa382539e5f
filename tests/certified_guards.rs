//! Guard checks that the data certifies: at a leaf of the descent (and on
//! a Binary-Join row) every atom variable holds a row of its atom, so a
//! guarded FD's lookup can only fail where the guard relation itself
//! violates the FD. The leaf program leaves out the check of every guard
//! whose trie determines its FD, and keeps the others.
//!
//! On FD-consistent data the enumerations that run that leaf — Generic-Join,
//! a `ResultStream` paused and resumed anywhere, Binary-Join — must return
//! exactly what Chain / SMA compute, with no guard op left in the leaf. On
//! FD-violating data they must return what they returned while every leaf
//! still ran every check.

use fdjoin::core::descent::Descent;
use fdjoin::core::{AccessPaths, Algorithm, Engine, ExecOptions, JoinError, PreparedQuery, Stats};
use fdjoin::instances::random_instance;
use fdjoin::query::{examples, Query};
use fdjoin::storage::{Database, IndexSet, Relation, Value};
use fdjoin::stream::ResultStream;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The queries built from a lattice: one guarded FD per pair of lattice
/// elements inside an input.
fn lattice_queries() -> Vec<Query> {
    vec![
        examples::fig4_query(),
        examples::fig7_query(),
        examples::fig8_query(),
        examples::fig9_query(),
    ]
}

fn run(prepared: &PreparedQuery, db: &Database, alg: Algorithm) -> Result<Relation, JoinError> {
    let opts = ExecOptions::new().algorithm(alg);
    prepared.execute(db, &opts).map(|r| r.output)
}

/// Drain a stream that is checkpointed and resumed after each row `rng`
/// picks (about one in `every`).
fn paused_drain<R: Rng>(
    prepared: &PreparedQuery,
    db: &Database,
    rng: &mut R,
    every: u32,
) -> Vec<Vec<Value>> {
    let mut stream = ResultStream::open(prepared, db).expect("open");
    let mut rows = Vec::new();
    while let Some(row) = stream.next_row() {
        rows.push(row.to_vec());
        if rng.gen_range(0..every) == 0 {
            let ck = stream.checkpoint();
            stream = ResultStream::resume(prepared, db, &ck).expect("resume");
        }
    }
    rows
}

/// The guarded ops of the descent's leaf on `db`.
fn leaf_guard_ops(q: &Query, db: &Database) -> usize {
    let set = IndexSet::new();
    let paths = AccessPaths::new(&set, q, db).expect("complete database");
    let descent = Descent::open(q, db, &paths, &mut Stats::default()).expect("open");
    descent.leaf().op_keys().filter(|op| op.guarded).count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn leaf_enumerations_match_chain_and_sma_on_fd_consistent_data(
        seed in any::<u64>(),
        rows in 5usize..40,
        keep in 40u32..100,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        for q in lattice_queries() {
            let db = random_instance(&q, &mut rng, rows, keep);
            let prepared = Engine::new().prepare(&q);
            // Fig. 9 has no SM proof and may have no good chain at this
            // profile; CSMA is then the bound-driven reference.
            let expect = [Algorithm::Chain, Algorithm::Sma, Algorithm::Csma]
                .into_iter()
                .find_map(|alg| match run(&prepared, &db, alg) {
                    Err(JoinError::NoGoodChain | JoinError::NoGoodProof) => None,
                    other => Some(other.expect("a bound-driven algorithm")),
                })
                .expect("CSMA always applies");
            let body = q.display_body();
            prop_assert_eq!(leaf_guard_ops(&q, &db), 0, "uncertified guard on {}", body);
            for alg in [Algorithm::GenericJoin, Algorithm::BinaryJoin] {
                prop_assert_eq!(&run(&prepared, &db, alg).unwrap(), &expect, "{} on {}", alg, body);
            }
            let par = ExecOptions::new().algorithm(Algorithm::GenericJoin).parallelism(2);
            prop_assert_eq!(&prepared.execute(&db, &par).unwrap().output, &expect, "fanned out");
            let streamed = paused_drain(&prepared, &db, &mut rng, 4);
            let expect_rows: Vec<Vec<Value>> = expect.rows().map(<[Value]>::to_vec).collect();
            prop_assert_eq!(streamed, expect_rows, "paused stream on {}", body);
        }
    }
}

/// The triangle with `y → z` guarded in `S`, on data where `S` maps `y = 1`
/// to both `z = 1` and `z = 2`. The guard stays uncertified, so the leaf
/// keeps its check, which accepts only the first value below `y`: every
/// enumeration returns `(0, 1, 1)` and drops `(0, 1, 2)`, as before guard
/// certification.
#[test]
fn a_violated_guard_keeps_its_check() {
    let mut b = Query::builder();
    let (x, y, z) = (b.var("x"), b.var("y"), b.var("z"));
    b.atom("R", &[x, y]).atom("S", &[y, z]).atom("T", &[z, x]);
    b.fd(&[y], &[z]);
    let q = b.build();
    let mut db = Database::new();
    db.insert("R", Relation::from_rows(vec![x, y], [[0, 1]]));
    db.insert("S", Relation::from_rows(vec![y, z], [[1, 1], [1, 2]]));
    db.insert("T", Relation::from_rows(vec![z, x], [[1, 0], [2, 0]]));
    assert_eq!(leaf_guard_ops(&q, &db), 1, "the violated guard is checked");
    let prepared = Engine::new().prepare(&q);
    let expect = Relation::from_rows(vec![0, 1, 2], [[0, 1, 1]]);
    for alg in [
        Algorithm::Chain,
        Algorithm::Sma,
        Algorithm::GenericJoin,
        Algorithm::BinaryJoin,
    ] {
        assert_eq!(run(&prepared, &db, alg).unwrap(), expect, "{alg}");
    }
    let streamed = paused_drain(&prepared, &db, &mut StdRng::seed_from_u64(1), 1);
    assert_eq!(streamed, vec![vec![0, 1, 1]]);
}
