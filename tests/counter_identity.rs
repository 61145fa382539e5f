//! Counter identity: the deterministic work of the three bound-driven
//! algorithms, pinned as literals.
//!
//! Chain, SMA and CSMA all open with "replace each input by its expansion
//! `R_j⁺`" (Sec. 2). Who owns that step may move — it has, into
//! `Expander::input` — but what it counts may not: a restructuring of the
//! expansion preamble, of the derived-trie keys or of the extend kernel must
//! reproduce these strings character for character. The literals were
//! printed by the commit *before* the `Expander` took ownership of the
//! expanded inputs (`94a3087`, one private expand-inputs loop per driver).
//!
//! Three of them were re-printed when SMA's and CSMA's final pass stopped
//! re-running the verify list on rows a fused program had already verified
//! (rows, intermediates and output unchanged):
//!
//! - `fig1/sma`: work 18 414 → 15 346, expansions 6 136 → 3 068;
//! - `fig1/csma`: work 2 894 836 → 2 891 768, expansions
//!   1 050 620 → 1 047 552;
//! - `fig9/csma`: work 39 249 → 22 353, probes 8 401 → 5 329, expansions
//!   28 800 → 14 976.
//!
//! The old values counted each output row's FD checks twice: once in the
//! fused program of the join that built `T(1̂)`, once more in the final
//! pass — on Fig. 1, 1 534 rows × 2 UDF checks; on Fig. 9, 512 rows × 27
//! distinct UDF checks and × 6 guard checks.

use fdjoin::bigint::rat;
use fdjoin::core::{Algorithm, Engine, ExecOptions};
use fdjoin::instances::{fig1_adversarial, normal_worst_case};
use fdjoin::query::{examples, Query};
use fdjoin::storage::Database;

/// `Stats::deterministic()` of one cold single-task execution, rendered
/// (or the planning error, for a query the algorithm does not apply to).
fn counters(q: &Query, db: &Database, alg: Algorithm) -> String {
    let opts = ExecOptions::new().algorithm(alg).parallelism(1);
    match Engine::new().prepare(q).execute(db, &opts) {
        Ok(r) => format!("rows={} {}", r.output.len(), r.stats.deterministic()),
        Err(e) => format!("error: {e}"),
    }
}

#[test]
fn bound_driven_algorithms_count_the_pinned_work() {
    let fig1 = (examples::fig1_udf(), fig1_adversarial(1 << 10));
    let fig9_query = examples::fig9_query();
    let fig9_db = normal_worst_case(&fig9_query, &vec![rat(6, 1); 3], &rat(9, 1))
        .expect("even exponent gives integral coefficients");
    let fig9 = (fig9_query, fig9_db);
    let cases: [(&str, &(Query, Database), Algorithm, &str); 6] = [
        (
            "fig1/chain",
            &fig1,
            Algorithm::Chain,
            "rows=1534 work=16881 probes=6141 intermediate=6138 output=1534 expansions=3068 branches=0 index=0b/0h",
        ),
        (
            "fig1/sma",
            &fig1,
            Algorithm::Sma,
            "rows=1534 work=15346 probes=6140 intermediate=4604 output=1534 expansions=3068 branches=2 index=0b/0h",
        ),
        (
            "fig1/csma",
            &fig1,
            Algorithm::Csma,
            "rows=1534 work=2891768 probes=788992 intermediate=1053690 output=1534 expansions=1047552 branches=2 index=0b/0h",
        ),
        (
            "fig9/chain",
            &fig9,
            Algorithm::Chain,
            "rows=512 work=91593 probes=25671 intermediate=834 output=512 expansions=64576 branches=0 index=0b/0h",
        ),
        (
            "fig9/sma",
            &fig9,
            Algorithm::Sma,
            "error: no good SM-proof sequence exists; fall back to CSMA",
        ),
        (
            "fig9/csma",
            &fig9,
            Algorithm::Csma,
            "rows=512 work=22353 probes=5329 intermediate=1536 output=512 expansions=14976 branches=5 index=0b/0h",
        ),
    ];
    for (name, (q, db), alg, expect) in cases {
        assert_eq!(counters(q, db, alg), expect, "{name}");
    }
}

/// A warm execution — plans and tries cached by the first — counts exactly
/// what the cold one did. Serving checks every request's counters against
/// the first run's, so work skipped only when a cache is warm (say, not
/// expanding `R_j⁺` because every trie over it hits) would break it.
#[test]
fn warm_executions_repeat_the_cold_counters() {
    let q = examples::fig1_udf();
    let db = fig1_adversarial(1 << 8);
    for alg in [Algorithm::Chain, Algorithm::Sma, Algorithm::Csma] {
        let opts = ExecOptions::new().algorithm(alg).parallelism(1);
        let prepared = Engine::new().prepare(&q);
        let cold = prepared.execute(&db, &opts).unwrap();
        let warm = prepared.execute(&db, &opts).unwrap();
        assert!(cold.stats.index_builds > 0, "{alg:?}: the first run builds");
        assert_eq!(warm.stats.index_builds, 0, "{alg:?}: the second only hits");
        assert_eq!(
            warm.stats.deterministic(),
            cold.stats.deterministic(),
            "{alg:?}"
        );
        assert_eq!(warm.output, cold.output, "{alg:?}");
    }
}
