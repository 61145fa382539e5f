//! Counter identity: the deterministic work of the three bound-driven
//! algorithms and of the Generic-Join baseline, pinned as literals.
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
//!
//! The two `generic_join` rows were printed at `948a67f`, before the
//! descent lost its FD-binding branch and Generic-Join its variable-order
//! option: the one remaining descent path must reproduce them.
//!
//! `fig9/generic_join` was re-printed when the descent's leaf stopped
//! re-running guard lookups that the guard relation's own trie already
//! certifies (rows, intermediates and expansions unchanged): work
//! 5 290 569 → 3 717 705, probes 1 839 177 → 266 313. At a leaf every
//! atom variable holds a row of its atom, so a guard lookup can only fail
//! where the guard relation violates its FD; the instance satisfies all
//! six guarded FDs, and the old value counted six lookups that could not
//! fail at each of its 262 144 leaves. Fig. 1's FDs are all UDFs, so its
//! row did not move.
//!
//! The Fig. 4 stream row was added with that change; at its parent the
//! same drain read `probes=89280 probes_per_row=21.7969`, twelve guard
//! lookups per answer more.
//!
//! The three Generic-Join rows and the stream row were re-printed when the
//! descent's deepest level stopped narrowing its cursors into a level
//! below it (rows, intermediates and expansions unchanged). Nothing read
//! that level — the leaf reads only the binding — so the old values
//! counted one descend per deepest-level atom per answer:
//!
//! - `fig1/generic_join`: work 2 365 430 → 1 580 022, probes
//!   1 576 954 → 791 546 (`u`'s one atom, `T`, at each of 785 408 leaves);
//! - `fig9/generic_join`: work 3 717 705 → 3 455 561, probes
//!   266 313 → 4 169 (one atom at each of 262 144 leaves);
//! - `triangle/generic_join`: work 17 200 → 9 008, probes 13 104 → 4 912,
//!   exactly two descends (`S` and `T`) per answer; the row was printed
//!   at both sides of the change;
//! - the Fig. 4 stream: `probes=40128 probes_per_row=9.7969` →
//!   `probes=31936 probes_per_row=7.7969`, two per answer.
//!
//! The triangle's SMA and CSMA rows and the two degree-bound CSMA rows were
//! printed at `6564c78`, before Chain, SMA and CSMA made their steps' sides
//! through one constructor and SMA's heavy/light split and CSMA's degree
//! buckets through one split; both must leave them as they are.
//!
//! The five CSMA rows were re-printed when the CSM sequence stopped
//! emitting a CC rule for each cardinality pair `(0̂, R_j)` (rows and
//! output unchanged):
//!
//! - `fig1/csma`: work 2 891 768 → 2 888 696, probes 788 992 → 788 989,
//!   intermediate 1 053 690 → 1 050 621;
//! - `fig9/csma`: work 22 353 → 21 774, probes 5 329 → 4 942, intermediate
//!   1 536 → 1 344;
//! - `triangle/Csma`: work 25 890 → 25 376, probes 12 322 → 12 320,
//!   intermediate 9 472 → 8 960;
//! - the degree bound on `x`: work 5 833 → 5 576, probes 2 501 → 2 500,
//!   intermediate 3 328 → 3 072;
//! - the degree bound on `y`: work 3 589 → 3 332, probes 1 793 → 1 792,
//!   intermediate 1 792 → 1 536.
//!
//! The old values counted one pass over each `R_j⁺` that joined
//! `T(0̂) = {()}` with it and rebuilt a table `T(R_j)` the branch state
//! already held. The final pass's lookups moved from bisections to trie
//! fingers in the same change without moving a counter: it counts one
//! probe per input per row either way.

use fdjoin::bigint::rat;
use fdjoin::core::{Algorithm, Engine, ExecOptions, UserDegreeBound};
use fdjoin::instances::{bounded_degree_triangle, fig1_adversarial, normal_worst_case};
use fdjoin::query::{examples, Query};
use fdjoin::storage::Database;
use fdjoin::stream::ResultStream;

/// `Stats::deterministic()` of one cold single-task execution, rendered
/// (or the planning error, for a query the algorithm does not apply to).
fn counters(q: &Query, db: &Database, alg: Algorithm) -> String {
    counters_under(q, db, &ExecOptions::new().algorithm(alg))
}

/// [`counters`] under `opts`, run on one task.
fn counters_under(q: &Query, db: &Database, opts: &ExecOptions) -> String {
    let opts = opts.clone().parallelism(1);
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
    let cases: [(&str, &(Query, Database), Algorithm, &str); 8] = [
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
            "rows=1534 work=2888696 probes=788989 intermediate=1050621 output=1534 expansions=1047552 branches=2 index=0b/0h",
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
            "rows=512 work=21774 probes=4942 intermediate=1344 output=512 expansions=14976 branches=5 index=0b/0h",
        ),
        (
            "fig1/generic_join",
            &fig1,
            Algorithm::GenericJoin,
            "rows=1534 work=1580022 probes=791546 intermediate=0 output=1534 expansions=786942 branches=0 index=0b/0h",
        ),
        (
            "fig9/generic_join",
            &fig9,
            Algorithm::GenericJoin,
            "rows=512 work=3455561 probes=4169 intermediate=0 output=512 expansions=3450880 branches=0 index=0b/0h",
        ),
    ];
    for (name, (q, db), alg, expect) in cases {
        assert_eq!(counters(q, db, alg), expect, "{name}");
    }
}

/// Generic-Join on the FD-free triangle's worst case (256 rows per
/// relation, 4 096 answers): every probe a leapfrog seek or a descend of
/// the search itself, with no leaf check.
#[test]
fn a_triangle_generic_join_counts_the_pinned_work() {
    let q = examples::triangle();
    let db = normal_worst_case(&q, &vec![rat(8, 1); 3], &rat(12, 1))
        .expect("even exponent gives integral coefficients");
    assert_eq!(
        counters(&q, &db, Algorithm::GenericJoin),
        "rows=4096 work=9008 probes=4912 intermediate=0 output=4096 expansions=0 branches=0 index=0b/0h",
        "triangle/generic_join"
    );
}

/// SMA and CSMA on the same triangle: every proof step a join of a table
/// with one guarded side, SMA's split heavy/light and CSMA's by
/// `⌊log₂ degree⌋`.
#[test]
fn a_triangle_sma_and_csma_count_the_pinned_work() {
    let q = examples::triangle();
    let db = normal_worst_case(&q, &vec![rat(8, 1); 3], &rat(12, 1))
        .expect("even exponent gives integral coefficients");
    for (alg, expect) in [
        (
            Algorithm::Sma,
            "rows=4096 work=21521 probes=12561 intermediate=4864 output=4096 expansions=0 branches=2 index=0b/0h",
        ),
        (
            Algorithm::Csma,
            "rows=4096 work=25376 probes=12320 intermediate=8960 output=4096 expansions=0 branches=1 index=0b/0h",
        ),
    ] {
        assert_eq!(counters(&q, &db, alg), expect, "triangle/{alg:?}");
    }
}

/// CSMA under degree bounds the data satisfies: `R(x, y)` has four `y`
/// per `x` and one `x` per `y`. The bound's pair is guarded by `R`'s trie
/// ordered conditioning-first: `[x, y]` for the bound on `x` (the atom's
/// own order), `[y, x]` for the one on `y`.
#[test]
fn csma_under_a_satisfied_degree_bound_counts_the_pinned_work() {
    let q = examples::triangle();
    let db = bounded_degree_triangle(256, 4);
    assert_eq!(db.relation("R").unwrap().max_degree(1), 4);
    for (var, max_degree, expect) in [
        (
            "x",
            4,
            "rows=4 work=5576 probes=2500 intermediate=3072 output=4 expansions=0 branches=2 index=0b/0h",
        ),
        (
            "y",
            1,
            "rows=4 work=3332 probes=1792 intermediate=1536 output=4 expansions=0 branches=2 index=0b/0h",
        ),
    ] {
        let opts = ExecOptions::new()
            .algorithm(Algorithm::Csma)
            .degree_bound(UserDegreeBound {
                atom: 0,
                on: vec![q.var_id(var).unwrap()],
                max_degree,
            });
        assert_eq!(counters_under(&q, &db, &opts), expect, "bound on {var}");
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

/// A full drain of a `ResultStream` over Fig. 4's worst case (512 rows per
/// atom), rendered with its probes per delivered row: the per-row cost of
/// the descent's leaf, which the paging workload pays on every row.
#[test]
fn a_fig4_stream_counts_the_pinned_probes_per_row() {
    let q = examples::fig4_query();
    let db = normal_worst_case(&q, &vec![rat(9, 1); 4], &rat(12, 1))
        .expect("exponents divisible by 3 give integral coefficients");
    let prepared = Engine::new().prepare(&q);
    let mut stream = ResultStream::open(&prepared, &db).unwrap();
    let rows = stream.count();
    let probes = stream.stats().probes;
    let line = format!(
        "rows={rows} probes={probes} probes_per_row={:.4}",
        probes as f64 / rows as f64
    );
    assert_eq!(line, "rows=4096 probes=31936 probes_per_row=7.7969");
}
