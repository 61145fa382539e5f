//! Differential testing of the statistics layer: the `RelationStats` a
//! relation caches and carries across `apply_delta` calls must stay
//! *exactly* equal to a from-scratch recomputation — and to brute-force
//! counts over the rows — under arbitrary random insert/delete sequences,
//! including skewed ones whose deltas keep shrinking the sole group at a
//! maximum (the case a carry cannot settle and recounts instead), and
//! batches at the edges of the rows and groups, where the positions a carry
//! measures its groups from sit at row 0, past the last row, or in a group
//! that appears or vanishes.

use fdjoin_storage::{Relation, RelationStats, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn rows_strategy(arity: usize, max: usize) -> impl Strategy<Value = Vec<Vec<Value>>> {
    proptest::collection::vec(proptest::collection::vec(0u64..5, arity), 0..max)
}

/// Rows where the hub prefix `x = 0` holds most of the mass (x is drawn
/// from `0..8` and folded onto 0 below 5), so deltas keep landing in the
/// one group at the maximum degree and branch.
fn skewed_rows(max: usize) -> impl Strategy<Value = Vec<Vec<Value>>> {
    proptest::collection::vec((0u64..8, 0u64..4, 0u64..4), 0..max).prop_map(|rows| {
        rows.into_iter()
            .map(|(x, y, z)| vec![if x < 5 { 0 } else { x }, y, z])
            .collect()
    })
}

/// Whether some level's maximum degree or fan-out went down — exactly when
/// a carry must fall back to a recount: the old maximum's groups all shrank.
fn some_max_fell(old: &RelationStats, new: &RelationStats) -> bool {
    (1..=old.arity()).any(|len| new.max_degree(len) < old.max_degree(len))
        || (0..old.arity()).any(|from| new.max_branch(from) < old.max_branch(from))
}

/// Brute-force statistics straight off the `Relation` group primitives.
fn brute_check(rel: &Relation, stats: &RelationStats) {
    let a = rel.arity();
    assert_eq!(stats.cardinality(), rel.len() as u64);
    assert_eq!(stats.arity(), a);
    for len in 0..=a {
        assert_eq!(
            stats.distinct_prefixes(len),
            if len == 0 {
                (!rel.is_empty()) as u64
            } else {
                rel.distinct_prefixes(len) as u64
            },
            "distinct prefixes of length {len}"
        );
        assert_eq!(
            stats.max_degree(len),
            rel.max_degree(len) as u64,
            "max degree at prefix length {len}"
        );
    }
    for from in 0..a {
        // Brute-force fan-out: within each `from`-prefix group, count the
        // distinct `(from+1)`-prefixes.
        let expect = rel
            .group_ranges(from)
            .into_iter()
            .map(|g| {
                let mut kids = 0u64;
                let mut last: Option<&[Value]> = None;
                for i in g {
                    let child = &rel.row(i)[..from + 1];
                    if last != Some(child) {
                        kids += 1;
                    }
                    last = Some(child);
                }
                kids
            })
            .max()
            .unwrap_or(0);
        assert_eq!(
            stats.max_branch(from),
            expect,
            "max branch from depth {from}"
        );
    }
}

/// One batch aimed where a carry must find its groups right, on a
/// relation whose stored first values are even and at least 2: `kind` 0
/// deletes row 0 and inserts a row before it, 1 deletes the last row and
/// inserts one past it, 2 deletes the whole root group of row `pick`, 3
/// inserts two rows under an odd (new, unless an earlier batch made it)
/// root value, and 4 deletes every third row of the heaviest root group
/// and inserts two rows into it. `(y, z)` are the inserted rows' last two
/// values.
fn edge_batch(
    rel: &Relation,
    kind: usize,
    pick: usize,
    (y, z): (Value, Value),
) -> (Vec<Vec<Value>>, Vec<Vec<Value>>) {
    let n = rel.len();
    let row = |i: usize| rel.row(i).to_vec();
    let groups = rel.group_ranges(1);
    let group = |g: Option<&std::ops::Range<usize>>| g.cloned().unwrap_or(0..0);
    match kind {
        0 => (vec![vec![0, y, z]], (0..n.min(1)).map(row).collect()),
        1 => (
            vec![vec![99, y, z]],
            (n.saturating_sub(1)..n).map(row).collect(),
        ),
        2 => (
            Vec::new(),
            group(groups.get(pick % groups.len().max(1)))
                .map(row)
                .collect(),
        ),
        3 => {
            let x = 2 * (pick as Value % 10) + 1;
            (vec![vec![x, y, z], vec![x, z, y]], Vec::new())
        }
        _ => {
            let heavy = group(groups.iter().max_by_key(|g| g.len()));
            let x = heavy.clone().next().map_or(2, |i| rel.row(i)[0]);
            let deletes = heavy.step_by(3).map(row).collect();
            (vec![vec![x, y, z], vec![x, z, y + 1]], deletes)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Batches at the edges of the rows and of the groups — row 0, the
    /// last row, a whole root group, a new root group, the heaviest group
    /// — on skewed relations: the statistics after every batch equal a
    /// from-scratch pass.
    #[test]
    fn stats_stay_exact_under_deltas_at_the_edges(
        initial in skewed_rows(40),
        batches in proptest::collection::vec(
            (0usize..5, 0usize..64, (0u64..4, 0u64..4)),
            1..10,
        ),
    ) {
        let shifted = initial.into_iter().map(|r| vec![2 * r[0] + 2, r[1], r[2]]);
        let mut rel = Relation::from_rows(vec![0, 1, 2], shifted);
        rel.sort_dedup();
        for (kind, pick, yz) in batches {
            rel.stats();
            let (inserts, deletes) = edge_batch(&rel, kind, pick, yz);
            rel.apply_delta(&inserts, &deletes);
            let maintained = rel.stats().expect("sorted after apply_delta").clone();
            prop_assert_eq!(&maintained, &RelationStats::of(&rel), "batch kind {}", kind);
            brute_check(&rel, &maintained);
        }
    }
}

proptest! {
    #[test]
    fn stats_stay_exact_under_delta_sequences(
        initial in rows_strategy(3, 40),
        deltas in proptest::collection::vec(
            (rows_strategy(3, 8), rows_strategy(3, 8)),
            1..8,
        ),
    ) {
        let mut rel = Relation::from_rows(vec![0, 1, 2], initial);
        rel.sort_dedup();
        for (inserts, deletes) in deltas {
            rel.apply_delta(inserts, deletes);
            let maintained = rel.stats().expect("sorted after apply_delta").clone();
            // Differential 1: from-scratch accumulation over the same rows.
            prop_assert_eq!(&maintained, &RelationStats::of(&rel));
            // Differential 2: a rebuilt relation (fresh sort path).
            let rebuilt = {
                let mut r = Relation::new(vec![0, 1, 2]);
                for row in rel.rows() {
                    r.push_row(row);
                }
                r.sort_dedup();
                r
            };
            prop_assert_eq!(&maintained, rebuilt.stats().unwrap());
            // Differential 3: brute-force counts off the group primitives.
            brute_check(&rel, &maintained);
        }
    }

    #[test]
    fn stats_stay_exact_under_skewed_deltas(
        initial in skewed_rows(40),
        deltas in proptest::collection::vec((skewed_rows(6), skewed_rows(10)), 1..8),
    ) {
        let mut rel = Relation::from_rows(vec![0, 1, 2], initial);
        rel.sort_dedup();
        for (inserts, deletes) in deltas {
            rel.stats();
            rel.apply_delta(inserts, deletes);
            let maintained = rel.stats().expect("sorted after apply_delta").clone();
            prop_assert_eq!(&maintained, &RelationStats::of(&rel));
            brute_check(&rel, &maintained);
        }
    }

    #[test]
    fn sort_path_and_delta_path_agree(rows in rows_strategy(2, 30)) {
        // Loading rows via push_row + sort_dedup and via apply_delta
        // inserts must produce identical statistics.
        let mut sorted = Relation::from_rows(vec![0, 1], rows.clone());
        sorted.sort_dedup();
        let mut delta = Relation::new(vec![0, 1]);
        let none: [&[Value]; 0] = [];
        delta.apply_delta(rows, none);
        prop_assert_eq!(sorted.stats().unwrap(), delta.stats().unwrap());
        prop_assert_eq!(&sorted, &delta);
    }

    #[test]
    fn skew_bounds_hold(rows in rows_strategy(2, 30)) {
        let mut rel = Relation::from_rows(vec![0, 1], rows);
        rel.sort_dedup();
        let s = rel.stats().unwrap();
        // Skew is ≥ 1 by definition (max ≥ avg) and max_degree ≤ n.
        prop_assert!(s.max_skew() >= 1.0 - 1e-9);
        for len in 1..=2usize {
            prop_assert!(s.max_degree(len) <= s.cardinality());
            prop_assert!(s.skew(len) >= 1.0 - 1e-9);
        }
    }
}

/// Deterministic companion of `stats_stay_exact_under_skewed_deltas`: a
/// hub relation churned by deltas aimed mostly at the hub. The recount
/// fallback provably runs (some maximum falls), and the statistics read
/// after every delta — carried or recounted — equal a from-scratch pass.
#[test]
fn skewed_deltas_exercise_the_recount() {
    let mut rng = StdRng::seed_from_u64(25);
    let draw = |rng: &mut StdRng| -> Vec<Value> {
        let x = if rng.gen_range(0..4) == 0 {
            rng.gen_range(1..16)
        } else {
            0
        };
        vec![x, rng.gen_range(0..6), rng.gen_range(0..6)]
    };
    let mut rel = Relation::from_rows(vec![0, 1, 2], (0..200).map(|_| draw(&mut rng)));
    rel.sort_dedup();
    let mut recounts = 0;
    for _ in 0..300 {
        let before = rel.stats().expect("sorted").clone();
        let inserts: Vec<Vec<Value>> = (0..rng.gen_range(0..4)).map(|_| draw(&mut rng)).collect();
        let deletes: Vec<Vec<Value>> = (0..rng.gen_range(0..4).min(rel.len()))
            .map(|_| rel.row(rng.gen_range(0..rel.len())).to_vec())
            .collect();
        rel.apply_delta(&inserts, &deletes);
        let after = rel.stats().expect("sorted").clone();
        assert_eq!(after, RelationStats::of(&rel));
        recounts += usize::from(some_max_fell(&before, &after));
    }
    assert!(
        recounts > 0,
        "no delta shrank a maximum; the recount never ran"
    );
}
