//! Invariants of the order-aware, lazily versioned `Relation`: sortedness
//! tracked per append and per concatenation seam is *exact*, every way of
//! assembling rows agrees with collect → sort → dedup, lazy statistics equal
//! the from-scratch ones, and versions identify content.

use fdjoin_storage::{IndexSet, Relation, RelationStats, Value};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Barrier;

type Rows = Vec<Vec<Value>>;

const VARS: [u32; 2] = [0, 1];

/// Random rows arranged as drawn, ascending with duplicates, strictly
/// ascending, or descending.
fn rows_strategy() -> impl Strategy<Value = Rows> {
    let rows = proptest::collection::vec(proptest::collection::vec(0u64..6, 2), 0..40);
    (rows, 0u8..4).prop_map(|(mut rows, shape)| {
        match shape {
            0 => {}
            1 => rows.sort(),
            2 => rows = reference(&rows),
            _ => {
                rows.sort();
                rows.reverse();
            }
        }
        rows
    })
}

fn reference(rows: &Rows) -> Rows {
    let mut r = rows.clone();
    r.sort();
    r.dedup();
    r
}

fn strictly_increasing(rows: &Rows) -> bool {
    rows.windows(2).all(|w| w[0] < w[1])
}

fn rows_of(rel: &Relation) -> Rows {
    rel.rows().map(<[Value]>::to_vec).collect()
}

/// `rows` cut into consecutive fragments at the given seams (taken modulo
/// the length; repeated seams give empty fragments).
fn fragments(rows: &Rows, seams: &[usize]) -> Vec<Relation> {
    let mut cuts: Vec<usize> = seams.iter().map(|s| s % (rows.len() + 1)).collect();
    cuts.sort_unstable();
    cuts.push(rows.len());
    let mut start = 0;
    cuts.into_iter()
        .map(|end| {
            let part = Relation::from_rows(VARS.to_vec(), &rows[start..end]);
            start = end;
            part
        })
        .collect()
}

/// Records `rel`'s version against its row set and fails if the version was
/// seen with other rows.
fn observe(seen: &mut HashMap<u64, Rows>, rel: &Relation) -> Result<(), proptest::TestCaseError> {
    let rows = reference(&rows_of(rel));
    let known = seen.entry(rel.version()).or_insert_with(|| rows.clone());
    prop_assert_eq!(&*known, &rows, "one version, two row sets");
    Ok(())
}

proptest! {
    #[test]
    fn every_assembly_agrees_with_sort_and_dedup(
        rows in rows_strategy(),
        seams in proptest::collection::vec(0usize..64, 0..5),
    ) {
        let increasing = strictly_increasing(&rows);
        let canonical = reference(&rows);

        let appended = Relation::from_rows(VARS.to_vec(), &rows);
        let merged = Relation::concat(fragments(&rows, &seams));
        for mut rel in [appended.clone(), merged] {
            // As assembled: the rows in the order given, sortedness exact.
            prop_assert_eq!(rows_of(&rel), rows);
            prop_assert_eq!(rel.is_sorted(), increasing);
            prop_assert_eq!(rel.stats().is_some(), increasing);
            prop_assert_eq!(&rel, &appended);
            // Canonicalized: the reference, with statistics to match.
            rel.sort_dedup();
            prop_assert!(rel.is_sorted());
            prop_assert_eq!(rows_of(&rel), canonical);
            prop_assert_eq!(rel.stats(), Some(&RelationStats::of(&rel)));
            // A relation appended in order is its own canonical form.
            prop_assert_eq!(rel == appended, increasing);
        }
    }

    #[test]
    fn statistics_follow_every_mutation(rows in rows_strategy(), extra in rows_strategy()) {
        let mut rel = Relation::from_rows(VARS.to_vec(), reference(&rows));
        for row in &extra {
            // Read (and so cache) before each mutation: a stale cache would
            // survive into the next read.
            prop_assert_eq!(rel.stats().is_some(), rel.is_sorted());
            rel.push_row(row);
        }
        rel.sort_dedup();
        prop_assert_eq!(rel.stats(), Some(&RelationStats::of(&rel)));
        let none: [&[Value]; 0] = [];
        rel.apply_delta(none, rows_of(&rel));
        prop_assert!(rel.is_empty());
        prop_assert_eq!(rel.stats(), Some(&RelationStats::of(&rel)));
    }

    #[test]
    fn versions_identify_content(rows in rows_strategy(), extra in proptest::collection::vec(0u64..6, 2)) {
        let mut seen = HashMap::new();
        let set = IndexSet::new();
        let mut a = Relation::from_rows(VARS.to_vec(), &rows);
        let v = a.version();
        observe(&mut seen, &a)?;
        prop_assert!(set.index_of("R", &a, &VARS).1, "first build");

        // A clone shares the version, and the cached index with it.
        let mut b = a.clone();
        prop_assert_eq!(b.version(), v);
        prop_assert!(!set.index_of("R", &b, &VARS).1, "clone hits");

        // Canonicalizing keeps the row set, hence the version.
        b.sort_dedup();
        prop_assert_eq!(b.version(), v);

        // Mutating the clone moves only the clone, and the cache misses.
        b.push_row(&extra);
        prop_assert!(b.version() != v);
        prop_assert_eq!(a.version(), v);
        observe(&mut seen, &b)?;
        prop_assert!(set.index_of("R", &b, &VARS).1, "mutated clone misses");

        // Mutating the original moves only the original.
        let c = a.clone();
        a.push_row(&extra);
        prop_assert!(a.version() != v);
        prop_assert_eq!(c.version(), v);
        observe(&mut seen, &a)?;
        observe(&mut seen, &c)?;

        // Deltas: a change moves the version, a no-op does not.
        let mut d = c.clone();
        let none: [&[Value]; 0] = [];
        let changed = d.apply_delta([&extra], none).changed() > 0;
        prop_assert_eq!(d.version() != v, changed);
        observe(&mut seen, &d)?;
        let before = d.version();
        d.apply_delta([&extra], none);
        prop_assert_eq!(d.version(), before);

        // A merge is new content under a version of its own.
        let merged = Relation::concat(vec![c.clone(), b.clone()]);
        prop_assert!(merged.version() != c.version());
        prop_assert!(merged.version() != b.version());
        observe(&mut seen, &merged)?;
    }
}

#[test]
fn concurrent_first_reads_agree_on_one_version() {
    const THREADS: usize = 8;
    for round in 0..200u64 {
        // Fresh and never observed: all eight reads race to assign.
        let rel = Relation::from_rows(VARS.to_vec(), [[round, 1], [round, 2]]);
        let barrier = Barrier::new(THREADS);
        let versions: Vec<u64> = std::thread::scope(|s| {
            let readers: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        rel.version()
                    })
                })
                .collect();
            readers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert!(versions.iter().all(|&v| v == versions[0]), "{versions:?}");
        assert_eq!(rel.version(), versions[0]);
    }
}

#[test]
fn nullary_fragments_track_duplicates() {
    let unit = Relation::nullary_unit;
    let empty = || Relation::new(Vec::new());
    let one = Relation::concat(vec![empty(), unit(), empty()]);
    assert!(one.is_sorted());
    assert_eq!(one.len(), 1);
    let mut two = Relation::concat(vec![unit(), unit()]);
    assert!(!two.is_sorted(), "() twice is a duplicate");
    two.sort_dedup();
    assert_eq!(two, Relation::nullary_unit());
}
