//! Model-based property tests: `Relation` operations against a
//! `BTreeSet<Vec<Value>>` reference model.

use fdjoin_storage::{Relation, Value};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn rows_strategy(arity: usize) -> impl Strategy<Value = Vec<Vec<Value>>> {
    proptest::collection::vec(proptest::collection::vec(0u64..6, arity), 0..40)
}

proptest! {
    #[test]
    fn sort_dedup_matches_set_model(rows in rows_strategy(3)) {
        let model: BTreeSet<Vec<Value>> = rows.iter().cloned().collect();
        let mut rel = Relation::from_rows(vec![0, 1, 2], rows);
        rel.sort_dedup();
        prop_assert_eq!(rel.len(), model.len());
        for (row, expect) in rel.rows().zip(model.iter()) {
            prop_assert_eq!(row, expect.as_slice());
        }
    }

    #[test]
    fn prefix_range_counts_match_model(rows in rows_strategy(3), p0 in 0u64..6, p1 in 0u64..6) {
        let model: BTreeSet<Vec<Value>> = rows.iter().cloned().collect();
        let mut rel = Relation::from_rows(vec![0, 1, 2], rows);
        rel.sort_dedup();
        let c1 = model.iter().filter(|r| r[0] == p0).count();
        prop_assert_eq!(rel.prefix_count(&[p0]), c1);
        let c2 = model.iter().filter(|r| r[0] == p0 && r[1] == p1).count();
        prop_assert_eq!(rel.prefix_count(&[p0, p1]), c2);
        // Ranges really contain exactly the matching rows.
        for i in rel.prefix_range(&[p0]) {
            prop_assert_eq!(rel.row(i)[0], p0);
        }
    }

    #[test]
    fn projection_matches_model(rows in rows_strategy(3)) {
        let model: BTreeSet<Vec<Value>> = rows.iter().cloned().collect();
        let mut rel = Relation::from_rows(vec![0, 1, 2], rows);
        rel.sort_dedup();
        let proj = rel.project(&[2, 0]);
        let expect: BTreeSet<Vec<Value>> =
            model.iter().map(|r| vec![r[2], r[0]]).collect();
        prop_assert_eq!(proj.len(), expect.len());
        for row in proj.rows() {
            prop_assert!(expect.contains(row));
        }
    }

    #[test]
    fn semijoin_matches_model(left in rows_strategy(2), right in rows_strategy(2)) {
        // Shared variable: 1 (left vars [0,1], right vars [1,5]).
        let mut l = Relation::from_rows(vec![0, 1], left.clone());
        l.sort_dedup();
        let mut r = Relation::from_rows(vec![1, 5], right.clone());
        r.sort_dedup();
        let result = l.semijoin(&r);
        let keys: BTreeSet<Value> = right.iter().map(|t| t[0]).collect();
        let expect: BTreeSet<Vec<Value>> = left
            .iter()
            .filter(|t| keys.contains(&t[1]))
            .cloned()
            .collect();
        prop_assert_eq!(result.len(), expect.len());
        for row in result.rows() {
            prop_assert!(expect.contains(row));
        }
    }

    #[test]
    fn degrees_match_model(rows in rows_strategy(2)) {
        let model: BTreeSet<Vec<Value>> = rows.iter().cloned().collect();
        let mut rel = Relation::from_rows(vec![0, 1], rows);
        rel.sort_dedup();
        let mut by_key: std::collections::HashMap<Value, usize> = Default::default();
        for r in &model {
            *by_key.entry(r[0]).or_default() += 1;
        }
        let expect_max = by_key.values().copied().max().unwrap_or(0);
        prop_assert_eq!(rel.max_degree(1), expect_max);
        prop_assert_eq!(rel.distinct_prefixes(1), by_key.len());
        // Group ranges partition the row indices.
        let groups = rel.group_ranges(1);
        let total: usize = groups.iter().map(|g| g.len()).sum();
        prop_assert_eq!(total, rel.len());
    }

    #[test]
    fn select_rows_preserves_membership(rows in rows_strategy(2)) {
        let mut rel = Relation::from_rows(vec![0, 1], rows);
        rel.sort_dedup();
        let half: Vec<usize> = (0..rel.len()).step_by(2).collect();
        let sel = rel.select_rows(half.iter().copied());
        for row in sel.rows() {
            prop_assert!(rel.contains_row(row));
        }
        prop_assert_eq!(sel.len(), half.len());
    }
}
