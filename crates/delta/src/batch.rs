//! Per-relation tuple deltas.

use fdjoin_storage::Value;
use std::collections::BTreeMap;

/// Pending changes for one relation: rows to insert and rows to delete, in
/// that relation's stored column order. Within one [`DeltaBatch`] deletes
/// apply before inserts, so a row present in both lists is present after
/// the batch.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RelationDelta {
    /// Rows to add.
    pub inserts: Vec<Vec<Value>>,
    /// Rows to remove.
    pub deletes: Vec<Vec<Value>>,
}

impl RelationDelta {
    /// Total rows named by this delta (inserts + deletes).
    pub fn rows(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }

    /// Whether the delta names no rows.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }
}

/// A batch of tuple inserts/deletes across relations — the unit of
/// incremental maintenance consumed by
/// [`MaterializedView::apply_delta`](crate::MaterializedView::apply_delta).
///
/// Relations are keyed by name in a `BTreeMap`, so iteration (and hence
/// the order of the per-relation `Δ⁺` joins) is deterministic.
///
/// ```
/// use fdjoin_delta::DeltaBatch;
/// let delta = DeltaBatch::new()
///     .insert("R", [1, 2])
///     .insert("R", [3, 4])
///     .delete("S", [2, 3]);
/// assert_eq!(delta.rows(), 3);
/// assert_eq!(delta.get("R").unwrap().inserts.len(), 2);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeltaBatch {
    ops: BTreeMap<String, RelationDelta>,
}

impl DeltaBatch {
    /// An empty batch.
    pub fn new() -> DeltaBatch {
        DeltaBatch::default()
    }

    /// Builder-style: add one row to insert into `relation`.
    pub fn insert(mut self, relation: impl Into<String>, row: impl Into<Vec<Value>>) -> Self {
        self.push_insert(relation, row);
        self
    }

    /// Builder-style: add one row to delete from `relation`.
    pub fn delete(mut self, relation: impl Into<String>, row: impl Into<Vec<Value>>) -> Self {
        self.push_delete(relation, row);
        self
    }

    /// Statement-style [`DeltaBatch::insert`], for loops.
    pub fn push_insert(&mut self, relation: impl Into<String>, row: impl Into<Vec<Value>>) {
        self.ops
            .entry(relation.into())
            .or_default()
            .inserts
            .push(row.into());
    }

    /// Statement-style [`DeltaBatch::delete`], for loops.
    pub fn push_delete(&mut self, relation: impl Into<String>, row: impl Into<Vec<Value>>) {
        self.ops
            .entry(relation.into())
            .or_default()
            .deletes
            .push(row.into());
    }

    /// The delta for one relation, if any.
    pub fn get(&self, relation: &str) -> Option<&RelationDelta> {
        self.ops.get(relation)
    }

    /// Iterate `(relation name, delta)` pairs in name order.
    pub fn relations(&self) -> impl Iterator<Item = (&str, &RelationDelta)> {
        self.ops.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Total rows named across all relations.
    pub fn rows(&self) -> usize {
        self.ops.values().map(RelationDelta::rows).sum()
    }

    /// Whether the batch names no rows at all.
    pub fn is_empty(&self) -> bool {
        self.ops.values().all(RelationDelta::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_accumulate_per_relation() {
        let mut b = DeltaBatch::new();
        b.push_insert("R", vec![1, 2]);
        b.push_delete("R", vec![3, 4]);
        b.push_insert("S", vec![5]);
        assert_eq!(b.rows(), 3);
        assert!(!b.is_empty());
        let names: Vec<&str> = b.relations().map(|(n, _)| n).collect();
        assert_eq!(names, ["R", "S"], "name order is deterministic");
        assert_eq!(b.get("R").unwrap().deletes, vec![vec![3, 4]]);
        assert!(b.get("T").is_none());
    }

    #[test]
    fn empty_batches_report_empty() {
        assert!(DeltaBatch::new().is_empty());
        assert_eq!(DeltaBatch::new().rows(), 0);
    }
}
