//! The extend kernel: the one probe-and-extend loop behind every join step
//! of the bound-driven algorithms and the binary-join baseline.
//!
//! Each step of a bound proof is the same physical operation — join a
//! table with guard relations on a shared prefix, expand the candidate to
//! a closure, verify — so the loop is written once, here. Algorithm 1's
//! level step (Sec. 5.1) is the general case: several relations cover the
//! step, and per left tuple the smallest extension set is the one
//! iterated (the `argmin_j` that carries Theorem 5.7). The SM-join of
//! Algorithm 2 (Sec. 5.2), CSMA's CC / SM rules (Sec. 5.3.3) and a
//! left-deep binary join are the same loop with one relation on the
//! right. The drivers only decide *which* tables meet.

use crate::expand::{assemble, project, Program};
use crate::par::{for_blocks, merge, ParCtx};
use crate::Stats;
use fdjoin_storage::{Relation, TrieIndex, Value};

/// One right-hand side of an [`extend`] step.
pub(crate) struct Side<'a> {
    /// The relation to extend through, indexed with the variables it
    /// shares with the left side first.
    pub trie: &'a TrieIndex,
    /// Positions in the left relation of `trie`'s leading key columns.
    pub key_cols: Vec<usize>,
    /// What a candidate extended through this side runs: compiled for the
    /// bound set `vars(left) ∪ vars(trie)`.
    pub program: Program,
}

/// Extend every row of `left` through `sides` into a relation over
/// `out_vars` (`nv` is the query's variable count).
///
/// Per left row: probe the sides on their key columns — all of them when
/// `argmin`, else only the first — and pick the one with the fewest
/// matches (the first wins ties); an empty pick yields nothing. Each row
/// in the picked range is assembled with the left row into a candidate,
/// run through the picked side's program, checked for membership in every
/// *other* side (one full-depth descent each), projected onto `out_vars`
/// and pushed.
///
/// Counts one [`Stats::probes`] per side probed or checked and one
/// [`Stats::intermediate_tuples`] per row pushed. Per-row work is
/// independent (the tries are read-only), so the step fans out over
/// contiguous blocks of `left` rows; fragments merge in block order into
/// the canonical relation of the sequential run, so output and counters
/// are identical at any parallelism.
pub(crate) fn extend(
    par: &ParCtx,
    left: &Relation,
    sides: &[Side<'_>],
    argmin: bool,
    out_vars: &[u32],
    nv: usize,
    stats: &mut Stats,
) -> Relation {
    let left_set = left.var_set();
    let probed = if argmin { sides } else { &sides[..1] };
    let parts = for_blocks(par, left.len(), None, stats, |rows, stats| {
        let mut part = Relation::new(out_vars.to_vec());
        let mut vals = vec![0 as Value; nv];
        let mut args = Vec::new();
        let mut buf = vec![0 as Value; out_vars.len()];
        for t in rows.map(|ri| left.row(ri)) {
            // Each lookup descends the side's trie through the key values
            // straight out of `t` (no key vector).
            let (mut pick, mut range) = (0, 0..0);
            for (si, side) in probed.iter().enumerate() {
                stats.probes += 1;
                let mut probe = side.trie.probe();
                let hit = side.key_cols.iter().all(|&c| probe.descend(t[c]));
                let found = if hit { probe.range() } else { 0..0 };
                if si == 0 || found.len() < range.len() {
                    (pick, range) = (si, found);
                }
            }
            if range.is_empty() {
                continue;
            }
            let picked = &sides[pick];
            let mut matches = picked.trie.walk(range);
            'ext: while let Some(ext) = matches.next() {
                if !assemble(&mut vals, left.vars(), left_set, t, picked.trie.vars(), ext)
                    || !picked.program.run(&mut vals, &mut args, stats)
                {
                    continue;
                }
                for (si, other) in sides.iter().enumerate() {
                    if si == pick {
                        continue;
                    }
                    stats.probes += 1;
                    let mut probe = other.trie.probe();
                    let vars = other.trie.vars();
                    if !vars.iter().all(|&v| probe.descend(vals[v as usize])) {
                        continue 'ext;
                    }
                }
                project(&vals, out_vars, &mut buf);
                part.push_row(&buf);
                stats.intermediate_tuples += 1;
            }
        }
        part
    });
    merge(parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccessPaths, Expander};
    use fdjoin_lattice::VarSet;
    use fdjoin_obs::Observer;
    use fdjoin_storage::{Database, IndexSet};

    /// The program that accepts every candidate untouched.
    fn accept_all() -> Program {
        let q = fdjoin_query::examples::triangle();
        let mut db = Database::new();
        for a in q.atoms() {
            db.insert(&a.name, Relation::new(a.vars.clone()));
        }
        let set = IndexSet::new();
        let paths = AccessPaths::new(&set, &q, &db).unwrap();
        let ex = Expander::new(&q, &db, &paths, &mut Stats::default()).unwrap();
        ex.compile_fused(VarSet::EMPTY, VarSet::EMPTY).unwrap()
    }

    /// `left(x)` extended to `(x, y)` through tries over `(x, y)`.
    fn run(par: &ParCtx, left: &Relation, tries: &[&TrieIndex], argmin: bool) -> (Relation, Stats) {
        let sides: Vec<Side<'_>> = tries
            .iter()
            .map(|&trie| Side {
                trie,
                key_cols: vec![0],
                program: accept_all(),
            })
            .collect();
        let mut stats = Stats::default();
        let out = extend(par, left, &sides, argmin, &[0, 1], 2, &mut stats);
        (out, stats)
    }

    fn trie<const N: usize>(rows: [[Value; 2]; N]) -> TrieIndex {
        TrieIndex::build(&Relation::from_rows(vec![0, 1], rows), &[0, 1])
    }

    #[test]
    fn argmin_extends_through_the_smaller_side() {
        let left = Relation::from_rows(vec![0], [[7]]);
        let (wide, narrow) = (trie([[7, 1], [7, 2], [7, 3]]), trie([[7, 2]]));
        let seq = ParCtx::sequential();
        // Both sides probed, one candidate from `narrow` checked in `wide`.
        let (with, s) = run(&seq, &left, &[&wide, &narrow], true);
        assert_eq!((s.probes, s.intermediate_tuples), (3, 1));
        // Only `wide` probed, each of its three candidates checked in
        // `narrow`.
        let (without, s) = run(&seq, &left, &[&wide, &narrow], false);
        assert_eq!((s.probes, s.intermediate_tuples), (4, 1));
        assert_eq!(with, without);
        assert_eq!(with, Relation::from_rows(vec![0, 1], [[7, 2]]));
    }

    #[test]
    fn candidate_absent_from_another_side_is_dropped() {
        let left = Relation::from_rows(vec![0], [[7]]);
        let (picked, other) = (trie([[7, 1]]), trie([[7, 2], [7, 3]]));
        let (out, s) = run(&ParCtx::sequential(), &left, &[&picked, &other], true);
        assert!(out.is_empty());
        assert_eq!((s.probes, s.intermediate_tuples), (3, 0));
    }

    #[test]
    fn empty_pick_yields_nothing_and_still_counts_its_probes() {
        let left = Relation::from_rows(vec![0], [[7], [8]]);
        let (a, b) = (trie([[7, 1], [8, 1]]), trie([[7, 1]]));
        // x = 8 has no match in `b`: two pick probes, nothing walked.
        let (out, s) = run(&ParCtx::sequential(), &left, &[&a, &b], true);
        assert_eq!(out, Relation::from_rows(vec![0, 1], [[7, 1]]));
        assert_eq!((s.probes, s.intermediate_tuples), (2 + 1 + 2, 1));
    }

    #[test]
    fn fan_out_changes_neither_output_nor_counters() {
        let left = Relation::from_rows(vec![0], (0..100).map(|x| [x]));
        let a = TrieIndex::build(
            &Relation::from_rows(vec![0, 1], (0..300).map(|i| [i / 3, i % 7])),
            &[0, 1],
        );
        let b = TrieIndex::build(
            &Relation::from_rows(vec![0, 1], (0..200).map(|i| [i / 2 + 10, i % 5])),
            &[0, 1],
        );
        let (one, s1) = run(&ParCtx::sequential(), &left, &[&a, &b], true);
        let four = ParCtx::new(4, &Observer::disabled());
        let (many, s4) = run(&four, &left, &[&a, &b], true);
        assert!(!one.is_empty());
        assert_eq!(one, many, "equality is schema plus stored row sequence");
        assert_eq!(s1.deterministic(), s4.deterministic());
    }
}
