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
//!
//! Theorem 5.7's poly-log factor is the index lookup, and the loop pays it
//! only where the left side's sort order has not already answered it:
//!
//! - each side keeps a [`Finger`] on its key across left rows. A row whose
//!   key repeats the last one reuses its position; otherwise the search
//!   resumes at the first depth where the keys differ (a sorted left side
//!   mostly gallops forward there; key columns that are not a prefix of the
//!   left order go down between groups and restart that depth);
//! - a candidate's membership in every *other* side starts at that side's
//!   key position, since the key columns carry the left row's values: only
//!   the non-key variables are descended, the first through a memo of the
//!   last one checked below the same key, and a side whose key is its
//!   whole arity passes;
//! - the picked range is walked depth-first from the key position
//!   ([`Walk`]), so a left row allocates nothing and re-derives no path.
//!
//! None of this changes what is counted: one [`Stats::probes`] per side
//! probed or checked, whatever the lookup cost.

use crate::expand::{assemble, project, Program, Scratch};
use crate::par::{for_blocks, merge, ParCtx};
use crate::Stats;
use fdjoin_storage::{Finger, Found, ProbeSnapshot, Relation, TrieIndex, Value};

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
/// *other* side, projected onto `out_vars` and pushed.
///
/// Counts one [`Stats::probes`] per side probed or checked and one
/// [`Stats::intermediate_tuples`] per row pushed. Per-row work is
/// independent (the tries are read-only, and a finger is correct for any
/// order of keys), so the step fans out over contiguous blocks of `left`
/// rows, each with fingers of its own; fragments merge in block order into
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
    let probed = if argmin { sides.len() } else { 1 };
    let widest = sides.iter().map(|s| s.trie.arity()).max().unwrap_or(0);
    let parts = for_blocks(par, left.len(), None, stats, |rows, stats| {
        let mut part = Relation::new(out_vars.to_vec());
        let mut vals = vec![0 as Value; nv];
        let mut buf = vec![0 as Value; out_vars.len()];
        let mut fingers: Vec<SideFinger> = sides.iter().map(SideFinger::new).collect();
        let mut walk = Walk::default();
        let mut ext = vec![0 as Value; widest];
        for t in rows.map(|ri| left.row(ri)) {
            let (mut pick, mut fewest) = (0, 0);
            for si in 0..probed {
                stats.probes += 1;
                let found = fingers[si].seek(&sides[si], t);
                if si == 0 || found < fewest {
                    (pick, fewest) = (si, found);
                }
            }
            if fewest == 0 {
                continue;
            }
            // Sides not probed are checked against; place them, uncounted.
            for (finger, side) in fingers[probed..].iter_mut().zip(&sides[probed..]) {
                finger.seek(side, t);
            }
            let picked = &sides[pick];
            let (ix, ext) = (picked.trie, &mut ext[..picked.trie.arity()]);
            for (slot, &c) in ext.iter_mut().zip(&picked.key_cols) {
                *slot = t[c];
            }
            walk.reset(fingers[pick].key.at());
            'ext: while walk.next(ix, ext) {
                if !assemble(&mut vals, left.vars(), left_set, t, ix.vars(), ext)
                    || !picked
                        .program
                        .run(&mut vals, &mut fingers[pick].program, stats)
                {
                    continue;
                }
                for (si, other) in sides.iter().enumerate() {
                    if si == pick {
                        continue;
                    }
                    stats.probes += 1;
                    if !fingers[si].contains(other, &vals) {
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

/// A side's lookups, kept from left row to left row: a [`Finger`] on the
/// left row's key, what is known below the position it last moved to, and
/// the scratch of the side's program.
struct SideFinger {
    key: Finger,
    /// Rows below the key position.
    matches: usize,
    /// The membership check on the first non-key variable, below the key
    /// position: its last value, where that search landed, and the position
    /// below it if found.
    check: Option<(Value, usize, Option<ProbeSnapshot>)>,
    program: Scratch,
}

impl SideFinger {
    fn new(side: &Side<'_>) -> SideFinger {
        SideFinger {
            key: Finger::new(side.trie, side.key_cols.iter().map(|&c| c as u32)),
            matches: 0,
            check: None,
            program: side.program.scratch(),
        }
    }

    /// Place the key finger at left row `t`'s key; the number of rows below
    /// it (0 on a miss).
    fn seek(&mut self, side: &Side<'_>, t: &[Value]) -> usize {
        match self.key.seek(side.trie, t) {
            Found::Miss => 0,
            Found::Again => self.matches,
            Found::Hit => {
                (self.matches, self.check) = (self.key.at().len(side.trie), None);
                self.matches
            }
        }
    }

    /// Whether the candidate in `vals` (values by variable id) is a row of
    /// `side`, whose key — the left row's values — the key finger was last
    /// placed at: only the non-key values are looked up, below that key,
    /// the first of them through the check memo.
    fn contains(&mut self, side: &Side<'_>, vals: &[Value]) -> bool {
        if !self.key.is_hit() {
            return false;
        }
        let ix = side.trie;
        let Some((&first, rest)) = ix.vars()[side.key_cols.len()..].split_first() else {
            return true; // the key is the whole row
        };
        let v = vals[first as usize];
        let below = match self.check {
            Some((last, _, below)) if last == v => below,
            check => {
                let mut pos = self.key.at();
                if let Some((last, lb, _)) = check {
                    if v > last {
                        pos.lo = lb;
                    }
                }
                let below = (pos.seek(ix, v) == Some(v)).then(|| pos.enter(ix));
                self.check = Some((v, pos.lo, below));
                below
            }
        };
        let Some(mut pos) = below else {
            return false;
        };
        rest.iter().all(|&w| pos.descend(ix, vals[w as usize]))
    }
}

/// Depth-first cursor over the rows below one trie position: each step
/// writes the row's values at the position's depth and below into the
/// caller's buffer, re-entering only the levels that changed. Its stack is
/// reused from walk to walk, so walking allocates nothing.
#[derive(Default)]
struct Walk {
    /// One position per level from the walk's root depth down, each at the
    /// current row's node.
    stack: Vec<ProbeSnapshot>,
    /// Whether the first row is still to be produced.
    fresh: bool,
}

impl Walk {
    /// Walk the rows below `at` next.
    fn reset(&mut self, at: ProbeSnapshot) {
        self.stack.clear();
        if !at.is_empty() {
            self.stack.push(at);
        }
        self.fresh = true;
    }

    /// Move to the next row, writing its values below the root depth into
    /// `ext`; `false` past the last. A position at the leaf depth (a key
    /// covering the whole arity) yields its one row with nothing to write.
    fn next(&mut self, ix: &TrieIndex, ext: &mut [Value]) -> bool {
        if std::mem::take(&mut self.fresh) {
            if self.stack.is_empty() {
                return false;
            }
            self.descend_first(ix, ext);
            return true;
        }
        while let Some(top) = self.stack.last_mut() {
            top.lo += 1;
            if !top.is_empty() {
                self.descend_first(ix, ext);
                return true;
            }
            self.stack.pop();
        }
        false
    }

    /// From the top position's current node down to the leaf through each
    /// level's first child, recording the values on the way.
    fn descend_first(&mut self, ix: &TrieIndex, ext: &mut [Value]) {
        while let Some(&top) = self.stack.last() {
            let Some(v) = top.current(ix) else {
                return;
            };
            ext[top.depth] = v;
            if top.depth + 1 == ix.arity() {
                return;
            }
            self.stack.push(top.enter(ix));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccessPaths, Expander};
    use fdjoin_lattice::VarSet;
    use fdjoin_obs::Observer;
    use fdjoin_storage::{Database, IndexSet};

    /// The kernel before fingers: every lookup descends from the trie
    /// root, and the picked range is read through a row walk. The oracle
    /// the fingered kernel must reproduce row for row and count for count.
    fn extend_reference(
        left: &Relation,
        sides: &[Side<'_>],
        argmin: bool,
        out_vars: &[u32],
        nv: usize,
        stats: &mut Stats,
    ) -> Relation {
        let left_set = left.var_set();
        let probed = if argmin { sides } else { &sides[..1] };
        let mut out = Relation::new(out_vars.to_vec());
        let mut vals = vec![0 as Value; nv];
        let mut buf = vec![0 as Value; out_vars.len()];
        for t in left.rows() {
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
            let mut scratch = picked.program.scratch();
            let mut matches = picked.trie.walk(range);
            'ext: while let Some(ext) = matches.next() {
                if !assemble(&mut vals, left.vars(), left_set, t, picked.trie.vars(), ext)
                    || !picked.program.run(&mut vals, &mut scratch, stats)
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
                out.push_row(&buf);
                stats.intermediate_tuples += 1;
            }
        }
        out.sort_dedup();
        out
    }

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

    /// One side per trie, keyed on the left columns holding its leading
    /// `keys[i]` variables, every one accepting all candidates.
    fn sides_of<'a>(left: &Relation, tries: &[&'a TrieIndex], keys: &[usize]) -> Vec<Side<'a>> {
        tries
            .iter()
            .zip(keys)
            .map(|(&trie, &k)| Side {
                trie,
                key_cols: trie.vars()[..k]
                    .iter()
                    .map(|&v| left.col_of(v).unwrap())
                    .collect(),
                program: accept_all(),
            })
            .collect()
    }

    /// `left(x)` extended to `(x, y)` through tries over `(x, y)`.
    fn run(par: &ParCtx, left: &Relation, tries: &[&TrieIndex], argmin: bool) -> (Relation, Stats) {
        let sides = sides_of(left, tries, &vec![1; tries.len()]);
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

    #[test]
    fn key_only_side_yields_its_one_candidate() {
        // A Binary-Join step whose build side is covered by the left side:
        // the key is the whole row, so a hit is exactly one candidate.
        let left = Relation::from_rows(vec![0, 1], [[1, 2], [1, 3], [2, 2]]);
        let both = trie([[1, 3], [2, 2], [2, 5]]);
        let sides = sides_of(&left, &[&both], &[2]);
        let mut stats = Stats::default();
        let out = extend(
            &ParCtx::sequential(),
            &left,
            &sides,
            false,
            &[0, 1],
            2,
            &mut stats,
        );
        assert_eq!(out, Relation::from_rows(vec![0, 1], [[1, 3], [2, 2]]));
        assert_eq!((stats.probes, stats.intermediate_tuples), (3, 2));
    }

    #[test]
    fn a_shallow_miss_stays_a_miss_and_a_smaller_key_restarts() {
        // Keyed on (y, x) of a left side sorted by (x, y): y = 3 misses at
        // depth 0 and the next row shares it; y = 1 after y = 9 restarts;
        // (3, 4) misses at depth 1 and (4, 4) gallops past it.
        let left = Relation::from_rows(
            vec![0, 1],
            [[1, 3], [2, 3], [2, 4], [2, 9], [3, 1], [3, 4], [4, 4]],
        );
        let side = TrieIndex::build(
            &Relation::from_rows(vec![1, 0, 2], [[1, 3, 7], [4, 2, 5], [9, 2, 8], [9, 2, 9]]),
            &[1, 0, 2],
        );
        for argmin in [false, true] {
            let sides = sides_of(&left, &[&side], &[2]);
            let (mut s1, mut s2) = (Stats::default(), Stats::default());
            let seq = ParCtx::sequential();
            let got = extend(&seq, &left, &sides, argmin, &[0, 1, 2], 3, &mut s1);
            let want = extend_reference(&left, &sides, argmin, &[0, 1, 2], 3, &mut s2);
            assert_eq!(got, want);
            assert_eq!(s1, s2);
            assert_eq!(got.len(), 4);
        }
    }

    /// A small deterministic generator (xorshift64*), so the property
    /// below replays the same instances on every run.
    struct Gen(u64);

    impl Gen {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) % n.max(1)
        }

        fn shuffle<T>(&mut self, xs: &mut [T]) {
            for i in (1..xs.len()).rev() {
                xs.swap(i, self.below(i as u64 + 1) as usize);
            }
        }

        /// Up to `most` random rows over `vars`, sorted.
        fn rows(&mut self, vars: &[u32], most: u64, domain: u64) -> Relation {
            let mut rel = Relation::new(vars.to_vec());
            for _ in 0..self.below(most + 1) {
                let row: Vec<Value> = vars.iter().map(|_| self.below(domain)).collect();
                rel.push_row(&row);
            }
            rel.sort_dedup();
            rel
        }
    }

    #[test]
    fn fingered_extend_matches_the_reference_loop() {
        let mut g = Gen(0x9e37_79b9_7f4a_7c15);
        let four = ParCtx::new(4, &Observer::disabled());
        for case in 0..600 {
            // Left over a shuffled subset of {0, 1, 2}; every side extends
            // into the same variables `ext` ⊆ {3, 4} (none: key-only
            // sides), keyed on a shuffled subset of the left variables
            // (possibly empty, rarely a prefix of the left order), and may
            // repeat a left variable outside its key.
            let mut lvars: Vec<u32> = vec![0, 1, 2];
            g.shuffle(&mut lvars);
            lvars.truncate(1 + g.below(3) as usize);
            let ext: Vec<u32> = [3u32, 4].into_iter().filter(|_| g.below(3) > 0).collect();
            let domain = 2 + g.below(5);
            let left = g.rows(&lvars, 40, domain);
            let n_sides = 1 + g.below(3) as usize;
            let mut tries = Vec::new();
            let mut keys = Vec::new();
            for _ in 0..n_sides {
                let mut key = lvars.clone();
                g.shuffle(&mut key);
                key.truncate(g.below(key.len() as u64 + 1) as usize);
                let mut tail = ext.clone();
                if let Some(&extra) = lvars.iter().find(|v| !key.contains(v)) {
                    if g.below(4) == 0 {
                        tail.push(extra);
                    }
                }
                g.shuffle(&mut tail);
                let order: Vec<u32> = key.iter().chain(&tail).copied().collect();
                if order.is_empty() {
                    keys.push(0);
                    tries.push(TrieIndex::build(&Relation::nullary_unit(), &[]));
                    continue;
                }
                let rel = g.rows(&order, 60, domain);
                keys.push(key.len());
                tries.push(TrieIndex::build(&rel, &order));
            }
            let tries: Vec<&TrieIndex> = tries.iter().collect();
            let sides = sides_of(&left, &tries, &keys);
            let mut out_vars: Vec<u32> = lvars.iter().chain(&ext).copied().collect();
            g.shuffle(&mut out_vars);
            for argmin in [false, true] {
                let mut want_stats = Stats::default();
                let want = extend_reference(&left, &sides, argmin, &out_vars, 5, &mut want_stats);
                for par in [&ParCtx::sequential(), &four] {
                    let mut stats = Stats::default();
                    let got = extend(par, &left, &sides, argmin, &out_vars, 5, &mut stats);
                    assert_eq!(
                        got, want,
                        "case {case}, argmin {argmin}, {} tasks",
                        par.tasks
                    );
                    assert_eq!(stats, want_stats, "case {case}, argmin {argmin}");
                }
            }
        }
    }
}
