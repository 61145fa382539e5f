//! The one leapfrog descent: the search every enumeration of a query's
//! answers runs, written once and resumable.
//!
//! Generic-Join (NPRR / LFTJ style — the paper's FD-oblivious
//! worst-case-optimal baseline, [18, 19, 23]) binds the query's variables
//! one at a time in ascending variable id; at each depth the candidate
//! values are the intersection of the matching ranges of every atom
//! containing the variable. A [`Descent`] is the set-up of that search for
//! one `(query, database)` pair — the search variables, one cached trie per
//! atom (columns in binding order, so the bound variables always form a
//! prefix), which atoms take part at which depth — and a [`Position`] is where one
//! run of it stands: a cursor per atom per search depth, the partial
//! binding, the current depth. Positions are plain data
//! ([`ProbeSnapshot`]s navigated in place against the descent's tries), so
//! a search can stop after any row and continue later, in another call or
//! after a round trip through a checkpoint.
//!
//! [`Descent::run`] is the only loop. `Algorithm::GenericJoin` is
//! `run(0, push the row)`; its parallel path collects the depth-0
//! intersection on the coordinating thread (`root_matches`) and lets each
//! worker bind its share of the root values (`bind_root`) and `run(1, ..)`
//! below them; `fdjoin_stream::ResultStream` is
//! `run(0, stop)` per delivered row. All of them therefore visit the same
//! leaves in the same order and meter the same deterministic [`Stats`].
//! The deepest depth binds and goes straight to the leaf, narrowing no
//! cursor: the leaf reads only the binding.
//!
//! Every depth is a leapfrog intersection, FDs or not: the UDF-only
//! variables are computed, and the FDs verified, by the one expansion
//! [`Program`] each leaf runs ([`crate::Expander::compile_leaf`]). At a
//! leaf every atom variable holds a row of its atom, so a guarded FD's
//! check can only fail where its guard relation violates the FD; the
//! program checks exactly those guards whose trie does not
//! [determine](TrieIndex::determines) the FD, and every UDF. On data that
//! satisfies its guarded FDs a leaf runs no guard lookup.

use crate::engine::JoinError;
use crate::expand::{Program, Scratch};
use crate::{AccessPaths, Expander, Stats};
use fdjoin_lattice::VarSet;
use fdjoin_query::Query;
use fdjoin_storage::{Database, ProbeSnapshot, TrieIndex, Value};
use std::ops::ControlFlow;
use std::sync::Arc;

/// The set-up of the descent over one `(query, database)` pair; immutable
/// once opened, shared by every [`Position`] that runs over it.
pub struct Descent {
    /// One trie per atom, columns ordered by the binding order.
    tries: Vec<Arc<TrieIndex>>,
    /// The variables the search binds, in binding order: those occurring in
    /// some atom, ascending. The rest (UDF-only) are filled by expansion at
    /// the leaves.
    order: Vec<u32>,
    /// Atoms participating at each depth.
    at_depth: Vec<Vec<usize>>,
    /// What every leaf runs: expand the UDF-only variables from the atom
    /// variables, then verify every FD whose guard relation does not
    /// certify it.
    leaf: Program,
    n_vars: usize,
}

/// Where one run of a [`Descent`] stands, as plain data: detached from
/// every lifetime, meaningful against any descent opened for the same query
/// over equal relation contents.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Position {
    /// `levels[d][ai]` is atom `ai`'s cursor with its variables among
    /// `order[..d]` bound, for each search depth `d < order.len()`. Level
    /// `d + 1` is always rewritten from level `d`, so backtracking needs no
    /// undo. The lead cursor of each level is *pre-advanced* past the value
    /// last bound, so continuing the loop is all that resuming takes.
    levels: Vec<Vec<ProbeSnapshot>>,
    /// The leapfrog lead (smallest-range participating atom) per depth.
    lead: Vec<usize>,
    /// Values by variable id; the slots of `order[..depth]` are bound.
    vals: Vec<Value>,
    depth: usize,
    done: bool,
}

impl Position {
    /// The binding by variable id — after [`Descent::run`]'s `emit`, the
    /// answer just emitted, over all query variables.
    pub fn vals(&self) -> &[Value] {
        &self.vals
    }

    /// How many search variables are bound.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Whether the run this position belongs to is exhausted.
    pub fn is_done(&self) -> bool {
        self.done
    }
}

impl Descent {
    /// Set the search up: acquire the FD-guard tries and one trie per atom
    /// from the access-path cache (metered into `stats`), binding in
    /// ascending variable id, and compile the leaf's expansion program.
    /// Fails if an atom's relation is absent from the database, or a
    /// variable the search must compute has no derivation through guards
    /// and registered UDFs.
    pub fn open(
        q: &Query,
        db: &Database,
        paths: &AccessPaths<'_>,
        stats: &mut Stats,
    ) -> Result<Descent, JoinError> {
        let ex = Expander::new(q, db, paths, stats)?;
        let nv = q.n_vars();
        let atom_vars = q
            .atoms()
            .iter()
            .fold(VarSet::EMPTY, |s, a| s.union(a.var_set()));
        let order: Vec<u32> = (0..nv as u32).filter(|&v| atom_vars.contains(v)).collect();
        let mut tries = Vec::with_capacity(q.atoms().len());
        for a in q.atoms() {
            let mut ordered = a.vars.clone();
            ordered.sort_unstable();
            tries.push(paths.base(&a.name, db.relation(&a.name)?, &ordered, stats));
        }
        let at_depth: Vec<Vec<usize>> = order
            .iter()
            .map(|&v| {
                (0..tries.len())
                    .filter(|&ai| q.atoms()[ai].var_set().contains(v))
                    .collect()
            })
            .collect();
        let leaf = ex.compile_leaf(atom_vars, VarSet::full(nv as u32))?;
        Ok(Descent {
            tries,
            order,
            at_depth,
            leaf,
            n_vars: nv,
        })
    }

    /// What a caller of [`Descent::run`] keeps from call to call besides
    /// its [`Position`]: the leaf program's [`Scratch`] — its UDF argument
    /// buffer, and a finger per guard lookup the leaf still runs (one per
    /// guard whose relation violates its FD; none on certified data), so
    /// such a lookup resumes from the key the previous leaf looked up. A
    /// cache, not part of where the search stands: a fresh one (after a
    /// checkpoint round trip, say) changes no answer and no counter.
    pub fn scratch(&self) -> Scratch {
        self.leaf.scratch()
    }

    /// The program every leaf runs: the UDF-only variables expanded, then
    /// every FD checked that the data does not already certify.
    pub fn leaf(&self) -> &Program {
        &self.leaf
    }

    /// A position before the first answer: every cursor at its trie's root.
    /// A nullary atom takes part at no depth, so an empty one — no `()`,
    /// hence no answer — leaves the position exhausted from the start.
    pub fn start(&self) -> Position {
        let root: Vec<ProbeSnapshot> = self.tries.iter().map(|t| t.probe().snapshot()).collect();
        let mut pos = Position {
            levels: vec![root; self.order.len()],
            lead: vec![0; self.order.len()],
            vals: vec![0; self.n_vars],
            depth: 0,
            done: self.tries.iter().any(|t| t.arity() == 0 && t.is_empty()),
        };
        self.arrive(&mut pos, 0);
        pos
    }

    /// Whether `pos` has the shape of this descent's positions — the check
    /// to make before running a position that came from outside (a
    /// checkpoint). Says nothing about contents: cursor coordinates are
    /// only meaningful against the relation versions they were taken over.
    pub fn admits(&self, pos: &Position) -> bool {
        let n = self.order.len();
        pos.levels.len() == n
            && pos.levels.iter().all(|l| l.len() == self.tries.len())
            && pos.lead.len() == n
            && pos.lead.iter().all(|&ai| ai < self.tries.len())
            && pos.vals.len() == self.n_vars
            && pos.depth <= n
    }

    /// Move `pos` down to depth `d`: a search depth, whose level was just
    /// narrowed from `d - 1`, picks its lead, the participating cursor with
    /// the fewest matching rows; depth `order.len()` is the leaf.
    fn arrive(&self, pos: &mut Position, d: usize) {
        pos.depth = d;
        if d < self.order.len() {
            pos.lead[d] = *self.at_depth[d]
                .iter()
                .min_by_key(|&&ai| pos.levels[d][ai].len(&self.tries[ai]))
                .expect("search variables occur in some atom");
        }
    }

    /// Level `pos.depth` has nothing left: continue at the enclosing
    /// level, or finish on reaching `floor`.
    fn backtrack(&self, pos: &mut Position, floor: usize) {
        if pos.depth > floor {
            pos.depth -= 1;
        } else {
            pos.done = true;
        }
    }

    /// Leapfrog level `d` forward to the next value all its participating
    /// cursors hold: walk the lead's distinct values, seeking the others
    /// forward inside their narrowed ranges. Over the whole level each
    /// cursor sweeps its range at most once (galloping between stops),
    /// across suspensions too. Leaves every cursor at the value returned.
    fn leapfrog(
        &self,
        level: &mut [ProbeSnapshot],
        d: usize,
        lead: usize,
        stats: &mut Stats,
    ) -> Option<Value> {
        'candidates: while let Some(candidate) = level[lead].current(&self.tries[lead]) {
            for &ai in &self.at_depth[d] {
                if ai == lead {
                    continue;
                }
                stats.probes += 1;
                match level[ai].seek(&self.tries[ai], candidate) {
                    Some(w) if w == candidate => {}
                    // Overshot: `w` is the next possible member of the
                    // intersection, so the lead jumps straight to it.
                    Some(w) => {
                        level[lead].seek(&self.tries[lead], w);
                        continue 'candidates;
                    }
                    // An atom ran out: nothing further can match.
                    None => return None,
                }
            }
            return Some(candidate);
        }
        None
    }

    /// Bind `order[d]` to `value` and, above the deepest depth, rewrite
    /// level `d + 1` from level `d` with every participating cursor
    /// narrowed into `value`'s subtrie. `false` if some cursor does not
    /// hold `value` (never after [`Descent::leapfrog`] returned it).
    fn bind(&self, pos: &mut Position, d: usize, value: Value, stats: &mut Stats) -> bool {
        pos.vals[self.order[d] as usize] = value;
        if d + 1 == self.order.len() {
            return true;
        }
        let (upper, lower) = pos.levels.split_at_mut(d + 1);
        let next = &mut lower[0];
        next.copy_from_slice(&upper[d]);
        self.at_depth[d].iter().all(|&ai| {
            stats.probes += 1;
            next[ai].descend(&self.tries[ai], value)
        })
    }

    /// Continue the search from `pos`, calling `emit` with each answer
    /// (values by variable id, all query variables) in lexicographic order
    /// of the binding order, and never backtracking above depth `floor`.
    /// `scratch` is this descent's [`Descent::scratch`], kept by the caller
    /// across calls.
    /// Returns `Break` as soon as `emit` does — `pos` then stands right
    /// after that answer, ready for the next call — and `Continue` once
    /// everything below `floor` is enumerated ([`Position::is_done`]).
    pub fn run(
        &self,
        pos: &mut Position,
        floor: usize,
        scratch: &mut Scratch,
        stats: &mut Stats,
        mut emit: impl FnMut(&[Value]) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let n = self.order.len();
        while !pos.done {
            let d = pos.depth;
            if d == n {
                // Every atom variable is bound. Step back first, so the
                // position is already past this leaf if `emit` stops the
                // run; then expand the UDF-only variables and verify the
                // FDs in place (expansion writes only unbound slots, which
                // the search never reads).
                self.backtrack(pos, floor);
                if self.leaf.run(&mut pos.vals, scratch, stats) {
                    stats.output_tuples += 1;
                    emit(&pos.vals)?;
                }
                continue;
            }
            let lead = pos.lead[d];
            let value = self.leapfrog(&mut pos.levels[d], d, lead, stats);
            if value.is_some_and(|v| self.bind(pos, d, v, stats)) {
                pos.levels[d][lead].next_value(&self.tries[lead]);
                self.arrive(pos, d + 1);
            } else {
                self.backtrack(pos, floor);
            }
        }
        ControlFlow::Continue(())
    }

    /// Whether there is a root level for [`Descent::root_matches`] to
    /// enumerate: some search variable.
    pub(crate) fn splits_at_root(&self) -> bool {
        !self.order.is_empty()
    }

    /// Depth 0 of the search alone, for fanning out: the values of the
    /// first variable that every participating atom holds, each with a
    /// weight (its total child count over those tries, at least 1). Counts
    /// exactly the seeks `run` counts at depth 0; the descends below each
    /// value are left to [`Descent::bind_root`].
    pub(crate) fn root_matches(&self, stats: &mut Stats) -> (Vec<Value>, Vec<u64>) {
        debug_assert!(self.splits_at_root());
        let mut pos = self.start();
        let (mut values, mut weights) = (Vec::new(), Vec::new());
        if pos.done {
            return (values, weights);
        }
        let (level, lead) = (&mut pos.levels[0], pos.lead[0]);
        while let Some(value) = self.leapfrog(level, 0, lead, stats) {
            // Every cursor sits at `value`, so `group` reads two offsets.
            let weight: u64 = self.at_depth[0]
                .iter()
                .map(|&ai| level[ai].group(&self.tries[ai]).len() as u64)
                .sum();
            values.push(value);
            weights.push(weight.max(1));
            level[lead].next_value(&self.tries[lead]);
        }
        (values, weights)
    }

    /// Put `pos` below root value `value` (one [`Descent::root_matches`]
    /// returned), ready for `run(pos, 1, ..)`: bound as `run` binds it, so a
    /// root that is the deepest depth narrows nothing here either. The root
    /// cursors stay at the root: descending from there yields the same
    /// child ranges as from a seek position, and counts the same probes.
    pub(crate) fn bind_root(&self, pos: &mut Position, value: Value, stats: &mut Stats) {
        let held = self.bind(pos, 0, value, stats);
        debug_assert!(held, "root matches are held by every participating atom");
        pos.done = false;
        self.arrive(pos, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdjoin_storage::{IndexSet, Relation};

    /// `Q(x,y,z) :- R(x), S(y), T(x,y,z)` with `xy → z` guarded in `T`: the
    /// last depth intersects `T`'s `z` values below the bound `x, y`, and
    /// the leaf verifies the FD.
    fn composite_key_db() -> (Query, Database) {
        let q = fdjoin_query::examples::composite_key();
        let mut db = Database::new();
        db.insert("R", Relation::from_rows(vec![0], [[1], [2], [3]]));
        db.insert("S", Relation::from_rows(vec![1], [[10], [20]]));
        db.insert(
            "T",
            Relation::from_rows(
                vec![0, 1, 2],
                [[1, 10, 100], [1, 20, 120], [2, 20, 220], [4, 10, 410]],
            ),
        );
        (q, db)
    }

    /// Drain `descent`, stopping the run after every `pause_every`-th row
    /// (0 = never) and continuing from the saved position — with the
    /// scratch kept across calls, or (`fresh`) a new one per call, which is
    /// what a checkpoint round trip does.
    fn drain(descent: &Descent, pause_every: usize, fresh: bool) -> (Vec<Vec<Value>>, Stats) {
        let (mut rows, mut stats) = (Vec::new(), Stats::default());
        let (mut pos, mut scratch) = (descent.start(), descent.scratch());
        while !pos.is_done() {
            if fresh {
                scratch = descent.scratch();
            }
            let _ = descent.run(&mut pos, 0, &mut scratch, &mut stats, |row| {
                rows.push(row.to_vec());
                if pause_every > 0 && rows.len() % pause_every == 0 {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            });
        }
        (rows, stats)
    }

    /// `Q(x,y,w,z) :- R(x), S(y), T(w)` with `z = x + y` in no atom and
    /// `w = 10·z`: the UDF-only `z` is filled (and `w` checked) by the leaf
    /// program.
    fn udf_only_db() -> (Query, Database) {
        let mut b = Query::builder();
        let (x, y, w, z) = (b.var("x"), b.var("y"), b.var("w"), b.var("z"));
        b.atom("R", &[x]).atom("S", &[y]).atom("T", &[w]);
        b.fd(&[x, y], &[z]).fd(&[z], &[w]);
        let mut db = Database::new();
        db.insert("R", Relation::from_rows(vec![0], [[1], [2], [3]]));
        db.insert("S", Relation::from_rows(vec![1], [[10], [20]]));
        db.insert(
            "T",
            Relation::from_rows(vec![2], [[110], [130], [210], [999]]),
        );
        db.udfs
            .register(VarSet::from_vars([x, y]), z, |v| v[0] + v[1]);
        db.udfs.register(VarSet::singleton(z), w, |v| v[0] * 10);
        (b.build(), db)
    }

    #[test]
    fn pausing_is_invisible() {
        let cases = [
            (
                composite_key_db(),
                vec![vec![1, 10, 100], vec![1, 20, 120], vec![2, 20, 220]],
            ),
            (
                udf_only_db(),
                vec![
                    vec![1, 10, 110, 11],
                    vec![1, 20, 210, 21],
                    vec![3, 10, 130, 13],
                ],
            ),
        ];
        for ((q, db), expect) in cases {
            let set = IndexSet::new();
            let paths = AccessPaths::new(&set, &q, &db).unwrap();
            let descent = Descent::open(&q, &db, &paths, &mut Stats::default()).unwrap();
            let (rows, stats) = drain(&descent, 0, false);
            assert_eq!(rows, expect);
            for (pause_every, fresh) in (1..=3).flat_map(|p| [(p, false), (p, true)]) {
                let (paused_rows, paused_stats) = drain(&descent, pause_every, fresh);
                let ctx = format!("pause {pause_every}, fresh {fresh}");
                assert_eq!(paused_rows, expect, "{ctx}");
                assert_eq!(paused_stats, stats, "{ctx}");
            }
        }
    }

    /// A position keeps one cursor level per search depth; one with a
    /// level below the deepest is refused by `admits`, so `resume` reports
    /// a checkpoint shape error instead of running it.
    #[test]
    fn a_level_below_the_deepest_is_not_admitted() {
        let (q, db) = composite_key_db();
        let set = IndexSet::new();
        let paths = AccessPaths::new(&set, &q, &db).unwrap();
        let descent = Descent::open(&q, &db, &paths, &mut Stats::default()).unwrap();
        let mut pos = descent.start();
        assert_eq!(pos.levels.len(), descent.order.len());
        assert!(descent.admits(&pos));
        pos.levels.push(pos.levels[0].clone());
        assert!(!descent.admits(&pos));
    }
}
