//! The one leapfrog descent: the search every enumeration of a query's
//! answers runs, written once and resumable.
//!
//! Generic-Join (NPRR / LFTJ style — the paper's FD-oblivious
//! worst-case-optimal baseline, [18, 19, 23]) binds the query's variables
//! one at a time in a fixed order; at each depth the candidate values are
//! the intersection of the matching ranges of every atom containing the
//! variable. A [`Descent`] is the set-up of that search for one
//! `(query, database)` pair — the binding order, one cached trie per atom
//! (columns in binding order, so the bound variables always form a prefix),
//! which atoms take part at which depth — and a [`Position`] is where one
//! run of it stands: a cursor per atom per depth, the partial binding, the
//! current depth. Positions are plain data
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
//!
//! With `bind_fds` (the paper's footnote 1: LFTJ binds a variable by
//! computing it the moment the bound prefix functionally determines it),
//! the depths whose variable is determined are known up front —
//! the bound set is a function of the depth alone — so the flag is computed
//! once per depth here, not per visited node — and so is the expansion
//! [`Program`] that computes it, next to the one every leaf runs. This
//! helps constant factors but provably not the worst-case exponent on the
//! paper's Fig. 1 instance.

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
    /// some atom. The rest (UDF-only) are filled by expansion at the leaves.
    order: Vec<u32>,
    /// Atoms participating at each depth.
    at_depth: Vec<Vec<usize>>,
    /// Where `order[d]` is computed from `order[..d]` by the FDs instead of
    /// intersected, the program that computes it (all `None` without
    /// `bind_fds`). The bound set is a function of the depth, so positions
    /// never store it.
    determine: Vec<Option<Program>>,
    /// What every leaf runs: expand the UDF-only variables from the atom
    /// variables, then verify all FDs.
    leaf: Program,
    n_vars: usize,
}

/// Where one run of a [`Descent`] stands, as plain data: detached from
/// every lifetime, meaningful against any descent opened for the same query
/// over equal relation contents.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Position {
    /// `levels[d][ai]` is atom `ai`'s cursor with its variables among
    /// `order[..d]` bound. Level `d + 1` is always rewritten from level
    /// `d`, so backtracking needs no undo. The lead cursor of each level is
    /// *pre-advanced* past the value last descended into, so continuing the
    /// loop is all that resuming takes.
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

/// What a caller of [`Descent::run`] keeps from call to call besides its
/// [`Position`]: the [`Scratch`] of each compiled program, so a leaf's guard
/// lookups resume from the keys the previous leaf looked up. A cache, not
/// part of where the search stands: a fresh one (after a checkpoint round
/// trip, say) changes no answer and no counter.
pub struct RunScratch {
    /// Per depth, the scratch of its FD-determining program (`None` where
    /// the depth is intersected).
    determine: Vec<Option<Scratch>>,
    leaf: Scratch,
}

impl Descent {
    /// Set the search up: acquire the FD-guard tries and one trie per atom
    /// from the access-path cache (metered into `stats`), in the binding
    /// order `var_order` (default: ascending variable id), and compile the
    /// expansion programs. Fails if an atom's relation is absent from the
    /// database, or a variable the search must compute has no derivation
    /// through guards and registered UDFs.
    pub fn open(
        q: &Query,
        db: &Database,
        paths: &AccessPaths<'_>,
        var_order: Option<&[u32]>,
        bind_fds: bool,
        stats: &mut Stats,
    ) -> Result<Descent, JoinError> {
        let ex = Expander::new(q, db, paths, stats)?;
        let nv = q.n_vars();
        let atom_vars = q
            .atoms()
            .iter()
            .fold(VarSet::EMPTY, |s, a| s.union(a.var_set()));
        let mut order: Vec<u32> = match var_order {
            Some(order) => order.to_vec(),
            None => (0..nv as u32).collect(),
        };
        order.retain(|&v| atom_vars.contains(v));
        let mut rank = vec![usize::MAX; nv];
        for (i, &v) in order.iter().enumerate() {
            rank[v as usize] = i;
        }
        let mut tries = Vec::with_capacity(q.atoms().len());
        for a in q.atoms() {
            let mut ordered = a.vars.clone();
            ordered.sort_by_key(|&v| rank[v as usize]);
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
        let mut prefix_bound = vec![VarSet::EMPTY];
        for &v in &order {
            prefix_bound.push(prefix_bound[prefix_bound.len() - 1].insert(v));
        }
        let determine = order
            .iter()
            .zip(prefix_bound.windows(2))
            .map(|(&v, bound)| {
                (bind_fds && q.closure(bound[0]).contains(v))
                    .then(|| ex.compile_expand(bound[0], bound[1]))
                    .transpose()
            })
            .collect::<Result<_, _>>()?;
        let leaf = ex.compile_fused(prefix_bound[order.len()], VarSet::full(nv as u32))?;
        Ok(Descent {
            tries,
            order,
            at_depth,
            determine,
            leaf,
            n_vars: nv,
        })
    }

    /// Whether `order[d]` is FD-determined (computed, not intersected).
    fn fd_determined(&self, d: usize) -> bool {
        self.determine[d].is_some()
    }

    /// Fresh scratch for running this descent's programs.
    pub fn scratch(&self) -> RunScratch {
        RunScratch {
            determine: self
                .determine
                .iter()
                .map(|p| p.as_ref().map(Program::scratch))
                .collect(),
            leaf: self.leaf.scratch(),
        }
    }

    /// A position before the first answer: every cursor at its trie's root.
    pub fn start(&self) -> Position {
        let root: Vec<ProbeSnapshot> = self.tries.iter().map(|t| t.probe().snapshot()).collect();
        let mut pos = Position {
            levels: vec![root; self.order.len() + 1],
            lead: vec![0; self.order.len()],
            vals: vec![0; self.n_vars],
            depth: 0,
            done: false,
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
        pos.levels.len() == n + 1
            && pos.levels.iter().all(|l| l.len() == self.tries.len())
            && pos.lead.len() == n
            && pos.lead.iter().all(|&ai| ai < self.tries.len())
            && pos.vals.len() == self.n_vars
            && pos.depth <= n
    }

    /// Move `pos` down to depth `d`, whose level was just narrowed from
    /// `d - 1`: leapfrog levels pick their lead, the participating cursor
    /// with the fewest matching rows.
    fn arrive(&self, pos: &mut Position, d: usize) {
        pos.depth = d;
        if d < self.order.len() && !self.fd_determined(d) {
            pos.lead[d] = *self.at_depth[d]
                .iter()
                .min_by_key(|&&ai| pos.levels[d][ai].len(&self.tries[ai]))
                .expect("search variables occur in some atom");
        }
    }

    /// Level `pos.depth` has nothing left: continue at the nearest
    /// enclosing leapfrog level (an FD-determined level has its one value
    /// behind it), or finish on reaching `floor`.
    fn backtrack(&self, pos: &mut Position, floor: usize) {
        while pos.depth > floor {
            pos.depth -= 1;
            if !self.fd_determined(pos.depth) {
                return;
            }
        }
        pos.done = true;
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

    /// Bind `order[d]` to `value`: rewrite level `d + 1` from level `d`
    /// with every participating cursor narrowed into `value`'s subtrie.
    /// `false` if some cursor does not hold `value` (never after
    /// [`Descent::leapfrog`] returned it).
    fn narrow(&self, pos: &mut Position, d: usize, value: Value, stats: &mut Stats) -> bool {
        let (upper, lower) = pos.levels.split_at_mut(d + 1);
        let next = &mut lower[0];
        next.copy_from_slice(&upper[d]);
        pos.vals[self.order[d] as usize] = value;
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
        scratch: &mut RunScratch,
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
                if self.leaf.run(&mut pos.vals, &mut scratch.leaf, stats) {
                    stats.output_tuples += 1;
                    emit(&pos.vals)?;
                }
                continue;
            }
            let value = match &self.determine[d] {
                // Footnote 1: compute the single candidate.
                Some(program) => {
                    let scratch = scratch.determine[d]
                        .as_mut()
                        .expect("another descent's scratch");
                    program
                        .run(&mut pos.vals, scratch, stats)
                        .then(|| pos.vals[self.order[d] as usize])
                }
                None => self.leapfrog(&mut pos.levels[d], d, pos.lead[d], stats),
            };
            if value.is_some_and(|v| self.narrow(pos, d, v, stats)) {
                if !self.fd_determined(d) {
                    let lead = pos.lead[d];
                    pos.levels[d][lead].next_value(&self.tries[lead]);
                }
                self.arrive(pos, d + 1);
            } else {
                self.backtrack(pos, floor);
            }
        }
        ControlFlow::Continue(())
    }

    /// Whether the root level is a leapfrog intersection that
    /// [`Descent::root_matches`] can enumerate — not when there is no
    /// search variable, nor when the first one is FD-determined (a single
    /// computed value: nothing to split).
    pub(crate) fn splits_at_root(&self) -> bool {
        self.determine.first().is_some_and(Option::is_none)
    }

    /// Depth 0 of the search alone, for fanning out: the values of the
    /// first variable that every participating atom holds, each with a
    /// weight (its total child count over those tries, at least 1). Counts
    /// exactly the seeks `run` counts at depth 0; the descends below each
    /// value are left to [`Descent::bind_root`].
    pub(crate) fn root_matches(&self, stats: &mut Stats) -> (Vec<Value>, Vec<u64>) {
        debug_assert!(self.splits_at_root());
        let mut pos = self.start();
        let (level, lead) = (&mut pos.levels[0], pos.lead[0]);
        let (mut values, mut weights) = (Vec::new(), Vec::new());
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
    /// returned), ready for `run(pos, 1, ..)`. The root cursors stay at the
    /// root: descending from there yields the same child ranges as from a
    /// seek position, and counts the same probes.
    pub(crate) fn bind_root(&self, pos: &mut Position, value: Value, stats: &mut Stats) {
        let held = self.narrow(pos, 0, value, stats);
        debug_assert!(held, "root matches are held by every participating atom");
        pos.done = false;
        self.arrive(pos, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdjoin_storage::{IndexSet, Relation};

    /// `Q(x,y,z) :- R(x), S(y), T(x,y,z)` with `xy → z` guarded in `T`:
    /// under `bind_fds` the last depth is FD-determined.
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
    /// `w = 10·z`: under `bind_fds` the last depth is computed by a
    /// two-step program through the UDF-only `z`; without, `z` is filled
    /// (and `w` checked) by the leaf program.
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
    fn pausing_is_invisible_with_and_without_fd_binding() {
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
            for bind_fds in [false, true] {
                let descent =
                    Descent::open(&q, &db, &paths, None, bind_fds, &mut Stats::default()).unwrap();
                let determined: Vec<bool> = (0..3).map(|d| descent.fd_determined(d)).collect();
                assert_eq!(determined, [false, false, bind_fds]);
                let (rows, stats) = drain(&descent, 0, false);
                assert_eq!(rows, expect, "bind_fds {bind_fds}");
                for (pause_every, fresh) in (1..=3).flat_map(|p| [(p, false), (p, true)]) {
                    let (paused_rows, paused_stats) = drain(&descent, pause_every, fresh);
                    let ctx = format!("bind_fds {bind_fds}, pause {pause_every}, fresh {fresh}");
                    assert_eq!(paused_rows, expect, "{ctx}");
                    assert_eq!(paused_stats, stats, "{ctx}");
                }
            }
        }
    }
}
