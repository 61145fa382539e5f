//! The Expansion procedure (Sec. 2), compiled.
//!
//! Given a tuple over attributes `X`, expansion fills in the attributes of
//! the closure `X⁺` by repeatedly applying FDs `U → v`: a guarded FD looks
//! the value up in a trie index of its guard relation (order `U`-then-`v`,
//! served by the shared access-path cache); an unguarded FD calls its UDF.
//! Tuples whose guarded lookups find no match are dangling and dropped;
//! tuples whose computed value contradicts an already-bound attribute are
//! inconsistent and dropped.
//!
//! Which FD fires next, through which guard or UDF, depends only on the
//! *set* of bound attributes, never on a value. So nothing is decided per
//! tuple: a call site asks its [`Expander`] once, outside its loop, for a
//! [`Program`] — the straight-line op sequence for the bound set it will
//! present — and runs that on every tuple. Three kinds are compiled:
//!
//! - an **expand schedule** ([`Expander::compile_expand`]) for a
//!   `(bound, target)` pair: guard entries in order, binding the first
//!   applicable unbound right-hand side or checking an already-bound one
//!   that lies in `target`; then the unguarded FDs in query order through
//!   the registry's least applicable UDF; restart after each bind; stop
//!   once `target` is covered. A schedule that gets stuck is a
//!   [`JoinError::MissingUdf`], known before the first tuple;
//! - a **verify list** ([`Expander::compile_verify`]) for a bound set:
//!   every guard entry inside it plus every *distinct* `(args, v)` UDF the
//!   unguarded FDs inside it resolve to. Lattice-derived queries carry one
//!   FD per pair of lattice elements, so many FDs resolve to one function:
//!   a full Fig. 9 tuple has 207 applicable `(FD, v)` pairs and 27 distinct
//!   checks, a Fig. 4 tuple 96 and 12;
//! - the **fused** program ([`Expander::compile_fused`]) for the common
//!   expand-then-verify call sites: the verify part omits every check the
//!   expand part already made — in particular the ones it *bound* from,
//!   which hold trivially (UDFs are functions, Sec. 1.1; a guard bind and
//!   its check read the same trie slot).
//!
//! Ops carry what they need resolved — the guard trie and its lhs slots,
//! the UDF and its argument slots — so [`Program::run`] takes no lock,
//! hashes nothing and tests no subset; UDF arguments are gathered into a
//! scratch buffer the caller owns. Programs hold this database's functions
//! and guard tries: they live and die with the [`Expander`] that compiled
//! them and are never cached across databases.

use crate::engine::JoinError;
use crate::{AccessPaths, Stats};
use fdjoin_lattice::VarSet;
use fdjoin_query::Query;
use fdjoin_storage::{Database, Finger, Found, MissingRelation, Relation, TrieIndex, UdfFn, Value};
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Where an op's value comes from.
#[derive(Clone)]
enum Source {
    /// The guard relation indexed inputs-then-`v`: the unique extension of
    /// the input values is the first value below them. The `usize` is the
    /// op's finger in its program's [`Scratch`]: the number of guard ops
    /// before it.
    Guard(Arc<TrieIndex>, usize),
    /// A registered function of the input values.
    Udf(UdfFn),
}

/// One step of a [`Program`]: evaluate a guard lookup or a UDF on the
/// `inputs` slots, then either bind slot `v` to the result or require that
/// it already holds it.
#[derive(Clone)]
struct Op {
    source: Source,
    inputs: Arc<[u32]>,
    v: u32,
    bind: bool,
}

/// What one op of a [`Program`] evaluates, for tests and diagnostics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct OpKey {
    /// A guard-relation lookup (`true`) or a UDF application (`false`).
    pub guarded: bool,
    /// The variables read: the guard entry's lhs, or the UDF's arguments.
    pub inputs: VarSet,
    /// The variable bound or checked.
    pub out: u32,
    /// Whether the op binds `out` (`true`) or checks it (`false`).
    pub binds: bool,
}

/// A compiled expansion: the ops one call site runs on each of its tuples,
/// in order, until one fails. Built by an [`Expander`] for a fixed bound
/// set; meaningful only on tuples with exactly that set bound.
pub struct Program {
    ops: Vec<Op>,
    /// Tells this program's [`Scratch`] from every other program's.
    id: u64,
}

impl Program {
    /// Number the guard ops' fingers and give the program its identity.
    fn new(mut ops: Vec<Op>) -> Program {
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        let mut guards = 0;
        for op in &mut ops {
            if let Source::Guard(_, finger) = &mut op.source {
                *finger = guards;
                guards += 1;
            }
        }
        Program {
            ops,
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// What a caller keeps between runs of this program: a [`Finger`] per
    /// guard lookup and the UDF argument buffer. Made once outside the
    /// caller's loop; a fresh one changes no answer and no counter. A
    /// program without guard lookups allocates nothing here.
    pub fn scratch(&self) -> Scratch {
        let fingers = self.ops.iter().filter_map(|op| match &op.source {
            Source::Guard(ix, _) => Some(Finger::new(ix, op.inputs.iter().copied())),
            Source::Udf(_) => None,
        });
        Scratch {
            program: self.id,
            args: Vec::new(),
            fingers: fingers.collect(),
        }
    }

    /// Run the program on `vals` (values by variable id): bind ops write
    /// their slot, check ops compare it. `false` as soon as a guard lookup
    /// dangles or a check disagrees — the tuple is to be dropped, and
    /// `vals` is unspecified on the slots the program binds. `scratch` is
    /// this program's [`Program::scratch`]: each guard lookup resumes from
    /// the key it looked up last time. Counts one [`Stats::probes`] per
    /// guard lookup and one [`Stats::expansions`] per UDF application
    /// actually executed.
    ///
    /// # Panics
    ///
    /// If `scratch` was made by another program: its fingers point into
    /// other tries.
    #[inline]
    pub fn run(&self, vals: &mut [Value], scratch: &mut Scratch, stats: &mut Stats) -> bool {
        assert_eq!(scratch.program, self.id, "another program's scratch");
        for op in &self.ops {
            let found = match &op.source {
                Source::Guard(ix, finger) => {
                    stats.probes += 1;
                    match guard_lookup(ix, vals, &mut scratch.fingers[*finger]) {
                        Some(found) => found,
                        None => return false, // dangling
                    }
                }
                Source::Udf(f) => {
                    stats.expansions += 1;
                    let args = &mut scratch.args;
                    args.clear();
                    args.extend(op.inputs.iter().map(|&u| vals[u as usize]));
                    f(args)
                }
            };
            if op.bind {
                vals[op.v as usize] = found;
            } else if vals[op.v as usize] != found {
                return false; // violates the FD
            }
        }
        true
    }

    /// Number of ops — the guard lookups plus UDF applications one
    /// surviving tuple costs.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the program does nothing (FD-free queries: every tuple
    /// survives untouched).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// What each op evaluates, in execution order.
    pub fn op_keys(&self) -> impl Iterator<Item = OpKey> + '_ {
        self.ops.iter().map(|op| OpKey {
            guarded: matches!(op.source, Source::Guard(..)),
            inputs: VarSet::from_vars(op.inputs.iter().copied()),
            out: op.v,
            binds: op.bind,
        })
    }
}

/// The value the guard trie `ix` (inputs, then the output) holds below the
/// values of the op's input slots of `vals`, through the op's finger on
/// them; `None` if they dangle. Out of line, so that [`Program::run`] stays
/// small enough to inline into its callers' loops.
#[inline(never)]
fn guard_lookup(ix: &TrieIndex, vals: &[Value], finger: &mut Finger) -> Option<Value> {
    if finger.seek(ix, vals) == Found::Miss {
        return None;
    }
    finger.at().current(ix)
}

/// What one caller of a [`Program`] keeps from run to run; only
/// [`Program::scratch`] makes one, and only that program runs with it.
pub struct Scratch {
    /// The `id` of the program that made it.
    program: u64,
    /// UDF argument lists.
    args: Vec<Value>,
    /// One finger per guard op, on its input slots, in op order.
    fingers: Vec<Finger>,
}

/// The checks a program under construction already contains, by index
/// into [`Expander::guards`] and [`Expander::udfs`].
struct Emitted {
    guards: Vec<bool>,
    udfs: Vec<bool>,
}

/// Expansion machinery for a query + database: the resolved guard entries
/// and UDFs, the compiler from bound sets to [`Program`]s, and the expanded
/// inputs `R_j⁺` of this execution with their cached tries.
pub struct Expander<'a> {
    query: &'a Query,
    db: &'a Database,
    paths: &'a AccessPaths<'a>,
    /// `R_j⁺` per atom, expanded on first request ([`Expander::input`]);
    /// borrowed from the database where the expansion is the identity.
    inputs: Vec<OnceLock<Cow<'a, Relation>>>,
    /// One `(lhs, check op)` per guarded FD and right-hand-side variable,
    /// in FD order.
    guards: Vec<(VarSet, Op)>,
    /// The unguarded FDs `(lhs, rhs)`, in query order.
    unguarded: Vec<(VarSet, VarSet)>,
    /// One `(args, check op)` per distinct UDF the unguarded FDs verify
    /// with.
    udfs: Vec<(VarSet, Op)>,
    /// For each unguarded `(FD, v ∈ rhs)` in query order whose `lhs`
    /// resolves to a registered UDF: `(lhs, index into udfs)`.
    udf_checks: Vec<(VarSet, usize)>,
}

/// The op checking `v` against `source` evaluated on `inputs`.
fn check_op(source: Source, inputs: VarSet, v: u32) -> Op {
    Op {
        source,
        inputs: inputs.iter().collect(),
        v,
        bind: false,
    }
}

impl<'a> Expander<'a> {
    /// Build the expander, acquiring guard indexes from the access-path
    /// cache (each is built at most once per guard-relation version) and
    /// resolving each unguarded FD to the UDF that verifies it. Fails if a
    /// guard atom's relation is absent from the database.
    pub fn new(
        query: &'a Query,
        db: &'a Database,
        paths: &'a AccessPaths<'a>,
        stats: &mut Stats,
    ) -> Result<Expander<'a>, MissingRelation> {
        let mut guards = Vec::new();
        let mut unguarded = Vec::new();
        let mut udfs: Vec<(VarSet, Op)> = Vec::new();
        let mut udf_checks = Vec::new();
        for fd in query.fds.fds() {
            let Some(j) = query.guard_of(fd) else {
                unguarded.push((fd.lhs, fd.rhs));
                for v in fd.rhs.iter() {
                    let Some((args, f)) = db.udfs.find_applicable(fd.lhs, v) else {
                        continue;
                    };
                    let known = udfs.iter().position(|(a, op)| (*a, op.v) == (args, v));
                    let i = known.unwrap_or_else(|| {
                        udfs.push((args, check_op(Source::Udf(Arc::clone(f)), args, v)));
                        udfs.len() - 1
                    });
                    udf_checks.push((fd.lhs, i));
                }
                continue;
            };
            let atom = &query.atoms()[j];
            let rel = db.relation(&atom.name)?;
            for v in fd.rhs.minus(fd.lhs).iter() {
                let mut cols: Vec<u32> = fd.lhs.iter().collect();
                cols.push(v);
                let ix = paths.base(&atom.name, rel, &cols, stats);
                guards.push((fd.lhs, check_op(Source::Guard(ix, 0), fd.lhs, v)));
            }
        }
        Ok(Expander {
            query,
            db,
            paths,
            inputs: query.atoms().iter().map(|_| OnceLock::new()).collect(),
            guards,
            unguarded,
            udfs,
            udf_checks,
        })
    }

    fn nothing_emitted(&self) -> Emitted {
        Emitted {
            guards: vec![false; self.guards.len()],
            udfs: vec![false; self.udfs.len()],
        }
    }

    /// Append the expand schedule from `bound` up to `target`: the ops the
    /// Sec. 2 fixpoint takes on any tuple with `bound` bound.
    fn push_expand(
        &self,
        mut bound: VarSet,
        target: VarSet,
        ops: &mut Vec<Op>,
        done: &mut Emitted,
    ) -> Result<(), JoinError> {
        'steps: while !target.is_subset(bound) {
            // Guarded FDs first (cheap index lookups).
            for (gi, (lhs, check)) in self.guards.iter().enumerate() {
                if !lhs.is_subset(bound) {
                    continue;
                }
                let bind = !bound.contains(check.v);
                if bind || (target.contains(check.v) && !done.guards[gi]) {
                    done.guards[gi] = true;
                    ops.push(Op {
                        bind,
                        ..check.clone()
                    });
                }
                if bind {
                    bound = bound.insert(check.v);
                    continue 'steps;
                }
            }
            // Unguarded FDs via UDFs.
            for &(lhs, rhs) in &self.unguarded {
                if !lhs.is_subset(bound) {
                    continue;
                }
                for v in rhs.minus(bound).iter() {
                    let Some((args, f)) = self.db.udfs.find_applicable(bound, v) else {
                        continue;
                    };
                    let known = self.udfs.iter().position(|(a, op)| (*a, op.v) == (args, v));
                    if let Some(i) = known {
                        done.udfs[i] = true;
                    }
                    ops.push(Op {
                        bind: true,
                        ..check_op(Source::Udf(Arc::clone(f)), args, v)
                    });
                    bound = bound.insert(v);
                    continue 'steps;
                }
            }
            return Err(JoinError::MissingUdf {
                from: bound,
                target,
            });
        }
        Ok(())
    }

    /// Append the verify list of `bound`, less what `done` already covers.
    fn push_verify(&self, bound: VarSet, ops: &mut Vec<Op>, done: &mut Emitted) {
        for (gi, (lhs, check)) in self.guards.iter().enumerate() {
            if lhs.is_subset(bound) && bound.contains(check.v) && !done.guards[gi] {
                done.guards[gi] = true;
                ops.push(check.clone());
            }
        }
        for &(lhs, i) in &self.udf_checks {
            let check = &self.udfs[i].1;
            if lhs.is_subset(bound) && bound.contains(check.v) && !done.udfs[i] {
                done.udfs[i] = true;
                ops.push(check.clone());
            }
        }
    }

    /// The expand schedule for tuples with `bound` bound: fill the slots of
    /// `target` (and whatever else fires on the way), checking the guard
    /// entries of already-bound `target` variables as it goes.
    /// [`JoinError::MissingUdf`] if `target` cannot be derived — an FD on
    /// the way has neither a guard relation nor a registered UDF.
    pub fn compile_expand(&self, bound: VarSet, target: VarSet) -> Result<Program, JoinError> {
        let mut ops = Vec::new();
        self.push_expand(bound, target, &mut ops, &mut self.nothing_emitted())?;
        Ok(Program::new(ops))
    }

    /// The verify list for tuples with `bound` bound: every FD whose
    /// variables are within `bound` must hold (guarded lookups must match;
    /// UDFs must reproduce the bound value), each distinct check once. The
    /// final soundness filter.
    pub fn compile_verify(&self, bound: VarSet) -> Program {
        let mut ops = Vec::new();
        self.push_verify(bound, &mut ops, &mut self.nothing_emitted());
        Program::new(ops)
    }

    /// Expand from `bound` to `target`, then verify every FD within
    /// `target`, as one program: the verify part skips the checks the
    /// expand part made or bound from.
    ///
    /// Every tuple it accepts, [`Expander::compile_verify`]`(target)`
    /// accepts too, on the values it leaves bound: the verify part is
    /// exactly that list less the checks the expand part already made or
    /// bound from, which hold by construction (a UDF bind and its check
    /// apply the same function to the same arguments; a guard bind and its
    /// check read the same trie slot). SMA's and CSMA's final pass skips
    /// its verify list on rows that came out of such a program with `target`
    /// every variable; `tests/expansion_semantics.rs` property-tests the
    /// guarantee, and debug builds assert it on every row skipped.
    pub fn compile_fused(&self, bound: VarSet, target: VarSet) -> Result<Program, JoinError> {
        let (mut ops, mut done) = (Vec::new(), self.nothing_emitted());
        self.push_expand(bound, target, &mut ops, &mut done)?;
        self.push_verify(target, &mut ops, &mut done);
        Ok(Program::new(ops))
    }

    /// Atom `j`'s expanded relation `R_j⁺` — step 1 of every bound-driven
    /// algorithm (Algorithm 1 line 1, Algorithm 2, Sec. 5.3.3). Expanded by
    /// the first call of an execution and counted into that call's `stats`;
    /// later calls return the same relation and count nothing.
    ///
    /// An atom whose variable set is closed and whose relation is sorted is
    /// its own expansion: the empty program keeps every row, and the sort
    /// changes nothing. It is lent out as is, and counted as the copy would
    /// have been — one [`Stats::intermediate_tuples`] per row.
    pub(crate) fn input(&self, j: usize, stats: &mut Stats) -> Result<&Relation, JoinError> {
        if let Some(rel) = self.inputs[j].get() {
            return Ok(rel);
        }
        let base = self.db.relation(&self.query.atoms()[j].name)?;
        let expanded = if base.is_sorted() && self.query.closure(base.var_set()) == base.var_set() {
            stats.intermediate_tuples += base.len() as u64;
            Cow::Borrowed(base)
        } else {
            Cow::Owned(self.expand_relation(base, stats)?)
        };
        Ok(self.inputs[j].get_or_init(|| expanded))
    }

    /// `|R_j⁺|` for every atom, in atom order: the size profile CSMA plans
    /// are keyed and priced by.
    pub(crate) fn input_lens(&self, stats: &mut Stats) -> Result<Vec<u64>, JoinError> {
        (0..self.inputs.len())
            .map(|j| Ok(self.input(j, stats)?.len() as u64))
            .collect()
    }

    /// The trie of `R_j⁺` in column order `order`, from the access-path
    /// cache: built at most once per `(order, everything the expansion of
    /// atom j reads)`, shared by later executions until a delta touches
    /// one of those inputs.
    pub(crate) fn input_trie(
        &self,
        j: usize,
        order: &[u32],
        stats: &mut Stats,
    ) -> Result<Arc<TrieIndex>, JoinError> {
        let rel = self.input(j, stats)?;
        Ok(self
            .paths
            .expanded(j, order, stats, || TrieIndex::build(rel, order)))
    }

    /// Expand a whole relation to the closure of its variable set
    /// (`R ↦ R⁺`). The output column order is the input columns followed by
    /// the new variables in ascending id.
    pub fn expand_relation(
        &self,
        rel: &Relation,
        stats: &mut Stats,
    ) -> Result<Relation, JoinError> {
        let src_vars = rel.var_set();
        let target = self.query.closure(src_vars);
        let program = self.compile_expand(src_vars, target)?;
        let mut out_vars: Vec<u32> = rel.vars().to_vec();
        out_vars.extend(target.minus(src_vars).iter());
        let mut out = Relation::new(out_vars.clone());
        let mut vals = vec![0 as Value; self.query.n_vars()];
        let mut scratch = program.scratch();
        let mut buf = vec![0 as Value; out_vars.len()];
        for row in rel.rows() {
            for (&v, &x) in rel.vars().iter().zip(row) {
                vals[v as usize] = x;
            }
            if program.run(&mut vals, &mut scratch, stats) {
                project(&vals, &out_vars, &mut buf);
                out.push_row(&buf);
                stats.intermediate_tuples += 1;
            }
        }
        out.sort_dedup();
        Ok(out)
    }
}

/// Assemble a join candidate in `vals` (values by variable id): `row` over
/// `row_vars` (the set `row_set`), then `ext` over `ext_vars`, which must
/// agree with `row` wherever the two overlap. `false` if they do not. The
/// candidate's bound set is `row_set ∪ ext_vars` — a property of the call
/// site, which is what its [`Program`] was compiled for.
#[inline]
pub(crate) fn assemble(
    vals: &mut [Value],
    row_vars: &[u32],
    row_set: VarSet,
    row: &[Value],
    ext_vars: &[u32],
    ext: &[Value],
) -> bool {
    for (&v, &x) in row_vars.iter().zip(row) {
        vals[v as usize] = x;
    }
    for (&v, &x) in ext_vars.iter().zip(ext) {
        if !row_set.contains(v) {
            vals[v as usize] = x;
        } else if vals[v as usize] != x {
            return false;
        }
    }
    true
}

/// Project `vals` (values by variable id) onto `vars`, into `buf`.
#[inline]
pub(crate) fn project(vals: &[Value], vars: &[u32], buf: &mut [Value]) {
    for (slot, &v) in buf.iter_mut().zip(vars) {
        *slot = vals[v as usize];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdjoin_query::Query;
    use fdjoin_storage::{Database, IndexSet};

    /// R(x,y), S(y,z), T(z,u) with xz→u (UDF), yu→x (UDF).
    fn fig1_db() -> (Query, Database) {
        let q = fdjoin_query::examples::fig1_udf();
        let mut db = Database::new();
        db.insert("R", Relation::from_rows(vec![0, 1], [[1, 2], [3, 2]]));
        db.insert("S", Relation::from_rows(vec![1, 2], [[2, 5]]));
        db.insert("T", Relation::from_rows(vec![2, 3], [[5, 1], [5, 3]]));
        let xz = VarSet::from_vars([0, 2]);
        let yu = VarSet::from_vars([1, 3]);
        db.udfs.register(xz, 3, |v| v[0]); // u = f(x,z) = x
        db.udfs.register(yu, 0, |v| v[1]); // x = g(y,u) = u
        (q, db)
    }

    #[test]
    fn expand_via_udf() {
        let (q, db) = fig1_db();
        let set = IndexSet::new();
        let paths = AccessPaths::new(&set, &q, &db).unwrap();
        let mut stats = Stats::default();
        let ex = Expander::new(&q, &db, &paths, &mut stats).unwrap();
        // Tuple over {x,z}: closure adds u (= x), then... {x,z,u}+ = xzu.
        let rel = Relation::from_rows(vec![0, 2], [[7, 5]]);
        let expanded = ex.expand_relation(&rel, &mut stats).unwrap();
        assert_eq!(expanded.len(), 1);
        assert_eq!(expanded.vars(), &[0, 2, 3]);
        assert_eq!(expanded.row(0), &[7, 5, 7]); // u = x = 7.
        assert!(stats.expansions > 0);
    }

    #[test]
    fn input_is_expanded_once_per_execution() {
        let (q, db) = fig1_db();
        let set = IndexSet::new();
        let paths = AccessPaths::new(&set, &q, &db).unwrap();
        let mut stats = Stats::default();
        let ex = Expander::new(&q, &db, &paths, &mut stats).unwrap();
        // T(z,u): {z,u} is closed, so T⁺ = T and each row counts once.
        let first = ex.input(2, &mut stats).unwrap();
        assert!(
            std::ptr::eq(first, db.relation("T").unwrap()),
            "a closed, sorted atom is lent, not copied"
        );
        let after_first = stats;
        assert_eq!(after_first.intermediate_tuples, 2);
        let second = ex.input(2, &mut stats).unwrap();
        assert!(std::ptr::eq(first, second), "the same relation, not a copy");
        assert_eq!(stats, after_first, "the second request counts nothing");
        // Its tries come from the cache under one key per order.
        let a = ex.input_trie(2, &[3, 2], &mut stats).unwrap();
        let b = ex.input_trie(2, &[3, 2], &mut stats).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((stats.index_builds, stats.index_hits), (1, 1));
        assert_eq!(stats.deterministic(), after_first.deterministic());
    }

    #[test]
    fn only_closed_sorted_atoms_are_lent() {
        // R(x,y), S(y,z), T(z,u) with y → z guarded in S: {x,y}⁺ = {x,y,z}.
        let q = fdjoin_query::examples::simple_fd_path();
        let mut db = Database::new();
        db.insert(
            "R",
            Relation::from_rows(vec![0, 1], [[1, 1], [2, 1], [3, 2]]),
        );
        db.insert("S", Relation::from_rows(vec![1, 2], [[1, 5], [2, 6]]));
        // Closed but appended to out of order: expanded, which sorts it.
        db.insert("T", Relation::from_rows(vec![2, 3], [[6, 8]]));
        db.relation_mut("T").unwrap().push_row(&[5, 9]);
        let set = IndexSet::new();
        let paths = AccessPaths::new(&set, &q, &db).unwrap();
        let mut stats = Stats::default();
        let ex = Expander::new(&q, &db, &paths, &mut stats).unwrap();
        let before = stats;
        let r = ex.input(0, &mut stats).unwrap();
        assert!(!std::ptr::eq(r, db.relation("R").unwrap()));
        assert_eq!(r.vars(), &[0, 1, 2]);
        assert_eq!(r.len(), 3);
        assert_eq!(stats.probes - before.probes, 3, "one guard lookup per row");
        let s = ex.input(1, &mut stats).unwrap();
        assert!(std::ptr::eq(s, db.relation("S").unwrap()));
        let t = ex.input(2, &mut stats).unwrap();
        assert!(!std::ptr::eq(t, db.relation("T").unwrap()));
        assert!(t.is_sorted());
        assert_eq!(
            stats.intermediate_tuples - before.intermediate_tuples,
            3 + 2 + 2
        );
    }

    #[test]
    fn expand_checks_consistency() {
        let (q, db) = fig1_db();
        let set = IndexSet::new();
        let paths = AccessPaths::new(&set, &q, &db).unwrap();
        let mut stats = Stats::default();
        let ex = Expander::new(&q, &db, &paths, &mut stats).unwrap();
        // Tuple over {x,y,z,u} where u ≠ f(x,z): the verify list must reject.
        let verify = ex.compile_verify(VarSet::from_vars([0, 1, 2, 3]));
        let mut scratch = verify.scratch();
        assert!(verify.run(&mut [7, 2, 5, 7], &mut scratch, &mut stats));
        assert!(!verify.run(&mut [7, 2, 5, 8], &mut scratch, &mut stats));
    }

    #[test]
    fn guarded_expansion_looks_up_relation() {
        // T(x,y,z) guards xy→z.
        let q = fdjoin_query::examples::composite_key();
        let mut db = Database::new();
        db.insert("R", Relation::from_rows(vec![0], [[1], [2]]));
        db.insert("S", Relation::from_rows(vec![1], [[10]]));
        db.insert(
            "T",
            Relation::from_rows(vec![0, 1, 2], [[1, 10, 100], [2, 10, 200]]),
        );
        let set = IndexSet::new();
        let paths = AccessPaths::new(&set, &q, &db).unwrap();
        let mut stats = Stats::default();
        let ex = Expander::new(&q, &db, &paths, &mut stats).unwrap();
        assert_eq!(stats.index_builds, 1, "one guard index built");
        let rel = Relation::from_rows(vec![0, 1], [[1, 10], [2, 10], [3, 10]]);
        let expanded = ex.expand_relation(&rel, &mut stats).unwrap();
        // (3,10) is dangling — no z in T.
        assert_eq!(expanded.len(), 2);
        assert!(expanded.contains_row(&[1, 10, 100]));
        assert!(expanded.contains_row(&[2, 10, 200]));
        // A second expander over the same database hits the cached index.
        let mut stats2 = Stats::default();
        let _ex2 = Expander::new(&q, &db, &paths, &mut stats2).unwrap();
        assert_eq!(stats2.index_builds, 0);
        assert_eq!(stats2.index_hits, 1);
    }

    #[test]
    fn a_scratch_runs_only_the_program_that_made_it() {
        // T(x,y,z) guards xy→z.
        let q = fdjoin_query::examples::composite_key();
        let mut db = Database::new();
        db.insert("R", Relation::from_rows(vec![0], [[1]]));
        db.insert("S", Relation::from_rows(vec![1], [[10]]));
        db.insert("T", Relation::from_rows(vec![0, 1, 2], [[1, 10, 100]]));
        let set = IndexSet::new();
        let paths = AccessPaths::new(&set, &q, &db).unwrap();
        let mut stats = Stats::default();
        let ex = Expander::new(&q, &db, &paths, &mut stats).unwrap();
        let xyz = VarSet::from_vars([0, 1, 2]);
        let program = ex.compile_verify(xyz);
        assert_eq!(program.len(), 1, "one guard lookup");
        let mut own = program.scratch();
        assert!(program.run(&mut [1, 10, 100], &mut own, &mut stats));
        // A twin with the same ops, and a program without any, are still
        // other programs: running with their scratch fails loudly.
        let twin = ex.compile_verify(xyz);
        let empty = ex.compile_verify(VarSet::EMPTY);
        for mut other in [twin.scratch(), empty.scratch()] {
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                program.run(&mut [1, 10, 100], &mut other, &mut Stats::default())
            }));
            assert!(run.is_err(), "another program's scratch is refused");
        }
    }

    #[test]
    fn expansion_of_closed_set_is_identity_with_semijoin_semantics() {
        let (q, db) = fig1_db();
        let set = IndexSet::new();
        let paths = AccessPaths::new(&set, &q, &db).unwrap();
        let mut stats = Stats::default();
        let ex = Expander::new(&q, &db, &paths, &mut stats).unwrap();
        let rel = Relation::from_rows(vec![0, 1], [[1, 2], [9, 9]]);
        let expanded = ex.expand_relation(&rel, &mut stats).unwrap();
        // {x,y} is closed: nothing added, nothing removed.
        assert_eq!(expanded.len(), 2);
        assert_eq!(expanded.vars(), &[0, 1]);
    }
}
