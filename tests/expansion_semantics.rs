//! The Expansion procedure (Sec. 2) — cross-crate semantics tests:
//! guarded vs unguarded FDs, dangling-tuple removal, consistency filtering,
//! and the interaction with each algorithm's final verification.

use fdjoin::core::{AccessPaths, Expander, Stats};
use fdjoin::instances::reference_join;
use fdjoin::lattice::VarSet;
use fdjoin::query::Query;
use fdjoin::storage::IndexSet;
use fdjoin::storage::{Database, Relation};

/// Q :- R(x,y), S(y,z), T(z,u), K(u,x) with y→z guarded in S.
fn four_cycle() -> (Query, Database) {
    let q = fdjoin::query::examples::four_cycle_key();
    let mut db = Database::new();
    db.insert("R", Relation::from_rows(vec![0, 1], [[1, 10], [2, 20]]));
    db.insert("S", Relation::from_rows(vec![1, 2], [[10, 100], [20, 200]]));
    db.insert("T", Relation::from_rows(vec![2, 3], [[100, 7], [200, 8]]));
    db.insert("K", Relation::from_rows(vec![3, 0], [[7, 1], [8, 2]]));
    (q, db)
}

#[test]
fn guarded_expansion_follows_key() {
    let (q, db) = four_cycle();
    let set = IndexSet::new();
    let paths = AccessPaths::new(&set, &q, &db).unwrap();
    let mut stats = Stats::default();
    let ex = Expander::new(&q, &db, &paths, &mut stats).unwrap();
    // Expanding R over {x,y} adds z via the key y→z in S.
    let rel = db.relation("R").unwrap();
    let expanded = ex.expand_relation(rel, &mut stats).unwrap();
    assert_eq!(expanded.vars(), &[0, 1, 2]);
    assert!(expanded.contains_row(&[1, 10, 100]));
    assert!(expanded.contains_row(&[2, 20, 200]));
}

#[test]
fn dangling_tuples_dropped_by_expansion() {
    let (q, mut db) = four_cycle();
    // Add an R-tuple whose y has no S-entry: expansion must drop it.
    let mut r = db.relation("R").unwrap().clone();
    r.push_row(&[3, 30]);
    db.insert("R", r);
    let set = IndexSet::new();
    let paths = AccessPaths::new(&set, &q, &db).unwrap();
    let mut stats = Stats::default();
    let ex = Expander::new(&q, &db, &paths, &mut stats).unwrap();
    let expanded = ex
        .expand_relation(db.relation("R").unwrap(), &mut stats)
        .unwrap();
    assert_eq!(expanded.len(), 2, "dangling (3,30) removed");
}

#[test]
fn full_query_on_four_cycle() {
    let (q, db) = four_cycle();
    let out = reference_join(&q, &db);
    assert_eq!(out.len(), 2);
    assert!(out.contains_row(&[1, 10, 100, 7]));
    let ca = fdjoin::core::chain_join(&q, &db).unwrap();
    assert_eq!(ca.output, out);
    let csma = fdjoin::core::csma_join(&q, &db).unwrap();
    assert_eq!(csma.output, out);
}

#[test]
fn udf_consistency_filters_contradictions() {
    // z = f(x,y) where relations also constrain z: contradictory tuples die.
    let mut b = Query::builder();
    let (x, y, z) = (b.var("x"), b.var("y"), b.var("z"));
    b.atom("R", &[x, y]).atom("W", &[z]);
    b.fd(&[x, y], &[z]);
    let q = b.build();
    let mut db = Database::new();
    db.insert("R", Relation::from_rows(vec![0, 1], [[1, 1], [2, 2]]));
    // f(x,y) = x + y; W only contains 2, so only (1,1) survives.
    db.insert("W", Relation::from_rows(vec![2], [[2], [5]]));
    db.udfs
        .register(VarSet::from_vars([0, 1]), 2, |v| v[0] + v[1]);
    let out = reference_join(&q, &db);
    assert_eq!(out.len(), 1);
    assert_eq!(out.row(0), &[1, 1, 2]);
}

#[test]
fn verify_fds_rejects_planted_violations() {
    let (q, db) = four_cycle();
    let set = IndexSet::new();
    let paths = AccessPaths::new(&set, &q, &db).unwrap();
    let mut stats = Stats::default();
    let ex = Expander::new(&q, &db, &paths, &mut stats).unwrap();
    let verify = ex.compile_verify(VarSet::full(4));
    let mut scratch = verify.scratch();
    // Correct tuple.
    assert!(verify.run(&mut [1, 10, 100, 7], &mut scratch, &mut stats));
    // z value contradicting y→z.
    assert!(!verify.run(&mut [1, 10, 200, 7], &mut scratch, &mut stats));
}

/// SMA's and CSMA's final pass skips its verify list only when every `T(1̂)`
/// came out of a fused program targeting `1̂`. Here SMA's `T(1̂)` is an
/// expanded input instead (a proof of no steps): `R(x,y)⁺` binds
/// `z = f(x,y)` and never checks `z → x`, which two of its rows violate.
/// The final pass must still drop them. CSMA derives `T(1̂)` by a CC join
/// whatever the instance — the CSM sequence reaches `1̂` from `0̂` by rules —
/// so its half checks the verified path on the same rows.
#[test]
fn an_unverified_top_table_is_verified_by_the_final_pass() {
    use fdjoin::core::{Algorithm, Engine, ExecOptions};
    let mut b = Query::builder();
    let (x, y, z) = (b.var("x"), b.var("y"), b.var("z"));
    b.atom("R", &[x, y]).atom("S", &[z]);
    b.fd(&[x, y], &[z]).fd(&[z], &[x]);
    let q = b.build();
    let mut db = Database::new();
    db.insert(
        "R",
        Relation::from_rows(vec![0, 1], [[1, 0], [1, 1], [2, 0], [2, 3]]),
    );
    db.insert("S", Relation::from_rows(vec![2], (0..8).map(|v| [v])));
    db.udfs
        .register(VarSet::from_vars([0, 1]), 2, |v| v[0] + v[1]); // z = x + y
    db.udfs.register(VarSet::singleton(2), 0, |v| v[0]); // x = z
    let expect = reference_join(&q, &db);
    assert_eq!(
        expect,
        Relation::from_rows(vec![0, 1, 2], [[1, 0, 1], [2, 0, 2]]),
        "(1,1,2) and (2,3,5) violate z → x"
    );
    let prepared = Engine::new().prepare(&q);
    for alg in [Algorithm::Sma, Algorithm::Csma] {
        for tasks in [1, 2] {
            let opts = ExecOptions::new().algorithm(alg).parallelism(tasks);
            let got = prepared.execute(&db, &opts).unwrap();
            assert_eq!(got.output, expect, "{alg} x{tasks}");
        }
    }
}

/// An unguarded FD without a registered UDF fails fast and typed: the stuck
/// expansion schedule is found when programs are compiled, before any tuple
/// is touched — never a panic on a pool worker, never silently dropped rows.
#[test]
fn missing_udf_backing_is_a_typed_error_everywhere() {
    use fdjoin::core::{Algorithm, Engine, ExecOptions, JoinError};
    let q = fdjoin::query::examples::fig5_udf_product();
    let mut db = Database::new();
    db.insert("R", Relation::from_rows(vec![0], [[1]]));
    db.insert("S", Relation::from_rows(vec![1], [[2]]));
    // no UDF for xy→z
    let stuck = JoinError::MissingUdf {
        from: VarSet::from_vars([0, 1]),
        target: VarSet::full(3),
    };
    assert!(stuck.to_string().contains("register UDFs"), "{stuck}");
    let prepared = Engine::new().prepare(&q);
    for alg in [
        Algorithm::Chain,
        Algorithm::Sma,
        Algorithm::Csma,
        Algorithm::GenericJoin,
        Algorithm::BinaryJoin,
    ] {
        for tasks in [1, 2] {
            let opts = ExecOptions::new().algorithm(alg).parallelism(tasks);
            match prepared.execute(&db, &opts) {
                Err(JoinError::MissingUdf { from, target }) => {
                    assert!(
                        !target.is_subset(from),
                        "{alg}: {from} already covers {target}"
                    );
                    assert!(
                        target.minus(from) == VarSet::singleton(2),
                        "{alg}: z is what is missing"
                    );
                }
                other => panic!("{alg} x{tasks}: expected MissingUdf, got {other:?}"),
            }
        }
    }
    let err = fdjoin::stream::ResultStream::open(&prepared, &db).unwrap_err();
    assert_eq!(err, stuck);
    // Registering the function is all it takes.
    db.udfs
        .register(VarSet::from_vars([0, 1]), 2, |v| v[0] + v[1]);
    assert_eq!(reference_join(&q, &db).row(0), &[1, 2, 3]);
    assert!(fdjoin::stream::ResultStream::open(&prepared, &db).is_ok());
}

#[test]
fn expansion_idempotent_on_closed_relations() {
    let (q, db) = four_cycle();
    let set = IndexSet::new();
    let paths = AccessPaths::new(&set, &q, &db).unwrap();
    let mut stats = Stats::default();
    let ex = Expander::new(&q, &db, &paths, &mut stats).unwrap();
    let once = ex
        .expand_relation(db.relation("R").unwrap(), &mut stats)
        .unwrap();
    let twice = ex.expand_relation(&once, &mut stats).unwrap();
    assert_eq!(once, twice);
}

/// Which UDF expands a tuple is a function of the registered keys, not of
/// the registry instance: on the Fig. 9 worst case (69 UDFs, several of
/// them applicable to most tuples) `UdfRegistry::find_applicable` used to
/// return whichever entry a per-instance hash seed put first, and
/// Generic-Join's `expansions` differed from one database build to the next.
#[test]
fn udf_choice_is_the_same_in_every_registry_instance() {
    use fdjoin::bigint::rat;
    use fdjoin::core::{Algorithm, Engine, ExecOptions};
    let q = fdjoin::query::examples::fig9_query();
    let opts = ExecOptions::new().algorithm(Algorithm::GenericJoin);
    let runs: Vec<_> = (0..8)
        .map(|_| {
            let db = fdjoin::instances::normal_worst_case(&q, &vec![rat(4, 1); 3], &rat(6, 1))
                .expect("integral");
            assert!(db.udfs.len() > 60, "{} UDFs", db.udfs.len());
            let r = Engine::new().execute(&q, &db, &opts).unwrap();
            (r.stats.deterministic(), r.output)
        })
        .collect();
    assert!(runs[0].0.expansions > 0);
    for (i, run) in runs.iter().enumerate() {
        assert_eq!(run, &runs[0], "instance {i} ran differently");
    }
}

// ---------------------------------------------------------------------
// Compiled ≡ interpreted.
//
// Until the compiled programs replaced it, expansion was a per-tuple
// interpreter (`Expander::{step, expand_tuple, verify_fds}`). It is kept
// here, verbatim but for recording what it evaluates and for reporting a
// stuck derivation instead of panicking, as the reference the programs
// are property-tested against.

mod reference {
    use super::*;
    use fdjoin::storage::{TrieIndex, Value};
    use std::collections::BTreeSet;

    /// Every distinct check one tuple made the interpreter evaluate: guard
    /// entries by index, UDFs by `(args, out)`.
    #[derive(Default, Debug)]
    pub struct Evaluated {
        pub guards: BTreeSet<usize>,
        pub udfs: BTreeSet<(VarSet, u32)>,
    }

    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum Expanded {
        Reached,
        Dropped,
        /// `expand_tuple`'s panic: no guard and no registered UDF applies.
        Stuck,
    }

    pub struct Interpreter<'a> {
        query: &'a Query,
        db: &'a Database,
        /// `(lhs, rhs var, guard trie on lhs-then-var)`, in FD order.
        pub guards: Vec<(VarSet, u32, TrieIndex)>,
    }

    impl<'a> Interpreter<'a> {
        pub fn new(query: &'a Query, db: &'a Database) -> Interpreter<'a> {
            let mut guards = Vec::new();
            for fd in query.fds.fds() {
                if let Some(j) = query.guard_of(fd) {
                    let rel = db.relation(&query.atoms()[j].name).unwrap();
                    for v in fd.rhs.minus(fd.lhs).iter() {
                        let mut cols: Vec<u32> = fd.lhs.iter().collect();
                        cols.push(v);
                        guards.push((fd.lhs, v, TrieIndex::build(rel, &cols)));
                    }
                }
            }
            Interpreter { query, db, guards }
        }

        fn step(
            &self,
            bound: &mut VarSet,
            vals: &mut [Value],
            target: VarSet,
            seen: &mut Evaluated,
        ) -> Result<bool, ()> {
            for (gi, (lhs, v, ix)) in self.guards.iter().enumerate() {
                if !lhs.is_subset(*bound) {
                    continue;
                }
                let already = bound.contains(*v);
                if already && !target.contains(*v) {
                    continue;
                }
                seen.guards.insert(gi);
                let mut probe = ix.probe();
                if !lhs.iter().all(|u| probe.descend(vals[u as usize])) || probe.is_empty() {
                    return Err(()); // dangling
                }
                let found = probe.current().expect("guard trie extends past its lhs");
                if already {
                    if vals[*v as usize] != found {
                        return Err(()); // violates the FD
                    }
                } else {
                    vals[*v as usize] = found;
                    *bound = bound.insert(*v);
                    return Ok(true);
                }
            }
            for fd in self.query.fds.fds() {
                if self.query.guard_of(fd).is_some() || !fd.lhs.is_subset(*bound) {
                    continue;
                }
                for v in fd.rhs.iter() {
                    if bound.contains(v) {
                        continue;
                    }
                    if let Some((args, f)) = self.db.udfs.find_applicable(*bound, v) {
                        seen.udfs.insert((args, v));
                        vals[v as usize] = call_udf(f, args, vals);
                        *bound = bound.insert(v);
                        return Ok(true);
                    }
                }
            }
            Ok(false)
        }

        pub fn expand_tuple(
            &self,
            bound: &mut VarSet,
            vals: &mut [Value],
            target: VarSet,
            seen: &mut Evaluated,
        ) -> Expanded {
            while !target.is_subset(*bound) {
                match self.step(bound, vals, target, seen) {
                    Err(()) => return Expanded::Dropped,
                    Ok(true) => {}
                    Ok(false) => return Expanded::Stuck,
                }
            }
            Expanded::Reached
        }

        pub fn verify_fds(&self, bound: VarSet, vals: &[Value], seen: &mut Evaluated) -> bool {
            for (gi, (lhs, v, ix)) in self.guards.iter().enumerate() {
                if lhs.is_subset(bound) && bound.contains(*v) {
                    seen.guards.insert(gi);
                    let mut probe = ix.probe();
                    if !lhs.iter().all(|u| probe.descend(vals[u as usize]))
                        || probe.current() != Some(vals[*v as usize])
                    {
                        return false;
                    }
                }
            }
            for fd in self.query.fds.fds() {
                if self.query.guard_of(fd).is_some() || !fd.lhs.is_subset(bound) {
                    continue;
                }
                for v in fd.rhs.iter() {
                    if !bound.contains(v) {
                        continue;
                    }
                    if let Some((args, f)) = self.db.udfs.find_applicable(fd.lhs, v) {
                        seen.udfs.insert((args, v));
                        if call_udf(f, args, vals) != vals[v as usize] {
                            return false;
                        }
                    }
                }
            }
            true
        }

        /// What `seen` amounts to in the programs' vocabulary:
        /// `(guarded, inputs, out)` per distinct check.
        pub fn keys(&self, seen: &Evaluated) -> BTreeSet<(bool, VarSet, u32)> {
            let guards = seen.guards.iter().map(|&gi| {
                let (lhs, v, _) = &self.guards[gi];
                (true, *lhs, *v)
            });
            let udfs = seen.udfs.iter().map(|&(args, v)| (false, args, v));
            guards.chain(udfs).collect()
        }
    }

    fn call_udf(f: &fdjoin::storage::UdfFn, args: VarSet, vals: &[Value]) -> Value {
        let argv: Vec<Value> = args.iter().map(|u| vals[u as usize]).collect();
        f(&argv)
    }
}

mod compiled_vs_interpreted {
    use super::reference::{Evaluated, Expanded, Interpreter};
    use super::*;
    use fdjoin::core::{JoinError, Program};
    use fdjoin::storage::Value;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    /// Values are drawn from `0..DOMAIN`: small enough that random tuples
    /// pass random checks often, large enough that they also fail.
    const DOMAIN: u64 = 3;

    fn random_subset(rng: &mut StdRng, of: VarSet, max: u32) -> VarSet {
        let pool: Vec<u32> = of.iter().collect();
        let mut s = VarSet::EMPTY;
        for _ in 0..rng.gen_range(1..max + 1) {
            s = s.insert(pool[rng.gen_range(0..pool.len())]);
        }
        s
    }

    /// A random query — 2–3 atoms over 4–7 variables, 2–6 FDs with
    /// overlapping one- and two-variable lhs, about half of them guarded, plus whatever unguarded FDs it takes to reach
    /// the variables in no atom — over random (hence FD-violating and
    /// dangling) guard relations, with a UDF per unguarded `(FD, v)` and a
    /// few more on other argument sets for the same outputs.
    fn random_case(rng: &mut StdRng) -> (Query, Database) {
        let nv = rng.gen_range(4..8u32);
        let all = VarSet::full(nv);
        let mut b = Query::builder();
        for v in 0..nv {
            b.var(&format!("v{v}"));
        }
        let atoms: Vec<VarSet> = (0..rng.gen_range(2..4))
            .map(|_| random_subset(rng, all, 4))
            .collect();
        for (j, vars) in atoms.iter().enumerate() {
            b.atom(&format!("A{j}"), &vars.iter().collect::<Vec<_>>());
        }
        let covered = atoms.iter().fold(VarSet::EMPTY, |s, a| s.union(*a));
        let mut fds = fdjoin::query::FdSet::new();
        for _ in 0..rng.gen_range(2..7) {
            // Half the FDs fall inside an atom (guarded), half anywhere.
            let within = if rng.gen_bool(0.5) {
                atoms[rng.gen_range(0..atoms.len())]
            } else {
                all
            };
            let lhs = random_subset(rng, within, 2);
            let rhs = random_subset(rng, within, 2).minus(lhs);
            if !rhs.is_empty() {
                fds.push(fdjoin::query::Fd::new(lhs, rhs));
            }
        }
        for v in 0..nv {
            let reached = fds.closure(covered);
            if !reached.contains(v) {
                let lhs = random_subset(rng, reached, 2);
                fds.push(fdjoin::query::Fd::new(lhs, VarSet::singleton(v)));
            }
        }
        for fd in fds.fds() {
            let (l, r): (Vec<u32>, Vec<u32>) = (fd.lhs.iter().collect(), fd.rhs.iter().collect());
            b.fd(&l, &r);
        }
        let q = b.build();

        let mut db = Database::new();
        for a in q.atoms() {
            let mut rel = Relation::new(a.vars.clone());
            let rows = DOMAIN.pow(a.vars.len() as u32);
            for code in 0..rows {
                if rng.gen_bool(0.45) {
                    let row: Vec<Value> = (0..a.vars.len() as u32)
                        .map(|c| code / DOMAIN.pow(c) % DOMAIN)
                        .collect();
                    rel.push_row(&row);
                }
            }
            rel.sort_dedup();
            db.insert(a.name.clone(), rel);
        }
        let mut register = |rng: &mut StdRng, args: VarSet, v: u32| {
            let salt = rng.gen_range(0..DOMAIN);
            if rng.gen_bool(0.5) {
                // One constant per output: functions of different argument
                // sets that agree, so some tuples pass every check.
                db.udfs.register(args, v, move |_| v as u64 % DOMAIN);
            } else {
                db.udfs
                    .register(args, v, move |a| (a.iter().sum::<u64>() + salt) % DOMAIN);
            }
        };
        for fd in q.fds.fds() {
            if q.guard_of(fd).is_none() {
                for v in fd.rhs.iter() {
                    register(rng, fd.lhs, v);
                    if rng.gen_bool(0.3) {
                        let other = random_subset(rng, all.remove(v), 2);
                        register(rng, other, v);
                    }
                }
            }
        }
        (q, db)
    }

    fn random_tuple(rng: &mut StdRng, nv: usize) -> Vec<Value> {
        (0..nv).map(|_| rng.gen_range(0..DOMAIN)).collect()
    }

    fn op_keys(p: &Program) -> BTreeSet<(bool, VarSet, u32)> {
        p.op_keys().map(|k| (k.guarded, k.inputs, k.out)).collect()
    }

    /// A surviving tuple ran the whole program: its counters are the
    /// program's op counts, which are the reference's distinct checks.
    fn assert_same_checks(
        ctx: &str,
        p: &Program,
        spent: Stats,
        it: &Interpreter,
        seen: &Evaluated,
    ) {
        assert_eq!(op_keys(p), it.keys(seen), "{ctx}: checks evaluated");
        assert_eq!(spent.probes as usize, seen.guards.len(), "{ctx}: probes");
        assert_eq!(
            spent.expansions as usize,
            seen.udfs.len(),
            "{ctx}: expansions"
        );
        assert_eq!(p.len(), seen.guards.len() + seen.udfs.len(), "{ctx}: ops");
    }

    #[derive(Default, Debug)]
    struct Coverage {
        expand: [usize; 3],
        verify: [usize; 2],
        fused: [usize; 3],
        /// Fused acceptances re-checked by the target's verify list.
        lemma: usize,
        relations: usize,
        rows_expanded: usize,
        binds: usize,
    }

    /// One `(bound, target)` pair of one case, over `tuples` random tuples:
    /// expand-only, verify-only and fused programs against the reference.
    fn check_pair(
        ctx: &str,
        rng: &mut StdRng,
        (q, ex, it): (&Query, &Expander<'_>, &Interpreter<'_>),
        (bound, target): (VarSet, VarSet),
        cov: &mut Coverage,
    ) {
        let nv = q.n_vars();
        let expand = ex.compile_expand(bound, target);
        let fused = ex.compile_fused(bound, target);
        let verify = ex.compile_verify(bound);
        let verify_target = ex.compile_verify(target);
        assert_eq!(expand.is_err(), fused.is_err(), "{ctx}");
        if let Err(e) = &expand {
            assert!(
                matches!(e, JoinError::MissingUdf { from, target: t }
                    if *t == target && bound.is_subset(*from) && !target.is_subset(*from)),
                "{ctx}: {e:?}"
            );
        }
        // Each program keeps its scratch across the tuples, so every guard
        // lookup after the first resumes from the previous tuple's key.
        let mut expand_scratch = expand.as_ref().map(Program::scratch);
        let mut verify_scratch = verify.scratch();
        let mut verify_target_scratch = verify_target.scratch();
        let mut fused_scratch = fused.as_ref().map(Program::scratch);
        for _ in 0..24 {
            let tuple = random_tuple(rng, nv);

            // Expand-only.
            let (mut ref_vals, mut ref_bound, mut seen) =
                (tuple.clone(), bound, Evaluated::default());
            let outcome = it.expand_tuple(&mut ref_bound, &mut ref_vals, target, &mut seen);
            cov.expand[outcome as usize] += 1;
            match &expand {
                // A stuck schedule: no tuple gets through the reference.
                Err(_) => assert_ne!(outcome, Expanded::Reached, "{ctx}"),
                Ok(p) => {
                    assert_ne!(outcome, Expanded::Stuck, "{ctx}: compiled, yet stuck");
                    let (mut vals, mut spent) = (tuple.clone(), Stats::default());
                    let scratch = expand_scratch.as_mut().unwrap();
                    let ok = p.run(&mut vals, scratch, &mut spent);
                    assert_eq!(ok, outcome == Expanded::Reached, "{ctx}: expand accepts");
                    if ok {
                        for v in ref_bound.iter() {
                            assert_eq!(vals[v as usize], ref_vals[v as usize], "{ctx}: v{v}");
                        }
                        cov.binds += ref_bound.minus(bound).len() as usize;
                        assert_same_checks(ctx, p, spent, it, &seen);
                    }
                }
            }

            // Verify-only, over `bound`.
            let mut seen = Evaluated::default();
            let holds = it.verify_fds(bound, &tuple, &mut seen);
            cov.verify[holds as usize] += 1;
            let (mut vals, mut spent) = (tuple.clone(), Stats::default());
            assert_eq!(
                verify.run(&mut vals, &mut verify_scratch, &mut spent),
                holds,
                "{ctx}: verify"
            );
            assert_eq!(vals, tuple, "{ctx}: a verify list binds nothing");
            if holds {
                assert_same_checks(ctx, &verify, spent, it, &seen);
            }

            // Fused: what every call site but two does back to back.
            let (Ok(p), Ok(scratch)) = (&fused, &mut fused_scratch) else {
                continue;
            };
            let (mut ref_vals, mut ref_bound, mut seen) =
                (tuple.clone(), bound, Evaluated::default());
            let reached = it.expand_tuple(&mut ref_bound, &mut ref_vals, target, &mut seen)
                == Expanded::Reached;
            let survives = reached && it.verify_fds(target, &ref_vals, &mut seen);
            cov.fused[reached as usize + survives as usize] += 1;
            let (mut vals, mut spent) = (tuple.clone(), Stats::default());
            let accepted = p.run(&mut vals, scratch, &mut spent);
            assert_eq!(accepted, survives, "{ctx}: fused");
            if accepted {
                for v in ref_bound.iter() {
                    assert_eq!(vals[v as usize], ref_vals[v as usize], "{ctx}: v{v}");
                }
                assert_same_checks(ctx, p, spent, it, &seen);
                // What SMA's and CSMA's final pass relies on to skip its
                // verify list on a fused program's output: the verify list
                // of the program's target accepts whatever it accepts.
                let mut bound_vals = vals.clone();
                assert!(
                    verify_target.run(
                        &mut bound_vals,
                        &mut verify_target_scratch,
                        &mut Stats::default()
                    ),
                    "{ctx}: fused accepts what verify({target}) rejects"
                );
                cov.lemma += 1;
            }
        }
    }

    #[test]
    fn programs_accept_bind_and_evaluate_what_the_interpreter_does() {
        let mut cov = Coverage::default();
        for seed in 0..160u64 {
            let mut rng = StdRng::seed_from_u64(0xE16 + seed);
            let (q, db) = random_case(&mut rng);
            let set = IndexSet::new();
            let paths = AccessPaths::new(&set, &q, &db).unwrap();
            let mut stats = Stats::default();
            let ex = Expander::new(&q, &db, &paths, &mut stats).unwrap();
            let it = Interpreter::new(&q, &db);
            let all = VarSet::full(q.n_vars() as u32);

            for pair in 0..6 {
                let bound = random_subset(&mut rng, all, 5);
                // Mostly derivable targets (some closed, some partial), now
                // and then one that may be out of reach.
                let target = match pair % 3 {
                    0 => q.closure(bound),
                    1 => random_subset(&mut rng, q.closure(bound), 3),
                    _ => random_subset(&mut rng, all, 3),
                };
                let ctx = format!("seed {seed}, {} : {bound} → {target}", q.display_body());
                check_pair(&ctx, &mut rng, (&q, &ex, &it), (bound, target), &mut cov);
            }

            // `expand_relation` ≡ the reference loop, on an atom and on a
            // random relation over a random schema.
            let vars: Vec<u32> = random_subset(&mut rng, all, 3).iter().collect();
            let mut random_rel = Relation::new(vars.clone());
            for _ in 0..12 {
                random_rel.push_row(&random_tuple(&mut rng, vars.len()));
            }
            random_rel.sort_dedup();
            for rel in [db.relation(&q.atoms()[0].name).unwrap(), &random_rel] {
                let src = rel.var_set();
                let target = q.closure(src);
                let mut out_vars = rel.vars().to_vec();
                out_vars.extend(target.minus(src).iter());
                let mut expect = Relation::new(out_vars.clone());
                let mut stuck = false;
                for row in rel.rows() {
                    let mut vals = vec![0; q.n_vars()];
                    for (&v, &x) in rel.vars().iter().zip(row) {
                        vals[v as usize] = x;
                    }
                    let (mut bound, mut seen) = (src, Evaluated::default());
                    match it.expand_tuple(&mut bound, &mut vals, target, &mut seen) {
                        Expanded::Reached => {
                            let row: Vec<Value> =
                                out_vars.iter().map(|&v| vals[v as usize]).collect();
                            expect.push_row(&row);
                        }
                        Expanded::Dropped => {}
                        Expanded::Stuck => stuck = true,
                    }
                }
                expect.sort_dedup();
                match ex.expand_relation(rel, &mut stats) {
                    Ok(got) => {
                        assert!(!stuck, "seed {seed}");
                        assert_eq!(got, expect, "seed {seed}: expand_relation over {src}");
                        cov.relations += 1;
                        cov.rows_expanded += got.len();
                    }
                    Err(e) => assert!(matches!(e, JoinError::MissingUdf { .. }), "{e:?}"),
                }
            }
        }
        // The harness must not go vacuously green: every verdict of every
        // program kind has to have been exercised, plentifully.
        let [reached, dropped, stuck] = cov.expand;
        assert!(reached > 10_000 && dropped > 500 && stuck > 1000, "{cov:?}");
        assert!(cov.verify[0] > 3000 && cov.verify[1] > 8000, "{cov:?}");
        let [dangling, inconsistent, survived] = cov.fused;
        assert!(
            dangling > 500 && inconsistent > 1500 && survived > 8000,
            "{cov:?}"
        );
        assert_eq!(cov.lemma, survived, "{cov:?}");
        assert!(
            cov.binds > 6000 && cov.relations > 200 && cov.rows_expanded > 900,
            "{cov:?}"
        );
    }

    /// One verify of one full tuple, counted on the benchmark's instances:
    /// lattice-derived queries carry an FD per pair of lattice elements, and
    /// the verify list runs each *distinct* resolved check once.
    #[test]
    fn verify_lists_run_each_distinct_check_once() {
        use fdjoin::bigint::rat;
        use fdjoin::instances::normal_worst_case;
        use fdjoin::query::examples::{fig4_query, fig9_query};
        // (query, log sizes, log output, applicable (FD, v) pairs the
        // interpreter evaluated, distinct UDF checks, guard checks)
        let cases = [
            (fig9_query(), vec![rat(6, 1); 3], rat(9, 1), 207, 27, 6),
            (fig4_query(), vec![rat(12, 1); 4], rat(16, 1), 96, 12, 12),
        ];
        for (q, sizes, out, pairs, udf_checks, guard_checks) in cases {
            let db = normal_worst_case(&q, &sizes, &out).expect("integral");
            let engine = fdjoin::core::Engine::new();
            let prepared = engine.prepare(&q);
            let mut stream = fdjoin::stream::ResultStream::open(&prepared, &db).unwrap();
            let mut row = stream.next_row().expect("nonempty answer").to_vec();

            let set = IndexSet::new();
            let paths = AccessPaths::new(&set, &q, &db).unwrap();
            let mut stats = Stats::default();
            let ex = Expander::new(&q, &db, &paths, &mut stats).unwrap();
            let all = VarSet::full(q.n_vars() as u32);
            let applicable: usize = (q.fds.fds().iter())
                .filter(|fd| q.guard_of(fd).is_none())
                .map(|fd| {
                    fd.rhs
                        .iter()
                        .filter(|&v| db.udfs.find_applicable(fd.lhs, v).is_some())
                        .count()
                })
                .sum();
            assert_eq!(applicable, pairs, "{}", q.display_body());

            let verify = ex.compile_verify(all);
            let before = stats;
            assert!(verify.run(&mut row, &mut verify.scratch(), &mut stats));
            assert_eq!(
                stats.expansions - before.expansions,
                udf_checks,
                "{}",
                q.display_body()
            );
            assert_eq!(
                stats.probes - before.probes,
                guard_checks,
                "{}",
                q.display_body()
            );
            // An answer is a fixpoint: nothing to expand, and fusing
            // expansion in front of the verify list adds nothing.
            assert!(ex.compile_expand(all, all).unwrap().is_empty());
            assert_eq!(ex.compile_fused(all, all).unwrap().len(), verify.len());
        }
    }
}
