//! The traced pass: per-layer metrics measured from outside the engine.
//!
//! Two instruments. *Probes* call one layer's public functions in isolation
//! on the workload's own queries and data (its [`Unit`]s) — only the groups
//! of the layers its requests spend time in (`Spec::groups`). The *replay*
//! sends the workload's real request again with the harness tracer on, so
//! every public call the request makes is a span; the same request untraced,
//! interleaved, prices the tracing, and a second instance under an enabled
//! `Observer` prices observability.
//!
//! Probes are scheduled round-robin — every round runs each probe once — and
//! a probe's value is its best (shortest) round. A probe does the same work
//! every round, so noise only adds time, and on this box it arrives in bursts
//! of seconds (see `run.rs`): a burst then spoils one or two samples of
//! *every* probe, which the minimum ignores, instead of every sample of one.
//!
//! Times are best-of-rounds; counts come from `Stats` / `PrepStats` /
//! `DeltaStats` and repeat exactly for a seed.

use crate::gen::{rng_for, shuffle};
use crate::metrics::{owed_layers, Group, Values};
use crate::run::{guarded_request, note, Notes, RunReport};
use crate::span::{self_time_by_name, to_jsonl, Tracer};
use crate::stat::{fit_exponent, least};
use crate::sys;
use crate::workload::{Outcome, Rung, Unit, Workload};
use crate::workloads::Spec;
use fdjoin::bigint::Rational;
use fdjoin::bounds::chain::best_chain_bound;
use fdjoin::bounds::cllp::solve_cllp;
use fdjoin::bounds::csm::csm_sequence;
use fdjoin::bounds::llp::{solve_llp, LlpSolution};
use fdjoin::bounds::smproof::{scale_weights, search_good_sm_proof};
use fdjoin::bounds::DegreePair;
use fdjoin::core::{
    Algorithm, Engine, ExecOptions, JoinResult, Observer, PlanCache, PrepStats, PreparedQuery,
};
use fdjoin::delta::{DeltaBatch, DeltaOptions, DeltaStats, MaterializedView};
use fdjoin::exec::Executor;
use fdjoin::lattice::canonical_fingerprint;
use fdjoin::query::{LatticePresentation, Query};
use fdjoin::storage::{Database, Relation, TrieIndex, Value};
use fdjoin::stream::ResultStream;
use rand::rngs::StdRng;
use rand::Rng;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An alternative algorithm is not run on an instance where it is predicted
/// to do more work than this: about two seconds, at the 60–150 ns a unit of
/// `Stats::work` costs on the box this was sized on.
const ALT_WORK_CAP: f64 = (1u64 << 24) as f64;
const MAX_ROUNDS: usize = 30;
/// Maintenance batches whose `DeltaStats` are reported (the least number of
/// rounds a full pass runs).
const COUNTED_BATCHES: usize = 3;

/// How much measuring `--seconds` buys. A smoke run (under a second) goes
/// through every code path once or twice; a full run gets medians of many.
struct Effort {
    /// Requests replayed per instrument (traced, untraced, observed, not).
    replays: usize,
    min_rounds: usize,
    /// What the probe rounds may use; the rest of `--seconds` is left for the
    /// exponent ladders, the alternative algorithms and the replays.
    probe_budget: Duration,
}

impl Effort {
    fn for_seconds(seconds: f64) -> Effort {
        Effort {
            replays: ((2.0 * seconds).ceil() as usize).clamp(2, 30),
            min_rounds: if seconds >= 5.0 { COUNTED_BATCHES } else { 1 },
            probe_budget: Duration::from_secs_f64(0.55 * seconds),
        }
    }
}

/// The probes of one pass. A probe reports the nanoseconds of the call it
/// measures; whatever it does to get ready is outside its own timer.
#[derive(Default)]
struct Schedule<'a> {
    probes: Vec<(&'static str, Rep<'a>)>,
}

/// One repetition of a probe: runs it once, returns the nanoseconds measured.
type Rep<'a> = Box<dyn FnMut() -> f64 + 'a>;

/// Best-round nanoseconds per probe.
struct Best(BTreeMap<&'static str, f64>);

impl Best {
    /// `None`: the probe's group is not measured on this workload.
    fn get(&self, probe: &str) -> Option<f64> {
        self.0.get(probe).copied()
    }

    fn ns(&self, probe: &str) -> f64 {
        self.0[probe]
    }
}

impl<'a> Schedule<'a> {
    fn add(&mut self, name: &'static str, rep: impl FnMut() -> f64 + 'a) {
        assert!(
            self.probes.iter().all(|(n, _)| *n != name),
            "probe {name} registered twice"
        );
        self.probes.push((name, Box::new(rep)));
    }

    fn run(mut self, effort: &Effort) -> (Best, usize) {
        let started = Instant::now();
        let mut best = vec![f64::INFINITY; self.probes.len()];
        let mut rounds = 0;
        while rounds < effort.min_rounds
            || (rounds < MAX_ROUNDS && started.elapsed() < effort.probe_budget)
        {
            for ((_, rep), best) in self.probes.iter_mut().zip(&mut best) {
                *best = best.min(rep());
            }
            rounds += 1;
        }
        let by_name = self.probes.iter().map(|(name, _)| *name).zip(best);
        (Best(by_name.collect()), rounds)
    }
}

/// Nanoseconds `f` took.
fn ns(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as f64
}

/// Nanoseconds of the second of two back-to-back calls. For microsecond-scale
/// layers: one call per round would time the cache misses the other probes
/// left behind, not the layer.
fn ns_hot(mut f: impl FnMut()) -> f64 {
    f();
    ns(f)
}

fn run(prepared: &PreparedQuery, db: &Database, opts: &ExecOptions) -> JoinResult {
    prepared
        .execute(db, opts)
        .expect("this execution succeeded during set-up")
}

/// `log₂` sizes the way the engine keys its plans.
fn log_sizes(q: &Query, db: &Database) -> Vec<Rational> {
    q.atoms()
        .iter()
        .map(|a| {
            let len = db
                .relation(&a.name)
                .expect("unit database is complete")
                .len();
            Rational::log2_approx(len.max(1) as u64, 16)
        })
        .collect()
}

fn rows_per_relation(q: &Query, db: &Database) -> f64 {
    let total: usize = q
        .atoms()
        .iter()
        .map(|a| db.relation(&a.name).expect("complete").len())
        .sum();
    total as f64 / q.atoms().len() as f64
}

/// Nanoseconds of the first execute of a fresh `PreparedQuery` on `engine`,
/// and the planning and access-path work it did.
fn first_execute(engine: &Engine, unit: &Unit) -> (f64, PrepStats) {
    let prepared = engine.prepare(&unit.query);
    let first = ns(|| drop(run(&prepared, &unit.db, &unit.opts)));
    (first, prepared.prep_stats())
}

/// `engine` after one execution of `unit`: its caches are full.
fn warmed(engine: Engine, unit: &Unit) -> Engine {
    drop(run(&engine.prepare(&unit.query), &unit.db, &unit.opts));
    engine
}

/// A unit's planning inputs, solved once outside every timer.
struct Planned {
    pres: LatticePresentation,
    logs: Vec<Rational>,
    llp: LlpSolution,
}

type Units = Rc<Vec<Unit>>;

fn planning_probes(units: &Units, s: &mut Schedule) -> Rc<Cell<(u64, u64)>> {
    let planned: Rc<Vec<Planned>> = Rc::new(
        units
            .iter()
            .map(|unit| {
                let pres = unit.query.lattice_presentation();
                let logs = log_sizes(&unit.query, &unit.db);
                let llp = solve_llp(&pres.lattice, &pres.inputs, &logs);
                Planned { pres, logs, llp }
            })
            .collect(),
    );
    // One probe per bounds-layer entry point, summed over the units.
    let mut over = |name: &'static str, f: fn(&Unit, &Planned)| {
        let (units, planned) = (units.clone(), planned.clone());
        s.add(name, move || {
            units
                .iter()
                .zip(planned.iter())
                .map(|(u, p)| ns_hot(|| f(u, p)))
                .sum()
        });
    };
    over("presentation", |u, _| {
        black_box(u.query.lattice_presentation());
    });
    over("fingerprint", |_, p| {
        black_box(canonical_fingerprint(&p.pres.lattice, &p.pres.inputs));
    });
    over("chain_search", |_, p| {
        black_box(best_chain_bound(&p.pres.lattice, &p.pres.inputs, &p.logs));
    });
    over("llp_solve", |_, p| {
        black_box(solve_llp(&p.pres.lattice, &p.pres.inputs, &p.logs));
    });
    over("smproof_search", |_, p| {
        // The multiset SMA planning searches from: input closures with the
        // LLP dual's integer multiplicities.
        let (mult, d) = scale_weights(&p.llp.input_duals);
        let mut merged = BTreeMap::new();
        for (j, &m) in mult.iter().enumerate().filter(|(_, &m)| m > 0) {
            *merged.entry(p.pres.inputs[j]).or_insert(0u64) += m;
        }
        let multiset: Vec<_> = merged.into_iter().collect();
        black_box(search_good_sm_proof(&p.pres.lattice, &multiset, d));
    });
    over("cllp_csm", |_, p| {
        let pairs: Vec<DegreePair> = p
            .pres
            .inputs
            .iter()
            .zip(&p.logs)
            .map(|(&e, log)| DegreePair::cardinality(&p.pres.lattice, e, log.clone()))
            .collect();
        let sol = solve_cllp(&p.pres.lattice, &pairs);
        black_box(csm_sequence(&p.pres.lattice, &pairs, &sol));
    });
    over("prepare", |u, _| {
        black_box(Engine::new().prepare(&u.query));
    });

    // The first execute of a fresh PreparedQuery on index-warm engines;
    // minus the warm `solve` it is the planning still left to do.
    // Shared-cache traffic is tallied on the way.
    let traffic = Rc::new(Cell::new((0u64, 0u64)));

    // Index-warm engine, no shared plans: planning is what is left to do.
    let index_warm: Vec<Engine> = units.iter().map(|u| warmed(Engine::new(), u)).collect();
    // Index-warm engine with the plans in a shared cache: rehydration
    // (canonical relabeling) instead of solving.
    let cache = Arc::new(PlanCache::new());
    let plan_warm: Vec<Engine> = units
        .iter()
        .map(|u| warmed(Engine::with_plan_cache(cache.clone()), u))
        .collect();

    let us = units.clone();
    s.add("first_planning", move || {
        us.iter()
            .zip(&index_warm)
            .map(|(u, e)| first_execute(e, u).0)
            .sum()
    });
    let (us, tally) = (units.clone(), traffic.clone());
    s.add("first_rehydrating", move || {
        us.iter()
            .zip(&plan_warm)
            .map(|(u, e)| {
                let (first, prep) = first_execute(e, u);
                let (hits, misses) = tally.get();
                tally.set((hits + prep.shared_hits, misses + prep.shared_misses));
                first
            })
            .sum()
    });
    traffic
}

/// The largest relation any unit reads.
fn largest_relation(units: &[Unit]) -> &Relation {
    units
        .iter()
        .flat_map(|u| {
            u.query
                .atoms()
                .iter()
                .map(|a| u.db.relation(&a.name).expect("complete"))
        })
        .max_by_key(|r| r.len())
        .expect("a unit has atoms")
}

/// Every atom relation as a trie, in stored and in reversed column order.
fn build_tries(units: &[Unit]) -> Vec<TrieIndex> {
    let mut tries = Vec::new();
    for u in units {
        for atom in u.query.atoms() {
            let rel = u.db.relation(&atom.name).expect("complete");
            let reversed: Vec<u32> = rel.vars().iter().rev().copied().collect();
            tries.push(TrieIndex::build(rel, rel.vars()));
            tries.push(TrieIndex::build(rel, &reversed));
        }
    }
    tries
}

/// Kernel batch sizes, to turn the kernels' nanoseconds into rates.
struct KernelOps {
    seeks: f64,
    descends: f64,
}

fn access_path_probes(units: &Units, seed: u64, s: &mut Schedule) {
    let us = units.clone();
    s.add("index_build", move || {
        let t = Instant::now();
        let tries = build_tries(&us);
        let took = t.elapsed().as_nanos() as f64;
        drop(tries);
        took
    });

    // One 4-insert + 4-delete merge into the largest relation.
    let rel = largest_relation(units);
    let mut rng = rng_for(seed, "layers/apply_delta");
    let deletes: Vec<Vec<Value>> = (0..4.min(rel.len()))
        .map(|_| rel.row(rng.gen_range(0..rel.len())).to_vec())
        .collect();
    let inserts: Vec<Vec<Value>> = deletes
        .iter()
        .map(|row| {
            let mut fresh = row.clone();
            if let Some(last) = fresh.last_mut() {
                *last ^= 1 << 40; // no generated value has this bit
            }
            fresh
        })
        .collect();
    let victim = rel.clone();
    s.add("apply_delta", move || {
        let mut copy = victim.clone();
        ns(|| {
            black_box(copy.apply_delta(&inserts, &deletes));
        })
    });

    // Fresh engine (empty index cache) with warm shared plans: filling the
    // access-path cache (and rehydrating) is what is left to do.
    let cache = Arc::new(PlanCache::new());
    for unit in units.iter() {
        warmed(Engine::with_plan_cache(cache.clone()), unit);
    }
    let us = units.clone();
    s.add("first_filling", move || {
        us.iter()
            .map(|u| first_execute(&Engine::with_plan_cache(cache.clone()), u).0)
            .sum()
    });
}

/// The probe kernels over the largest trie: a seeded key batch, half of it
/// present rows, half near misses.
fn kernel_probes(units: &Units, seed: u64, s: &mut Schedule) -> KernelOps {
    let rel = largest_relation(units);
    let trie = Rc::new(TrieIndex::build(rel, rel.vars()));
    let mut rng = rng_for(seed, "layers/probe_keys");
    let keys: Vec<Vec<Value>> = (0..4096)
        .map(|i| {
            let mut key = rel.row(rng.gen_range(0..rel.len().max(1))).to_vec();
            if i % 2 == 1 {
                if let Some(last) = key.last_mut() {
                    *last = last.wrapping_add(rng.gen_range(1..1000));
                }
            }
            key
        })
        .collect();
    let mut firsts: Vec<Value> = keys.iter().filter_map(|k| k.first().copied()).collect();
    firsts.sort_unstable();
    const BATCHES: usize = 8;
    // How many descend calls one pass over the keys makes (a miss stops early).
    let descends_per_batch: usize = keys
        .iter()
        .map(|key| {
            let mut p = trie.probe();
            1 + key
                .iter()
                .take_while(|&&v| p.descend(v))
                .count()
                .min(key.len().saturating_sub(1))
        })
        .sum();
    let ops = KernelOps {
        seeks: (BATCHES * firsts.len()) as f64,
        descends: (BATCHES * descends_per_batch) as f64,
    };
    // Leapfrog: an ascending run of seeks along the root level.
    let t = trie.clone();
    s.add("seek", move || {
        ns(|| {
            for _ in 0..BATCHES {
                let mut p = t.probe();
                for &value in &firsts {
                    black_box(p.seek(value));
                }
            }
        })
    });
    // Point lookups: descend from the root one column at a time.
    s.add("descend", move || {
        ns(|| {
            for _ in 0..BATCHES {
                for key in &keys {
                    let mut p = trie.probe();
                    for &value in key {
                        if !p.descend(value) {
                            break;
                        }
                    }
                    black_box(p.depth());
                }
            }
        })
    });
    ops
}

/// Warm prepared queries (one per unit) and what one execution of each returns.
struct Solved {
    prepared: Vec<Arc<PreparedQuery>>,
    results: Vec<JoinResult>,
}

/// Prepares and executes every unit once, and registers the warm execution
/// the cold probes are measured against.
fn warm_solve(units: &Units, s: &mut Schedule) -> Rc<Solved> {
    let prepared: Vec<Arc<PreparedQuery>> = units
        .iter()
        .map(|u| Arc::new(Engine::new().prepare(&u.query)))
        .collect();
    let results: Vec<JoinResult> = units
        .iter()
        .zip(&prepared)
        .map(|(u, p)| run(p, &u.db, &u.opts))
        .collect();
    let solved = Rc::new(Solved { prepared, results });
    let (us, so) = (units.clone(), solved.clone());
    s.add("solve", move || {
        us.iter()
            .zip(&so.prepared)
            .map(|(u, p)| ns(|| drop(run(p, &u.db, &u.opts))))
            .sum()
    });
    solved
}

fn estimate_probe(units: &Units, solved: &Rc<Solved>, s: &mut Schedule) {
    let (us, so) = (units.clone(), solved.clone());
    s.add("estimate", move || {
        us.iter()
            .zip(&so.prepared)
            .map(|(u, p)| {
                ns_hot(|| {
                    black_box(p.estimate(&u.db).expect("unit database is complete"));
                })
            })
            .sum()
    });
}

/// CPU milliseconds accumulated inside the repetitions of one probe. Process
/// CPU time has 10 ms resolution, so only the sum over rounds means anything.
type CpuTally = Rc<Cell<f64>>;

/// The fan-out and what its merge feeds `sort_dedup`.
fn merge_probes(units: &Units, solved: &Rc<Solved>, seed: u64, s: &mut Schedule) -> [CpuTally; 2] {
    // The units' solves at parallelism 1 and 2: wall per round, CPU summed.
    let tallies = [CpuTally::default(), CpuTally::default()];
    for (tasks, name, tally) in [(1, "par1", &tallies[0]), (2, "par2", &tallies[1])] {
        let (us, so, tally) = (units.clone(), solved.clone(), tally.clone());
        let opts: Vec<ExecOptions> = units
            .iter()
            .map(|u| u.opts.clone().parallelism(tasks))
            .collect();
        s.add(name, move || {
            let cpu_before = sys::cpu_ms();
            let wall = us
                .iter()
                .zip(&so.prepared)
                .zip(&opts)
                .map(|((u, p), o)| ns(|| drop(run(p, &u.db, o))))
                .sum();
            tally.set(tally.get() + sys::cpu_ms() - cpu_before);
            wall
        });
    }

    // The first unit's output, once already in order (what the merge step of
    // a parallel solve hands `sort_dedup`) and once shuffled.
    let mut order: Vec<usize> = (0..solved.results[0].output.len()).collect();
    for name in ["sort_sorted", "sort_shuffled"] {
        let (so, rows) = (solved.clone(), order.clone());
        s.add(name, move || {
            let output = &so.results[0].output;
            let mut rel = Relation::new(output.vars().to_vec());
            for &i in &rows {
                rel.push_row(output.row(i));
            }
            ns(|| rel.sort_dedup())
        });
        shuffle(&mut order, &mut rng_for(seed, "layers/sort_dedup"));
    }
    tallies
}

fn serving_probes(units: &Units, solved: &Rc<Solved>, s: &mut Schedule) {
    // The second database of a batch: the workload's own when it has one for
    // the same query, else the first again.
    let second = units
        .get(1)
        .filter(|u| u.query.display_body() == units[0].query.display_body())
        .map_or(0, |_| 1);
    let one = Arc::new(vec![units[0].db.clone()]);
    let two = Arc::new(vec![units[0].db.clone(), units[second].db.clone()]);
    let executor = Rc::new(Executor::with_threads(2));

    for (name, db) in [("inline_first", 0), ("inline_second", second)] {
        let (us, so) = (units.clone(), solved.clone());
        s.add(name, move || {
            ns(|| drop(run(&so.prepared[0], &us[db].db, &us[0].opts)))
        });
    }
    let (us, so, ex) = (units.clone(), solved.clone(), executor.clone());
    s.add("submit_one", move || {
        ns(|| drop(ex.submit(&so.prepared[0], &one, &us[0].opts).wait()))
    });
    let (us, so) = (units.clone(), solved.clone());
    s.add("batch_two", move || {
        ns(|| drop(executor.submit(&so.prepared[0], &two, &us[0].opts).wait()))
    });
}

/// The stream probes' subject: the session's own query and database.
struct Streamed {
    prepared: PreparedQuery,
    db: Database,
}

impl Streamed {
    fn open(&self) -> ResultStream<'_> {
        ResultStream::open(&self.prepared, &self.db).expect("unit database is complete")
    }
}

/// Row count and enumeration delay of one full drain, in deterministic probes.
struct Drain {
    rows: f64,
    probes: f64,
    /// Carmeli–Kröll delay: the most index probes between two consecutive
    /// answers (or between the last answer and exhaustion).
    max_gap: f64,
}

fn stream_probes(unit: &Unit, s: &mut Schedule) -> Drain {
    let st = Rc::new(Streamed {
        prepared: Engine::new().prepare(&unit.query),
        db: unit.db.clone(),
    });
    let drain = {
        let mut stream = st.open(); // also builds the tries every later open reuses
        let (mut before, mut max_gap, mut rows) = (stream.stats().probes, 0u64, 0u64);
        loop {
            let more = stream.next_row().is_some();
            let after = stream.stats().probes;
            max_gap = max_gap.max(after - before);
            before = after;
            if !more {
                break;
            }
            rows += 1;
        }
        Drain {
            rows: rows as f64,
            probes: before as f64,
            max_gap: max_gap as f64,
        }
    };

    let t = st.clone();
    s.add("stream_open", move || ns_hot(|| drop(t.open())));
    let t = st.clone();
    s.add("stream_first_row", move || {
        let mut stream = t.open();
        black_box(stream.next_row().is_some());
        let mut stream = t.open();
        ns(|| {
            black_box(stream.next_row().is_some());
        })
    });
    let t = st.clone();
    s.add("stream_exists", move || {
        let mut stream = t.open();
        black_box(stream.exists());
        let mut stream = t.open();
        ns(|| {
            black_box(stream.exists());
        })
    });
    let t = st.clone();
    s.add("stream_drain", move || {
        let mut stream = t.open();
        ns(|| while stream.next_row().is_some() {})
    });
    // Suspend/resume mid-enumeration, one page in.
    let t = st.clone();
    s.add("stream_checkpoint", move || {
        let mut stream = t.open();
        drop(stream.limit(512));
        ns_hot(|| {
            black_box(stream.checkpoint());
        })
    });
    let t = st.clone();
    s.add("stream_resume", move || {
        let mut stream = t.open();
        drop(stream.limit(512));
        let ck = stream.checkpoint();
        ns_hot(|| drop(ResultStream::resume(&t.prepared, &t.db, &ck).expect("fresh checkpoint")))
    });
    // The two enumeration engines side by side: the drain above against the
    // materializing Generic-Join over the same tries.
    s.add("stream_gj", move || {
        let gj = ExecOptions::new()
            .algorithm(Algorithm::GenericJoin)
            .parallelism(1);
        ns(|| drop(run(&st.prepared, &st.db, &gj)))
    });
    drain
}

/// The `k`-th maintenance batch, in the shape of `delta_apply`'s requests:
/// per relation four present rows out, and four rows in that give one present
/// row the last column of another — new edges over the graph's own vertices.
/// Only for FD-free queries: a recombined row could break an FD.
fn churn_batch(unit: &Unit, k: usize, rng: &mut StdRng) -> DeltaBatch {
    const CHURN: usize = 4;
    let mut batch = DeltaBatch::new();
    for atom in unit.query.atoms() {
        let rel = unit
            .db
            .relation(&atom.name)
            .expect("unit database is complete");
        for i in 0..CHURN {
            let leaving = rel.row((k * CHURN + i) % rel.len());
            batch.push_delete(atom.name.clone(), leaving.to_vec());
            let mut fresh = rel.row(rng.gen_range(0..rel.len())).to_vec();
            if let Some(last) = fresh.last_mut() {
                *last = *rel
                    .row(rng.gen_range(0..rel.len()))
                    .last()
                    .expect("rows have columns");
            }
            batch.push_insert(atom.name.clone(), fresh);
        }
    }
    batch
}

fn maintenance_probes(units: &Units, seed: u64, s: &mut Schedule) -> Rc<Cell<DeltaStats>> {
    let prepared = Arc::new(Engine::new().prepare(&units[0].query));
    let options = DeltaOptions::new().exec(units[0].opts.clone());
    let materialize = move |prepared: &Arc<PreparedQuery>, db: Database| {
        MaterializedView::materialize(prepared.clone(), db, options.clone())
            .expect("the unit executes")
    };
    let mut view = materialize(&prepared, units[0].db.clone());
    let mut rng = rng_for(seed, "layers/churn");
    // Batch 0 plans the delta profile; the measured batches are steady-state.
    view.apply_delta(&churn_batch(&units[0], 0, &mut rng))
        .expect("seeded batch applies");

    let (us, p) = (units.clone(), prepared.clone());
    s.add("materialize", move || {
        let db = us[0].db.clone();
        let t = Instant::now();
        let fresh = materialize(&p, db);
        let took = t.elapsed().as_nanos() as f64;
        drop(fresh);
        took
    });
    // One probe applies the next batch and then recomputes from scratch over
    // the same database: the pair is the incremental-vs-recompute tradeoff.
    let total = Rc::new(Cell::new(DeltaStats::default()));
    let recompute_ns = Rc::new(Cell::new(0.0));
    let (us, tally, recompute) = (units.clone(), total.clone(), recompute_ns.clone());
    let mut k = 0;
    s.add("delta_apply", move || {
        k += 1;
        let batch = churn_batch(&us[0], k, &mut rng);
        let t = Instant::now();
        let stats = view.apply_delta(&batch).expect("seeded batch applies");
        let took = t.elapsed().as_nanos() as f64;
        // Counters are taken over the first batches only, which every pass
        // applies: how many more fit the budget varies from pass to pass,
        // and the counters must not.
        if k <= COUNTED_BATCHES {
            let mut sum = tally.get();
            sum.merge(&stats);
            tally.set(sum);
        }
        recompute.set(ns(|| drop(run(&prepared, view.database(), &us[0].opts))));
        took
    });
    s.add("delta_recompute", move || recompute_ns.get());
    total
}

/// Deterministic work and cold wall time of `algorithm` on one instance, or
/// `None` when the algorithm does not apply to the query (no good chain, no
/// good SM-proof, …).
fn cold_run(q: &Query, db: &Database, algorithm: Algorithm) -> Option<(f64, f64)> {
    let opts = ExecOptions::new().algorithm(algorithm).parallelism(1);
    let prepared = Engine::new().prepare(q);
    let t = Instant::now();
    let result = prepared.execute(db, &opts).ok()?;
    Some((result.stats.work() as f64, t.elapsed().as_secs_f64() * 1e3))
}

/// What walking one algorithm up the ladder towards the workload's own size
/// found, stopping before an instance predicted to need more than the cap.
struct Climb {
    /// (rows per relation, deterministic work) of every instance it ran on.
    points: Vec<(f64, f64)>,
    /// One-shot (cold: planning and index builds included) wall time over the
    /// units — extrapolated from the last instance run when `!reached`.
    own_ms: f64,
    reached: bool,
}

/// `None`: the algorithm does not apply to this query. Whether to go on is
/// decided on predicted *work*, a deterministic count, so that which
/// instances a climb ran on — hence every exponent fitted to them — repeats
/// exactly for a seed.
fn climb(units: &[Unit], ladder: &[Rung], algorithm: Algorithm) -> Option<Climb> {
    let q = &units[0].query;
    let own_n = rows_per_relation(q, &units[0].db);
    let mut points: Vec<(f64, f64)> = Vec::new();
    let mut last_ms = 0.0;
    // Work at `n`, from the last instance run and the growth between the last
    // two (quadratic until two say otherwise, never below linear).
    let predicted_work = |points: &[(f64, f64)], n: f64| {
        let (last_n, last_work) = points[points.len() - 1];
        let exponent = match points {
            [.., (prev_n, prev_work), _] => {
                ((last_work / prev_work).log2() / (last_n / prev_n).log2()).max(1.0)
            }
            _ => 2.0,
        };
        last_work * (n / last_n).powf(exponent)
    };
    let own = (own_n, &units[0].db);
    for (n, db) in ladder.iter().map(|r| (r.n, &r.db)).chain([own]) {
        if !points.is_empty() && predicted_work(&points, n) > ALT_WORK_CAP {
            let growth = predicted_work(&points, own_n) / points[points.len() - 1].1;
            return Some(Climb {
                own_ms: last_ms * growth * units.len() as f64,
                points,
                reached: false,
            });
        }
        let (work, ms) = cold_run(q, db, algorithm)?;
        points.push((n, work.max(1.0)));
        last_ms = ms;
    }
    let rest_ms: f64 = units[1..]
        .iter()
        .map(|unit| cold_run(&unit.query, &unit.db, algorithm).map(|(_, ms)| ms))
        .sum::<Option<f64>>()?;
    Some(Climb {
        points,
        own_ms: last_ms + rest_ms,
        reached: true,
    })
}

/// The paper's claim as counts: distance to the bounds, work exponents, and
/// what every other algorithm would have cost.
fn paper_claim(
    units: &[Unit],
    w: &dyn Workload,
    solved: &Solved,
    baseline: bool,
    v: &mut Values,
    notes: &mut Notes,
) {
    // Distance, in doublings, between what happened and what was promised.
    let mut work_gap = Vec::new();
    let mut rows_gap = Vec::new();
    let mut estimate_gap = Vec::new();
    for ((unit, prepared), result) in units.iter().zip(&solved.prepared).zip(&solved.results) {
        let pres = unit.query.lattice_presentation();
        let glvv = solve_llp(
            &pres.lattice,
            &pres.inputs,
            &log_sizes(&unit.query, &unit.db),
        )
        .value
        .to_f64();
        let budget = result
            .predicted_log_bound
            .as_ref()
            .map_or(glvv, Rational::to_f64);
        let log_work = (result.stats.work().max(1) as f64).log2();
        work_gap.push(log_work - budget);
        rows_gap.push((result.output.len().max(1) as f64).log2() - glvv);
        let estimate = prepared.estimate(&unit.db).expect("complete");
        estimate_gap.push(estimate.log_max.to_f64() - log_work);
    }
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    v.set("core.work_minus_bound_log2", mean(&work_gap));
    v.set("core.rows_minus_bound_log2", mean(&rows_gap));
    v.set("core.estimate_minus_work_log2", mean(&estimate_gap));

    let ladder = w.ladder();
    let used = solved.results[0].algorithm_used;
    for (name, algorithm) in [
        ("core.alt_ms.chain", Algorithm::Chain),
        ("core.alt_ms.sma", Algorithm::Sma),
        ("core.alt_ms.csma", Algorithm::Csma),
        ("core.alt_ms.generic_join", Algorithm::GenericJoin),
        ("core.alt_ms.binary_join", Algorithm::BinaryJoin),
    ] {
        let Some(climb) = climb(units, &ladder, algorithm) else {
            note(notes, name, "n/a: does not apply to this query");
            continue;
        };
        v.set(name, climb.own_ms);
        if !climb.reached {
            note(notes, name, "skipped: extrapolated, over the cap");
        }
        // Work exponents over the instances the climb ran on: of the
        // algorithm that serves the requests (it reaches the top), and of
        // the FD-oblivious baseline as far as it got.
        if climb.points.len() >= 2 {
            if algorithm == used {
                v.set("core.work_exponent", fit_exponent(&climb.points));
            }
            if baseline && algorithm == Algorithm::GenericJoin {
                v.set("core.baseline_work_exponent", fit_exponent(&climb.points));
            }
        }
    }
}

/// Latencies (ms) of `replays` requests with an instrument on and as many
/// with it off, alternating so that a noise burst lands on both sides;
/// failures are counted, not dropped.
#[derive(Default)]
struct Paired {
    on_ms: Vec<f64>,
    off_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
}

impl Paired {
    /// What the instrument costs, in percent of the uninstrumented request
    /// (best against best, like every other time here).
    fn overhead_pct(&self) -> f64 {
        if self.on_ms.is_empty() || self.off_ms.is_empty() {
            return 0.0;
        }
        (least(self.on_ms.iter().copied()) / least(self.off_ms.iter().copied()) - 1.0) * 100.0
    }
}

fn paired(replays: usize, mut request: impl FnMut(bool) -> Outcome) -> Paired {
    let mut p = Paired::default();
    for _ in 0..replays {
        for instrumented in [true, false] {
            let outcome = request(instrumented);
            p.attempted += 1;
            match outcome.verdict {
                Ok(()) => {
                    let side = if instrumented {
                        &mut p.on_ms
                    } else {
                        &mut p.off_ms
                    };
                    side.push(outcome.latency.as_secs_f64() * 1e3);
                }
                Err(e) => {
                    p.failed += 1;
                    p.first_error.get_or_insert(e);
                }
            }
        }
    }
    p
}

pub fn traced_run(spec: &Spec, seed: u64, seconds: f64) -> Result<RunReport, String> {
    use Group::*;
    let off = Observer::disabled();
    let mut w = spec.setup(seed, &off)?;
    let units: Units = Rc::new(w.units());
    let mut v = Values::default();
    let mut notes = Notes::new();
    let has = |group: Group| spec.groups.contains(&group);

    // Register the probes of the workload's groups, then run them round-robin.
    let mut schedule = Schedule::default();
    let s = &mut schedule;
    // Every group but the stream's and the view's executes the units, or
    // measures a cold execution against the warm one.
    let solved = spec
        .groups
        .iter()
        .any(|g| !matches!(g, Stream | Delta))
        .then(|| warm_solve(&units, s));
    let solved_ref = || solved.as_ref().expect("registered for this group");
    let traffic = has(Planning).then(|| planning_probes(&units, s));
    if has(Estimate) {
        estimate_probe(&units, solved_ref(), s);
    }
    if has(AccessPaths) {
        access_path_probes(&units, seed, s);
    }
    let kernel = has(Solve).then(|| kernel_probes(&units, seed, s));
    let cpu = has(Merge).then(|| merge_probes(&units, solved_ref(), seed, s));
    if has(Serving) {
        serving_probes(&units, solved_ref(), s);
    }
    let drain = has(Stream).then(|| stream_probes(&units[0], s));
    let delta = has(Delta).then(|| maintenance_probes(&units, seed, s));
    let effort = Effort::for_seconds(seconds);
    let (m, rounds) = schedule.run(&effort);
    note(&mut notes, "probe_rounds", rounds);

    // Probes that are a metric as they stand (ns in, the metric's unit out).
    for (metric, probe, per_unit) in [
        ("query.presentation_us", "presentation", 1e3),
        ("lattice.fingerprint_us", "fingerprint", 1e3),
        ("bounds.chain_search_us", "chain_search", 1e3),
        ("bounds.llp_solve_us", "llp_solve", 1e3),
        ("bounds.smproof_search_us", "smproof_search", 1e3),
        ("bounds.cllp_csm_us", "cllp_csm", 1e3),
        ("core.prepare_us", "prepare", 1e3),
        ("core.cost.estimate_us", "estimate", 1e3),
        ("storage.apply_delta_us", "apply_delta", 1e3),
        ("storage.index_build_ms", "index_build", 1e6),
        ("storage.sort_dedup_ms", "sort_shuffled", 1e6),
        ("storage.sort_dedup_sorted_ms", "sort_sorted", 1e6),
        ("stream.open_us", "stream_open", 1e3),
        ("stream.first_row_us", "stream_first_row", 1e3),
        ("stream.exists_us", "stream_exists", 1e3),
        ("stream.resume_us", "stream_resume", 1e3),
        ("stream.checkpoint_us", "stream_checkpoint", 1e3),
        ("delta.materialize_ms", "materialize", 1e6),
    ] {
        if let Some(ns) = m.get(probe) {
            v.set(metric, ns / per_unit);
        }
    }
    // Cold minus warm; a difference of two timings can dip below zero in the
    // noise when the layer costs nothing (no plans to make, say).
    let beyond_warm = |first: &str| (m.ns(first) - m.ns("solve")).max(0.0);
    if let Some(traffic) = traffic {
        v.set("core.plan_ms", beyond_warm("first_planning") / 1e6);
        v.set(
            "core.plan_cache.rehydrate_us",
            beyond_warm("first_rehydrating") / 1e3,
        );
        let (hits, misses) = traffic.get();
        v.set(
            "core.plan_cache.shared_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
    }
    if has(AccessPaths) {
        v.set("core.index_fill_ms", beyond_warm("first_filling") / 1e6);
        v.set(
            "storage.index_bytes",
            build_tries(&units)
                .iter()
                .map(|t| t.heap_bytes() as f64)
                .sum(),
        );
    }
    if let Some(kernel) = kernel {
        v.set("storage.probe_seek_mops", kernel.seeks / m.ns("seek") * 1e3);
        v.set(
            "storage.probe_descend_mops",
            kernel.descends / m.ns("descend") * 1e3,
        );
        let results = &solved_ref().results;
        let total = |f: &dyn Fn(&JoinResult) -> u64| results.iter().map(f).sum::<u64>() as f64;
        let work = total(&|r| r.stats.work());
        let probes = total(&|r| r.stats.probes);
        let rows = total(&|r| r.output.len() as u64);
        v.set("core.solve_ms", m.ns("solve") / 1e6);
        v.set("core.ns_per_probe", m.ns("solve") / probes.max(1.0));
        v.set("core.work_per_req", work);
        v.set("core.probes_per_req", probes);
        v.set("core.expansions_per_req", total(&|r| r.stats.expansions));
        v.set(
            "core.intermediate_per_req",
            total(&|r| r.stats.intermediate_tuples),
        );
        v.set("core.output_rows_per_req", rows);
        v.set("core.useful_ratio", rows / work.max(1.0));
    }
    if let Some(cpu) = cpu {
        v.set("core.par.x2_speedup", m.ns("par1") / m.ns("par2"));
        v.set("core.par.cpu_ratio", cpu[1].get() / cpu[0].get().max(1e-9));
    }
    if has(Serving) {
        v.set(
            "exec.submit_overhead_us",
            (m.ns("submit_one") - m.ns("inline_first")) / 1e3,
        );
        v.set(
            "exec.batch_x2_speedup",
            (m.ns("inline_first") + m.ns("inline_second")) / m.ns("batch_two"),
        );
    }
    if let Some(drain) = drain {
        v.set("stream.row_ns", m.ns("stream_drain") / drain.rows.max(1.0));
        v.set("stream.probes_per_row", drain.probes / drain.rows.max(1.0));
        v.set("stream.max_probes_between_rows", drain.max_gap);
        v.set(
            "stream.drain_over_gj_ratio",
            m.ns("stream_drain") / m.ns("stream_gj"),
        );
    }
    if let Some(delta) = delta {
        let delta = delta.get();
        let batches = delta.batches.max(1) as f64;
        v.set(
            "delta.join_work_per_batch",
            delta.join_work as f64 / batches,
        );
        v.set(
            "delta.revalidated_per_batch",
            delta.revalidated as f64 / batches,
        );
        v.set(
            "delta.specialized_share",
            delta.specialized_deltas as f64 / delta.delta_joins.max(1) as f64,
        );
        v.set("delta.full_recomputes", delta.full_recomputes as f64);
        v.set(
            "delta.speedup_vs_recompute",
            m.ns("delta_recompute") / m.ns("delta_apply"),
        );
    }
    if has(Claim) {
        paper_claim(
            &units,
            w.as_ref(),
            solved_ref(),
            has(Baseline),
            &mut v,
            &mut notes,
        );
    }
    drop(solved);
    drop(units);

    // Replay: the real request, traced and untraced in turn.
    let mut tracer = Tracer::new(true);
    let mut untraced = Tracer::disabled();
    let prep_before = w.prep_window();
    let replay = paired(effort.replays, |traced| {
        if traced {
            let root = tracer.enter("request");
            let outcome = guarded_request(w.as_mut(), &mut tracer);
            tracer.exit(root);
            outcome
        } else {
            guarded_request(w.as_mut(), &mut untraced)
        }
    });
    let prep = w.prep_window().since(&prep_before);
    let per_request = |count: u64| count as f64 / replay.attempted.max(1) as f64;
    v.set("core.prep.solves_per_req", per_request(prep.solves()));
    v.set(
        "storage.index_builds_per_req",
        per_request(prep.index_builds),
    );
    v.set("storage.index_hits_per_req", per_request(prep.index_hits));
    v.set(
        "storage.index_evictions_per_req",
        per_request(prep.index_evictions),
    );
    v.set("trace.overhead_pct", replay.overhead_pct());
    // The request as this traced process sees it: the figure the probes
    // above are shares of.
    if !replay.off_ms.is_empty() {
        let best = least(replay.off_ms.iter().copied());
        note(&mut notes, "replay_request_ms", format!("{best:.4}"));
    }

    let spans = tracer.take_spans();
    let (by_name, roots_ns) = self_time_by_name(&spans);
    let self_sum: u64 = by_name.values().sum();
    if (self_sum as f64 - roots_ns as f64).abs() > 0.02 * roots_ns as f64 {
        return Err(format!(
            "span self times sum to {self_sum} ns, request spans to {roots_ns} ns"
        ));
    }
    for (name, own) in &by_name {
        let share = 100.0 * *own as f64 / roots_ns.max(1) as f64;
        note(
            &mut notes,
            &format!("self_share.{name}"),
            format!("{share:.1}%"),
        );
    }
    let out_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let path = out_dir.join(format!("trace-{}.jsonl", spec.name));
    std::fs::write(&path, to_jsonl(&spans)).map_err(|e| format!("{}: {e}", path.display()))?;
    note(
        &mut notes,
        "spans",
        format!("{} -> {}", spans.len(), path.display()),
    );

    // Observability: the same request on a second instance whose engine
    // carries an enabled observer, against this one.
    let on = Observer::enabled();
    let mut observed = spec.setup(seed, &on)?;
    drop(on.drain_spans());
    let mut emitted = 0usize;
    let observing = paired(effort.replays, |observe| {
        if observe {
            let outcome = guarded_request(observed.as_mut(), &mut untraced);
            emitted += on.drain_spans().len();
            outcome
        } else {
            guarded_request(w.as_mut(), &mut untraced)
        }
    });
    v.set("obs.enabled_overhead_pct", observing.overhead_pct());
    v.set("obs.spans_per_req", emitted as f64 / effort.replays as f64);
    v.set("obs.dropped_spans", on.dropped_spans() as f64);

    v.require(owed_layers(spec.groups))?;

    // The instance the replay ran on must still pass its end-of-run checks.
    let finished = w.finish(replay.attempted + observing.attempted / 2);
    let attempted = replay.attempted + observing.attempted;
    let failed = replay.failed + observing.failed;
    let first_error = replay
        .first_error
        .or(observing.first_error)
        .or(finished.clone().err());
    Ok(RunReport {
        attempted,
        failed,
        correct: failed == 0 && finished.is_ok(),
        first_error,
        values: v,
        algorithm_used: w.algorithm_used(),
        notes,
    })
}
