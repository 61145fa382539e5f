//! What a workload is to the harness: a seeded set-up, a request the closed
//! loop repeats, and what the traced pass needs to measure its layers.

use crate::gen::checksum;
use crate::span::Tracer;
use fdjoin::core::{
    Algorithm, Engine, ExecOptions, JoinError, JoinResult, Observer, PrepStats, PreparedQuery,
    Stats,
};
use fdjoin::query::Query;
use fdjoin::storage::{Database, Relation};
use std::time::{Duration, Instant};

/// One (query, database, options) triple a workload's requests execute —
/// the subject the per-layer probes are run on.
pub struct Unit {
    pub query: Query,
    pub db: Database,
    pub opts: ExecOptions,
}

/// A smaller instance of the workload's first unit, for exponent fits.
pub struct Rung {
    /// Rows per relation (the paper's `N`).
    pub n: f64,
    pub db: Database,
}

/// The outcome of one request: how long the engine calls took, and whether
/// every check on what they returned passed.
pub struct Outcome {
    pub latency: Duration,
    pub verdict: Result<(), String>,
}

/// Oracle-derived expectation for one materialized output.
#[derive(Clone, Debug)]
pub struct Expect {
    pub rows: usize,
    pub checksum: u64,
    /// `Stats::deterministic()` of the first run; every later run must
    /// repeat it exactly.
    pub stats: Stats,
}

impl Expect {
    /// Run `oracle` (a second algorithm family, on an engine of its own) and
    /// the workload's own first execution; they must agree before anything
    /// is timed.
    pub fn establish(
        query: &Query,
        db: &Database,
        oracle: Algorithm,
        first: &JoinResult,
    ) -> Result<Expect, String> {
        let reference = Engine::new()
            .prepare(query)
            .execute(db, &ExecOptions::new().algorithm(oracle))
            .map_err(|e| format!("oracle {oracle} failed: {e}"))?;
        let expect = Expect {
            rows: reference.output.len(),
            checksum: checksum(&reference.output),
            stats: first.stats.deterministic(),
        };
        expect
            .check_output(&first.output)
            .map_err(|e| format!("first run disagrees with oracle {oracle}: {e}"))?;
        Ok(expect)
    }

    pub fn check_output(&self, output: &Relation) -> Result<(), String> {
        if output.len() != self.rows {
            return Err(format!("{} rows, expected {}", output.len(), self.rows));
        }
        let sum = checksum(output);
        if sum != self.checksum {
            return Err(format!("checksum {sum:#x}, expected {:#x}", self.checksum));
        }
        Ok(())
    }

    pub fn check(&self, result: &Result<JoinResult, JoinError>) -> Result<(), String> {
        let r = result.as_ref().map_err(|e| format!("engine error: {e}"))?;
        self.check_output(&r.output)?;
        if r.stats.deterministic() != self.stats {
            return Err(format!(
                "deterministic stats drifted: {} vs first run {}",
                r.stats.deterministic(),
                self.stats
            ));
        }
        Ok(())
    }
}

/// Time one engine call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed())
}

pub trait Workload {
    /// The algorithm the workload's requests resolved to (so a changed
    /// `Auto` choice is visible in the report).
    fn algorithm_used(&self) -> String;

    /// One request: engine calls (timed, wrapped in spans when the tracer is
    /// on) followed by the checks on their results (not timed).
    fn request(&mut self, tracer: &mut Tracer) -> Outcome;

    /// Planning and access-path work since the caches were warm, summed over
    /// the prepared queries the requests ran on.
    fn prep_window(&self) -> PrepStats;

    /// Checks that only make sense after the loop: warm workloads planned and
    /// built nothing, the delta view still equals a fresh execution, ….
    fn finish(&mut self, requests: u64) -> Result<(), String>;

    /// The (query, db, options) triples the requests execute.
    fn units(&self) -> Vec<Unit>;

    /// Instances of the first unit's query in ascending size, ending below
    /// the workload's own, for the work-exponent fits of the `Claim` probes
    /// (the smallest ones small enough for the FD-oblivious baselines). Only
    /// workloads that measure that group have one.
    fn ladder(&self) -> Vec<Rung> {
        Vec::new()
    }
}

/// Every engine in the harness is made here, so the traced pass can hand the
/// same workload an enabled observer to price observability.
pub fn engine(obs: &Observer) -> Engine {
    Engine::new().observe(obs.clone())
}

/// A warm workload must have planned and built nothing inside the loop.
pub fn assert_warm(window: &PrepStats) -> Result<(), String> {
    if window.solves() != 0 || window.index_builds != 0 {
        return Err(format!("warm loop did planning or index work: {window}"));
    }
    Ok(())
}

/// The prep-stats window of one prepared query since `base`.
pub fn window(prepared: &PreparedQuery, base: &PrepStats) -> PrepStats {
    prepared.prep_stats().since(base)
}
