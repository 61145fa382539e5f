//! EXPLAIN / EXPLAIN ANALYZE: the human-readable account of what the
//! planner knows, what it chose, and — under ANALYZE — what the execution
//! actually did.
//!
//! The paper's planner compares *worst-case* prices (chain bound, LLP/GLVV
//! optimum, CLLP value) against a *measured* price (the degree-statistics
//! branch estimate, `fdjoin_core::cost`); `Algorithm::Auto` records the
//! comparison on an [`AutoDecision`]. EXPLAIN renders all of that for one
//! `(prepared query, database)` pair *without* executing; EXPLAIN ANALYZE
//! additionally runs the query once under a private [`Observer`] and
//! appends the observed counters, timings, and the span tree of that
//! execution.
//!
//! Pricing every plan the planner might run costs real planning work (in
//! particular the CSMA price needs the FD-expansion pass over the data,
//! which is `O(N)`), but all of it lands in the prepared query's plan
//! caches — an EXPLAIN followed by an execution pays the planning once.
//!
//! The output grammar (each line is `key: value ...`; see also
//! ARCHITECTURE.md § Observability):
//!
//! ```text
//! EXPLAIN R⋈S⋈T: 3 atoms, 3 vars, 1 fds
//!   lattice: 5 elements, distributive: no
//!   profile: R=4000 S=4000 T=4000
//!   bounds(log2): chain=17.93 llp=15.95 sma=none csma=15.95
//!   estimate(log2): avg=11.55 max=13.00 skew-gap=1.45
//!   auto: csma — no tight chain or good proof: CSMA fallback
//!   indexes: R=2 S=1 T=0 resident
//! ANALYZE
//!   algorithm: csma  rows: 132  wall: 1.243ms
//!   stats: work=18230 probes=9121 ...
//!   plans: presentations=0 solves=0 ... (this execution's window)
//!   trace:
//!     solve R⋈S⋈T [1243.0us] algorithm=csma ...
//!       index_build R [312.0us] kind=base ...
//! ```

use super::plan::PlanKey;
use super::{AutoDecision, ExecOptions, JoinError, LazyEstimate, PreparedQuery};
use crate::{AccessPaths, PrepStats, Stats};
use fdjoin_obs::{render_text_tree, Observer};
use fdjoin_storage::Database;
use std::fmt;
use std::time::{Duration, Instant};

/// The rendered planner view of one `(prepared query, database)` pair —
/// build it with [`PreparedQuery::explain`] /
/// [`PreparedQuery::explain_analyze`], read it via [`fmt::Display`] or the
/// typed fields.
#[derive(Clone, Debug)]
pub struct Explain {
    /// The query's atom names in body order (the span label).
    pub label: String,
    /// Atom / variable / FD counts.
    pub atoms: usize,
    /// Number of query variables.
    pub vars: usize,
    /// Number of functional dependencies.
    pub fds: usize,
    /// Number of elements of the closed-sets lattice.
    pub lattice_elems: usize,
    /// Whether the lattice is distributive (chain bound tight,
    /// Cor. 5.15).
    pub distributive: bool,
    /// Per-atom `(relation name, cardinality)` — the sizes of the plan-cache
    /// key (`PlanKey`) this execution's chain/LLP/SMA plans are cached under.
    pub profile: Vec<(String, u64)>,
    /// `log₂` of the best chain bound (`None`: no good chain).
    pub chain_log2: Option<f64>,
    /// `log₂` of the LLP (GLVV) optimum.
    pub llp_log2: f64,
    /// Whether a good SM-proof sequence exists for the LLP dual.
    pub sma_good_proof: bool,
    /// `log₂` of the CLLP bound CSMA would run under (`None` only if CSMA
    /// planning failed).
    pub csma_log2: Option<f64>,
    /// `log₂` of the measured average-degree branch estimate.
    pub estimate_log2_avg: f64,
    /// `log₂` of the skew-pessimistic (max-degree) branch estimate.
    pub estimate_log2_max: f64,
    /// What [`super::Algorithm::Auto`] would run here, and why — the same
    /// decision an `execute` with default options records.
    pub decision: AutoDecision,
    /// Per-atom resident access-path indexes for the relation's *current*
    /// content version: the index reuse an execution can expect before it
    /// runs.
    pub index_reuse: Vec<(String, usize)>,
    /// The observed half, present for [`PreparedQuery::explain_analyze`].
    pub analyze: Option<ExplainAnalysis>,
}

/// The observed half of an EXPLAIN ANALYZE: one traced execution's
/// counters, timings, and span tree.
#[derive(Clone, Debug)]
pub struct ExplainAnalysis {
    /// The algorithm that actually ran.
    pub algorithm: super::Algorithm,
    /// Output rows produced.
    pub rows: usize,
    /// Wall-clock time of the traced execution.
    pub wall: Duration,
    /// The execution's deterministic work counters.
    pub stats: Stats,
    /// The planning work of exactly this execution's window
    /// ([`PrepStats::since`] across it) — all zeros for a warmed query.
    pub prep_window: PrepStats,
    /// The execution's span tree, rendered as indented text
    /// ([`fdjoin_obs::render_text_tree`]).
    pub span_tree: String,
}

impl PreparedQuery {
    /// Render the planner's view of this query over `db` without
    /// executing: lattice shape, every worst-case bound vs. the measured
    /// estimate, the `Auto` decision and its reason, and the expected
    /// access-path index reuse. See the module docs for the output grammar.
    pub fn explain(&self, db: &Database) -> Result<Explain, JoinError> {
        self.build_explain(db, false)
    }

    /// [`PreparedQuery::explain`] plus one traced execution (default
    /// options): the returned [`Explain::analyze`] carries the observed
    /// algorithm, row count, wall time, work counters, the planning window,
    /// and the execution's span tree. The trace runs under a private
    /// recorder, so it neither requires nor disturbs an engine-wide
    /// [`Observer`].
    pub fn explain_analyze(&self, db: &Database) -> Result<Explain, JoinError> {
        self.build_explain(db, true)
    }

    fn build_explain(&self, db: &Database, analyze: bool) -> Result<Explain, JoinError> {
        let q = &self.query;
        let opts = ExecOptions::new();
        let raw_lens = self.size_profile(db)?;
        let key = PlanKey::new(raw_lens.clone());
        // Price every plan the planner might run (all land in the caches).
        let chain_log2 = self.chain_plan(&key).map(|cb| cb.log_bound.to_f64());
        let llp_log2 = self.llp_plan(&key).value.to_f64();
        let sma_good_proof = self.sma_plan(&key).is_ok();
        let csma_log2 = {
            let paths = AccessPaths::with_token(&self.indexes, q, db, self.token)?;
            let mut scratch = Stats::default();
            let ex = crate::Expander::new(q, db, &paths, &mut scratch)?;
            self.csma_plan(&PlanKey::new(ex.input_lens(&mut scratch)?))
                .ok()
                .map(|p| p.log_bound.to_f64())
        };
        let lazy = LazyEstimate::new(self, db);
        let estimate = lazy.get().map_err(Clone::clone)?;
        let decision = self.choose(&lazy, &key, &opts);
        let mut profile = Vec::with_capacity(q.atoms().len());
        let mut index_reuse = Vec::with_capacity(q.atoms().len());
        for (a, &len) in q.atoms().iter().zip(&raw_lens) {
            profile.push((a.name.clone(), len));
            let version = db.relation(&a.name)?.version();
            index_reuse.push((a.name.clone(), self.indexes.cached_for(&a.name, version)));
        }
        let analyze = if analyze {
            let trace = Observer::enabled();
            let before = self.prep_stats();
            let started = Instant::now();
            let result = self.execute_with(db, &opts, &trace)?;
            let wall = started.elapsed();
            Some(ExplainAnalysis {
                algorithm: result.algorithm_used,
                rows: result.output.len(),
                wall,
                stats: result.stats,
                prep_window: self.prep_stats().since(&before),
                span_tree: render_text_tree(&trace.drain_spans()),
            })
        } else {
            None
        };
        Ok(Explain {
            label: super::query_label(q),
            atoms: q.atoms().len(),
            vars: q.n_vars(),
            fds: q.fds.fds().len(),
            lattice_elems: self.pres.lattice.len(),
            distributive: self.pres.lattice.is_distributive(),
            profile,
            chain_log2,
            llp_log2,
            sma_good_proof,
            csma_log2,
            estimate_log2_avg: estimate.log_avg.to_f64(),
            estimate_log2_max: estimate.log_max.to_f64(),
            decision,
            index_reuse,
            analyze,
        })
    }
}

fn opt_bound(b: Option<f64>) -> String {
    b.map_or_else(|| "none".to_string(), |v| format!("{v:.2}"))
}

impl fmt::Display for Explain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "EXPLAIN {}: {} atoms, {} vars, {} fds",
            self.label, self.atoms, self.vars, self.fds
        )?;
        writeln!(
            f,
            "  lattice: {} elements, distributive: {}",
            self.lattice_elems,
            if self.distributive { "yes" } else { "no" }
        )?;
        write!(f, "  profile:")?;
        for (name, len) in &self.profile {
            write!(f, " {name}={len}")?;
        }
        writeln!(f)?;
        writeln!(
            f,
            "  bounds(log2): chain={} llp={:.2} sma={} csma={}",
            opt_bound(self.chain_log2),
            self.llp_log2,
            if self.sma_good_proof { "good" } else { "none" },
            opt_bound(self.csma_log2),
        )?;
        writeln!(
            f,
            "  estimate(log2): avg={:.2} max={:.2} skew-gap={:.2}",
            self.estimate_log2_avg,
            self.estimate_log2_max,
            self.estimate_log2_max - self.estimate_log2_avg,
        )?;
        writeln!(
            f,
            "  auto: {} — {}",
            self.decision.algorithm, self.decision.reason
        )?;
        write!(f, "  indexes:")?;
        for (name, n) in &self.index_reuse {
            write!(f, " {name}={n}")?;
        }
        writeln!(f, " resident")?;
        if let Some(a) = &self.analyze {
            writeln!(f, "ANALYZE")?;
            writeln!(
                f,
                "  algorithm: {}  rows: {}  wall: {:.3}ms",
                a.algorithm,
                a.rows,
                a.wall.as_secs_f64() * 1e3
            )?;
            writeln!(f, "  stats: {}", a.stats)?;
            writeln!(f, "  plans: {} (this execution's window)", a.prep_window)?;
            writeln!(f, "  trace:")?;
            for line in a.span_tree.lines() {
                writeln!(f, "    {line}")?;
            }
        }
        Ok(())
    }
}
