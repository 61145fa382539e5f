//! Execution: validate the request, let [`Algorithm::Auto`] choose, run the
//! algorithm from its cached plan, and report the run to the observer.

use super::plan::PlanKey;
use super::{
    query_label, Algorithm, ExecOptions, JoinError, JoinResult, LazyEstimate, Parallelism,
    PlanDetail, PreparedQuery,
};
use crate::{chain_algo, csma, naive, sma, AccessPaths, Stats};
use fdjoin_obs::{Observer, Registry, SpanKind};
use fdjoin_storage::Database;
use std::time::Instant;

impl PreparedQuery {
    /// Resolve [`ExecOptions::parallelism`] into a concrete
    /// per-solve fan-out context. [`Parallelism::Auto`] splits to one task
    /// per available core only when the measured branch estimate clears
    /// [`ExecOptions::AUTO_SPLIT_LOG2`] — below that, fan-out overhead
    /// would dominate — and declines entirely on single-core machines or
    /// when no estimate is computable (e.g. a relation went missing
    /// between validation and here).
    fn resolve_parallelism(
        &self,
        estimate: &LazyEstimate,
        opts: &ExecOptions,
        obs: &Observer,
    ) -> crate::par::ParCtx {
        let tasks = match opts.parallelism {
            Parallelism::Fixed(k) => k.max(1),
            Parallelism::Auto => {
                let cores = std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1);
                // Core count first: a one-core host cannot use the estimate.
                if cores >= 2
                    && estimate
                        .get()
                        .is_ok_and(|est| est.log_max.to_f64() >= ExecOptions::AUTO_SPLIT_LOG2)
                {
                    cores
                } else {
                    1
                }
            }
        };
        if tasks <= 1 {
            crate::par::ParCtx::sequential()
        } else {
            crate::par::ParCtx::new(tasks, obs)
        }
    }

    /// [`PreparedQuery::execute`] emitting through an explicit observer —
    /// the hook [`PreparedQuery::explain_analyze`] uses to trace one
    /// execution into a private recorder without disturbing (or requiring)
    /// the engine-wide one.
    pub(crate) fn execute_with(
        &self,
        db: &Database,
        opts: &ExecOptions,
        obs: &Observer,
    ) -> Result<JoinResult, JoinError> {
        let estimate = LazyEstimate::new(self, db);
        if !obs.is_enabled() {
            return self.execute_inner(db, opts, &estimate, obs);
        }
        let started = Instant::now();
        let mut span = obs.span(SpanKind::Solve, query_label(&self.query));
        let result = self.execute_inner(db, opts, &estimate, obs);
        let m = obs.metrics();
        match &result {
            Ok(r) => {
                let algorithm = r.algorithm_used.to_string();
                span.field("algorithm", algorithm.clone());
                span.field("rows", r.output.len());
                span.field("work", r.stats.work());
                if let Some(bound) = &r.predicted_log_bound {
                    span.field("predicted_log_bound", bound.to_f64());
                }
                if let Some(auto) = &r.auto {
                    span.field("auto_reason", auto.reason.to_string());
                    if let Some(b) = &auto.chain_log_bound {
                        span.field("chain_log_bound", b.to_f64());
                    }
                    if let Some(b) = &auto.llp_log_bound {
                        span.field("llp_log_bound", b.to_f64());
                    }
                    if let Some(e) = &auto.estimate_log_max {
                        span.field("estimate_log_max", e.to_f64());
                    }
                }
                record_execution_metrics(&m, &algorithm, &r.stats, started);
                // Post-execution index-cache residency, after any builds
                // and byte-budget evictions this execution triggered.
                m.set_gauge(
                    "fdjoin_index_resident_bytes",
                    &[],
                    self.indexes.memory_bytes() as u64,
                );
                // The ROADMAP calibration loop: estimate vs. observed work,
                // computed (unless planning already did) only when someone
                // is listening.
                if let Ok(est) = estimate.get() {
                    let observed = (r.stats.work().max(1) as f64).log2();
                    m.record_estimate_error(est.log_max.to_f64() - observed);
                }
            }
            Err(e) => {
                span.field("error", e.to_string());
                m.add("fdjoin_execution_errors_total", &[], 1);
            }
        }
        result
    }

    fn execute_inner(
        &self,
        db: &Database,
        opts: &ExecOptions,
        estimate: &LazyEstimate,
        obs: &Observer,
    ) -> Result<JoinResult, JoinError> {
        let q = &self.query;
        // Validate the database up front so every algorithm shares the
        // non-panicking MissingRelation / SchemaMismatch paths.
        let key = PlanKey::new(self.size_profile(db)?);
        self.validate(opts)?;
        // Bind this (query, database) pair to the shared access-path
        // cache: every probe below goes through trie indexes keyed by
        // relation content versions, so repeated executions (and batch
        // workers, and delta joins) rebuild nothing that hasn't changed.
        let paths =
            AccessPaths::with_token(&self.indexes, q, db, self.token)?.with_observer(obs.clone());

        let (algorithm, auto) = match opts.algorithm {
            Algorithm::Auto => {
                let decision = self.choose(estimate, &key, opts);
                (decision.algorithm, Some(decision))
            }
            explicit => (explicit, None),
        };

        // Resolve parallelism once, on the coordinating thread — after the
        // auto decision (so `AutoDecision` can never depend on the task
        // count) and while the `solve` span is the innermost open span (so
        // worker-side `solve_part` spans parent under it).
        let par = self.resolve_parallelism(estimate, opts, obs);

        let (output, stats, predicted_log_bound, plan) = match algorithm {
            Algorithm::Auto => unreachable!("choose() returns a concrete algorithm"),
            Algorithm::Chain | Algorithm::ChainNoArgmin => {
                let use_argmin = algorithm == Algorithm::Chain;
                let bound = match &opts.chain {
                    Some(c) => self.chain_plan(&key.with_chain(c)),
                    None => self.chain_plan(&key),
                }
                .ok_or(JoinError::NoGoodChain)?;
                let (output, stats) =
                    chain_algo::execute(q, db, &self.pres, &bound, use_argmin, &paths, &par)?;
                let detail = PlanDetail::Chain(bound.chain);
                (output, stats, Some(bound.log_bound), detail)
            }
            Algorithm::Sma => {
                let plan = self.sma_plan(&key)?;
                let (output, stats) = sma::execute(q, db, &self.pres, &plan, &paths, &par)?;
                let detail = PlanDetail::SmProof(plan.proof);
                (output, stats, Some(plan.log_bound), detail)
            }
            Algorithm::Csma => {
                let (output, stats, plan) =
                    csma::execute(q, db, &self.pres, &paths, &par, |lens| {
                        self.csma_plan(&PlanKey::degree_bounded(lens, &opts.degree_bounds))
                    })?;
                let detail = PlanDetail::CsmSequence(plan.seq);
                (output, stats, Some(plan.log_bound), detail)
            }
            Algorithm::GenericJoin => {
                let (output, stats) = crate::generic_join::execute(
                    q,
                    db,
                    opts.var_order.as_deref(),
                    opts.bind_fds,
                    &paths,
                    &par,
                )?;
                (output, stats, None, PlanDetail::None)
            }
            Algorithm::BinaryJoin => {
                let (output, stats) =
                    crate::binary_join::execute(q, db, opts.atom_order.as_deref(), &paths, &par)?;
                (output, stats, None, PlanDetail::None)
            }
            Algorithm::Naive => {
                let (output, stats) = naive::execute(q, db, &paths, &par)?;
                (output, stats, None, PlanDetail::None)
            }
        };
        Ok(JoinResult {
            output,
            stats,
            algorithm_used: algorithm,
            predicted_log_bound,
            plan,
            auto,
        })
    }

    fn validate(&self, opts: &ExecOptions) -> Result<(), JoinError> {
        let q = &self.query;
        let nv = q.n_vars();
        if let Some(order) = &opts.var_order {
            let mut seen = vec![false; nv];
            for &v in order {
                if (v as usize) >= nv || seen[v as usize] {
                    return Err(JoinError::InvalidOptions(format!(
                        "var_order must be a set of distinct variable ids < {nv}"
                    )));
                }
                seen[v as usize] = true;
            }
            // Every atom variable must be bound by the search order; only
            // FD-derived variables may be omitted (they are filled by
            // expansion).
            for a in q.atoms() {
                for v in a.var_set().iter() {
                    if !seen[v as usize] {
                        return Err(JoinError::InvalidOptions(format!(
                            "var_order omits variable {} of atom {}",
                            q.var_name(v),
                            a.name
                        )));
                    }
                }
            }
        }
        if let Some(order) = &opts.atom_order {
            let na = q.atoms().len();
            let mut sorted = order.clone();
            sorted.sort_unstable();
            if !sorted.into_iter().eq(0..na) {
                return Err(JoinError::InvalidOptions(format!(
                    "atom_order must be a permutation of 0..{na}"
                )));
            }
        }
        for b in &opts.degree_bounds {
            if b.atom >= q.atoms().len() {
                return Err(JoinError::InvalidOptions(format!(
                    "degree bound references atom {} but the query has {} atoms",
                    b.atom,
                    q.atoms().len()
                )));
            }
            for &v in &b.on {
                if (v as usize) >= nv {
                    return Err(JoinError::InvalidOptions(format!(
                        "degree bound on atom {} conditions on variable id {v}, but the \
                         query has {nv} variables",
                        b.atom
                    )));
                }
            }
        }
        Ok(())
    }
}

/// Record one successful execution into the registry: the per-algorithm
/// execution counter, latency and work histograms, and the [`Stats`]-field
/// totals that reconcile 1:1 against summed per-result counters.
fn record_execution_metrics(m: &Registry, algorithm: &str, stats: &Stats, started: Instant) {
    m.add("fdjoin_executions_total", &[("algorithm", algorithm)], 1);
    m.observe(
        "fdjoin_solve_latency_ns",
        &[],
        started.elapsed().as_nanos() as u64,
    );
    m.observe("fdjoin_work", &[], stats.work());
    m.add("fdjoin_work_total", &[], stats.work());
    m.add("fdjoin_probes_total", &[], stats.probes);
    m.add(
        "fdjoin_intermediate_tuples_total",
        &[],
        stats.intermediate_tuples,
    );
    m.add("fdjoin_output_tuples_total", &[], stats.output_tuples);
    m.add("fdjoin_expansions_total", &[], stats.expansions);
    m.add("fdjoin_branches_total", &[], stats.branches);
    m.add("fdjoin_index_builds_total", &[], stats.index_builds);
    m.add("fdjoin_index_hits_total", &[], stats.index_hits);
}
