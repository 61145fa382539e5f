//! Execution: validate the request, let [`Algorithm::Auto`] choose, run the
//! algorithm from its cached plan, and report the run to the observer.

use super::plan::PlanKey;
use super::{
    query_label, Algorithm, ExecOptions, JoinError, JoinResult, LazyEstimate, Parallelism,
    PlanDetail, PreparedQuery,
};
use crate::{chain_algo, csma, sma, AccessPaths};
use fdjoin_obs::{Observer, SpanKind};
use fdjoin_storage::Database;
use std::sync::OnceLock;

/// The host's core count, read once per process: asking the OS reads
/// cgroup files, ≈ 17 µs a call on a 2-vCPU Linux VM.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

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
                let cores = cores();
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
        let mut span = obs.span(SpanKind::Solve, query_label(&self.query));
        let result = self.execute_inner(db, opts, &estimate, obs);
        match &result {
            Ok(r) => {
                span.field("algorithm", r.algorithm_used.to_string());
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
                }
                // The request's own estimate, beside the work it predicts
                // (computed here unless planning already read it).
                if let Ok(est) = estimate.get() {
                    span.field("estimate_log_max", est.log_max.to_f64());
                }
                // Index-cache residency after any builds and byte-budget
                // evictions this execution triggered.
                span.field("index_resident_bytes", self.indexes.memory_bytes());
            }
            Err(e) => span.field("error", e.to_string()),
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
                let bound = self.chain_plan(&key).ok_or(JoinError::NoGoodChain)?;
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
                let (output, stats) = crate::generic_join::execute(q, db, &paths, &par)?;
                (output, stats, None, PlanDetail::None)
            }
            Algorithm::BinaryJoin => {
                let (output, stats) =
                    crate::binary_join::execute(q, db, opts.atom_order.as_deref(), &paths, &par)?;
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
        // An option the chosen algorithm never reads is an error, not a
        // silent no-op: degree bounds feed CSMA (and pin Auto to it), an
        // atom order shapes only a binary join plan.
        let alg = opts.algorithm;
        if !opts.degree_bounds.is_empty() && !matches!(alg, Algorithm::Auto | Algorithm::Csma) {
            return Err(JoinError::InvalidOptions(format!(
                "degree bounds are read only by CSMA (or Auto), not by {alg}"
            )));
        }
        if let Some(order) = &opts.atom_order {
            if alg != Algorithm::BinaryJoin {
                return Err(JoinError::InvalidOptions(format!(
                    "atom_order is read only by binary-join, not by {alg}"
                )));
            }
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
