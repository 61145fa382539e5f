//! Planning: the [`Algorithm::Auto`] rules and the plan caches they read
//! through — one key ([`PlanKey`]), one map set per tier ([`Plans`]), one
//! protocol between the tiers ([`PreparedQuery::cached_plan`]).

use super::prep::{PrepCounters, Sharded};
use super::relabel::Relabel;
use super::{
    Algorithm, AutoDecision, AutoReason, ExecOptions, JoinError, LazyEstimate, PreparedQuery,
    UserDegreeBound,
};
use crate::{csma, sma};
use fdjoin_bigint::Rational;
use fdjoin_bounds::chain::{best_chain_bound, chain_bound, Chain, ChainBound};
use fdjoin_bounds::llp::{solve_llp, LlpSolution};
use fdjoin_lattice::ElemId;
use std::sync::atomic::AtomicU64;

/// The key every plan is cached under: the size profile it was solved for
/// (raw atom cardinalities for chain/LLP/SMA plans, expanded ones for CSMA
/// plans) and what the caller pinned on top of it.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) struct PlanKey {
    lens: Vec<u64>,
    pin: Pin,
}

/// What a plan depends on beyond the sizes. Pins are in this query's own
/// coordinates, so a pinned plan never crosses queries.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum Pin {
    None,
    /// A user-supplied chain ([`ExecOptions::chain`]).
    Chain(Vec<ElemId>),
    /// User degree bounds ([`ExecOptions::degree_bounds`]); never empty.
    DegreeBounds(Vec<UserDegreeBound>),
}

impl PlanKey {
    /// The key of a size profile alone.
    pub(super) fn new(lens: Vec<u64>) -> PlanKey {
        PlanKey {
            lens,
            pin: Pin::None,
        }
    }

    /// This profile pinned to a user-supplied chain.
    pub(super) fn with_chain(&self, chain: &Chain) -> PlanKey {
        PlanKey {
            lens: self.lens.clone(),
            pin: Pin::Chain(chain.elems.clone()),
        }
    }

    /// A CSMA key: expanded cardinalities plus the user degree bounds.
    pub(super) fn degree_bounded(lens: &[u64], bounds: &[UserDegreeBound]) -> PlanKey {
        let mut key = PlanKey::new(lens.to_vec());
        if !bounds.is_empty() {
            key.pin = Pin::DegreeBounds(bounds.to_vec());
        }
        key
    }

    /// Whether plans under this key may be published to, and rehydrated
    /// from, the cross-query tier: only when nothing query-local is pinned.
    fn shareable(&self) -> bool {
        self.pin == Pin::None
    }
}

/// The four plan maps, as both cache tiers hold them.
#[derive(Debug)]
pub(crate) struct Plans<K> {
    chain: Sharded<K, Option<ChainBound>>,
    llp: Sharded<K, LlpSolution>,
    sma: Sharded<K, Result<sma::SmaPlan, JoinError>>,
    csma: Sharded<K, Result<csma::CsmaPlan, JoinError>>,
}

impl<K: std::hash::Hash + Eq + Clone> Default for Plans<K> {
    fn default() -> Self {
        Plans {
            chain: Sharded::new(),
            llp: Sharded::new(),
            sma: Sharded::new(),
            csma: Sharded::new(),
        }
    }
}

/// A cached plan kind: which map of a [`Plans`] holds it, and how it is
/// carried along a presentation isomorphism. Plan *absence* (no good chain,
/// no good proof) is itself isomorphism-invariant and passes through.
pub(crate) trait CachedPlan: Clone {
    fn map<K>(plans: &Plans<K>) -> &Sharded<K, Self>;
    fn relabel(&self, r: &Relabel) -> Self;
}

impl CachedPlan for Option<ChainBound> {
    fn map<K>(plans: &Plans<K>) -> &Sharded<K, Self> {
        &plans.chain
    }
    fn relabel(&self, r: &Relabel) -> Self {
        self.as_ref().map(|b| r.chain_bound(b))
    }
}

impl CachedPlan for LlpSolution {
    fn map<K>(plans: &Plans<K>) -> &Sharded<K, Self> {
        &plans.llp
    }
    fn relabel(&self, r: &Relabel) -> Self {
        r.llp(self)
    }
}

impl CachedPlan for Result<sma::SmaPlan, JoinError> {
    fn map<K>(plans: &Plans<K>) -> &Sharded<K, Self> {
        &plans.sma
    }
    fn relabel(&self, r: &Relabel) -> Self {
        self.as_ref().map(|p| r.sma(p)).map_err(Clone::clone)
    }
}

impl CachedPlan for Result<csma::CsmaPlan, JoinError> {
    fn map<K>(plans: &Plans<K>) -> &Sharded<K, Self> {
        &plans.csma
    }
    fn relabel(&self, r: &Relabel) -> Self {
        self.as_ref().map(|p| r.csma(p)).map_err(Clone::clone)
    }
}

impl AutoDecision {
    /// Record the rule that fired.
    fn fired(mut self, algorithm: Algorithm, reason: AutoReason) -> Self {
        self.algorithm = algorithm;
        self.reason = reason;
        self
    }
}

const SOLVES: &str = "fdjoin_plan_solves_total";

impl PreparedQuery {
    /// Bound- and data-driven automatic algorithm selection:
    ///
    /// 0. options that only one algorithm honors (degree bounds ⇒ CSMA,
    ///    a chain override ⇒ chain) pin the choice — silently dropping a
    ///    user constraint would be worse than skipping the bound analysis;
    /// 1. distributive lattice + good chain ⇒ **chain** (tight by
    ///    Cor. 5.15);
    /// 2. good chain matching the LLP optimum for these sizes ⇒ **chain**
    ///    (tight by Theorem 5.14's condition);
    /// 3. good chain whose *measured* skew-pessimistic branch estimate
    ///    fits within the LLP optimum ⇒ **chain** — the data-dependent
    ///    tie-break (see `fdjoin_core::cost`; disable with
    ///    [`ExecOptions::cost_tiebreak`]);
    /// 4. good SM-proof sequence ⇒ **SMA**;
    /// 5. otherwise ⇒ **CSMA** (always applicable).
    ///
    /// The fired rule, the compared worst-case bounds, and (from rule 3 on)
    /// the measured estimates are recorded in the returned [`AutoDecision`],
    /// which starts out as rule 5 and gains each bound as it is learned.
    /// `key` is the unpinned raw size profile; `estimate` is the request's
    /// one estimate of the database, read only if rule 3 is reached.
    pub(super) fn choose(
        &self,
        estimate: &LazyEstimate,
        key: &PlanKey,
        opts: &ExecOptions,
    ) -> AutoDecision {
        let mut d = AutoDecision {
            algorithm: Algorithm::Csma,
            reason: AutoReason::CsmaFallback,
            chain_log_bound: None,
            llp_log_bound: None,
            estimate_log_avg: None,
            estimate_log_max: None,
        };
        if !opts.degree_bounds.is_empty() {
            return d.fired(Algorithm::Csma, AutoReason::DegreeBoundsPinCsma);
        }
        if opts.chain.is_some() {
            return d.fired(Algorithm::Chain, AutoReason::ChainOverridePinsChain);
        }
        let chain = self.chain_plan(key);
        d.chain_log_bound = chain.as_ref().map(|cb| cb.log_bound.clone());
        if chain.is_some() && self.pres.lattice.is_distributive() {
            return d.fired(Algorithm::Chain, AutoReason::DistributiveTightChain);
        }
        if let Some(cb) = &chain {
            let llp = self.llp_plan(key).value;
            let tight = cb.log_bound == llp;
            d.llp_log_bound = Some(llp);
            if tight {
                return d.fired(Algorithm::Chain, AutoReason::ChainMatchesLlpOptimum);
            }
        }
        // From here on the worst-case analysis alone cannot settle the
        // choice; consult the measured degree statistics (unless disabled).
        // The estimate depends on the *data*, not just the size profile, so
        // it is computed per request, never cached with the plans.
        if !opts.no_cost_tiebreak {
            if let Ok(est) = estimate.get() {
                let fits = chain.is_some()
                    && d.llp_log_bound
                        .as_ref()
                        .is_some_and(|llp| est.log_max <= *llp);
                d.estimate_log_avg = Some(est.log_avg.clone());
                d.estimate_log_max = Some(est.log_max.clone());
                if fits {
                    return d.fired(Algorithm::Chain, AutoReason::EstimatedTightChain);
                }
            }
        }
        // The SMA planning attempt embeds an LLP solve, so from here on the
        // optimum is known (as a cache hit) even when the chain analysis
        // skipped it.
        let good_proof = self.sma_plan(key).is_ok();
        if d.llp_log_bound.is_none() {
            d.llp_log_bound = Some(self.llp_plan(key).value);
        }
        if good_proof {
            return d.fired(Algorithm::Sma, AutoReason::GoodSmProof);
        }
        d
    }

    /// The one cache protocol behind every plan kind: local read → (under
    /// the local shard write lock) shared probe + relabel on hit, else
    /// solve + publish. Keys that pin something stay in the local tier.
    /// Solves, probes and counter bumps all run under the local shard write
    /// lock, so a plan is never double-computed and hit/miss accounting
    /// never double-counts.
    fn cached_plan<P: CachedPlan>(&self, key: &PlanKey, solve: impl FnOnce() -> P) -> P {
        let local = P::map(&self.local);
        if let Some(hit) = local.get(key) {
            return hit;
        }
        local.get_or_insert_with(key, || {
            let Some(sh) = self.shared.as_ref().filter(|_| key.shareable()) else {
                return solve();
            };
            let kp = sh.canon_key(&key.lens);
            let shared = P::map(&sh.entry.plans);
            if let Some(canon) = shared.get(&kp.key) {
                self.note(&self.counters.shared_hits, "fdjoin_plan_shared_hits_total");
                return canon.relabel(&sh.relabel_to_local(&kp));
            }
            self.note(
                &self.counters.shared_misses,
                "fdjoin_plan_shared_misses_total",
            );
            let v = solve();
            let _ = shared.get_or_insert_with(&kp.key, || v.relabel(&sh.relabel_to_canon(&kp)));
            v
        })
    }

    /// Bump one planning counter and the matching registry metric, so
    /// `fdjoin_plan_solves_total` always equals the sum of
    /// [`PrepStats::solves`](super::PrepStats::solves) over the executions recorded (the
    /// reconciliation the observability tests assert).
    fn note(&self, counter: &AtomicU64, metric: &'static str) {
        PrepCounters::bump(counter);
        if self.obs.is_enabled() {
            self.obs.metrics().add(metric, &[], 1);
        }
    }

    /// The best chain for `key`'s profile — or, under a chain pin, the
    /// user's chain priced for it.
    pub(super) fn chain_plan(&self, key: &PlanKey) -> Option<ChainBound> {
        self.cached_plan(key, || {
            self.note(&self.counters.chain_searches, SOLVES);
            let (lattice, inputs) = (&self.pres.lattice, &self.pres.inputs);
            let logs = log_sizes_of(&key.lens);
            match &key.pin {
                Pin::Chain(e) => chain_bound(lattice, inputs, &logs, &Chain { elems: e.clone() }),
                _ => best_chain_bound(lattice, inputs, &logs),
            }
        })
    }

    pub(super) fn llp_plan(&self, key: &PlanKey) -> LlpSolution {
        self.cached_plan(key, || {
            self.note(&self.counters.llp_solves, SOLVES);
            solve_llp(
                &self.pres.lattice,
                &self.pres.inputs,
                &log_sizes_of(&key.lens),
            )
        })
    }

    pub(super) fn sma_plan(&self, key: &PlanKey) -> Result<sma::SmaPlan, JoinError> {
        self.cached_plan(key, || {
            // The nested `llp_plan` call locks a *different* map than the
            // sma shard held here — the lock order is strictly sma → llp.
            let llp = self.llp_plan(key);
            self.note(&self.counters.proof_searches, SOLVES);
            sma::plan(&self.pres, &llp, &log_sizes_of(&key.lens))
        })
    }

    pub(super) fn csma_plan(&self, key: &PlanKey) -> Result<csma::CsmaPlan, JoinError> {
        self.cached_plan(key, || {
            self.note(&self.counters.cllp_solves, SOLVES);
            let bounds = match &key.pin {
                Pin::DegreeBounds(b) => b.as_slice(),
                _ => &[],
            };
            csma::plan(&self.query, &self.pres, &log_sizes_of(&key.lens), bounds)
        })
    }
}

/// Dyadic upper approximations `log₂ max(len, 1)` for a size profile.
pub(crate) fn log_sizes_of(lens: &[u64]) -> Vec<Rational> {
    lens.iter()
        .map(|&l| Rational::log2_approx(l.max(1), 16))
        .collect()
}
