//! The unified execution engine — the crate's front door.
//!
//! The paper's central message is that the *choice* of join algorithm is
//! itself bound-driven: the Chain Algorithm is optimal exactly when the
//! chain bound is tight (distributive lattices, Cor. 5.15, or condition
//! (15)), SMA needs a good SM-proof sequence (Def. 5.26), and CSMA covers
//! the general GLVV/CLLP case. This module packages that decision procedure
//! behind one API:
//!
//! - [`Algorithm`]: which algorithm to run ([`Algorithm::Auto`] lets the
//!   planner decide and records its choice — and *why* — as an
//!   [`AutoDecision`] on the result);
//! - [`ExecOptions`]: builder-style per-run options, absorbing the old
//!   per-algorithm option structs (degree bounds, FD-binding, variable and
//!   atom orders, chain overrides);
//! - [`JoinResult`] / [`JoinError`]: one result and one error type shared
//!   by every algorithm;
//! - [`Engine::prepare`] / [`PreparedQuery`]: split the data-independent
//!   preprocessing (lattice presentation; per-size-profile chain search,
//!   LLP solve, proof-sequence construction) from execution, so repeated
//!   executions reuse the plans. [`PreparedQuery::prep_stats`] counts the
//!   preparation work actually performed, making the reuse observable.
//! - [`PlanCache`]: an engine-level cache shared *across queries*, keyed by
//!   lattice-presentation isomorphism (canonical fingerprints). Attach one
//!   with [`Engine::with_plan_cache`] and preparing a query isomorphic to a
//!   previously served one rehydrates its chain/LLP/SM/CSM plans instead of
//!   recomputing them.
//!
//! Plan lookup is lock-striped end to end: each [`PreparedQuery`] keeps its
//! per-size-profile plans in sharded reader–writer maps, so concurrent
//! `execute` calls (e.g. `fdjoin_exec`'s batch driver) do not serialize on
//! the read path.
//!
//! The free functions at the bottom ([`chain_join`], [`sma_join`], …) are
//! thin shims over the engine, kept for ergonomic one-shot calls.

mod explain;
mod prep;
mod relabel;
mod shared;

pub use explain::{Explain, ExplainAnalysis};
pub use prep::PrepStats;
pub use shared::{PlanCache, PlanCacheStats};

use prep::{PrepCounters, Sharded};
use shared::SharedHandle;

use crate::{chain_algo, csma, naive, sma};
use fdjoin_bigint::Rational;
use fdjoin_bounds::chain::{best_chain_bound, chain_bound, Chain, ChainBound};
use fdjoin_bounds::csm::CsmSequence;
use fdjoin_bounds::llp::{solve_llp, LlpSolution};
use fdjoin_bounds::smproof::SmProof;
use fdjoin_lattice::VarSet;
use fdjoin_obs::{Observer, Registry, SpanKind};
use fdjoin_query::{EnumerationClass, LatticePresentation, Query};
use fdjoin_storage::{Database, IndexSet, MissingRelation, Relation};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use crate::AccessPaths;

use crate::Stats;

/// The join algorithms the engine can run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Bound-driven automatic selection (chain → SMA → CSMA); the decision
    /// is recorded in [`JoinResult::algorithm_used`] and explained in
    /// [`JoinResult::auto`].
    #[default]
    Auto,
    /// The Chain Algorithm (Algorithm 1, Sec. 5.1).
    Chain,
    /// Chain Algorithm without the per-tuple argmin (the A1 ablation).
    ChainNoArgmin,
    /// The Submodularity Algorithm (Algorithm 2, Sec. 5.2).
    Sma,
    /// The Conditional Submodularity Algorithm (Sec. 5.3.3).
    Csma,
    /// Generic-Join (NPRR/LFTJ), FD-oblivious worst-case-optimal baseline.
    GenericJoin,
    /// Left-deep binary hash-join plans.
    BinaryJoin,
    /// The quadratic correctness oracle.
    Naive,
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Algorithm::Auto => "auto",
            Algorithm::Chain => "chain",
            Algorithm::ChainNoArgmin => "chain-no-argmin",
            Algorithm::Sma => "sma",
            Algorithm::Csma => "csma",
            Algorithm::GenericJoin => "generic-join",
            Algorithm::BinaryJoin => "binary-join",
            Algorithm::Naive => "naive",
        };
        f.write_str(name)
    }
}

/// A user-declared maximum-degree bound on an input relation
/// (the "Known Frequencies" scenario of Sec. 1.1), consumed by CSMA.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UserDegreeBound {
    /// Index of the atom whose relation is degree-bounded.
    pub atom: usize,
    /// The conditioning attributes: for every value of these, at most
    /// `max_degree` matching tuples exist.
    pub on: Vec<u32>,
    /// The degree cap.
    pub max_degree: u64,
}

/// Builder-style per-execution options.
///
/// ```
/// use fdjoin_core::{Algorithm, ExecOptions};
/// let opts = ExecOptions::new()
///     .algorithm(Algorithm::GenericJoin)
///     .bind_fds(true);
/// ```
#[derive(Clone, Debug, Default)]
pub struct ExecOptions {
    algorithm: Algorithm,
    degree_bounds: Vec<UserDegreeBound>,
    bind_fds: bool,
    var_order: Option<Vec<u32>>,
    atom_order: Option<Vec<usize>>,
    chain: Option<Chain>,
    no_cost_tiebreak: bool,
    parallelism: Parallelism,
}

/// How many sub-range tasks one solve may fan out over (the
/// [`ExecOptions::parallelism`] knob). Parallelism never changes results:
/// sub-range solves merge deterministically, so output bytes,
/// [`Stats::deterministic`] totals, and [`AutoDecision`]s are identical at
/// every setting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Parallelism {
    /// Estimate-gated: split to one task per available core only when
    /// [`PreparedQuery::estimate`] says the solve is large enough to
    /// amortize the fan-out (its skew-pessimistic branch estimate reaches
    /// [`ExecOptions::AUTO_SPLIT_LOG2`] in log₂); otherwise run
    /// sequentially. Small solves therefore never pay thread costs.
    #[default]
    Auto,
    /// Exactly this many tasks (clamped to ≥ 1; `1` = sequential).
    Fixed(usize),
}

impl ExecOptions {
    /// Defaults: [`Algorithm::Auto`], no extra constraints.
    pub fn new() -> ExecOptions {
        ExecOptions::default()
    }

    /// Select the algorithm ([`Algorithm::Auto`] by default).
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Enable/disable data-dependent cost-model decisions (enabled by
    /// default): [`Algorithm::Auto`]'s tie-break here, and per-delta plan
    /// specialization in `fdjoin_delta` views driven by these options.
    /// With it disabled, plan selection is a function of the size profile
    /// alone — useful when reproducing the paper's selection rules
    /// exactly, or when serving must be deterministic across same-profile
    /// databases.
    pub fn cost_tiebreak(mut self, on: bool) -> Self {
        self.no_cost_tiebreak = !on;
        self
    }

    /// Whether data-dependent cost-model decisions are enabled
    /// ([`ExecOptions::cost_tiebreak`]).
    pub fn cost_tiebreak_enabled(&self) -> bool {
        !self.no_cost_tiebreak
    }

    /// Whether this is a plain [`Algorithm::Auto`] request with no
    /// algorithm-pinning or plan-shaping constraints (degree bounds pin
    /// CSMA, a chain override pins the chain algorithm, and explicit
    /// variable/atom orders shape whatever runs). Only then may another
    /// layer — e.g. `fdjoin_delta`'s per-delta specialization — substitute
    /// a cost-model-chosen algorithm without overriding the caller.
    pub fn is_plain_auto(&self) -> bool {
        self.algorithm == Algorithm::Auto
            && self.degree_bounds.is_empty()
            && self.chain.is_none()
            && self.var_order.is_none()
            && self.atom_order.is_none()
    }

    /// Add one extra degree bound (CSMA only).
    pub fn degree_bound(mut self, bound: UserDegreeBound) -> Self {
        self.degree_bounds.push(bound);
        self
    }

    /// Replace the set of extra degree bounds (CSMA only).
    pub fn degree_bounds(mut self, bounds: Vec<UserDegreeBound>) -> Self {
        self.degree_bounds = bounds;
        self
    }

    /// Bind FD-determined variables eagerly in Generic-Join (the paper's
    /// footnote 1).
    pub fn bind_fds(mut self, on: bool) -> Self {
        self.bind_fds = on;
        self
    }

    /// Variable binding order for Generic-Join (default: ascending id).
    pub fn var_order(mut self, order: Vec<u32>) -> Self {
        self.var_order = Some(order);
        self
    }

    /// Atom order for binary join plans (default: body order).
    pub fn atom_order(mut self, order: Vec<usize>) -> Self {
        self.atom_order = Some(order);
        self
    }

    /// Execute the Chain Algorithm on this specific chain instead of the
    /// best one found by search.
    pub fn chain(mut self, chain: Chain) -> Self {
        self.chain = Some(chain);
        self
    }

    /// The log₂ branch-estimate threshold at which [`Parallelism::Auto`]
    /// starts splitting solves (≈ 128k estimated branches). Below it, the
    /// fan-out overhead (thread spawns, per-task buffers, re-sorting
    /// fragments) outweighs any speedup.
    pub const AUTO_SPLIT_LOG2: f64 = 17.0;

    /// Set an exact sub-range task count for this execution
    /// ([`Parallelism::Fixed`]); `1` forces the sequential path.
    pub fn parallelism(mut self, tasks: usize) -> Self {
        self.parallelism = Parallelism::Fixed(tasks);
        self
    }
}

/// Why a join could not be executed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JoinError {
    /// A query atom references a relation absent from the database.
    MissingRelation(String),
    /// A query atom's variables differ from those of the relation it
    /// names: every atom must name a relation stored over exactly the
    /// atom's variable set (in any column order). A self-join — two atoms
    /// naming one relation over different variables, which `Query`
    /// excludes (Eq. 3) — reports this too. Found before any index is
    /// built or tuple touched.
    SchemaMismatch {
        /// The relation's name.
        relation: String,
        /// The atom's variables, in atom order.
        atom_vars: Vec<u32>,
        /// The stored relation's variables, in column order.
        relation_vars: Vec<u32>,
    },
    /// Expansion cannot reach `target`: some FD needed on the way from
    /// `from` (everything guards and registered UDFs can derive) has
    /// neither a guard relation nor a registered UDF. Found when the
    /// expansion programs are compiled, before any tuple is touched.
    MissingUdf {
        /// The variables that can be derived.
        from: VarSet,
        /// The variables the algorithm needs.
        target: VarSet,
    },
    /// No candidate chain has a finite chain bound (isolated vertices in
    /// every chain hypergraph) — or a user-supplied chain is not good.
    NoGoodChain,
    /// No good SM-proof sequence exists for the dual inequality
    /// (Example 5.31's situation — use CSMA instead).
    NoGoodProof,
    /// CSM proof-sequence construction got stuck (should not happen for
    /// exact dual-feasible solutions; kept as a safe failure mode).
    NoCsmSequence,
    /// The options are inconsistent with the query (bad variable/atom
    /// order, out-of-range degree bound, …).
    InvalidOptions(String),
    /// An admission control layer (e.g. `fdjoin_exec`) rejected the
    /// execution before it started: the data-dependent branch estimate
    /// ([`PreparedQuery::estimate`]) exceeded the caller's budget. Both
    /// sides of the comparison ride along so the caller can report — or
    /// relax — the margin.
    Budget {
        /// `log₂` of the skew-pessimistic branch estimate that tripped the
        /// rejection ([`crate::cost::JoinEstimate::log_max`]). Boxed to
        /// keep the error type (and every `Result` carrying it) small.
        estimate_log_max: Box<Rational>,
        /// `log₂` of the budget it was compared against.
        budget_log: Box<Rational>,
    },
    /// The execution panicked on a serving-layer worker (e.g. inside a
    /// registered UDF); the payload is the panic message. Only this
    /// execution is lost: the worker and its pool keep serving.
    WorkerPanicked(String),
}

impl fmt::Display for JoinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JoinError::MissingRelation(name) => {
                write!(f, "relation {name:?} not in database")
            }
            JoinError::SchemaMismatch {
                relation,
                atom_vars,
                relation_vars,
            } => write!(
                f,
                "relation {relation:?} is stored over variables {relation_vars:?}, \
                 but its atom binds {atom_vars:?}"
            ),
            JoinError::MissingUdf { from, target } => write!(
                f,
                "cannot expand tuples from {from} to {target}: an FD on the derivation \
                 path has neither a guard relation nor a registered UDF — register UDFs \
                 for all unguarded FDs"
            ),
            JoinError::NoGoodChain => {
                write!(
                    f,
                    "no good chain with a finite chain bound exists for this query"
                )
            }
            JoinError::NoGoodProof => {
                write!(f, "no good SM-proof sequence exists; fall back to CSMA")
            }
            JoinError::NoCsmSequence => write!(f, "CSM proof sequence construction failed"),
            JoinError::InvalidOptions(msg) => write!(f, "invalid options: {msg}"),
            JoinError::Budget {
                estimate_log_max,
                budget_log,
            } => write!(
                f,
                "admission rejected: estimated log₂ output {estimate_log_max} exceeds \
                 budget log₂ {budget_log}"
            ),
            JoinError::WorkerPanicked(msg) => write!(f, "execution panicked on a worker: {msg}"),
        }
    }
}

impl std::error::Error for JoinError {}

impl From<MissingRelation> for JoinError {
    fn from(e: MissingRelation) -> JoinError {
        JoinError::MissingRelation(e.0)
    }
}

/// The plan object the executed algorithm ran from, for introspection.
#[derive(Clone, Debug, Default)]
pub enum PlanDetail {
    /// No data-independent plan (Generic-Join, binary join, naive).
    #[default]
    None,
    /// The chain the Chain Algorithm climbed.
    Chain(Chain),
    /// The good SM-proof sequence SMA executed.
    SmProof(SmProof),
    /// The CSM rule sequence CSMA interpreted.
    CsmSequence(CsmSequence),
}

/// Why [`Algorithm::Auto`] selected the algorithm it did (the first slice
/// of cost-based planning observability).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AutoReason {
    /// User degree bounds are a CSMA-only constraint; dropping them would
    /// be worse than skipping the bound analysis.
    DegreeBoundsPinCsma,
    /// A user-supplied chain pins the Chain Algorithm.
    ChainOverridePinsChain,
    /// The lattice is distributive and a good chain exists — the chain
    /// bound is tight (Cor. 5.15).
    DistributiveTightChain,
    /// The best chain bound equals the LLP optimum for these sizes — tight
    /// by Theorem 5.14's condition.
    ChainMatchesLlpOptimum,
    /// The chain bound is not provably tight, but the *measured* degree
    /// statistics say it does not matter: even the skew-pessimistic branch
    /// estimate ([`AutoDecision::estimate_log_max`]) fits within the LLP
    /// optimum, so on this database the chain algorithm cannot exceed the
    /// budget the heavier proof machinery would guarantee. A data-dependent
    /// tie-break — two databases with the same size profile can decide
    /// differently (see `fdjoin_core::cost`).
    EstimatedTightChain,
    /// A good SM-proof sequence exists for the LLP dual (Def. 5.26).
    GoodSmProof,
    /// No tight chain and no good proof sequence: CSMA, the always-
    /// applicable general case.
    CsmaFallback,
}

impl fmt::Display for AutoReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AutoReason::DegreeBoundsPinCsma => "degree bounds pin CSMA",
            AutoReason::ChainOverridePinsChain => "chain override pins the chain algorithm",
            AutoReason::DistributiveTightChain => "distributive lattice: chain bound is tight",
            AutoReason::ChainMatchesLlpOptimum => "chain bound matches the LLP optimum",
            AutoReason::EstimatedTightChain => {
                "measured degrees keep the chain within the LLP optimum"
            }
            AutoReason::GoodSmProof => "good SM-proof sequence exists",
            AutoReason::CsmaFallback => "no tight chain or good proof: CSMA fallback",
        };
        f.write_str(s)
    }
}

/// The structured record of an [`Algorithm::Auto`] decision: what was
/// chosen, why, the worst-case bounds that were compared to decide — and,
/// when the data-dependent tie-break was consulted, the measured branch
/// estimates it weighed against them (see `fdjoin_core::cost`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AutoDecision {
    /// The selected algorithm.
    pub algorithm: Algorithm,
    /// The rule that fired.
    pub reason: AutoReason,
    /// `log₂` of the best chain bound, when a chain search ran and found a
    /// good chain.
    pub chain_log_bound: Option<Rational>,
    /// `log₂` of the LLP (GLVV) optimum, when it was solved en route.
    pub llp_log_bound: Option<Rational>,
    /// `log₂` of the measured average-degree branch estimate
    /// ([`crate::cost::JoinEstimate::log_avg`]), when the tie-break
    /// consulted the statistics (rules past the provably-tight ones).
    pub estimate_log_avg: Option<Rational>,
    /// `log₂` of the skew-pessimistic (max-degree) branch estimate —
    /// equal to [`AutoDecision::estimate_log_avg`] on uniform data, larger
    /// under skew.
    pub estimate_log_max: Option<Rational>,
    /// The Carmeli–Kröll class of the *query*
    /// ([`fdjoin_query::EnumerationClass`]), computed once at prepare time:
    /// whether constant-delay enumeration is attainable for it (possibly
    /// only thanks to the FDs). `ResultStream` does not exploit it yet.
    /// Data-independent — the same for every execution of the prepared
    /// query — but recorded per decision so serving layers see it next to
    /// the bounds they budget with.
    pub enumeration: EnumerationClass,
}

/// The unified result of any engine execution.
#[derive(Clone, Debug)]
pub struct JoinResult {
    /// The query answer over all variables (ascending id order).
    pub output: Relation,
    /// Deterministic work counters.
    pub stats: Stats,
    /// The algorithm that actually ran (resolves [`Algorithm::Auto`]).
    pub algorithm_used: Algorithm,
    /// `log₂` of the bound the run was budgeted against (chain bound, LLP,
    /// or CLLP value; `None` for the unbudgeted baselines).
    pub predicted_log_bound: Option<Rational>,
    /// The plan object behind the run.
    pub plan: PlanDetail,
    /// The planner's decision record when [`Algorithm::Auto`] ran; `None`
    /// for explicitly selected algorithms.
    pub auto: Option<AutoDecision>,
}

impl JoinResult {
    /// The executed chain, if the Chain Algorithm ran.
    pub fn chain(&self) -> Option<&Chain> {
        match &self.plan {
            PlanDetail::Chain(c) => Some(c),
            _ => None,
        }
    }

    /// The executed SM-proof sequence, if SMA ran.
    pub fn sm_proof(&self) -> Option<&SmProof> {
        match &self.plan {
            PlanDetail::SmProof(p) => Some(p),
            _ => None,
        }
    }

    /// The interpreted CSM sequence, if CSMA ran.
    pub fn csm_sequence(&self) -> Option<&CsmSequence> {
        match &self.plan {
            PlanDetail::CsmSequence(s) => Some(s),
            _ => None,
        }
    }
}

/// Per-query plan caches, sharded for concurrent lookup. Keys are the
/// relevant size profiles: raw atom cardinalities for chain/LLP plans,
/// expanded cardinalities plus the degree-bound options for CSMA plans.
#[derive(Debug, Default)]
struct LocalPlans {
    chain: Sharded<Vec<u64>, Option<ChainBound>>,
    chain_override: Sharded<(Vec<u64>, Vec<usize>), Option<ChainBound>>,
    llp: Sharded<Vec<u64>, LlpSolution>,
    sma: Sharded<Vec<u64>, Result<sma::SmaPlan, JoinError>>,
    csma: Sharded<CsmaKey, Result<csma::CsmaPlan, JoinError>>,
}

type CsmaKey = (Vec<u64>, Vec<(usize, Vec<u32>, u64)>);

/// The engine: the single entry point for executing join queries.
///
/// An engine is cheap to create and clone. By default it is stateless;
/// [`Engine::with_plan_cache`] attaches a shared cross-query [`PlanCache`]
/// so that serving traffic for many isomorphic queries amortizes planning.
#[derive(Clone, Debug)]
pub struct Engine {
    shared: Option<Arc<PlanCache>>,
    /// The engine-wide access-path cache: every `PreparedQuery` this
    /// engine prepares shares it, so two queries probing the same
    /// relation version reuse each other's base trie indexes (sound
    /// because `Relation::version` is a globally unique content snapshot;
    /// query-dependent derived indexes are disambiguated by a per-query
    /// token leading their keys).
    indexes: Arc<IndexSet>,
    /// The observability handle ([`fdjoin_obs::Observer`]), disabled by
    /// default and inherited by every `PreparedQuery`. Attach one with
    /// [`Engine::observe`].
    obs: Observer,
}

impl Default for Engine {
    fn default() -> Engine {
        Engine::new()
    }
}

impl Engine {
    /// Create an engine with no cross-query plan cache (a fresh engine
    /// still carries its own shared access-path cache).
    pub fn new() -> Engine {
        Engine {
            shared: None,
            indexes: Arc::new(IndexSet::new()),
            obs: Observer::disabled(),
        }
    }

    /// Create an engine whose prepared queries publish to — and rehydrate
    /// from — the given shared plan cache. Clone the `Arc` to share one
    /// cache among any number of engines and threads.
    pub fn with_plan_cache(cache: Arc<PlanCache>) -> Engine {
        Engine {
            shared: Some(cache),
            indexes: Arc::new(IndexSet::new()),
            obs: Observer::disabled(),
        }
    }

    /// Attach an [`Observer`]: every query prepared from now on emits
    /// `prepare`/`solve`/`index_build` spans and registry metrics through
    /// it. Pass the *same* observer to an `fdjoin_exec::Executor` (and
    /// thereby to streams and delta views) to get one coherent span tree
    /// per submission. The default (disabled) observer costs one branch
    /// per emit point and records nothing.
    pub fn observe(mut self, obs: Observer) -> Engine {
        self.obs = obs;
        self
    }

    /// The engine's observability handle (disabled unless
    /// [`Engine::observe`] attached one).
    pub fn observer(&self) -> &Observer {
        &self.obs
    }

    /// The attached cross-query plan cache, if any.
    pub fn plan_cache(&self) -> Option<&Arc<PlanCache>> {
        self.shared.as_ref()
    }

    /// The engine-wide access-path cache (shared by every prepared query).
    pub fn index_set(&self) -> &Arc<IndexSet> {
        &self.indexes
    }

    /// Compute the data-independent preprocessing for `q` — the lattice
    /// presentation, plus (when a shared [`PlanCache`] is attached) its
    /// canonical fingerprint — and return a handle that caches all further
    /// (size-profile-dependent) planning across executions.
    pub fn prepare(&self, q: &Query) -> PreparedQuery {
        let started = Instant::now();
        let mut span = self.obs.span(SpanKind::Prepare, query_label(q));
        let pres = q.lattice_presentation();
        let enumeration = q.enumeration_class();
        let counters = PrepCounters::default();
        PrepCounters::bump(&counters.lattice_presentations);
        let shared = self.shared.as_ref().map(|cache| {
            PrepCounters::bump(&counters.fingerprints);
            let fp = fdjoin_lattice::canonical_fingerprint(&pres.lattice, &pres.inputs);
            SharedHandle::new(cache.shape(&fp), &fp, &pres.inputs)
        });
        if self.obs.is_enabled() {
            span.field("atoms", q.atoms().len());
            span.field("vars", q.n_vars());
            span.field("fds", q.fds.fds().len());
            span.field("lattice_elems", pres.lattice.len());
            span.field("enumeration", enumeration.to_string());
            span.field("shared_cache", shared.is_some());
            let m = self.obs.metrics();
            m.add("fdjoin_prepares_total", &[], 1);
            m.observe(
                "fdjoin_prepare_latency_ns",
                &[],
                started.elapsed().as_nanos() as u64,
            );
        }
        PreparedQuery {
            query: q.clone(),
            pres,
            enumeration,
            counters,
            local: LocalPlans::default(),
            shared,
            indexes: Arc::clone(&self.indexes),
            baseline: self.indexes.stats(),
            token: crate::access::next_token(),
            obs: self.obs.clone(),
        }
    }

    /// One-shot convenience: prepare and execute.
    pub fn execute(
        &self,
        q: &Query,
        db: &Database,
        opts: &ExecOptions,
    ) -> Result<JoinResult, JoinError> {
        self.prepare(q).execute(db, opts)
    }
}

/// A query with its preprocessing done once and its per-size-profile plans
/// (chain bounds, LLP solutions, proof sequences) cached across executions.
///
/// `PreparedQuery` is `Send + Sync`: plans live in sharded reader–writer
/// maps and the preparation counters are atomics, so one prepared query can
/// serve concurrent `execute` calls (see `fdjoin_exec` for the batch
/// driver) without serializing on plan lookup.
///
/// ```
/// use fdjoin_core::{Engine, ExecOptions};
/// use fdjoin_storage::{Database, Relation};
///
/// let q = fdjoin_query::examples::triangle();
/// let mut db = Database::new();
/// db.insert("R", Relation::from_rows(vec![0, 1], [[1, 2]]));
/// db.insert("S", Relation::from_rows(vec![1, 2], [[2, 3]]));
/// db.insert("T", Relation::from_rows(vec![2, 0], [[3, 1]]));
///
/// let prepared = Engine::new().prepare(&q);
/// let first = prepared.execute(&db, &ExecOptions::new()).unwrap();
/// let after_first = prepared.prep_stats();
/// let second = prepared.execute(&db, &ExecOptions::new()).unwrap();
/// assert_eq!(first.output, second.output);
/// // The second run reused every cached plan and every cached trie index:
/// let window = prepared.prep_stats().since(&after_first);
/// assert_eq!(window.solves(), 0);
/// assert_eq!(window.index_builds, 0);
/// assert!(window.index_hits > 0);
/// ```
pub struct PreparedQuery {
    query: Query,
    pres: LatticePresentation,
    /// The Carmeli–Kröll enumeration class, a pure function of the query
    /// (hypergraph + FDs) computed once at prepare time.
    enumeration: EnumerationClass,
    counters: PrepCounters,
    local: LocalPlans,
    shared: Option<SharedHandle>,
    /// The engine-wide access-path cache: trie indexes per `(relation
    /// version, column order)`, shared by every execution (and batch
    /// worker, and delta join) of every query the engine prepared.
    indexes: Arc<IndexSet>,
    /// Cache counters at prepare time, so this query's `PrepStats` report
    /// only its own window of the shared cache's activity.
    baseline: fdjoin_storage::IndexSetStats,
    /// Unique expansion token leading every derived-index key, so
    /// query-dependent expansions never alias across queries sharing the
    /// engine-wide cache.
    token: u64,
    /// The preparing engine's observability handle: executions emit
    /// `solve`/`index_build` spans and per-execution metrics through it.
    obs: Observer,
}

impl PreparedQuery {
    /// The prepared query.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The lattice presentation `(L, R)`, computed once at prepare time.
    pub fn presentation(&self) -> &LatticePresentation {
        &self.pres
    }

    /// Counters of preparation work performed so far, including the
    /// access-path layer's index build/hit/eviction counts since this
    /// query was prepared. The index cache is engine-wide: the window
    /// starts at prepare time so sibling queries' *earlier* traffic is
    /// excluded, but traffic they generate concurrently afterwards still
    /// counts (the counters are cache-wide, and shared builds genuinely
    /// are this query's hits).
    pub fn prep_stats(&self) -> PrepStats {
        let mut s = self.counters.snapshot();
        let ix = self.indexes.stats().since(&self.baseline);
        s.index_builds = ix.builds;
        s.index_hits = ix.hits;
        s.index_evictions = ix.evictions;
        s
    }

    /// The access-path cache backing this query's executions: trie indexes
    /// keyed by `(relation name, content version, column order)`, shared
    /// engine-wide across queries, repeated executions, `execute_batch`
    /// workers, and delta joins. Exposed for observability (entry count,
    /// memory, [`fdjoin_storage::IndexSetStats`]).
    pub fn index_set(&self) -> &Arc<IndexSet> {
        &self.indexes
    }

    /// The Carmeli–Kröll class of the *query*
    /// ([`fdjoin_query::EnumerationClass`]), computed once at prepare time:
    /// constant-delay enumeration attainable, attainable only thanks to the
    /// FDs, or provably not. `ResultStream` does not exploit it yet: on
    /// `simple_fd_path` (class `ConstantDelay`) it measures 649 / 2 569 /
    /// 10 249 / 40 969 probes between consecutive rows at n = 2^8 … 2^14.
    /// Also recorded on every [`AutoDecision`].
    pub fn enumeration_class(&self) -> EnumerationClass {
        self.enumeration
    }

    /// The observability handle inherited from the preparing engine
    /// (disabled unless [`Engine::observe`] attached one). Downstream
    /// layers — `fdjoin_stream` cursors, `fdjoin_delta` views — emit their
    /// spans and metrics through this same handle, which is what makes one
    /// submission's spans a single tree.
    pub fn observer(&self) -> &Observer {
        &self.obs
    }

    /// Bind this prepared query to `db`'s content versions and hand out its
    /// access-path view — the hook `fdjoin_stream::ResultStream` opens a
    /// cursor through. The returned [`AccessPaths`] shares the engine-wide
    /// trie-index cache, so a stream abandoned mid-flight leaves every trie
    /// it built behind for the next cursor (observable as
    /// [`PrepStats::index_builds`] staying flat across a
    /// [`PrepStats::since`] window while [`PrepStats::stream_cursors`]
    /// grows).
    pub fn access_paths<'q>(&'q self, db: &Database) -> Result<AccessPaths<'q>, JoinError> {
        self.size_profile(db)?;
        PrepCounters::bump(&self.counters.stream_cursors);
        Ok(
            AccessPaths::with_token(&self.indexes, &self.query, db, self.token)?
                .with_observer(self.obs.clone()),
        )
    }

    /// The data-dependent branch estimate of this query over `db`, from the
    /// measured per-relation degree statistics
    /// ([`fdjoin_storage::RelationStats`]) — the quantity
    /// [`Algorithm::Auto`]'s tie-break weighs against the worst-case
    /// bounds, exposed for serving-layer observability and admission
    /// decisions. Unlike the plans, estimates depend on the data (not just
    /// the size profile) and are recomputed per call; they cost one pass
    /// over the query's variables, not over the data.
    pub fn estimate(&self, db: &Database) -> Result<crate::cost::JoinEstimate, JoinError> {
        Ok(crate::cost::estimate_join(&self.query, db)?)
    }

    /// Resolve [`ExecOptions::parallelism`] into a concrete
    /// per-solve fan-out context. [`Parallelism::Auto`] splits to one task
    /// per available core only when the measured branch estimate clears
    /// [`ExecOptions::AUTO_SPLIT_LOG2`] — below that, fan-out overhead
    /// would dominate — and declines entirely on single-core machines or
    /// when no estimate is computable (e.g. a relation went missing
    /// between validation and here).
    fn resolve_parallelism(
        &self,
        db: &Database,
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
                    && self
                        .estimate(db)
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

    /// The raw size profile of this query's atoms in `db` — the key under
    /// which chain/LLP/SMA plans are cached. Two databases with the same
    /// profile execute from the same cached plans; a profile drift (e.g.
    /// from applied deltas) costs a per-profile re-plan but never touches
    /// the shared [`PlanCache`] shape entry, which is keyed by presentation
    /// isomorphism alone.
    ///
    /// This is also the up-front validation every entry point shares
    /// (execution, [`PreparedQuery::access_paths`] and hence result
    /// streams, EXPLAIN): a missing relation is
    /// [`JoinError::MissingRelation`], and a relation stored over other
    /// variables than its atom's is [`JoinError::SchemaMismatch`].
    pub fn size_profile(&self, db: &Database) -> Result<Vec<u64>, JoinError> {
        self.query
            .atoms()
            .iter()
            .map(|a| {
                let rel = db.relation(&a.name)?;
                if rel.var_set() != a.var_set() {
                    return Err(JoinError::SchemaMismatch {
                        relation: a.name.clone(),
                        atom_vars: a.vars.clone(),
                        relation_vars: rel.vars().to_vec(),
                    });
                }
                Ok(rel.len() as u64)
            })
            .collect()
    }

    /// Execute against a database. Plans for previously seen size profiles
    /// are reused; see [`PrepStats`].
    pub fn execute(&self, db: &Database, opts: &ExecOptions) -> Result<JoinResult, JoinError> {
        self.execute_with(db, opts, &self.obs)
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
        if !obs.is_enabled() {
            return self.execute_inner(db, opts, obs);
        }
        let started = Instant::now();
        let mut span = obs.span(SpanKind::Solve, query_label(&self.query));
        let result = self.execute_inner(db, opts, obs);
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
                    span.field("enumeration", auto.enumeration.to_string());
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
                // computed only when someone is listening.
                if let Ok(est) = self.estimate(db) {
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
        obs: &Observer,
    ) -> Result<JoinResult, JoinError> {
        let q = &self.query;
        // Validate the database up front so every algorithm shares the
        // non-panicking MissingRelation / SchemaMismatch paths.
        let raw_lens = self.size_profile(db)?;
        self.validate(opts)?;
        // Bind this (query, database) pair to the shared access-path
        // cache: every probe below goes through trie indexes keyed by
        // relation content versions, so repeated executions (and batch
        // workers, and delta joins) rebuild nothing that hasn't changed.
        let paths =
            AccessPaths::with_token(&self.indexes, q, db, self.token)?.with_observer(obs.clone());

        let (algorithm, auto) = match opts.algorithm {
            Algorithm::Auto => {
                let decision = self.choose(db, &raw_lens, opts);
                (decision.algorithm, Some(decision))
            }
            explicit => (explicit, None),
        };

        // Resolve parallelism once, on the coordinating thread — after the
        // auto decision (so `AutoDecision` can never depend on the task
        // count) and while the `solve` span is the innermost open span (so
        // worker-side `solve_part` spans parent under it).
        let par = self.resolve_parallelism(db, opts, obs);

        match algorithm {
            Algorithm::Auto => unreachable!("choose() returns a concrete algorithm"),
            Algorithm::Chain | Algorithm::ChainNoArgmin => {
                let use_argmin = algorithm == Algorithm::Chain;
                let bound = match &opts.chain {
                    Some(c) => self
                        .chain_override_plan(&raw_lens, c)
                        .ok_or(JoinError::NoGoodChain)?,
                    None => self.chain_plan(&raw_lens).ok_or(JoinError::NoGoodChain)?,
                };
                let (output, stats) =
                    chain_algo::execute(q, db, &self.pres, &bound, use_argmin, &paths, &par)?;
                Ok(JoinResult {
                    output,
                    stats,
                    algorithm_used: algorithm,
                    predicted_log_bound: Some(bound.log_bound.clone()),
                    plan: PlanDetail::Chain(bound.chain),
                    auto,
                })
            }
            Algorithm::Sma => {
                let plan = self.sma_plan(&raw_lens)?;
                let (output, stats) = sma::execute(q, db, &self.pres, &plan, &paths, &par)?;
                Ok(JoinResult {
                    output,
                    stats,
                    algorithm_used: Algorithm::Sma,
                    predicted_log_bound: Some(plan.log_bound.clone()),
                    plan: PlanDetail::SmProof(plan.proof),
                    auto,
                })
            }
            Algorithm::Csma => {
                let (output, stats, plan) =
                    csma::execute(q, db, &self.pres, &paths, &par, |expanded_lens| {
                        self.csma_plan(expanded_lens, &opts.degree_bounds)
                    })?;
                Ok(JoinResult {
                    output,
                    stats,
                    algorithm_used: Algorithm::Csma,
                    predicted_log_bound: Some(plan.log_bound.clone()),
                    plan: PlanDetail::CsmSequence(plan.seq),
                    auto,
                })
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
                Ok(JoinResult {
                    output,
                    stats,
                    algorithm_used: Algorithm::GenericJoin,
                    predicted_log_bound: None,
                    plan: PlanDetail::None,
                    auto,
                })
            }
            Algorithm::BinaryJoin => {
                let (output, stats) =
                    crate::binary_join::execute(q, db, opts.atom_order.as_deref(), &paths, &par)?;
                Ok(JoinResult {
                    output,
                    stats,
                    algorithm_used: Algorithm::BinaryJoin,
                    predicted_log_bound: None,
                    plan: PlanDetail::None,
                    auto,
                })
            }
            Algorithm::Naive => {
                let (output, stats) = naive::execute(q, db, &paths, &par)?;
                Ok(JoinResult {
                    output,
                    stats,
                    algorithm_used: Algorithm::Naive,
                    predicted_log_bound: None,
                    plan: PlanDetail::None,
                    auto,
                })
            }
        }
    }

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
    /// the measured estimates are recorded in the returned [`AutoDecision`].
    fn choose(&self, db: &Database, raw_lens: &[u64], opts: &ExecOptions) -> AutoDecision {
        if !opts.degree_bounds.is_empty() {
            return AutoDecision {
                algorithm: Algorithm::Csma,
                reason: AutoReason::DegreeBoundsPinCsma,
                chain_log_bound: None,
                llp_log_bound: None,
                estimate_log_avg: None,
                estimate_log_max: None,
                enumeration: self.enumeration,
            };
        }
        if opts.chain.is_some() {
            return AutoDecision {
                algorithm: Algorithm::Chain,
                reason: AutoReason::ChainOverridePinsChain,
                chain_log_bound: None,
                llp_log_bound: None,
                estimate_log_avg: None,
                estimate_log_max: None,
                enumeration: self.enumeration,
            };
        }
        let chain = self.chain_plan(raw_lens);
        let chain_log_bound = chain.as_ref().map(|cb| cb.log_bound.clone());
        if chain.is_some() && self.pres.lattice.is_distributive() {
            return AutoDecision {
                algorithm: Algorithm::Chain,
                reason: AutoReason::DistributiveTightChain,
                chain_log_bound,
                llp_log_bound: None,
                estimate_log_avg: None,
                estimate_log_max: None,
                enumeration: self.enumeration,
            };
        }
        let mut llp_log_bound = None;
        if let Some(cb) = &chain {
            let llp_value = self.llp_plan(raw_lens).value;
            if cb.log_bound == llp_value {
                return AutoDecision {
                    algorithm: Algorithm::Chain,
                    reason: AutoReason::ChainMatchesLlpOptimum,
                    chain_log_bound,
                    llp_log_bound: Some(llp_value),
                    estimate_log_avg: None,
                    estimate_log_max: None,
                    enumeration: self.enumeration,
                };
            }
            llp_log_bound = Some(llp_value);
        }
        // From here on the worst-case analysis alone cannot settle the
        // choice; consult the measured degree statistics (unless disabled).
        // The estimate depends on the *data*, not just the size profile, so
        // it is computed per call, never cached with the plans.
        let estimate = if opts.no_cost_tiebreak {
            None
        } else {
            crate::cost::estimate_join(&self.query, db).ok()
        };
        let estimate_log_avg = estimate.as_ref().map(|e| e.log_avg.clone());
        let estimate_log_max = estimate.as_ref().map(|e| e.log_max.clone());
        if let (Some(est), Some(llp)) = (&estimate, &llp_log_bound) {
            if chain.is_some() && est.log_max <= *llp {
                return AutoDecision {
                    algorithm: Algorithm::Chain,
                    reason: AutoReason::EstimatedTightChain,
                    chain_log_bound,
                    llp_log_bound,
                    estimate_log_avg,
                    estimate_log_max,
                    enumeration: self.enumeration,
                };
            }
        }
        // The SMA planning attempt embeds an LLP solve, so from here on the
        // optimum is known (as a cache hit) even when the chain analysis
        // skipped it.
        let good_proof = self.sma_plan(raw_lens).is_ok();
        llp_log_bound = llp_log_bound.or_else(|| Some(self.llp_plan(raw_lens).value));
        if good_proof {
            return AutoDecision {
                algorithm: Algorithm::Sma,
                reason: AutoReason::GoodSmProof,
                chain_log_bound,
                llp_log_bound,
                estimate_log_avg,
                estimate_log_max,
                enumeration: self.enumeration,
            };
        }
        AutoDecision {
            algorithm: Algorithm::Csma,
            reason: AutoReason::CsmaFallback,
            chain_log_bound,
            llp_log_bound,
            estimate_log_avg,
            estimate_log_max,
            enumeration: self.enumeration,
        }
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
            let mut seen = vec![false; na];
            if order.len() != na {
                return Err(JoinError::InvalidOptions(format!(
                    "atom_order must be a permutation of 0..{na}"
                )));
            }
            for &a in order {
                if a >= na || seen[a] {
                    return Err(JoinError::InvalidOptions(format!(
                        "atom_order must be a permutation of 0..{na}"
                    )));
                }
                seen[a] = true;
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

    // Plan lookups. The fast path is a shard read lock on the local map; a
    // local miss consults the shared cross-query cache (rehydrating an
    // isomorphic query's plan through the canonical relabeling) before
    // solving. Solves, probes, and counter bumps all run under the local
    // shard write lock, so a plan is never double-computed and hit/miss
    // accounting never double-counts.

    /// The one cache protocol behind every plan kind: local read → (under
    /// the local shard write lock) shared probe + relabel on hit, else
    /// solve + publish. `lens` keys the canonical profile; `allow_shared`
    /// gates kinds that cannot cross queries (degree-bounded CSMA).
    #[allow(clippy::too_many_arguments)] // one per protocol role, four call sites
    fn cached_plan<K, V>(
        &self,
        local: &Sharded<K, V>,
        key: &K,
        lens: &[u64],
        allow_shared: bool,
        shared_map: impl Fn(&shared::ShapeEntry) -> &Sharded<shared::CanonKey, V>,
        apply: impl Fn(&relabel::Relabel, &V) -> V,
        solve: impl Fn() -> V,
    ) -> V
    where
        K: std::hash::Hash + Eq + Clone,
        V: Clone,
    {
        if let Some(hit) = local.get(key) {
            return hit;
        }
        local.get_or_insert_with(key, || {
            match self.shared.as_ref().filter(|_| allow_shared) {
                Some(sh) => {
                    let kp = sh.canon_key(lens);
                    if let Some(canon) = shared_map(&sh.entry).get(&kp.key) {
                        PrepCounters::bump(&self.counters.shared_hits);
                        self.note_plan_event("fdjoin_plan_shared_hits_total");
                        return apply(&sh.relabel_to_local(&kp), &canon);
                    }
                    PrepCounters::bump(&self.counters.shared_misses);
                    self.note_plan_event("fdjoin_plan_shared_misses_total");
                    let v = solve();
                    let _ = shared_map(&sh.entry)
                        .get_or_insert_with(&kp.key, || apply(&sh.relabel_to_canon(&kp), &v));
                    v
                }
                None => solve(),
            }
        })
    }

    fn chain_plan(&self, raw_lens: &[u64]) -> Option<ChainBound> {
        self.cached_plan(
            &self.local.chain,
            &raw_lens.to_vec(),
            raw_lens,
            true,
            |e| &e.chain,
            |r, v| v.as_ref().map(|b| r.chain_bound(b)),
            || self.solve_chain(raw_lens),
        )
    }

    /// Count one planning event into the attached registry. Kept at the
    /// same sites as the [`PrepCounters`] bumps so
    /// `fdjoin_plan_solves_total` always equals the sum of
    /// [`PrepStats::solves`] over the executions recorded (the
    /// reconciliation the observability tests assert).
    fn note_plan_event(&self, metric: &'static str) {
        if self.obs.is_enabled() {
            self.obs.metrics().add(metric, &[], 1);
        }
    }

    fn solve_chain(&self, raw_lens: &[u64]) -> Option<ChainBound> {
        PrepCounters::bump(&self.counters.chain_searches);
        self.note_plan_event("fdjoin_plan_solves_total");
        let logs = log_sizes_of(raw_lens);
        best_chain_bound(&self.pres.lattice, &self.pres.inputs, &logs)
    }

    fn chain_override_plan(&self, raw_lens: &[u64], chain: &Chain) -> Option<ChainBound> {
        // Override plans embed a user-supplied chain in local coordinates;
        // they are cached per query only.
        let key = (raw_lens.to_vec(), chain.elems.clone());
        if let Some(hit) = self.local.chain_override.get(&key) {
            return hit;
        }
        self.local.chain_override.get_or_insert_with(&key, || {
            PrepCounters::bump(&self.counters.chain_searches);
            self.note_plan_event("fdjoin_plan_solves_total");
            let logs = log_sizes_of(raw_lens);
            chain_bound(&self.pres.lattice, &self.pres.inputs, &logs, chain)
        })
    }

    fn llp_plan(&self, raw_lens: &[u64]) -> LlpSolution {
        self.cached_plan(
            &self.local.llp,
            &raw_lens.to_vec(),
            raw_lens,
            true,
            |e| &e.llp,
            |r, v| r.llp(v),
            || self.solve_llp(raw_lens),
        )
    }

    fn solve_llp(&self, raw_lens: &[u64]) -> LlpSolution {
        PrepCounters::bump(&self.counters.llp_solves);
        self.note_plan_event("fdjoin_plan_solves_total");
        let logs = log_sizes_of(raw_lens);
        solve_llp(&self.pres.lattice, &self.pres.inputs, &logs)
    }

    fn sma_plan(&self, raw_lens: &[u64]) -> Result<sma::SmaPlan, JoinError> {
        self.cached_plan(
            &self.local.sma,
            &raw_lens.to_vec(),
            raw_lens,
            true,
            |e| &e.sma,
            |r, v| r.sma_result(v),
            || self.solve_sma(raw_lens),
        )
    }

    fn solve_sma(&self, raw_lens: &[u64]) -> Result<sma::SmaPlan, JoinError> {
        // The nested `llp_plan` call locks a *different* map than the sma
        // shard held by the caller — the lock order is strictly sma → llp.
        let llp = self.llp_plan(raw_lens);
        PrepCounters::bump(&self.counters.proof_searches);
        self.note_plan_event("fdjoin_plan_solves_total");
        let logs = log_sizes_of(raw_lens);
        sma::plan(&self.pres, &llp, &logs)
    }

    fn csma_plan(
        &self,
        expanded_lens: &[u64],
        degree_bounds: &[UserDegreeBound],
    ) -> Result<csma::CsmaPlan, JoinError> {
        let key: CsmaKey = (
            expanded_lens.to_vec(),
            degree_bounds
                .iter()
                .map(|b| (b.atom, b.on.clone(), b.max_degree))
                .collect(),
        );
        // Degree-bounded plans reference attribute sets of *this* query's
        // variables; only pure cardinality plans are shared across queries.
        self.cached_plan(
            &self.local.csma,
            &key,
            expanded_lens,
            degree_bounds.is_empty(),
            |e| &e.csma,
            |r, v| r.csma_result(v),
            || self.solve_csma(expanded_lens, degree_bounds),
        )
    }

    fn solve_csma(
        &self,
        expanded_lens: &[u64],
        degree_bounds: &[UserDegreeBound],
    ) -> Result<csma::CsmaPlan, JoinError> {
        PrepCounters::bump(&self.counters.cllp_solves);
        self.note_plan_event("fdjoin_plan_solves_total");
        let logs = log_sizes_of(expanded_lens);
        csma::plan(&self.query, &self.pres, &logs, degree_bounds)
    }
}

// `PreparedQuery` is shared by reference across `fdjoin_exec`'s worker
// threads; keep the auto-traits load-bearing and compiler-checked.
#[allow(dead_code)]
fn assert_thread_safe() {
    fn check<T: Send + Sync>() {}
    check::<Engine>();
    check::<PreparedQuery>();
    check::<PlanCache>();
    check::<JoinResult>();
}

/// The human span label for a query: its atom names in body order.
fn query_label(q: &Query) -> String {
    q.atoms()
        .iter()
        .map(|a| a.name.as_str())
        .collect::<Vec<_>>()
        .join("⋈")
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

/// Dyadic upper approximations `log₂ max(len, 1)` for a size profile.
pub(crate) fn log_sizes_of(lens: &[u64]) -> Vec<Rational> {
    lens.iter()
        .map(|&l| Rational::log2_approx(l.max(1), 16))
        .collect()
}

// ---------------------------------------------------------------------------
// Free-function shims: ergonomic one-shot calls over the engine.
// ---------------------------------------------------------------------------

fn run(q: &Query, db: &Database, algorithm: Algorithm) -> Result<JoinResult, JoinError> {
    Engine::new().execute(q, db, &ExecOptions::new().algorithm(algorithm))
}

/// Run the Chain Algorithm with an automatically selected chain (the best
/// over all maximal chains plus the Corollary 5.9/5.11 constructions).
pub fn chain_join(q: &Query, db: &Database) -> Result<JoinResult, JoinError> {
    run(q, db, Algorithm::Chain)
}

/// Ablation A1: like [`chain_join`] but *without* the per-tuple `argmin`
/// relation choice — always iterates the first covering relation. This is
/// the "crucial fact" of Sec. 5.1 turned off; Theorem 5.7's accounting
/// breaks and the runtime can degrade to the worse relation's degree.
pub fn chain_join_no_argmin(q: &Query, db: &Database) -> Result<JoinResult, JoinError> {
    run(q, db, Algorithm::ChainNoArgmin)
}

/// Run SMA end to end.
pub fn sma_join(q: &Query, db: &Database) -> Result<JoinResult, JoinError> {
    run(q, db, Algorithm::Sma)
}

/// Run CSMA with cardinality constraints only (degree bounds go through
/// [`ExecOptions::degree_bounds`]).
pub fn csma_join(q: &Query, db: &Database) -> Result<JoinResult, JoinError> {
    run(q, db, Algorithm::Csma)
}

/// Evaluate with Generic-Join (options go through [`ExecOptions`]).
pub fn generic_join(q: &Query, db: &Database) -> Result<JoinResult, JoinError> {
    run(q, db, Algorithm::GenericJoin)
}

/// Evaluate with left-deep binary hash joins in body order (custom orders
/// go through [`ExecOptions::atom_order`]).
pub fn binary_join(q: &Query, db: &Database) -> Result<JoinResult, JoinError> {
    run(q, db, Algorithm::BinaryJoin)
}

/// Evaluate naively (the correctness oracle).
pub fn naive_join(q: &Query, db: &Database) -> Result<JoinResult, JoinError> {
    run(q, db, Algorithm::Naive)
}
