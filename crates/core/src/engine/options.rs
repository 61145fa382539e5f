//! The engine's vocabulary: what a caller asks for ([`Algorithm`],
//! [`ExecOptions`]) and what comes back ([`JoinResult`], [`JoinError`],
//! and the [`AutoDecision`] record of an [`Algorithm::Auto`] choice).

use crate::Stats;
use fdjoin_bigint::Rational;
use fdjoin_bounds::chain::Chain;
use fdjoin_bounds::csm::CsmSequence;
use fdjoin_bounds::smproof::SmProof;
use fdjoin_lattice::VarSet;
use fdjoin_storage::{MissingRelation, Relation};
use std::fmt;

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
        };
        f.write_str(name)
    }
}

/// A user-declared maximum-degree bound on an input relation
/// (the "Known Frequencies" scenario of Sec. 1.1), consumed by CSMA.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
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
///     .parallelism(2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct ExecOptions {
    pub(super) algorithm: Algorithm,
    pub(super) degree_bounds: Vec<UserDegreeBound>,
    pub(super) atom_order: Option<Vec<usize>>,
    pub(super) no_cost_tiebreak: bool,
    pub(super) parallelism: Parallelism,
}

/// How many sub-range tasks one solve may fan out over (the
/// [`ExecOptions::parallelism`] knob). Parallelism never changes results:
/// sub-range solves merge deterministically, so output bytes,
/// [`Stats::deterministic`] totals, and [`AutoDecision`]s are identical at
/// every setting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Parallelism {
    /// Estimate-gated: split to one task per available core only when
    /// [`PreparedQuery::estimate`](super::PreparedQuery::estimate) says
    /// the solve is large enough to amortize the fan-out (its
    /// skew-pessimistic branch estimate reaches
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
    /// algorithm-pinning constraint (degree bounds pin CSMA). Only then may
    /// another layer — e.g. `fdjoin_delta`'s per-delta specialization —
    /// substitute a cost-model-chosen algorithm without overriding the
    /// caller.
    pub fn is_plain_auto(&self) -> bool {
        self.algorithm == Algorithm::Auto && self.degree_bounds.is_empty()
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

    /// Atom order for binary join plans (default: body order;
    /// [`Algorithm::BinaryJoin`] only).
    pub fn atom_order(mut self, order: Vec<usize>) -> Self {
        self.atom_order = Some(order);
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
    /// The options are inconsistent with the query or the algorithm (an
    /// atom order that is not a permutation, an out-of-range degree bound,
    /// an option the chosen algorithm never reads, …).
    InvalidOptions(String),
    /// An admission control layer (e.g. `fdjoin_exec`) rejected the
    /// execution before it started: the data-dependent branch estimate
    /// ([`PreparedQuery::estimate`](super::PreparedQuery::estimate))
    /// exceeded the caller's budget. Both sides of the comparison ride
    /// along so the caller can report — or relax — the margin.
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
            JoinError::MissingRelation(name) => write!(f, "relation {name:?} not in database"),
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
            JoinError::NoGoodChain => write!(
                f,
                "no good chain with a finite chain bound exists for this query"
            ),
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
    /// No data-independent plan (Generic-Join, binary join).
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
