//! Join algorithms for queries with functional dependencies — the paper's
//! primary contribution, plus every baseline it compares against — behind
//! one unified execution API, the [`Engine`].
//!
//! | Algorithm | Paper | Runtime budget |
//! |-----------|-------|----------------|
//! | [`Algorithm::Chain`] | Algorithm 1 (Sec. 5.1) | chain bound (tight on distributive lattices) |
//! | [`Algorithm::Sma`] | Algorithm 2 (Sec. 5.2) | SM bound (needs a *good* proof sequence) |
//! | [`Algorithm::Csma`] | CSMA (Sec. 5.3) | GLVV/CLLP bound up to polylog; supports degree bounds |
//! | [`Algorithm::GenericJoin`] | WCOJ baseline (NPRR/LFTJ) | AGM bound of the FD-stripped query |
//! | [`Algorithm::BinaryJoin`] | traditional plans | unbounded intermediates (Sec. 1.1) |
//!
//! [`Algorithm::Auto`] picks among the first three bound-drivenly, the way
//! the paper's results dictate (chain on distributive/tight lattices, SMA
//! given a good proof sequence, CSMA otherwise).
//!
//! Every algorithm is callable three ways:
//!
//! 1. **one-shot**: `Engine::new().execute(&q, &db, &opts)`;
//! 2. **prepared**: `Engine::new().prepare(&q)` then
//!    [`PreparedQuery::execute`] — lattice presentation, chain search, LLP
//!    solve, and proof sequences are computed once and reused;
//! 3. **free functions**: [`chain_join`], [`sma_join`], [`csma_join`],
//!    [`generic_join`], [`binary_join`] — thin shims over the engine.
//!
//! The crate carries no evaluator of its own to check these against: every
//! suite compares them with `fdjoin_instances::reference_join`, which
//! shares no code with this crate.
//!
//! All algorithms share the [`Expander`] (the Sec. 2 expansion procedure,
//! compiled once per call site into a straight-line [`Program`]) and
//! report deterministic work counters ([`Stats`]) so tests and the
//! `benchmark/` harness can verify asymptotic *shapes* without wall-clock
//! noise. Results come back as one [`JoinResult`]; failures as one
//! [`JoinError`]. Generic-Join's search is the resumable [`descent`] loop,
//! which `fdjoin_stream::ResultStream` runs one answer at a time.
//!
//! Every probe an algorithm issues goes through the shared access-path
//! layer ([`AccessPaths`] over `fdjoin_storage::IndexSet`): trie indexes
//! per `(relation, column order)`, built once per relation version and
//! navigated by zero-allocation narrowing cursors
//! (`fdjoin_storage::Probe`), with build/hit counters surfaced in
//! [`Stats`] and [`PrepStats`]. Every keyed lookup into them — a join
//! step's key and membership checks, a compiled guard lookup — goes
//! through a `fdjoin_storage::Finger` kept across tuples, which resumes
//! from the last key instead of the trie root.
//!
//! Beyond the worst-case bounds, the [`cost`] module prices plans from
//! *measured* data: per-relation degree/skew statistics
//! ([`fdjoin_storage::RelationStats`]) become estimated branch counts that
//! [`Algorithm::Auto`] uses as data-dependent tie-breaks (recorded on
//! [`AutoDecision`]) and that `fdjoin_delta` uses to pick
//! delta-specialized plans.

#![forbid(unsafe_code)]

mod access;
mod binary_join;
mod chain_algo;
pub mod cost;
mod csma;
pub mod descent;
pub mod engine;
mod expand;
mod extend;
mod generic_join;
mod par;
mod sma;
mod stats;

pub use access::AccessPaths;
pub use chain_algo::atom_log_sizes;
pub use engine::{
    binary_join, chain_join, chain_join_no_argmin, csma_join, generic_join, sma_join, Algorithm,
    AutoDecision, AutoReason, Engine, ExecOptions, Explain, ExplainAnalysis, JoinError, JoinResult,
    Parallelism, PlanCache, PlanCacheStats, PlanDetail, PrepStats, PreparedQuery, UserDegreeBound,
};
pub use expand::{Expander, OpKey, Program, Scratch};
pub use stats::Stats;

// Re-exported so `Engine::observe` / `PreparedQuery::observer` callers can
// construct and drain observers without a direct `fdjoin_obs` dependency.
pub use fdjoin_obs::Observer;
