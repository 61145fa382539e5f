//! Output-size bounds for join queries with functional dependencies — the
//! paper's analytical core, implemented end-to-end and *exactly* (all
//! arithmetic is exact rationals over `log₂` sizes; no floats anywhere).
//!
//! # The bound zoo, and why each exists
//!
//! A query with FDs presents as a pair `(L, R)`: a lattice `L` of closed
//! variable sets and inputs `R ⊆ L`, one per atom (Sec. 3.1). Every bound
//! here is a statement about entropy functions `h` on `L` with
//! `h(input) ≤ log₂ |relation|`:
//!
//! - [`agm`]: the FD-oblivious baseline (Theorem 2.1) and `AGM(Q⁺)` over
//!   the FD-closure (Sec. 2) — what you get without the lattice.
//! - [`llp`]: the **Lattice Linear Program** (Eq. 5). Its optimum over
//!   submodular `h` is the GLVV bound (Proposition 3.4) — the tightest
//!   worst-case output bound under FDs — and its exact dual weights
//!   (Lemma 3.9) are what the algorithms execute against.
//! - [`chain`]: the **chain bound** (Theorem 5.3): pick a maximal chain
//!   `0̂ ≺ … ≺ 1̂` through `L`; the fractional edge cover of the induced
//!   chain hypergraph bounds the output, and the Chain Algorithm runs in
//!   that budget. Good chains exist by construction (Corollaries 5.9/5.11);
//!   the bound is tight on distributive lattices (Cor. 5.15) or whenever
//!   it meets the LLP optimum (Theorem 5.14).
//! - [`smproof`]: **SM proofs** (Sec. 5.2) — derivations of the dual
//!   inequality `Σ wⱼ h(Rⱼ) ≥ h(1̂)` as a sequence of submodularity steps.
//!   A *good* proof (Def. 5.26) is one SMA can execute; Example 5.31 shows
//!   goodness is not guaranteed.
//! - [`cllp`]/[`csm`]: the **conditional** LLP with degree bounds
//!   (Sec. 5.3.1) and CSM proof sequences (Theorem 5.34) — the always-
//!   applicable general case, and the only layer that consumes declared
//!   degree constraints ("Known Frequencies", Sec. 1.1).
//! - [`normal`]: co-atomic hypergraphs and the normal-lattice decision
//!   procedure (Sec. 4 / Theorem 4.9) — when the entropic and polymatroid
//!   optima provably coincide.
//! - [`LatticeFn`]: the shared function algebra — polymatroids,
//!   Möbius/CMI inversion, step decompositions, Lovász monotonization.
//!
//! The engine (`fdjoin_core`) consults these in exactly that order:
//! chain when tight, SMA given a good proof, CSMA otherwise.
//!
//! # Entry points
//!
//! Everything keys off a presentation and `log₂` sizes:
//!
//! ```
//! use fdjoin_bigint::Rational;
//! use fdjoin_bounds::chain::best_chain_bound;
//! use fdjoin_bounds::llp::solve_llp;
//!
//! // The triangle query R(x,y) ⋈ S(y,z) ⋈ T(z,x), all relations size N=64.
//! let pres = fdjoin_query::examples::triangle().lattice_presentation();
//! let logs = vec![Rational::log2_approx(64, 16); 3];
//!
//! // GLVV bound: 2^(3/2 · log N) = N^{3/2} — the AGM exponent (no FDs).
//! let llp = solve_llp(&pres.lattice, &pres.inputs, &logs);
//! assert_eq!(llp.value, Rational::from(9i64));
//! // The dual certificate prices the inputs: Σ w*_j · log N_j = optimum.
//! let priced: Rational = llp
//!     .input_duals
//!     .iter()
//!     .zip(&logs)
//!     .map(|(w, n)| w * n)
//!     .fold(Rational::zero(), |acc, t| &acc + &t);
//! assert_eq!(priced, llp.value);
//!
//! // The triangle's lattice (no FDs) is Boolean, hence distributive — so
//! // the best chain is *tight* (Cor. 5.15): it meets the GLVV optimum and
//! // the Chain Algorithm runs in the optimal N^{3/2} budget. (On Fig. 4's
//! // lattice the same comparison comes out 3/2·n vs. 4/3·n, and the
//! // engine moves on to SMA/CSMA.)
//! let chain = best_chain_bound(&pres.lattice, &pres.inputs, &logs).unwrap();
//! assert_eq!(chain.log_bound, llp.value);
//! ```

#![forbid(unsafe_code)]

pub mod agm;
pub mod chain;
pub mod cllp;
pub mod csm;
mod lattice_lp;
pub mod llp;
pub mod normal;
mod polymatroid;
pub mod smproof;

pub use cllp::{CllpSolution, DegreePair};
pub use csm::{CsmRule, CsmSequence};
pub use llp::LlpSolution;
pub use polymatroid::LatticeFn;
