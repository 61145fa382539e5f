//! Test data and its ground truth: the paper's worst-case constructions,
//! random FD-respecting instances, and the reference evaluator.
//!
//! - [`coords`]: canonical quasi-product instances (Definition 4.4 /
//!   Lemma 4.5) — the universal tight-lower-bound generator for normal
//!   lattices, with automatic coordinate UDFs for unguarded FDs;
//! - [`special`]: hand-built instances (M3 parity, the Fig. 1 adversarial
//!   and tight instances, degree-bounded triangles);
//! - [`random`]: random instances that satisfy all FDs by construction;
//! - [`reference`](mod@reference): [`reference_join`], the evaluator
//!   every suite checks the engine against. It shares no code with
//!   `fdjoin_core`: this crate names the engine only as a dev-dependency.

#![forbid(unsafe_code)]

// Theorem 5.14's chain worst case has no caller outside its own tests.
#[cfg(test)]
mod chain_inst;
pub mod coords;
pub mod random;
pub mod reference;
pub mod special;

pub use coords::{materialize, normal_worst_case, CoordScheme};
pub use random::random_instance;
pub use reference::reference_join;
pub use special::{bounded_degree_triangle, fig1_adversarial, fig1_tight, m3_parity};
