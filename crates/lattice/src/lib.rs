//! Finite lattice theory for join queries with functional dependencies.
//!
//! The paper's central move is to replace the powerset of query variables
//! with the **lattice of closed sets** under the given FDs (Definition 3.1).
//! This crate provides:
//!
//! - [`VarSet`]: bitset variable sets;
//! - [`Lattice`]: finite lattices with dense order/meet/join tables, built
//!   from closed-set families or abstract Hasse diagrams;
//! - structural predicates: distributivity, modularity, `M3`/`N5` sublattice
//!   detection (Proposition 4.10), Möbius functions (Eq. 10);
//! - [`canonical_fingerprint`]: canonical labeling of lattice presentations
//!   (the isomorphism-respecting cache key behind cross-query plan reuse);
//! - [`build`]: the paper's concrete lattices (Boolean algebras, `M3`, `N5`,
//!   Figures 4, 7, 8, 9).

#![forbid(unsafe_code)]

mod canon;
mod lattice;
mod props;
mod varset;

pub mod build;

pub use canon::{canonical_fingerprint, PresentationFingerprint};
pub use lattice::{ElemId, Lattice, LatticeError};
pub use varset::VarSet;
