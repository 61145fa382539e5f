//! Query model: conjunctive queries with functional dependencies.
//!
//! Implements the paper's Sections 2–3: FD closures, the closure query `Q⁺`,
//! query hypergraphs with their fractional edge cover / vertex packing LPs
//! (Theorem 2.1), lattice presentations `(L, R)` (Definition 3.1), and the
//! 1-1 correspondence between lattices and queries with FDs (Sec. 3.1),
//! which lets us turn the paper's abstract lattices (Figs. 4, 7, 8, 9) into
//! runnable queries.

#![forbid(unsafe_code)]

mod enumeration;
mod fd;
mod hypergraph;
mod query;

pub mod examples;

pub use enumeration::EnumerationClass;
pub use fd::{Fd, FdSet};
pub use hypergraph::{EdgeCover, Hypergraph};
pub use query::{Atom, LatticePresentation, Query, QueryBuilder};
