//! Arbitrary-precision signed integers and exact rationals.
//!
//! The `fdjoin` planner solves linear programs (the lattice LP, its dual,
//! fractional edge covers, …) **exactly**: the dual vertices are rational
//! vectors whose exact values drive algorithm construction (SM-proof
//! multiplicities, heavy/light thresholds). This crate provides the minimal
//! exact-arithmetic substrate: [`BigInt`] and [`Rational`].
//!
//! The implementation favours simplicity and correctness over raw speed —
//! these numbers appear only in the (data-independent) planning phase, never
//! in per-tuple work.

mod int;
mod rational;

pub use int::BigInt;
pub use rational::Rational;

/// Convenience: construct a [`Rational`] from an integer pair `p / q`.
pub fn rat(p: i64, q: i64) -> Rational {
    Rational::from_frac(BigInt::from(p), BigInt::from(q))
}
