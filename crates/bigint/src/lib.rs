//! Exact rationals on machine words, with arbitrary-precision spill.
//!
//! The `fdjoin` planner solves linear programs (the lattice LP, its dual,
//! fractional edge covers, …) **exactly**: the dual vertices are rational
//! vectors whose exact values drive algorithm construction (SM-proof
//! multiplicities, heavy/light thresholds). A cold request is almost entirely
//! that arithmetic — some ten thousand rational operations — so its speed is
//! the planner's speed.
//!
//! [`Rational`] therefore keeps every value in lowest terms with a positive
//! denominator, and holds it as an `i64 / i64` pair whenever both parts fit;
//! `+ − × ÷` and comparison on two such values run on machine words (`i128`
//! widening, checked operations, a binary gcd) and allocate nothing. The
//! lattice LPs have 0/±1 coefficients and dyadic right-hand sides, so in
//! practice that is every operation. [`BigInt`] is the spill: an operation
//! whose result leaves 64 bits is redone over `BigInt`s, and its result comes
//! back as a word pair as soon as it fits again. Which form a value is in is
//! a function of the value alone and is not observable from outside.

#![forbid(unsafe_code)]

#[cfg(test)]
mod differential;
mod int;
mod rational;

pub use int::BigInt;
pub use rational::Rational;

/// Convenience: construct a [`Rational`] from an integer pair `p / q`.
pub fn rat(p: i64, q: i64) -> Rational {
    Rational::from_words(p, q)
}
