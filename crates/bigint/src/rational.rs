//! Exact rational numbers: a machine-word pair that spills to [`BigInt`] only
//! when a part leaves 64 bits.

use crate::BigInt;
use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// An exact rational number `num / den`.
///
/// Four invariants hold for every value, whichever way it was reached:
///
/// 1. lowest terms: `gcd(num, den) = 1` (zero is `0/1`);
/// 2. `den > 0` — the sign lives on the numerator;
/// 3. a word-sized numerator is never `i64::MIN`, so negation and absolute
///    value cannot overflow;
/// 4. the value is held as a pair of machine words **whenever both parts
///    fit**, and as a boxed [`BigInt`] pair only otherwise.
///
/// Together they make the representation a function of the value: `==`,
/// `Hash` and `Ord` are structural, a clone of a word-sized value is a
/// 24-byte copy, and which of the two forms a value is in is not observable
/// through any public item — the `BigInt` form is a spill, not a mode.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Rational(Repr);

#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    /// `num / den` with `num != i64::MIN` and `den > 0`.
    Small(i64, i64),
    /// At least one part does not fit the `Small` ranges.
    Big(Box<(BigInt, BigInt)>),
}
use Repr::{Big, Small};

/// Binary gcd of two non-negative words (`gcd(0, x) = x`).
fn gcd(mut a: i64, mut b: i64) -> i64 {
    debug_assert!(a >= 0 && b >= 0);
    if a == 0 || b == 1 {
        return b;
    }
    if b == 0 || a == 1 {
        return a;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

/// `n` if it fits a `Small` part (`i64` without `i64::MIN`).
fn word(n: &BigInt) -> Option<i64> {
    let w = i64::try_from(n.to_i128()?).ok()?;
    (w != i64::MIN).then_some(w)
}

/// `n / d` as a `Small` value; `n / d` is in lowest terms with `d > 0`.
/// `None` when the numerator is the one word `Small` excludes.
fn small(n: i64, d: i64) -> Option<Rational> {
    debug_assert!(d > 0);
    (n != i64::MIN).then_some(Rational(Small(n, d)))
}

/// `a/b + c/d` on words, `None` on overflow. Knuth 4.5.1: with
/// `g = gcd(b, d)` the only common factor left in the cross sum is
/// `gcd(t, g)`, so every gcd runs on words and the result needs no second
/// reduction.
fn add_small(a: i64, b: i64, c: i64, d: i64) -> Option<Rational> {
    if b == d {
        let t = a.checked_add(c)?;
        if b == 1 {
            return small(t, 1);
        }
        let g = gcd(t.checked_abs()?, b);
        return small(t / g, b / g);
    }
    let g = gcd(b, d);
    let (b1, d1) = (b / g, d / g);
    let t = i128::from(a) * i128::from(d1) + i128::from(c) * i128::from(b1);
    let t = i64::try_from(t).ok()?;
    let g2 = if g == 1 { 1 } else { gcd(t.checked_abs()?, g) };
    small(t / g2, b1.checked_mul(d / g2)?)
}

/// `a/b · c/d` on words, `None` on overflow: cross-cancel first, so the
/// products are already in lowest terms.
fn mul_small(a: i64, b: i64, c: i64, d: i64) -> Option<Rational> {
    if a == 0 || c == 0 {
        return Some(Rational::zero());
    }
    let g1 = gcd(a.abs(), d);
    let g2 = gcd(c.abs(), b);
    small((a / g1).checked_mul(c / g2)?, (b / g2).checked_mul(d / g1)?)
}

enum Op {
    Add,
    Sub,
    Mul,
    Div,
}

impl Rational {
    /// The rational zero.
    pub fn zero() -> Self {
        Rational(Small(0, 1))
    }

    /// The rational one.
    pub fn one() -> Self {
        Rational(Small(1, 1))
    }

    /// Construct `num / den`, normalizing sign and reducing. Panics if `den == 0`.
    pub(crate) fn from_frac(num: BigInt, den: BigInt) -> Self {
        match (word(&num), word(&den)) {
            (Some(n), Some(d)) => Rational::from_words(n, d),
            _ => Rational::normalize(num, den),
        }
    }

    /// `p / q` from machine words. Panics if `q == 0`.
    pub(crate) fn from_words(p: i64, q: i64) -> Self {
        assert!(q != 0, "rational with zero denominator");
        if p == i64::MIN || q == i64::MIN {
            return Rational::normalize(BigInt::from(p), BigInt::from(q));
        }
        let g = gcd(p.abs(), q.abs());
        let (n, d) = (p / g, q / g);
        Rational(if d < 0 { Small(-n, -d) } else { Small(n, d) })
    }

    /// The spill's second half, and the only place a `Big` is made: reduce a
    /// `BigInt` pair, fix the sign, and demote it if both parts fit words.
    #[cold]
    fn normalize(num: BigInt, den: BigInt) -> Self {
        assert!(!den.is_zero(), "rational with zero denominator");
        let (num, den) = if den.is_negative() {
            (-num, -den)
        } else {
            (num, den)
        };
        let g = num.gcd(&den);
        let (num, den) = (&num / &g, &den / &g);
        match (word(&num), word(&den)) {
            (Some(n), Some(d)) => Rational(Small(n, d)),
            _ => Rational(Big(Box::new((num, den)))),
        }
    }

    /// Both parts as `BigInt`s — the spill's first half.
    pub(crate) fn parts(&self) -> (BigInt, BigInt) {
        match &self.0 {
            Small(n, d) => (BigInt::from(*n), BigInt::from(*d)),
            Big(b) => (b.0.clone(), b.1.clone()),
        }
    }

    /// `self (op) other`: on words when both operands are word-sized and
    /// nothing overflows, through [`Self::spill`] otherwise. Inlined into
    /// each operator, where `op` is a constant.
    #[inline]
    fn apply(&self, other: &Rational, op: Op) -> Rational {
        if let (&Small(a, b), &Small(c, d)) = (&self.0, &other.0) {
            let fast = match op {
                Op::Add => add_small(a, b, c, d),
                Op::Sub => add_small(a, b, -c, d),
                Op::Mul => mul_small(a, b, c, d),
                // Multiply by the reciprocal, its sign moved to the numerator.
                Op::Div if c > 0 => mul_small(a, b, d, c),
                Op::Div => mul_small(a, b, -d, -c),
            };
            if let Some(r) = fast {
                return r;
            }
        }
        self.spill(other, op)
    }

    /// Every binary operation that left the word-sized case: promote both
    /// operands, compute over `BigInt`, normalize and demote.
    #[cold]
    fn spill(&self, other: &Rational, op: Op) -> Rational {
        let ((a, b), (c, d)) = (self.parts(), other.parts());
        match op {
            Op::Add => Rational::normalize(&(&a * &d) + &(&c * &b), &b * &d),
            Op::Sub => Rational::normalize(&(&a * &d) - &(&c * &b), &b * &d),
            Op::Mul => Rational::normalize(&a * &c, &b * &d),
            Op::Div => Rational::normalize(&a * &d, &b * &c),
        }
    }

    /// The numerator (sign-carrying) if it fits in an `i64`.
    pub fn numer_i64(&self) -> Option<i64> {
        match &self.0 {
            Small(n, _) => Some(*n),
            Big(b) => i64::try_from(b.0.to_i128()?).ok(),
        }
    }

    /// The denominator (always positive) if it fits in a `u64`.
    pub fn denom_u64(&self) -> Option<u64> {
        match &self.0 {
            Small(_, d) => u64::try_from(*d).ok(),
            Big(b) => b.1.to_u64(),
        }
    }

    /// Returns `true` if this is zero.
    pub fn is_zero(&self) -> bool {
        self.signum() == 0
    }

    /// Returns `true` if strictly negative.
    pub fn is_negative(&self) -> bool {
        self.signum() < 0
    }

    /// Returns `true` if strictly positive.
    pub fn is_positive(&self) -> bool {
        self.signum() > 0
    }

    /// Returns `true` if the denominator is one.
    pub fn is_integer(&self) -> bool {
        match &self.0 {
            Small(_, d) => *d == 1,
            Big(b) => b.1 == BigInt::one(),
        }
    }

    /// Sign as `-1`, `0`, `1`.
    pub(crate) fn signum(&self) -> i8 {
        match &self.0 {
            Small(n, _) => match n.cmp(&0) {
                Ordering::Less => -1,
                Ordering::Equal => 0,
                Ordering::Greater => 1,
            },
            Big(b) => b.0.signum(),
        }
    }

    /// Absolute value.
    pub fn abs(&self) -> Rational {
        if self.is_negative() {
            -self
        } else {
            self.clone()
        }
    }

    /// Multiplicative inverse. Panics on zero.
    pub fn recip(&self) -> Rational {
        assert!(!self.is_zero(), "reciprocal of zero");
        match &self.0 {
            // Lowest terms already; only the sign moves.
            Small(n, d) if *n > 0 => Rational(Small(*d, *n)),
            Small(n, d) => Rational(Small(-*d, -*n)),
            Big(b) => Rational::normalize(b.1.clone(), b.0.clone()),
        }
    }

    /// Largest integer `<= self`.
    pub fn floor(&self) -> BigInt {
        match &self.0 {
            Small(n, d) => BigInt::from(n.div_euclid(*d)),
            Big(b) => {
                let (q, r) = b.0.div_rem(&b.1);
                if r.is_negative() {
                    &q - &BigInt::one()
                } else {
                    q
                }
            }
        }
    }

    /// Smallest integer `>= self`.
    pub fn ceil(&self) -> BigInt {
        -(-self).floor()
    }

    /// Lossy `f64` value (display, plotting, slope fits only).
    pub fn to_f64(&self) -> f64 {
        let b = match &self.0 {
            Small(n, d) => return *n as f64 / *d as f64,
            Big(b) => b,
        };
        // Scale to keep both parts in f64 range for very large operands.
        let nb = b.0.bits() as i64;
        let db = b.1.bits() as i64;
        if nb < 1000 && db < 1000 {
            return b.0.to_f64() / b.1.to_f64();
        }
        let shift = (nb.max(db) - 512).max(0) as u64;
        b.0.shr(shift).to_f64() / b.1.shr(shift).to_f64()
    }

    /// `floor(2^self)` computed exactly, for non-negative `self` with a
    /// denominator that fits in `u32`.
    ///
    /// These exponents are LP optima (small rationals like `3/2` or `4/3`
    /// scaled by integer log-cardinalities), so the exact path always applies
    /// in practice. For a negative exponent the value is in `(0,1)` so the
    /// floor is `0` (or `1` when `self == 0`).
    pub fn exp2_floor(&self) -> BigInt {
        if self.is_negative() {
            return BigInt::zero();
        }
        let p = self
            .numer_i64()
            .and_then(|p| u64::try_from(p).ok())
            .expect("exp2_floor: exponent numerator too large");
        let q = self
            .denom_u64()
            .and_then(|q| u32::try_from(q).ok())
            .expect("exp2_floor: exponent denominator too large");
        // floor(2^(p/q)) = floor((2^p)^(1/q)).
        BigInt::pow2(p).nth_root(q)
    }

    /// Exact `log2(n)` if `n` is a power of two, else `None`.
    pub(crate) fn log2_exact(n: u64) -> Option<Rational> {
        if n == 0 || !n.is_power_of_two() {
            return None;
        }
        Some(Rational::from(i64::from(n.trailing_zeros())))
    }

    /// Dyadic approximation of `log2(n)` with `frac_bits` fractional bits,
    /// rounded up (so cardinality constraints remain valid upper bounds).
    ///
    /// Exact whenever `n` is a power of two.
    pub fn log2_approx(n: u64, frac_bits: u32) -> Rational {
        assert!(n > 0, "log2 of zero");
        if let Some(exact) = Rational::log2_exact(n) {
            return exact;
        }
        // Integer part.
        let int_part = 63 - n.leading_zeros() as u64;
        // Fractional part: repeatedly square the mantissa in fixed point.
        let mut frac_num: u64 = 0;
        let mut x = n as u128;
        let mut scale = 1u128 << int_part;
        for _ in 0..frac_bits {
            // x/scale in [1,2); square it.
            x = x * x;
            scale = scale * scale;
            frac_num <<= 1;
            if x >= 2 * scale {
                frac_num |= 1;
                scale *= 2;
            }
            // Renormalize to keep the mantissa within 64 bits of precision.
            let excess = (128 - (x.leading_zeros() as i64) - 64).max(0) as u32;
            x >>= excess;
            scale >>= excess;
        }
        let num = BigInt::from(int_part).shl(frac_bits as u64);
        let num = &(&num + &BigInt::from(frac_num)) + &BigInt::one(); // round up
        Rational::from_frac(num, BigInt::pow2(frac_bits as u64))
    }
}

impl From<BigInt> for Rational {
    fn from(v: BigInt) -> Self {
        Rational::from_frac(v, BigInt::one())
    }
}

impl From<i64> for Rational {
    fn from(v: i64) -> Self {
        Rational::from_words(v, 1)
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b vs c/d with b,d > 0  <=>  a*d vs c*b; word products fit i128.
        if let (Small(a, b), Small(c, d)) = (&self.0, &other.0) {
            return if b == d {
                a.cmp(c)
            } else {
                (i128::from(*a) * i128::from(*d)).cmp(&(i128::from(*c) * i128::from(*b)))
            };
        }
        let ((a, b), (c, d)) = (self.parts(), other.parts());
        (&a * &d).cmp(&(&c * &b))
    }
}

impl Add for &Rational {
    type Output = Rational;
    fn add(self, other: &Rational) -> Rational {
        self.apply(other, Op::Add)
    }
}

impl Sub for &Rational {
    type Output = Rational;
    fn sub(self, other: &Rational) -> Rational {
        self.apply(other, Op::Sub)
    }
}

impl Mul for &Rational {
    type Output = Rational;
    fn mul(self, other: &Rational) -> Rational {
        self.apply(other, Op::Mul)
    }
}

impl Div for &Rational {
    type Output = Rational;
    fn div(self, other: &Rational) -> Rational {
        assert!(!other.is_zero(), "rational division by zero");
        self.apply(other, Op::Div)
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational(match self.0 {
            Small(n, d) => Small(-n, d),
            // ±2^63 are both outside `Small`, so a `Big` stays one.
            Big(b) => {
                let (n, d) = *b;
                Big(Box::new((-n, d)))
            }
        })
    }
}

impl Neg for &Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        self.clone().neg()
    }
}

impl AddAssign<&Rational> for Rational {
    fn add_assign(&mut self, other: &Rational) {
        *self = &*self + other;
    }
}

impl SubAssign<&Rational> for Rational {
    fn sub_assign(&mut self, other: &Rational) {
        *self = &*self - other;
    }
}

impl MulAssign<&Rational> for Rational {
    fn mul_assign(&mut self, other: &Rational) {
        *self = &*self * other;
    }
}

impl<'a> Sum<&'a Rational> for Rational {
    fn sum<I: Iterator<Item = &'a Rational>>(iter: I) -> Rational {
        let mut acc = Rational::zero();
        for r in iter {
            acc += r;
        }
        acc
    }
}

impl Sum<Rational> for Rational {
    fn sum<I: Iterator<Item = Rational>>(iter: I) -> Rational {
        let mut acc = Rational::zero();
        for r in iter {
            acc += &r;
        }
        acc
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Small(n, 1) => write!(f, "{n}"),
            Small(n, d) => write!(f, "{n}/{d}"),
            Big(b) if self.is_integer() => write!(f, "{}", b.0),
            Big(b) => write!(f, "{}/{}", b.0, b.1),
        }
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
impl Rational {
    /// The four invariants, checked on the representation itself.
    pub(crate) fn is_canonical(&self) -> bool {
        let (n, d) = self.parts();
        let fits = word(&n).is_some() && word(&d).is_some();
        d.is_positive() && n.gcd(&d) == BigInt::one() && fits == matches!(self.0, Small(..))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rat;

    #[test]
    fn normalization() {
        assert_eq!(rat(2, 4), rat(1, 2));
        assert_eq!(rat(-2, -4), rat(1, 2));
        assert_eq!(rat(2, -4), rat(-1, 2));
        assert_eq!(rat(0, 7), Rational::zero());
    }

    #[test]
    fn arithmetic() {
        assert_eq!(&rat(1, 2) + &rat(1, 3), rat(5, 6));
        assert_eq!(&rat(1, 2) - &rat(1, 3), rat(1, 6));
        assert_eq!(&rat(2, 3) * &rat(3, 4), rat(1, 2));
        assert_eq!(&rat(1, 2) / &rat(1, 4), rat(2, 1));
        assert_eq!(-rat(1, 2), rat(-1, 2));
    }

    #[test]
    fn comparisons() {
        assert!(rat(1, 2) < rat(2, 3));
        assert!(rat(-1, 2) < rat(1, 3));
        assert!(rat(-1, 2) > rat(-2, 3));
        assert_eq!(rat(3, 6).cmp(&rat(1, 2)), Ordering::Equal);
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(rat(7, 2).floor(), BigInt::from(3i64));
        assert_eq!(rat(7, 2).ceil(), BigInt::from(4i64));
        assert_eq!(rat(-7, 2).floor(), BigInt::from(-4i64));
        assert_eq!(rat(-7, 2).ceil(), BigInt::from(-3i64));
        assert_eq!(rat(6, 2).floor(), BigInt::from(3i64));
        assert_eq!(rat(6, 2).ceil(), BigInt::from(3i64));
    }

    #[test]
    fn exp2_floor_exact_cases() {
        // 2^(3/2) = 2.828..., floor 2.
        assert_eq!(rat(3, 2).exp2_floor(), BigInt::from(2i64));
        // 2^4 = 16.
        assert_eq!(rat(4, 1).exp2_floor(), BigInt::from(16i64));
        // 2^(10/3) = 10.07..., floor 10.
        assert_eq!(rat(10, 3).exp2_floor(), BigInt::from(10i64));
        // Negative exponent: value in (0,1).
        assert_eq!(rat(-3, 2).exp2_floor(), BigInt::zero());
        // Large: 2^(30/2) = 2^15.
        assert_eq!(rat(30, 2).exp2_floor(), BigInt::from(1i64 << 15));
    }

    #[test]
    fn log2_exact_and_approx() {
        assert_eq!(Rational::log2_exact(1024), Some(rat(10, 1)));
        assert_eq!(Rational::log2_exact(1000), None);
        let approx = Rational::log2_approx(1000, 20);
        let truth = (1000f64).log2();
        assert!(
            (approx.to_f64() - truth).abs() < 1e-4,
            "{approx} vs {truth}"
        );
        // Rounded up: approx >= truth.
        assert!(approx.to_f64() >= truth);
        assert_eq!(Rational::log2_approx(4096, 20), rat(12, 1));
    }

    #[test]
    fn sums() {
        let v = [rat(1, 2), rat(1, 3), rat(1, 6)];
        let s: Rational = v.iter().sum();
        assert_eq!(s, Rational::one());
    }

    #[test]
    fn to_f64_huge_operands() {
        let big = Rational::from_frac(BigInt::pow2(2000), BigInt::pow2(1999));
        assert!((big.to_f64() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn display() {
        assert_eq!(rat(3, 2).to_string(), "3/2");
        assert_eq!(rat(4, 2).to_string(), "2");
        assert_eq!(rat(-1, 3).to_string(), "-1/3");
    }
}
