//! Sign-magnitude arbitrary-precision integers over little-endian `u32` limbs.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Rem, Sub};
use std::str::FromStr;

/// An arbitrary-precision signed integer.
///
/// Invariants: `mag` has no trailing zero limbs; `sign == 0` iff `mag` is
/// empty; otherwise `sign` is `1` or `-1`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BigInt {
    sign: i8,
    mag: Vec<u32>,
}

const BASE_BITS: u32 = 32;

impl BigInt {
    /// The integer zero.
    pub fn zero() -> Self {
        BigInt {
            sign: 0,
            mag: Vec::new(),
        }
    }

    /// The integer one.
    pub fn one() -> Self {
        BigInt::from(1i64)
    }

    /// Returns `true` if this integer is zero.
    pub fn is_zero(&self) -> bool {
        self.sign == 0
    }

    /// Returns `true` if this integer is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.sign < 0
    }

    /// Returns `true` if this integer is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.sign > 0
    }

    /// The sign as `-1`, `0`, or `1`.
    pub(crate) fn signum(&self) -> i8 {
        self.sign
    }

    /// Absolute value.
    pub fn abs(&self) -> BigInt {
        BigInt {
            sign: self.sign.abs(),
            mag: self.mag.clone(),
        }
    }

    fn from_mag(sign: i8, mut mag: Vec<u32>) -> Self {
        while mag.last() == Some(&0) {
            mag.pop();
        }
        if mag.is_empty() {
            BigInt::zero()
        } else {
            BigInt { sign, mag }
        }
    }

    /// Number of significant bits (0 for zero).
    pub fn bits(&self) -> u64 {
        match self.mag.last() {
            None => 0,
            Some(&top) => {
                (self.mag.len() as u64 - 1) * BASE_BITS as u64 + (32 - top.leading_zeros()) as u64
            }
        }
    }

    /// `2^k`.
    pub(crate) fn pow2(k: u64) -> BigInt {
        let limbs = (k / BASE_BITS as u64) as usize;
        let mut mag = vec![0u32; limbs + 1];
        mag[limbs] = 1u32 << (k % BASE_BITS as u64);
        BigInt::from_mag(1, mag)
    }

    /// `self * 2^k`.
    pub fn shl(&self, k: u64) -> BigInt {
        if self.is_zero() {
            return BigInt::zero();
        }
        let limb_shift = (k / BASE_BITS as u64) as usize;
        let bit_shift = (k % BASE_BITS as u64) as u32;
        let mut mag = vec![0u32; limb_shift];
        if bit_shift == 0 {
            mag.extend_from_slice(&self.mag);
        } else {
            let mut carry = 0u32;
            for &limb in &self.mag {
                mag.push((limb << bit_shift) | carry);
                carry = limb >> (BASE_BITS - bit_shift);
            }
            if carry != 0 {
                mag.push(carry);
            }
        }
        BigInt::from_mag(self.sign, mag)
    }

    /// `self / 2^k`, truncating toward zero on the magnitude.
    pub fn shr(&self, k: u64) -> BigInt {
        let limb_shift = (k / BASE_BITS as u64) as usize;
        if limb_shift >= self.mag.len() {
            return BigInt::zero();
        }
        let bit_shift = (k % BASE_BITS as u64) as u32;
        let src = &self.mag[limb_shift..];
        let mag: Vec<u32> = if bit_shift == 0 {
            src.to_vec()
        } else {
            let mut out = Vec::with_capacity(src.len());
            for i in 0..src.len() {
                let lo = src[i] >> bit_shift;
                let hi = if i + 1 < src.len() {
                    src[i + 1] << (BASE_BITS - bit_shift)
                } else {
                    0
                };
                out.push(lo | hi);
            }
            out
        };
        BigInt::from_mag(self.sign, mag)
    }

    fn cmp_mag(a: &[u32], b: &[u32]) -> Ordering {
        if a.len() != b.len() {
            return a.len().cmp(&b.len());
        }
        for i in (0..a.len()).rev() {
            match a[i].cmp(&b[i]) {
                Ordering::Equal => {}
                other => return other,
            }
        }
        Ordering::Equal
    }

    fn add_mag(a: &[u32], b: &[u32]) -> Vec<u32> {
        let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for (i, &digit) in long.iter().enumerate() {
            let s = digit as u64 + *short.get(i).unwrap_or(&0) as u64 + carry;
            out.push(s as u32);
            carry = s >> BASE_BITS;
        }
        if carry != 0 {
            out.push(carry as u32);
        }
        out
    }

    /// `a - b` on magnitudes; requires `a >= b`.
    fn sub_mag(a: &[u32], b: &[u32]) -> Vec<u32> {
        debug_assert!(Self::cmp_mag(a, b) != Ordering::Less);
        let mut out = Vec::with_capacity(a.len());
        let mut borrow = 0i64;
        for (i, &digit) in a.iter().enumerate() {
            let d = digit as i64 - *b.get(i).unwrap_or(&0) as i64 - borrow;
            if d < 0 {
                out.push((d + (1i64 << BASE_BITS)) as u32);
                borrow = 1;
            } else {
                out.push(d as u32);
                borrow = 0;
            }
        }
        debug_assert_eq!(borrow, 0);
        out
    }

    fn mul_mag(a: &[u32], b: &[u32]) -> Vec<u32> {
        if a.is_empty() || b.is_empty() {
            return Vec::new();
        }
        let mut out = vec![0u32; a.len() + b.len()];
        for (i, &ai) in a.iter().enumerate() {
            if ai == 0 {
                continue;
            }
            let mut carry = 0u64;
            for (j, &bj) in b.iter().enumerate() {
                let t = ai as u64 * bj as u64 + out[i + j] as u64 + carry;
                out[i + j] = t as u32;
                carry = t >> BASE_BITS;
            }
            let mut k = i + b.len();
            while carry != 0 {
                let t = out[k] as u64 + carry;
                out[k] = t as u32;
                carry = t >> BASE_BITS;
                k += 1;
            }
        }
        out
    }

    /// Quotient and remainder truncating toward zero.
    ///
    /// The remainder carries the sign of `self` (or is zero), matching Rust's
    /// built-in integer semantics.
    pub fn div_rem(&self, other: &BigInt) -> (BigInt, BigInt) {
        assert!(!other.is_zero(), "division by zero BigInt");
        if Self::cmp_mag(&self.mag, &other.mag) == Ordering::Less {
            return (BigInt::zero(), self.clone());
        }
        let (q_mag, r_mag) = Self::divmod_mag(&self.mag, &other.mag);
        let q_sign = self.sign * other.sign;
        (
            BigInt::from_mag(q_sign, q_mag),
            BigInt::from_mag(self.sign, r_mag),
        )
    }

    /// Binary shift-and-subtract long division on magnitudes; `a >= b`, `b != 0`.
    fn divmod_mag(a: &[u32], b: &[u32]) -> (Vec<u32>, Vec<u32>) {
        // Fast path: single-limb divisor.
        if b.len() == 1 {
            let d = b[0] as u64;
            let mut q = vec![0u32; a.len()];
            let mut rem = 0u64;
            for i in (0..a.len()).rev() {
                let cur = (rem << BASE_BITS) | a[i] as u64;
                q[i] = (cur / d) as u32;
                rem = cur % d;
            }
            return (
                q,
                if rem == 0 {
                    Vec::new()
                } else {
                    vec![rem as u32]
                },
            );
        }
        let dividend = BigInt::from_mag(1, a.to_vec());
        let divisor = BigInt::from_mag(1, b.to_vec());
        let shift = dividend.bits() - divisor.bits();
        let mut rem = dividend;
        let mut quot = BigInt::zero();
        let mut d = divisor.shl(shift);
        let mut bit = shift as i64;
        while bit >= 0 {
            if Self::cmp_mag(&d.mag, &rem.mag) != Ordering::Greater {
                rem = BigInt::from_mag(1, Self::sub_mag(&rem.mag, &d.mag));
                quot = &quot + &BigInt::pow2(bit as u64);
            }
            d = d.shr(1);
            bit -= 1;
        }
        (quot.mag, rem.mag)
    }

    /// Greatest common divisor of the absolute values (non-negative result).
    pub fn gcd(&self, other: &BigInt) -> BigInt {
        let mut a = self.abs();
        let mut b = other.abs();
        while !b.is_zero() {
            let r = a.div_rem(&b).1.abs();
            a = b;
            b = r;
        }
        a
    }

    /// Integer `n`-th root: the largest `r` with `r^n <= self`.
    ///
    /// Panics if `self` is negative or `n == 0`.
    pub fn nth_root(&self, n: u32) -> BigInt {
        assert!(n > 0, "0th root undefined");
        assert!(!self.is_negative(), "nth_root of negative BigInt");
        if self.is_zero() || n == 1 {
            return self.clone();
        }
        // Initial guess: 2^(ceil(bits/n)); then Newton's iteration
        //   r' = ((n-1)*r + self / r^(n-1)) / n
        // converging from above; stop when r'^n <= self and (r'+1)^n > self.
        let bits = self.bits();
        let mut r = BigInt::pow2(bits.div_ceil(n as u64));
        let n_big = BigInt::from(n as i64);
        let n_minus_1 = BigInt::from(n as i64 - 1);
        loop {
            let r_pow = r.pow(n - 1);
            let next = (&(&n_minus_1 * &r) + &self.div_rem(&r_pow).0)
                .div_rem(&n_big)
                .0;
            if next.cmp(&r) != Ordering::Less {
                break;
            }
            r = next;
        }
        // Newton from above converges to floor, but guard against off-by-one.
        while r.pow(n).cmp(self) == Ordering::Greater {
            r = &r - &BigInt::one();
        }
        loop {
            let r1 = &r + &BigInt::one();
            if r1.pow(n).cmp(self) == Ordering::Greater {
                break;
            }
            r = r1;
        }
        r
    }

    /// Raise to a small non-negative power.
    pub fn pow(&self, mut e: u32) -> BigInt {
        let mut base = self.clone();
        let mut acc = BigInt::one();
        while e > 0 {
            if e & 1 == 1 {
                acc = &acc * &base;
            }
            e >>= 1;
            if e > 0 {
                base = &base * &base;
            }
        }
        acc
    }

    /// Lossy conversion to `f64` (for display and slope fitting only).
    pub fn to_f64(&self) -> f64 {
        let bits = self.bits();
        if bits == 0 {
            return 0.0;
        }
        // Take the top 64 bits and scale.
        let take = bits.min(64);
        let top = self.shr(bits - take);
        let mut v = 0u64;
        for (i, &limb) in top.mag.iter().enumerate() {
            v |= (limb as u64) << (32 * i as u64);
        }
        let val = v as f64 * 2f64.powi((bits - take) as i32);
        if self.sign < 0 {
            -val
        } else {
            val
        }
    }

    /// Checked conversion to `i128`; `None` on overflow.
    pub(crate) fn to_i128(&self) -> Option<i128> {
        if self.bits() > 127 {
            return None;
        }
        let mut v: i128 = 0;
        for (i, &limb) in self.mag.iter().enumerate() {
            v |= (limb as i128) << (32 * i);
        }
        Some(if self.sign < 0 { -v } else { v })
    }

    /// Checked conversion to `u64`; `None` if negative or too large.
    pub fn to_u64(&self) -> Option<u64> {
        if self.sign < 0 || self.bits() > 64 {
            return None;
        }
        let mut v: u64 = 0;
        for (i, &limb) in self.mag.iter().enumerate() {
            v |= (limb as u64) << (32 * i);
        }
        Some(v)
    }
}

impl From<i64> for BigInt {
    fn from(v: i64) -> Self {
        let sign = match v.cmp(&0) {
            Ordering::Less => -1,
            Ordering::Equal => 0,
            Ordering::Greater => 1,
        };
        let m = v.unsigned_abs();
        BigInt::from_mag(sign, vec![m as u32, (m >> 32) as u32])
    }
}

impl From<u64> for BigInt {
    fn from(v: u64) -> Self {
        BigInt::from_mag(if v == 0 { 0 } else { 1 }, vec![v as u32, (v >> 32) as u32])
    }
}

impl From<i128> for BigInt {
    fn from(v: i128) -> Self {
        let sign = match v.cmp(&0) {
            Ordering::Less => -1,
            Ordering::Equal => 0,
            Ordering::Greater => 1,
        };
        let m = v.unsigned_abs();
        BigInt::from_mag(
            sign,
            vec![
                m as u32,
                (m >> 32) as u32,
                (m >> 64) as u32,
                (m >> 96) as u32,
            ],
        )
    }
}

impl PartialOrd for BigInt {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigInt {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.sign.cmp(&other.sign) {
            Ordering::Equal => {}
            other => return other,
        }
        let mag_cmp = Self::cmp_mag(&self.mag, &other.mag);
        if self.sign < 0 {
            mag_cmp.reverse()
        } else {
            mag_cmp
        }
    }
}

impl Add for &BigInt {
    type Output = BigInt;
    fn add(self, other: &BigInt) -> BigInt {
        if self.is_zero() {
            return other.clone();
        }
        if other.is_zero() {
            return self.clone();
        }
        if self.sign == other.sign {
            BigInt::from_mag(self.sign, BigInt::add_mag(&self.mag, &other.mag))
        } else {
            match BigInt::cmp_mag(&self.mag, &other.mag) {
                Ordering::Equal => BigInt::zero(),
                Ordering::Greater => {
                    BigInt::from_mag(self.sign, BigInt::sub_mag(&self.mag, &other.mag))
                }
                Ordering::Less => {
                    BigInt::from_mag(other.sign, BigInt::sub_mag(&other.mag, &self.mag))
                }
            }
        }
    }
}

impl Sub for &BigInt {
    type Output = BigInt;
    fn sub(self, other: &BigInt) -> BigInt {
        self + &(-other.clone())
    }
}

impl Mul for &BigInt {
    type Output = BigInt;
    fn mul(self, other: &BigInt) -> BigInt {
        BigInt::from_mag(
            self.sign * other.sign,
            BigInt::mul_mag(&self.mag, &other.mag),
        )
    }
}

impl Div for &BigInt {
    type Output = BigInt;
    fn div(self, other: &BigInt) -> BigInt {
        self.div_rem(other).0
    }
}

impl Rem for &BigInt {
    type Output = BigInt;
    fn rem(self, other: &BigInt) -> BigInt {
        self.div_rem(other).1
    }
}

impl Neg for BigInt {
    type Output = BigInt;
    fn neg(mut self) -> BigInt {
        self.sign = -self.sign;
        self
    }
}

impl AddAssign<&BigInt> for BigInt {
    fn add_assign(&mut self, other: &BigInt) {
        *self = &*self + other;
    }
}

impl fmt::Display for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        if self.sign < 0 {
            write!(f, "-")?;
        }
        // Repeated division by 10^9, collecting 9-digit chunks.
        let chunk = BigInt::from(1_000_000_000i64);
        let mut rem = self.abs();
        let mut parts: Vec<u32> = Vec::new();
        while !rem.is_zero() {
            let (q, r) = rem.div_rem(&chunk);
            parts.push(r.to_u64().unwrap_or(0) as u32);
            rem = q;
        }
        write!(f, "{}", parts.last().unwrap())?;
        for p in parts.iter().rev().skip(1) {
            write!(f, "{p:09}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl FromStr for BigInt {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (neg, digits) = match s.strip_prefix('-') {
            Some(d) => (true, d),
            None => (false, s),
        };
        if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return Err(format!("invalid integer literal: {s:?}"));
        }
        let ten = BigInt::from(10i64);
        let mut acc = BigInt::zero();
        for b in digits.bytes() {
            acc = &(&acc * &ten) + &BigInt::from((b - b'0') as i64);
        }
        Ok(if neg { -acc } else { acc })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bi(v: i128) -> BigInt {
        BigInt::from(v)
    }

    #[test]
    fn zero_identities() {
        assert!(BigInt::zero().is_zero());
        assert_eq!(&bi(5) + &BigInt::zero(), bi(5));
        assert_eq!(&BigInt::zero() + &bi(-7), bi(-7));
        assert_eq!(&bi(42) * &BigInt::zero(), BigInt::zero());
    }

    #[test]
    fn add_sub_small() {
        assert_eq!(&bi(3) + &bi(4), bi(7));
        assert_eq!(&bi(3) - &bi(4), bi(-1));
        assert_eq!(&bi(-3) + &bi(-4), bi(-7));
        assert_eq!(&bi(-3) - &bi(-4), bi(1));
    }

    #[test]
    fn mul_crosses_limb_boundary() {
        let a = bi(0xFFFF_FFFF);
        assert_eq!(&a * &a, bi(0xFFFF_FFFFu64 as i128 * 0xFFFF_FFFFu64 as i128));
    }

    #[test]
    fn div_rem_matches_i128() {
        for (a, b) in [(100, 7), (-100, 7), (100, -7), (-100, -7), (6, 3), (0, 5)] {
            let (q, r) = bi(a).div_rem(&bi(b));
            assert_eq!(q, bi(a / b), "quot {a}/{b}");
            assert_eq!(r, bi(a % b), "rem {a}%{b}");
        }
    }

    #[test]
    fn div_large() {
        let a = BigInt::pow2(200);
        let b = BigInt::pow2(64);
        let (q, r) = a.div_rem(&b);
        assert_eq!(q, BigInt::pow2(136));
        assert!(r.is_zero());
    }

    #[test]
    fn gcd_basic() {
        assert_eq!(bi(12).gcd(&bi(18)), bi(6));
        assert_eq!(bi(-12).gcd(&bi(18)), bi(6));
        assert_eq!(bi(0).gcd(&bi(5)), bi(5));
        assert_eq!(bi(17).gcd(&bi(13)), bi(1));
    }

    #[test]
    fn shifts() {
        assert_eq!(bi(1).shl(100), BigInt::pow2(100));
        assert_eq!(BigInt::pow2(100).shr(37), BigInt::pow2(63));
        assert_eq!(bi(5).shl(3), bi(40));
        assert_eq!(bi(40).shr(3), bi(5));
        assert_eq!(bi(7).shr(10), BigInt::zero());
    }

    #[test]
    fn bits_counts() {
        assert_eq!(BigInt::zero().bits(), 0);
        assert_eq!(bi(1).bits(), 1);
        assert_eq!(bi(255).bits(), 8);
        assert_eq!(bi(256).bits(), 9);
        assert_eq!(BigInt::pow2(95).bits(), 96);
    }

    #[test]
    fn nth_root_exact_and_floor() {
        assert_eq!(bi(27).nth_root(3), bi(3));
        assert_eq!(bi(28).nth_root(3), bi(3));
        assert_eq!(bi(26).nth_root(3), bi(2));
        assert_eq!(bi(1 << 40).nth_root(2), bi(1 << 20));
        assert_eq!(BigInt::pow2(120).nth_root(3), BigInt::pow2(40));
        assert_eq!(bi(1).nth_root(7), bi(1));
        assert_eq!(bi(0).nth_root(4), bi(0));
    }

    #[test]
    fn pow_small() {
        assert_eq!(bi(3).pow(0), bi(1));
        assert_eq!(bi(3).pow(5), bi(243));
        assert_eq!(bi(-2).pow(3), bi(-8));
        assert_eq!(bi(-2).pow(4), bi(16));
    }

    #[test]
    fn display_roundtrip() {
        for s in [
            "0",
            "1",
            "-1",
            "123456789012345678901234567890",
            "-98765432109876543210",
        ] {
            let v: BigInt = s.parse().unwrap();
            assert_eq!(v.to_string(), s);
        }
    }

    #[test]
    fn to_f64_reasonable() {
        assert_eq!(bi(0).to_f64(), 0.0);
        assert_eq!(bi(12345).to_f64(), 12345.0);
        assert_eq!(bi(-7).to_f64(), -7.0);
        let big = BigInt::pow2(100);
        let rel = (big.to_f64() - 2f64.powi(100)).abs() / 2f64.powi(100);
        assert!(rel < 1e-12);
    }

    #[test]
    fn ordering() {
        assert!(bi(-5) < bi(3));
        assert!(bi(3) < bi(5));
        assert!(bi(-3) > bi(-5));
        assert!(BigInt::pow2(64) > bi(i64::MAX as i128));
    }

    #[test]
    fn conversions() {
        assert_eq!(bi(42).to_u64(), Some(42));
        assert_eq!(bi(-42).to_u64(), None);
        assert_eq!(bi(42).to_i128(), Some(42));
        assert_eq!(BigInt::pow2(130).to_i128(), None);
    }
}
