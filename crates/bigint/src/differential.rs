//! Differential tests of [`Rational`]'s two forms against the arithmetic it
//! replaced: `from_frac` over [`BigInt`] on every operation, kept here as the
//! reference. Plain `#[test]`s, so both the debug (overflow-checked) and the
//! release (wrapping) test jobs run them.

use crate::{rat, BigInt, Rational};
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// The pre-spill `Rational`: two `BigInt`s, reduced by a limb-vector gcd.
#[derive(Clone, PartialEq, Eq, Debug)]
struct Ref {
    num: BigInt,
    den: BigInt,
}

impl Ref {
    fn from_frac(num: BigInt, den: BigInt) -> Ref {
        assert!(!den.is_zero(), "rational with zero denominator");
        let (num, den) = if den.is_negative() {
            (-num, -den)
        } else {
            (num, den)
        };
        let g = num.gcd(&den);
        Ref {
            num: &num / &g,
            den: &den / &g,
        }
    }

    fn add(&self, o: &Ref) -> Ref {
        Ref::from_frac(
            &(&self.num * &o.den) + &(&o.num * &self.den),
            &self.den * &o.den,
        )
    }

    fn sub(&self, o: &Ref) -> Ref {
        Ref::from_frac(
            &(&self.num * &o.den) - &(&o.num * &self.den),
            &self.den * &o.den,
        )
    }

    fn mul(&self, o: &Ref) -> Ref {
        Ref::from_frac(&self.num * &o.num, &self.den * &o.den)
    }

    fn div(&self, o: &Ref) -> Ref {
        Ref::from_frac(&self.num * &o.den, &self.den * &o.num)
    }

    fn recip(&self) -> Ref {
        Ref::from_frac(self.den.clone(), self.num.clone())
    }

    fn neg(&self) -> Ref {
        Ref {
            num: -self.num.clone(),
            den: self.den.clone(),
        }
    }

    fn cmp(&self, o: &Ref) -> Ordering {
        (&self.num * &o.den).cmp(&(&o.num * &self.den))
    }
}

/// A value held both ways.
#[derive(Clone)]
struct Both {
    new: Rational,
    old: Ref,
}

fn hash(r: &Rational) -> u64 {
    let mut h = DefaultHasher::new();
    r.hash(&mut h);
    h.finish()
}

/// `new` is canonical, equals `old`, and is `==` / hash-equal to the same
/// value rebuilt from `old`'s parts — a different route to it.
fn agree(new: Rational, old: Ref, what: &str) -> Both {
    assert!(new.is_canonical(), "{what}: {new} is not canonical");
    assert_eq!(new.parts(), (old.num.clone(), old.den.clone()), "{what}");
    let rebuilt = Rational::from_frac(old.num.clone(), old.den.clone());
    assert_eq!(new, rebuilt, "{what}: == across routes");
    assert_eq!(hash(&new), hash(&rebuilt), "{what}: hash across routes");
    Both { new, old }
}

fn both(p: i128, q: i128) -> Both {
    let (p, q) = (BigInt::from(p), BigInt::from(q));
    agree(
        Rational::from_frac(p.clone(), q.clone()),
        Ref::from_frac(p, q),
        "from_frac",
    )
}

/// `+ − × ÷ cmp recip neg` of the pair against the reference; the results,
/// for use as further operands.
fn check_pair(x: &Both, y: &Both) -> Vec<Both> {
    let what = |op: &str| format!("{} {op} {}", x.new, y.new);
    let mut out = vec![
        agree(&x.new + &y.new, x.old.add(&y.old), &what("+")),
        agree(&x.new - &y.new, x.old.sub(&y.old), &what("-")),
        agree(&x.new * &y.new, x.old.mul(&y.old), &what("*")),
        agree(-&x.new, x.old.neg(), &what("neg")),
    ];
    if !y.new.is_zero() {
        out.push(agree(&x.new / &y.new, x.old.div(&y.old), &what("/")));
        out.push(agree(y.new.recip(), y.old.recip(), &what("recip")));
    }
    let ord = x.old.cmp(&y.old);
    assert_eq!(x.new.cmp(&y.new), ord, "{}", what("cmp"));
    assert_eq!(x.new == y.new, ord == Ordering::Equal, "{}", what("=="));
    if ord == Ordering::Equal {
        assert_eq!(hash(&x.new), hash(&y.new), "{}", what("hash"));
    }
    out
}

/// SplitMix64: the tests need reproducible words, not a `rand` dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn word(&mut self) -> i64 {
        self.next() as i64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Words within ±4 of the places where the word-sized case ends or changes
/// instruction: `i64::MAX`, `i64::MIN`, `±2³¹`, `±2³²`, `±2⁶²`.
fn edge_words() -> Vec<i128> {
    let bases = [
        i128::from(i64::MAX),
        i128::from(i64::MIN),
        1 << 31,
        -(1 << 31),
        1 << 32,
        -(1 << 32),
        1 << 62,
        -(1 << 62),
    ];
    let mut out = Vec::new();
    for base in bases {
        for off in -4..=4 {
            out.push(base + off);
        }
    }
    out
}

#[test]
fn random_word_pairs() {
    let mut rng = Rng(1);
    let operand = |rng: &mut Rng| loop {
        let (p, q) = (rng.word(), rng.word());
        if q != 0 {
            return both(p.into(), q.into());
        }
    };
    for _ in 0..1000 {
        let (x, y) = (operand(&mut rng), operand(&mut rng));
        check_pair(&x, &y);
    }
}

#[test]
fn small_operands_sharing_factors() {
    // Denominators up to 360 share factors often: both gcds of the
    // word-sized sum and the cross-cancelling product do real work.
    let mut rng = Rng(5);
    let operand = |rng: &mut Rng| both((rng.word() >> 44).into(), (rng.below(360) + 1) as i128);
    for _ in 0..2000 {
        let (x, y) = (operand(&mut rng), operand(&mut rng));
        check_pair(&x, &y);
    }
}

#[test]
fn operands_at_the_word_boundaries() {
    let words = edge_words();
    let mut pool = Vec::new();
    for (i, &w) in words.iter().enumerate() {
        let partner = words[(i * 7 + 3) % words.len()];
        pool.push(both(w, 1));
        pool.push(both(1, w));
        pool.push(both(w, partner));
    }
    let mut rng = Rng(2);
    for x in &pool {
        check_pair(x, x);
        for _ in 0..12 {
            check_pair(x, &pool[rng.below(pool.len())]);
        }
    }
}

#[test]
fn dyadic_operands_stay_word_sized() {
    // The planner's shape: k / 2^16 log-sizes and their small combinations.
    let mut rng = Rng(3);
    let operand = |rng: &mut Rng| both((rng.word() >> 40).into(), 1 << 16);
    for _ in 0..2000 {
        let (x, y) = (operand(&mut rng), operand(&mut rng));
        for r in check_pair(&x, &y) {
            assert!(
                r.new.numer_i64().is_some() && r.new.denom_u64().is_some(),
                "{} left 64 bits",
                r.new
            );
        }
    }
}

#[test]
fn big_operands() {
    // Values past 64 bits, reached by arithmetic and built directly.
    let words = edge_words();
    let mut pool: Vec<Both> = Vec::new();
    for (i, &w) in words.iter().enumerate().step_by(3) {
        let x = both(w, 3);
        let y = both(words[(i * 5 + 1) % words.len()], 7);
        pool.extend(check_pair(&x, &y));
        pool.push(both((1 << 70) + w, (1 << 66) - 1));
    }
    pool.retain(|b| b.new.numer_i64().is_none() || b.new.denom_u64().is_none());
    assert!(pool.len() > 40, "the pool holds {} big values", pool.len());
    let small = [both(1, 1), both(-3, 1 << 16), both(i64::MAX.into(), 2)];
    let mut rng = Rng(4);
    for x in &pool {
        // Big ∘ Big that demotes: x − x, x / x.
        check_pair(x, x);
        check_pair(x, &pool[rng.below(pool.len())]);
        let s = &small[rng.below(small.len())];
        check_pair(x, s);
        check_pair(s, x);
    }
}

#[test]
fn word_boundary_unit_cases() {
    let two63 = Rational::from(BigInt::pow2(63));
    // 1 / i64::MIN = −1 / 2^63: the denominator does not fit a word.
    let r = rat(1, i64::MIN);
    assert!(r.is_canonical());
    assert_eq!(r, -two63.recip());
    assert_eq!(r.denom_u64(), Some(1 << 63));
    // −i64::MIN = 2^63.
    let r = -Rational::from(i64::MIN);
    assert!(r.is_canonical());
    assert_eq!(r, two63);
    assert_eq!(Rational::from(i64::MIN).numer_i64(), Some(i64::MIN));
    assert_eq!(r.numer_i64(), None);
    // i64::MAX + 1 spills; − 1 demotes back to the word-sized literal.
    let max = rat(i64::MAX, 1);
    let up = &max + &rat(1, 1);
    assert!(up.is_canonical());
    assert_eq!(up, two63);
    let down = &up - &rat(1, 1);
    assert!(down.is_canonical());
    assert_eq!(down, max);
    assert_eq!(hash(&down), hash(&max));
    assert_eq!(down.numer_i64(), Some(i64::MAX));
}

#[test]
fn a_rational_is_three_words() {
    assert!(std::mem::size_of::<Rational>() <= 24);
}
