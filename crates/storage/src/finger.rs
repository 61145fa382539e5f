//! The trie finger: the one keyed lookup, resumed from the last key.

use crate::{ProbeSnapshot, TrieIndex, Value};

/// A keyed lookup into one [`TrieIndex`] that remembers where its last key
/// led, so the next key's search starts there instead of at the root.
///
/// A finger looks up the projections of rows onto fixed key columns, so
/// callers hand it whole tuples and no key is ever materialized. It keeps
/// the last key and, per depth, the position below the key's first `d`
/// values and where the search for the next value landed in it. The next
/// key
///
/// - gets the last answer back if it agrees with the last key through the
///   depth where that search stopped: the same hit, or the same miss;
/// - otherwise resumes at the first depth where the keys differ, galloping
///   forward from the last lower bound when the key grew there (a sorted
///   key sequence mostly does) and searching that depth's whole range when
///   it shrank. Deeper depths are searched afresh under the new path.
///
/// A finger is a cache: its answers do not depend on which keys it saw
/// before, so any key order is correct and sorted orders are cheapest.
#[derive(Clone, Debug)]
pub struct Finger {
    /// `levels[d]` for `d ≤ k`: the position below the last key's first
    /// `d` values, valid for `d ≤ reached` (`levels[0].at` is the root);
    /// and for `d < k` the key column, the last key's value there (searched
    /// for only up to depth `reached`) and where that search landed.
    levels: Vec<Level>,
    /// How many key values were found: `k` on a hit, the depth of the miss
    /// otherwise.
    reached: usize,
    /// Whether the levels hold a searched key yet.
    primed: bool,
}

/// What one [`Finger::seek`] found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Found {
    /// The trie does not hold the key.
    Miss,
    /// The trie holds the key; the finger moved to it.
    Hit,
    /// The trie holds the key, which is the key of the last hit: the finger
    /// did not move.
    Again,
}

/// One depth of a [`Finger`], kept together so a search touches one place
/// per depth and a finger is one allocation.
#[derive(Clone, Copy, Debug, Default)]
struct Level {
    at: ProbeSnapshot,
    col: u32,
    key: Value,
    lb: usize,
}

impl Finger {
    /// A finger for the keys `row[cols[0]], row[cols[1]], …` looked up in
    /// `ix` (only ever with `ix`).
    pub fn new(ix: &TrieIndex, cols: impl IntoIterator<Item = u32>) -> Finger {
        let mut levels: Vec<Level> = cols
            .into_iter()
            .map(|col| Level {
                col,
                ..Level::default()
            })
            .chain([Level::default()])
            .collect();
        levels[0].at = ix.probe().snapshot();
        Finger {
            levels,
            reached: 0,
            primed: false,
        }
    }

    /// The key length.
    #[inline]
    fn k(&self) -> usize {
        self.levels.len() - 1
    }

    /// Place the finger at `row`'s key and say what it found; on a hit the
    /// rows below the key are [`Finger::at`].
    #[inline]
    pub fn seek(&mut self, ix: &TrieIndex, row: &[Value]) -> Found {
        let k = self.k();
        let mut d = 0;
        if self.primed {
            // A key sharing the last one's values through the depth its
            // search stopped at has the same answer: the same hit, or the
            // same shallow miss.
            let searched = k.min(self.reached + 1);
            d = self.levels[..searched]
                .iter()
                .take_while(|l| row[l.col as usize] == l.key)
                .count();
            if d == searched {
                return if self.reached == k {
                    Found::Again
                } else {
                    Found::Miss
                };
            }
        }
        // Only the first differing depth has a previous search in the same
        // frame to resume from; deeper frames are new.
        let mut resume = self.primed;
        self.primed = true;
        while d < k {
            let level = &mut self.levels[d];
            let v = row[level.col as usize];
            let mut pos = level.at;
            if resume && v > level.key {
                // Every node before the last key's lower bound is smaller
                // than that key, so smaller than `v`.
                pos.lo = level.lb;
            }
            resume = false;
            level.key = v;
            let found = pos.seek(ix, v) == Some(v);
            level.lb = pos.lo;
            if !found {
                self.reached = d;
                return Found::Miss;
            }
            self.levels[d + 1].at = pos.enter(ix);
            d += 1;
        }
        self.reached = k;
        Found::Hit
    }

    /// Whether the last [`Finger::seek`] found its key.
    #[inline]
    pub fn is_hit(&self) -> bool {
        self.primed && self.reached == self.k()
    }

    /// The position below the last key: the rows it matched, after a hit.
    #[inline]
    pub fn at(&self) -> ProbeSnapshot {
        self.levels[self.k()].at
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Relation;

    /// A small deterministic generator (xorshift64*).
    struct Gen(u64);

    impl Gen {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) % n.max(1)
        }
    }

    /// What a root descent answers for `key`: the position below it, or
    /// `None` on a miss.
    fn from_root(ix: &TrieIndex, key: &[Value]) -> Option<ProbeSnapshot> {
        let mut p = ix.probe();
        p.descend_all(key).then(|| p.snapshot())
    }

    #[test]
    fn every_answer_is_the_root_descents() {
        let mut g = Gen(0x9e37_79b9_7f4a_7c15);
        for case in 0..300 {
            let arity = 1 + g.below(3) as usize;
            let domain = 2 + g.below(6);
            let vars: Vec<u32> = (0..arity as u32).collect();
            let rows: Vec<Vec<Value>> = (0..g.below(50))
                .map(|_| vars.iter().map(|_| g.below(domain)).collect())
                .collect();
            let ix = TrieIndex::build(&Relation::from_rows(vars.clone(), rows), &vars);
            let k = g.below(arity as u64 + 1) as usize;
            let mut keys: Vec<Vec<Value>> = (0..40)
                .map(|_| (0..k).map(|_| g.below(domain + 1)).collect())
                .collect();
            // Half the cases ask in sorted order, with repeats.
            if case % 2 == 0 {
                keys.sort();
            }
            // The finger reads each key out of a wider tuple, at distinct
            // columns in any order; the other columns hold noise.
            let mut cols: Vec<u32> = (0..k as u32 + 2).collect();
            for i in (1..cols.len()).rev() {
                cols.swap(i, g.below(i as u64 + 1) as usize);
            }
            cols.truncate(k);
            let mut finger = Finger::new(&ix, cols.iter().copied());
            for key in &keys {
                let mut tuple: Vec<Value> = (0..k + 2).map(|_| g.below(domain)).collect();
                for (&c, &v) in cols.iter().zip(key) {
                    tuple[c as usize] = v;
                }
                let before = finger.is_hit().then(|| finger.at());
                let found = finger.seek(&ix, &tuple);
                let want = from_root(&ix, key);
                assert_eq!(
                    found != Found::Miss,
                    want.is_some(),
                    "case {case}, key {key:?}"
                );
                assert_eq!(finger.is_hit(), want.is_some(), "case {case}");
                if found == Found::Again {
                    assert_eq!(before, want, "case {case}: `Again` is the last hit");
                }
                if let Some(p) = want {
                    assert_eq!(finger.at(), p, "case {case}, key {key:?}");
                }
            }
        }
    }
}
