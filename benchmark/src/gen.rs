//! Seeded input generation and the order-independent output checksum.
//! Everything a workload feeds the engine is a function of `--seed`.

use fdjoin::storage::{Database, Relation, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An independent generator for one named purpose under one seed, so adding
/// a draw to one workload never shifts the inputs of another.
pub fn rng_for(seed: u64, purpose: &str) -> StdRng {
    let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a over the tag
    for b in purpose.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    StdRng::seed_from_u64(mix(seed ^ h))
}

/// SplitMix64 finalizer: a cheap 64-bit bijection with good avalanche.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn row_hash(row: &[Value]) -> u64 {
    row.iter().fold(0x243F_6A88_85A3_08D3, |h, &v| mix(h ^ v))
}

/// Order-independent checksum of a relation: the wrapping sum of its row
/// hashes. Two algorithms returning the same row set agree on it whatever
/// order they emit rows in; it is also incrementally maintainable.
pub fn checksum(rel: &Relation) -> u64 {
    rel.rows()
        .fold(0u64, |acc, row| acc.wrapping_add(row_hash(row)))
}

pub fn shuffle<T, R: Rng>(items: &mut [T], rng: &mut R) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

/// Drop exactly `len / 16` seeded rows of every relation (UDFs are kept),
/// never one that `pinned` claims. An exact count, not a coin per row: the
/// size profile — and with it every plan and LP the engine derives from
/// sizes — is the same for every seed, while the content is not. A subset of
/// FD-satisfying rows satisfies the FDs.
pub fn subsample<R: Rng>(
    db: &Database,
    rng: &mut R,
    pinned: impl Fn(&[Value]) -> bool,
) -> Database {
    let mut out = db.clone();
    let names: Vec<String> = db.iter().map(|(n, _)| n.to_string()).collect();
    for name in names {
        let rel = db.relation(&name).expect("listed by iter");
        let mut droppable: Vec<usize> = (0..rel.len()).filter(|&i| !pinned(rel.row(i))).collect();
        shuffle(&mut droppable, rng);
        droppable.truncate(rel.len() / 16);
        let dropped: std::collections::HashSet<usize> = droppable.into_iter().collect();
        out.insert(
            name,
            rel.select_rows((0..rel.len()).filter(|i| !dropped.contains(i))),
        );
    }
    out
}

/// For instances with no row the sample must keep.
pub fn unpinned(_: &[Value]) -> bool {
    false
}

/// `edges` distinct seeded pairs over `vertices` ids, stored as `vars`.
pub fn random_edges<R: Rng>(vars: Vec<u32>, vertices: u64, edges: usize, rng: &mut R) -> Relation {
    let mut seen = std::collections::HashSet::with_capacity(edges);
    let mut rel = Relation::new(vars);
    while seen.len() < edges {
        let e = [rng.gen_range(0..vertices), rng.gen_range(0..vertices)];
        if seen.insert(e) {
            rel.push_row(&e);
        }
    }
    rel
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdjoin::instances::fig1_adversarial;

    fn rows_of(db: &Database) -> Vec<Vec<Vec<Value>>> {
        db.iter()
            .map(|(_, r)| r.rows().map(<[Value]>::to_vec).collect())
            .collect()
    }

    #[test]
    fn same_seed_same_relations_different_seed_different_relations() {
        let base = fig1_adversarial(256);
        let hub = |row: &[Value]| row == [1, 1];
        let a = subsample(&base, &mut rng_for(1, "db"), hub);
        let b = subsample(&base, &mut rng_for(1, "db"), hub);
        let c = subsample(&base, &mut rng_for(2, "db"), unpinned);
        assert_eq!(rows_of(&a), rows_of(&b));
        assert_ne!(rows_of(&a), rows_of(&c));
        // Exact-count sampling: every seed yields the same size profile.
        for name in ["R", "S", "T"] {
            let full = base.relation(name).unwrap().len();
            assert_eq!(a.relation(name).unwrap().len(), full - full / 16);
            assert_eq!(c.relation(name).unwrap().len(), full - full / 16);
            assert!(a.relation(name).unwrap().contains_row(&[1, 1]));
        }
        assert_eq!(a.udfs.len(), base.udfs.len());
    }

    #[test]
    fn purposes_are_independent_streams() {
        let x: u64 = rng_for(1, "a").gen();
        let y: u64 = rng_for(1, "b").gen();
        let z: u64 = rng_for(1, "a").gen();
        assert_ne!(x, y);
        assert_eq!(x, z);
    }

    #[test]
    fn checksum_ignores_row_order_but_not_content() {
        let a = Relation::from_rows(vec![0, 1], [[1, 2], [3, 4], [5, 6]]);
        let b = Relation::from_rows(vec![0, 1], [[5, 6], [1, 2], [3, 4]]);
        let c = Relation::from_rows(vec![0, 1], [[5, 6], [1, 2], [4, 3]]);
        assert_eq!(checksum(&a), checksum(&b));
        assert_ne!(checksum(&a), checksum(&c));
        assert_ne!(row_hash(&[1, 2]), row_hash(&[2, 1]));
    }

    #[test]
    fn random_edges_are_distinct_and_seeded() {
        let mut r = random_edges(vec![0, 1], 64, 500, &mut rng_for(3, "g"));
        r.sort_dedup();
        assert_eq!(r.len(), 500);
        let mut again = random_edges(vec![0, 1], 64, 500, &mut rng_for(3, "g"));
        again.sort_dedup();
        assert_eq!(r, again);
    }
}
