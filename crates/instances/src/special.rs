//! Hand-constructed instances from the paper: the M3 parity instance, the
//! Fig. 1 adversarial instance, and the Example 5.5 tight instance.

use fdjoin_lattice::VarSet;
use fdjoin_storage::{Database, Relation, Value};

/// The M3 parity instance (Sec. 3.2):
/// `D = {(i,j,k) ∈ [N]³ : i+j+k ≡ 0 (mod N)}`, giving `R = S = T = [N]`
/// with all three cyclic FDs (`xy→z` etc.) backed by modular-arithmetic
/// UDFs. Output size is exactly `N²` — the witness that M3's GLVV bound
/// `N²` is tight while its co-atomic cover bound `N^{3/2}` is not valid.
pub fn m3_parity(n: u64) -> Database {
    let mut db = Database::new();
    let dom: Vec<[Value; 1]> = (0..n).map(|i| [i]).collect();
    db.insert("R", Relation::from_rows(vec![0], dom.clone()));
    db.insert("S", Relation::from_rows(vec![1], dom.clone()));
    db.insert("T", Relation::from_rows(vec![2], dom));
    let third = move |a: Value, b: Value| -> Value { (2 * n - a - b) % n };
    db.udfs
        .register(VarSet::from_vars([0, 1]), 2, move |v| third(v[0], v[1]));
    db.udfs
        .register(VarSet::from_vars([0, 2]), 1, move |v| third(v[0], v[1]));
    db.udfs
        .register(VarSet::from_vars([1, 2]), 0, move |v| third(v[0], v[1]));
    db
}

/// The Sec. 1.1 / Example 5.8 adversarial instance for the Fig. 1 UDF query:
/// `R = S = T = {(1, i)} ∪ {(i, 1)}` for `i ∈ [N/2]`, with UDFs
/// `u = f(x,z) = x` and `x = g(y,u) = u`.
///
/// Binary plans and FD-oblivious WCOJ both do `Ω(N²)` work here (the
/// intermediate `R ⋈ S ⋈ T` restricted to `y = z = 1` has `N²/4` tuples),
/// while the chain algorithm stays within `O(N^{3/2})`.
pub fn fig1_adversarial(n: u64) -> Database {
    let half = (n / 2).max(1);
    let star: Vec<[Value; 2]> = (1..=half)
        .map(|i| [1, i])
        .chain((1..=half).map(|i| [i, 1]))
        .collect();
    let mut db = Database::new();
    db.insert("R", Relation::from_rows(vec![0, 1], star.clone()));
    db.insert("S", Relation::from_rows(vec![1, 2], star.clone()));
    db.insert("T", Relation::from_rows(vec![2, 3], star));
    db.udfs.register(VarSet::from_vars([0, 2]), 3, |v| v[0]); // u = f(x,z) = x
    db.udfs.register(VarSet::from_vars([1, 3]), 0, |v| v[1]); // x = g(y,u) = u
    db
}

/// Example 5.5's tight instance for the Fig. 1 query:
/// `R = S = T = [√N] × [√N]`, same UDFs. The output has `N^{3/2}` tuples,
/// matching the chain bound of the good chain `0̂ ≺ y ≺ yz ≺ 1̂`.
pub fn fig1_tight(sqrt_n: u64) -> Database {
    let grid: Vec<[Value; 2]> = (1..=sqrt_n)
        .flat_map(|a| (1..=sqrt_n).map(move |b| [a, b]))
        .collect();
    let mut db = Database::new();
    db.insert("R", Relation::from_rows(vec![0, 1], grid.clone()));
    db.insert("S", Relation::from_rows(vec![1, 2], grid.clone()));
    db.insert("T", Relation::from_rows(vec![2, 3], grid));
    db.udfs.register(VarSet::from_vars([0, 2]), 3, |v| v[0]);
    db.udfs.register(VarSet::from_vars([1, 3]), 0, |v| v[1]);
    db
}

/// The degree-bounded triangle instance for Eq. (2): a graph `R(x,y)` where
/// every `x` has out-degree exactly `min(d1, …)` arranged so the triangle
/// count is `Θ(N·d1)` when `d1` is the binding constraint. `S` and `T` are
/// complete bipartite-ish paddings of size `N`.
///
/// Construction: `x ∈ [N/d1]`, each `x` connects to `y ∈ {x·d1 … x·d1+d1-1}`
/// (mod the y-universe), plus `S(y,z) = {(y, y)}`-style closure and
/// `T(z,x)` complete over the used values, truncated to `N` tuples each.
pub fn bounded_degree_triangle(n: u64, d1: u64) -> Database {
    let d1 = d1.clamp(1, n);
    let nx = (n / d1).max(1);
    let mut r: Vec<[Value; 2]> = Vec::new();
    for x in 0..nx {
        for k in 0..d1 {
            r.push([x, x * d1 + k]);
        }
    }
    // S: y → z = y (so z inherits y's universe, size ≤ N).
    let s: Vec<[Value; 2]> = r.iter().map(|&[_, y]| [y, y]).collect();
    // T: connect every z back to every x, truncated at n tuples.
    let mut t: Vec<[Value; 2]> = Vec::new();
    'outer: for &[x, y] in &r {
        let z = y;
        for xx in 0..nx {
            t.push([z, xx]);
            if t.len() as u64 >= n {
                break 'outer;
            }
        }
        let _ = x;
    }
    let mut db = Database::new();
    db.insert("R", Relation::from_rows(vec![0, 1], r));
    db.insert("S", Relation::from_rows(vec![1, 2], s));
    db.insert("T", Relation::from_rows(vec![2, 0], t));
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference_join;
    use fdjoin_query::examples;

    #[test]
    fn parity_output_is_n_squared() {
        let q = examples::m3_query();
        for n in [2u64, 3, 5, 8] {
            let db = m3_parity(n);
            let out = reference_join(&q, &db);
            assert_eq!(out.len() as u64, n * n, "N = {n}");
            // Every output tuple sums to 0 mod N.
            for row in out.rows() {
                assert_eq!((row[0] + row[1] + row[2]) % n, 0);
            }
        }
    }

    #[test]
    fn fig1_tight_output_is_n_to_three_halves() {
        let q = examples::fig1_udf();
        for s in [2u64, 3, 4] {
            let db = fig1_tight(s);
            let n = s * s;
            let out = reference_join(&q, &db);
            // Example 5.5: output = N^{3/2} = s³.
            assert_eq!(out.len() as u64, s * s * s, "√N = {s}");
            let _ = n;
        }
    }

    #[test]
    fn fig1_adversarial_output_is_linear() {
        // The adversarial instance has only Θ(N) output tuples — the Ω(N²)
        // cost of weak algorithms is all wasted intermediate work.
        let q = examples::fig1_udf();
        let db = fig1_adversarial(16);
        let out = reference_join(&q, &db);
        assert!(out.len() >= 8, "output ~ N/2, got {}", out.len());
        assert!(out.len() <= 40);
    }

    #[test]
    fn bounded_degree_r_has_degree_d1() {
        let db = bounded_degree_triangle(64, 4);
        let r = db.relation("R").unwrap();
        assert_eq!(r.max_degree(1), 4);
        assert!(r.len() <= 64);
    }
}
