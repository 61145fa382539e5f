//! The paper's running example queries, ready to use in tests, examples,
//! and benchmarks. Each constructor documents the section/figure it is from.

use crate::query::query_from_lattice;
use crate::Query;
use fdjoin_lattice::build;

/// The triangle query `Q(x,y,z) :- R(x,y), S(y,z), T(z,x)` with no FDs
/// (Sec. 1, Eq. 4). AGM bound `min(√(N_R N_S N_T), N_R N_S, N_R N_T, N_S N_T)`.
pub fn triangle() -> Query {
    let mut b = Query::builder();
    let (x, y, z) = (b.var("x"), b.var("y"), b.var("z"));
    b.atom("R", &[x, y]).atom("S", &[y, z]).atom("T", &[z, x]);
    b.build()
}

/// The UDF query of Eq. (1) / Figure 1:
/// `Q :- R(x,y), S(y,z), T(z,u), u = f(x,z), x = g(y,u)`,
/// i.e. FDs `xz → u` and `yu → x` (both unguarded).
/// GLVV bound `N^{3/2}`; FD-oblivious processing needs `Ω(N²)`.
pub fn fig1_udf() -> Query {
    let mut b = Query::builder();
    let (x, y, z, u) = (b.var("x"), b.var("y"), b.var("z"), b.var("u"));
    b.atom("R", &[x, y]).atom("S", &[y, z]).atom("T", &[z, u]);
    b.fd(&[x, z], &[u]).fd(&[y, u], &[x]);
    b.build()
}

/// The degree-bounded triangle of Eq. (2):
/// `Q :- R(x,c1,c2,y), S(y,z), T(z,x), C1(c1), C2(c2)` with
/// `x c1 → y`, `y c2 → x`, `x y → c1 c2`.
/// Worst-case output `min(N^{3/2}, N·d1, N·d2)`.
pub fn degree_triangle() -> Query {
    let mut b = Query::builder();
    let (x, y, z) = (b.var("x"), b.var("y"), b.var("z"));
    let (c1, c2) = (b.var("c1"), b.var("c2"));
    b.atom("R", &[x, c1, c2, y])
        .atom("S", &[y, z])
        .atom("T", &[z, x])
        .atom("C1", &[c1])
        .atom("C2", &[c2]);
    b.fd(&[x, c1], &[y])
        .fd(&[y, c2], &[x])
        .fd(&[x, y], &[c1, c2]);
    b.build()
}

/// The simple-key 4-cycle (Sec. 2 "Closure"):
/// `Q :- R(x,y), S(y,z), T(z,u), K(u,x)` with `y → z`.
/// `AGM(Q⁺) = min(|R||T|, |S||K|, |R||K|)` and the bound is tight.
pub fn four_cycle_key() -> Query {
    let mut b = Query::builder();
    let (x, y, z, u) = (b.var("x"), b.var("y"), b.var("z"), b.var("u"));
    b.atom("R", &[x, y])
        .atom("S", &[y, z])
        .atom("T", &[z, u])
        .atom("K", &[u, x]);
    b.fd(&[y], &[z]);
    b.build()
}

/// The composite-key query (Sec. 2 "Closure"):
/// `Q(x,y,z) :- R(x), S(y), T(x,y,z)` with `xy → z` (guarded in `T`).
/// Here `Q⁺ = Q` and `AGM(Q⁺) = |T| = M`, yet `|Q| ≤ N²` — the closure
/// technique fails for non-simple keys; GLVV captures it.
pub fn composite_key() -> Query {
    let mut b = Query::builder();
    let (x, y, z) = (b.var("x"), b.var("y"), b.var("z"));
    b.atom("R", &[x]).atom("S", &[y]).atom("T", &[x, y, z]);
    b.fd(&[x, y], &[z]);
    b.build()
}

/// The UDF-product query of Figure 5 / Example 5.10:
/// `Q :- R(x), S(y), z = f(x,y)` — FD `xy → z`, unguarded.
/// Bound `N²`; good chains must come from Corollary 5.9.
pub fn fig5_udf_product() -> Query {
    let mut b = Query::builder();
    let (x, y) = (b.var("x"), b.var("y"));
    let z = b.var("z");
    b.atom("R", &[x]).atom("S", &[y]);
    b.fd(&[x, y], &[z]);
    b.build()
}

/// The M3 query (Sec. 3.1/3.2):
/// `Q :- R(x), S(y), T(z)` with `xy → z`, `xz → y`, `yz → x` (all unguarded).
/// Lattice is `M3`; non-normal; GLVV/chain bound `N²` is met by the parity
/// instance.
pub fn m3_query() -> Query {
    let mut b = Query::builder();
    let (x, y, z) = (b.var("x"), b.var("y"), b.var("z"));
    b.atom("R", &[x]).atom("S", &[y]).atom("T", &[z]);
    b.fd(&[x, y], &[z]).fd(&[x, z], &[y]).fd(&[y, z], &[x]);
    b.build()
}

/// The Figure 4 query (Examples 5.18–5.20): inputs `abc, ade, bdf, cef`
/// whose closed-set lattice is exactly the Fig. 4 lattice. Chain bound
/// `N^{3/2}` on every chain; SM/LLP bound `N^{4/3}` (tight).
pub fn fig4_query() -> Query {
    let l = build::fig4();
    let coatoms = l.coatoms();
    let (q, _) = query_from_lattice(&l, &coatoms);
    q
}

/// The Figure 9 query (Example 5.31): inputs `M, N, O`; satisfies
/// `h(M)+h(N)+h(O) ≥ 2h(1̂)` but has **no** SM-proof; CSMA required.
pub fn fig9_query() -> Query {
    let l = build::fig9();
    let e = |s: &str| l.elems().find(|&x| l.name(x) == s).unwrap();
    let (q, _) = query_from_lattice(&l, &[e("M"), e("N"), e("O")]);
    q
}

/// The Figure 7 query (Example 5.29): inputs `X, Y, Z, U`; has an SM-proof
/// that is not good and another that is good.
pub fn fig7_query() -> Query {
    let l = build::fig7();
    let e = |s: &str| l.elems().find(|&x| l.name(x) == s).unwrap();
    let (q, _) = query_from_lattice(&l, &[e("X"), e("Y"), e("Z"), e("U")]);
    q
}

/// The Figure 8 query (Example 5.30): inputs `X, Y, Z, W`; its natural
/// SM-proof loses a label.
pub fn fig8_query() -> Query {
    let l = build::fig8();
    let e = |s: &str| l.elems().find(|&x| l.name(x) == s).unwrap();
    let (q, _) = query_from_lattice(&l, &[e("X"), e("Y"), e("Z"), e("W")]);
    q
}

/// A simple-FD chain query: `R(x,y), S(y,z), T(z,u)` with `y → z`
/// (simple key in S). Distributive lattice; chain algorithm optimal
/// (Corollary 5.17).
pub fn simple_fd_path() -> Query {
    let mut b = Query::builder();
    let (x, y, z, u) = (b.var("x"), b.var("y"), b.var("z"), b.var("u"));
    b.atom("R", &[x, y]).atom("S", &[y, z]).atom("T", &[z, u]);
    b.fd(&[y], &[z]);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_examples_build() {
        for q in [
            triangle(),
            fig1_udf(),
            degree_triangle(),
            four_cycle_key(),
            composite_key(),
            fig5_udf_product(),
            m3_query(),
            fig4_query(),
            fig9_query(),
            fig7_query(),
            fig8_query(),
            simple_fd_path(),
        ] {
            let pres = q.lattice_presentation();
            assert!(pres.lattice.verify_lattice_axioms(), "{}", q.display_body());
            // Inputs join to the top (∨R = 1̂).
            let top = pres.lattice.join_all(pres.inputs.iter().copied());
            assert_eq!(top, pres.lattice.top(), "{}", q.display_body());
        }
    }

    #[test]
    fn triangle_is_boolean_algebra() {
        let pres = triangle().lattice_presentation();
        assert_eq!(pres.lattice.len(), 8);
        assert!(pres.lattice.is_distributive());
    }

    #[test]
    fn m3_query_lattice_is_m3() {
        let pres = m3_query().lattice_presentation();
        assert_eq!(pres.lattice.len(), 5);
        assert!(pres.lattice.find_m3_with_top().is_some());
    }

    #[test]
    fn fig4_lattice_has_12_elements() {
        let pres = fig4_query().lattice_presentation();
        assert_eq!(pres.lattice.len(), 12);
        assert_eq!(pres.lattice.coatoms().len(), 4);
    }

    #[test]
    fn simple_fd_lattice_is_distributive() {
        // Proposition 3.2.
        let pres = simple_fd_path().lattice_presentation();
        assert!(pres.lattice.is_distributive());
    }

    #[test]
    fn degree_triangle_closures() {
        let q = degree_triangle();
        let x = q.var_id("x").unwrap();
        let y = q.var_id("y").unwrap();
        let c1 = q.var_id("c1").unwrap();
        let c2 = q.var_id("c2").unwrap();
        let xy = fdjoin_lattice::VarSet::from_vars([x, y]);
        let cl = q.closure(xy);
        assert!(cl.contains(c1) && cl.contains(c2));
    }
}
