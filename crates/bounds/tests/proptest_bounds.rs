//! Property tests for the bounds machinery: LLP optima are certified by
//! their duals on random closure-system lattices; normality of functions is
//! preserved by the operations the theory says preserve it.

use fdjoin_bigint::{rat, Rational};
use fdjoin_bounds::llp::solve_llp;
use fdjoin_bounds::LatticeFn;
use fdjoin_lattice::{Lattice, VarSet};
use proptest::prelude::*;

/// Random closure system over `k` variables (same generator as the lattice
/// crate's tests).
fn closure_system(k: u32) -> impl Strategy<Value = Vec<VarSet>> {
    proptest::collection::vec(0u64..(1u64 << k), 1..6).prop_map(move |seeds| {
        let mut family: Vec<VarSet> = seeds.into_iter().map(VarSet).collect();
        family.push(VarSet::full(k));
        loop {
            let snapshot = family.clone();
            let mut added = false;
            for (i, a) in snapshot.iter().enumerate() {
                for b in snapshot.iter().skip(i + 1) {
                    let c = a.intersect(*b);
                    if !family.contains(&c) {
                        family.push(c);
                        added = true;
                    }
                }
            }
            if !added {
                break;
            }
        }
        family.sort();
        family.dedup();
        family
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn llp_duals_certify_optimum(family in closure_system(4), sizes in proptest::collection::vec(1i64..8, 3)) {
        let lat = Lattice::from_closed_sets(family).unwrap();
        if lat.len() < 2 {
            return Ok(());
        }
        // Inputs: up to three co-atoms (joined with 1̂ if they don't cover).
        let mut inputs = lat.coatoms();
        inputs.truncate(sizes.len());
        if inputs.is_empty() || lat.join_all(inputs.iter().copied()) != lat.top() {
            inputs.push(lat.top());
        }
        let logs: Vec<Rational> =
            (0..inputs.len()).map(|i| rat(*sizes.get(i).unwrap_or(&3), 1)).collect();
        let sol = solve_llp(&lat, &inputs, &logs);

        // Primal feasible: h submodular, non-negative, within cardinalities.
        prop_assert!(sol.h.is_nonnegative());
        prop_assert!(sol.h.submodularity_violation(&lat).is_none());
        for (&r, n) in inputs.iter().zip(&logs) {
            prop_assert!(sol.h.get(r) <= n);
        }
        // Dual certifies: Σ w_j n_j = h*(1̂) (strong duality) and the
        // inequality holds at h* with equality.
        let dual_val: Rational = sol.input_duals.iter().zip(&logs).map(|(w, n)| w * n).sum();
        prop_assert_eq!(&dual_val, &sol.value);
        let slack = sol.h.output_inequality_slack(&lat, &inputs, &sol.input_duals);
        prop_assert_eq!(slack, Rational::zero());
        // The monotonization is a true polymatroid with the same top value.
        let monotone = sol.h.lovasz_monotonize(&lat);
        prop_assert!(monotone.is_polymatroid(&lat));
        prop_assert_eq!(monotone.get(lat.top()), sol.h.get(lat.top()));
    }

    #[test]
    fn normal_cone_closed_under_combination(family in closure_system(4), a in 1i64..5, b in 1i64..5) {
        // Non-negative combinations of step functions are normal (Sec. 4).
        let lat = Lattice::from_closed_sets(family).unwrap();
        if lat.len() < 3 {
            return Ok(());
        }
        let z1 = lat.elems().find(|&z| z != lat.top()).unwrap();
        let z2 = lat.elems().filter(|&z| z != lat.top()).last().unwrap();
        let s1 = LatticeFn::step(&lat, z1);
        let s2 = LatticeFn::step(&lat, z2);
        let mut h = LatticeFn::zero(&lat);
        for e in lat.elems() {
            let v = &(&rat(a, 1) * s1.get(e)) + &(&rat(b, 1) * s2.get(e));
            h.set(e, v);
        }
        prop_assert!(h.is_normal(&lat), "combination of steps must be normal");
        prop_assert!(h.is_polymatroid(&lat));
        // Decomposition round-trips.
        let decomp = h.normal_decomposition(&lat).unwrap();
        let mut h2 = LatticeFn::zero(&lat);
        for (z, coef) in &decomp {
            let step = LatticeFn::step(&lat, *z);
            for e in lat.elems() {
                let add = coef * step.get(e);
                let v = h2.get(e) + &add;
                h2.set(e, v);
            }
        }
        prop_assert_eq!(h, h2);
    }

    #[test]
    fn lovasz_dominated_and_top_preserving(family in closure_system(4)) {
        // For any non-negative submodular h (use an LLP optimum as the
        // source of interesting h's), monotonization preserves h(1̂).
        let lat = Lattice::from_closed_sets(family).unwrap();
        if lat.len() < 2 {
            return Ok(());
        }
        let inputs = vec![lat.top()];
        let sol = solve_llp(&lat, &inputs, &[rat(4, 1)]);
        let mono = sol.h.lovasz_monotonize(&lat);
        for e in lat.elems() {
            prop_assert!(mono.get(e) <= sol.h.get(e));
        }
        prop_assert_eq!(mono.get(lat.top()), sol.h.get(lat.top()));
    }
}
