//! The Submodularity Algorithm (Algorithm 2, Sec. 5.2).
//!
//! Planning ([`plan`]): solve the LLP for the actual input sizes, take the
//! dual output inequality `Σ w*_j h(R_j) ≥ h(1̂)`, and find a *good*
//! SM-proof sequence for it (Definition 5.26), falling back to a fractional
//! edge cover of the co-atomic hypergraph (Corollary 5.22).
//!
//! Execution ([`execute`]): run each elementary compression as an
//! *SM-join*: the light part of `T(Y)` (prefix degree `≤ 2^{h*(Y)−h*(Z)}`)
//! joins with `T(X)` into `T(X ∨ Y)` — one [`extend`](crate::extend)
//! step with the light part as its only, guarded side; the heavy prefixes
//! become `T(X ∧ Y)`. The split is CSMA's degree bucketing with a
//! two-valued class ([`degree_split`]). Lemma 5.24 keeps every temporary
//! within `2^{h*(·)}`.

use crate::engine::JoinError;
use crate::extend::{degree_split, extend, Side};
use crate::par::TopTables;
use crate::{AccessPaths, Expander, Stats};
use fdjoin_bigint::Rational;
use fdjoin_bounds::llp::LlpSolution;
use fdjoin_bounds::smproof::{coatomic_cover_proof, scale_weights, search_good_sm_proof, SmProof};
use fdjoin_bounds::LatticeFn;
use fdjoin_query::{LatticePresentation, Query};
use fdjoin_storage::{Database, Relation, TrieIndex};
use std::borrow::Cow;
use std::sync::Arc;

/// The data-independent part of an SMA run: everything derived from the
/// lattice presentation and the input *sizes* alone, reusable across
/// executions (and cached by `PreparedQuery`).
#[derive(Clone, Debug)]
pub(crate) struct SmaPlan {
    /// `(atom index, multiplicity)` — the proof's starting multiset in atom
    /// terms, determining how many temporary-table copies to seed.
    pub multiset: Vec<(usize, u64)>,
    /// The good proof sequence to execute.
    pub proof: SmProof,
    /// The LLP optimum `h*`, read for the heavy/light degree thresholds.
    pub h: LatticeFn,
    /// `log₂` of the LLP bound the run is budgeted against.
    pub log_bound: Rational,
}

/// Build an [`SmaPlan`] from a pre-solved LLP for the given input sizes, or
/// [`JoinError::NoGoodProof`] if no good SM-proof sequence exists
/// (Example 5.31's situation — use CSMA instead).
pub(crate) fn plan(
    pres: &LatticePresentation,
    llp: &LlpSolution,
    log_sizes: &[Rational],
) -> Result<SmaPlan, JoinError> {
    let lat = &pres.lattice;
    let (qmul, d) = scale_weights(&llp.input_duals);

    // Multiset of input closures with dual multiplicities, atoms mapping
    // to the same lattice element merged.
    let mut acc: std::collections::BTreeMap<usize, u64> = Default::default();
    for (j, &m) in qmul.iter().enumerate() {
        if m > 0 {
            *acc.entry(pres.inputs[j]).or_default() += m;
        }
    }
    let elem_multiset: Vec<(usize, u64)> = acc.into_iter().collect();
    // Primary: the LLP dual's inequality. Fallback (Corollary 5.22): a
    // fractional edge cover of the co-atomic hypergraph, whose bound is
    // looser in general but whose multiset may admit a good sequence.
    let (proof, qmul) = match search_good_sm_proof(lat, &elem_multiset, d) {
        Some(p) => (p, qmul),
        None => coatomic_cover_proof(lat, &pres.inputs, log_sizes).ok_or(JoinError::NoGoodProof)?,
    };
    // (atom index, q_j): how many temporary-table copies of each atom to seed.
    let multiset: Vec<(usize, u64)> = qmul
        .iter()
        .enumerate()
        .filter(|(_, &m)| m > 0)
        .map(|(j, &m)| (j, m))
        .collect();
    Ok(SmaPlan {
        multiset,
        proof,
        h: llp.h.clone(),
        log_bound: llp.value.clone(),
    })
}

/// Execute a pre-computed [`SmaPlan`] against a database.
pub(crate) fn execute(
    q: &Query,
    db: &Database,
    pres: &LatticePresentation,
    sma: &SmaPlan,
    paths: &AccessPaths<'_>,
    par: &crate::par::ParCtx,
) -> Result<(Relation, Stats), JoinError> {
    let lat = &pres.lattice;
    let mut stats = Stats::default();
    let ex = Expander::new(q, db, paths, &mut stats)?;

    // Temporary-table pool: one entry per multiset copy. Entries seeded
    // from an atom borrow its R_j⁺ from the expander and remember the atom
    // (`atom: Some(j)`), so their trie indexes come from the access-path
    // cache; step temporaries (`atom: None`) are owned and build one-shot
    // tries. `verified`: the rows came out of a fused program targeting
    // `elem` — a step's `t_join`; inputs and `t_meet` conservatively not.
    struct Entry<'e> {
        elem: usize,
        rel: Cow<'e, Relation>,
        atom: Option<usize>,
        consumed: bool,
        verified: bool,
    }
    let mut pool: Vec<Entry<'_>> = Vec::new();
    for &(j, m) in &sma.multiset {
        let expanded = ex.input(j, &mut stats)?;
        for _ in 0..m {
            pool.push(Entry {
                elem: pres.inputs[j],
                rel: Cow::Borrowed(expanded),
                atom: Some(j),
                consumed: false,
                verified: false,
            });
        }
    }
    let trie_of = |e: &Entry<'_>, order: &[u32], stats: &mut Stats| match e.atom {
        Some(j) => ex.input_trie(j, order, stats),
        None => Ok(Arc::new(TrieIndex::build(&e.rel, order))),
    };

    let h: &LatticeFn = &sma.h;
    let nv = q.n_vars();

    for step in &sma.proof.steps {
        let xi = pool
            .iter()
            .position(|e| !e.consumed && e.elem == step.x)
            .expect("good proof step operands available");
        pool[xi].consumed = true;
        let yi = pool
            .iter()
            .position(|e| !e.consumed && e.elem == step.y)
            .expect("good proof step operands available");
        pool[yi].consumed = true;

        let z = lat.meet(step.x, step.y);
        let join = lat.join(step.x, step.y);
        let z_vars: Vec<u32> = lat.set_of(z).unwrap().iter().collect();
        let join_set = lat.set_of(join).unwrap();

        // T(Y) as a trie with the Z variables first (cached when T(Y) is
        // still an expanded input; one-shot for step temporaries).
        let ty = {
            let mut order = z_vars.clone();
            order.extend(
                pool[yi]
                    .rel
                    .vars()
                    .iter()
                    .copied()
                    .filter(|v| !z_vars.contains(v)),
            );
            trie_of(&pool[yi], &order, &mut stats)?
        };
        let theta = h.get(step.y) - h.get(z);
        let threshold = degree_threshold(&theta);

        // Split T(Y)'s Z-prefixes into light (`false`) and heavy (`true`).
        let zlen = z_vars.len();
        let mut split = degree_split(&ty, zlen, |len| len as u64 > threshold, &mut stats);
        let light = ty.relation_of_ranges(split.remove(&false).unwrap_or_default());
        let heavy = split.remove(&true).unwrap_or_default();
        stats.branches += 1;

        // T(X ∧ Y) = Π_Z(T(X)) ∩ Π_Z(T(Y)) ∩ Heavy(Z): probe the heavy
        // prefixes against T(X)'s Z-trie, no key materialization.
        let tx_z = trie_of(&pool[xi], &z_vars, &mut stats)?;
        let mut t_meet = Relation::new(z_vars.clone());
        for g in heavy {
            let mut rows = ty.walk(g);
            let prefix = &rows.next().expect("a trie group holds a row")[..zlen];
            stats.probes += 1;
            if tx_z.contains(prefix) {
                stats.intermediate_tuples += 1;
                t_meet.push_row(prefix);
            }
        }
        debug_assert!(t_meet.is_sorted(), "heavy prefixes ascend and are distinct");

        // T(X ∨ Y) = (T(X) ⋈ (T(Y) ⋉ Lite))⁺. `light` is stored Z-first
        // and sorted, so its one-shot trie (like every step temporary's)
        // is a linear pass and Z is the probe prefix.
        let tx: &Relation = &pool[xi].rel;
        let out_vars: Vec<u32> = join_set.iter().collect();
        let light_trie = TrieIndex::build(&light, light.vars());
        // Every candidate binds vars(T(X)) ∪ vars(T(Y)): one program
        // expands it to Λ(X ∨ Y) and verifies the FDs within.
        let side = Side::guarded(&ex, tx, &light_trie, zlen, join_set)?;
        let t_join = extend(par, tx, &[side], false, &out_vars, nv, &mut stats);

        pool.push(Entry {
            elem: z,
            rel: Cow::Owned(t_meet),
            atom: None,
            consumed: false,
            verified: false,
        });
        pool.push(Entry {
            elem: join,
            rel: Cow::Owned(t_join),
            atom: None,
            consumed: false,
            verified: true,
        });
    }

    // Union the T(1̂) tables, semijoin-reduce with every input, verify FDs
    // (unless every table is a step's `t_join`, verified by its program).
    let mut top = TopTables::new(nv);
    for e in pool.iter().filter(|e| e.elem == lat.top()) {
        top.add(&e.rel, e.verified);
    }
    let reduced = crate::par::semijoin_reduce_verified(&ex, top, par, &mut stats)?;
    Ok((reduced, stats))
}

/// Convert a rational log-threshold to a concrete degree threshold
/// `⌊2^θ⌋`, exactly for small denominators and via `f64` otherwise (the
/// bucketing slack is within the algorithm's constant-factor budget).
fn degree_threshold(theta: &Rational) -> u64 {
    if theta.is_negative() {
        return 0;
    }
    if theta.denom_u64().is_some_and(|d| d <= 64) {
        return theta.exp2_floor().to_u64().unwrap_or(u64::MAX);
    }
    let f = theta.to_f64();
    if f >= 63.0 {
        u64::MAX
    } else {
        f.exp2().floor() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::sma_join;
    use fdjoin_instances::reference_join;
    use fdjoin_lattice::VarSet;

    #[test]
    fn triangle_matches_naive() {
        let q = fdjoin_query::examples::triangle();
        let mut db = Database::new();
        db.insert(
            "R",
            Relation::from_rows(vec![0, 1], [[1, 2], [1, 3], [2, 3], [5, 6]]),
        );
        db.insert(
            "S",
            Relation::from_rows(vec![1, 2], [[2, 3], [3, 1], [6, 5]]),
        );
        db.insert(
            "T",
            Relation::from_rows(vec![2, 0], [[3, 1], [1, 1], [5, 5]]),
        );
        let expect = reference_join(&q, &db);
        let got = sma_join(&q, &db).unwrap();
        assert_eq!(
            got.output,
            expect,
            "proof: {:?}",
            got.sm_proof().map(|p| p.steps.clone())
        );
    }

    #[test]
    fn fig1_udf_matches_naive() {
        let q = fdjoin_query::examples::fig1_udf();
        let mut db = Database::new();
        db.insert(
            "R",
            Relation::from_rows(vec![0, 1], [[1, 1], [2, 1], [1, 2], [2, 2]]),
        );
        db.insert(
            "S",
            Relation::from_rows(vec![1, 2], [[1, 1], [2, 1], [1, 2]]),
        );
        db.insert(
            "T",
            Relation::from_rows(vec![2, 3], [[1, 1], [1, 2], [2, 1], [2, 2]]),
        );
        db.udfs.register(VarSet::from_vars([0, 2]), 3, |v| v[0]); // u = x
        db.udfs.register(VarSet::from_vars([1, 3]), 0, |v| v[1]); // x = u
        let expect = reference_join(&q, &db);
        let got = sma_join(&q, &db).unwrap();
        assert_eq!(got.output, expect);
    }

    #[test]
    fn degree_threshold_rounding() {
        use fdjoin_bigint::rat;
        assert_eq!(degree_threshold(&rat(3, 2)), 2); // 2^1.5 = 2.83
        assert_eq!(degree_threshold(&rat(10, 1)), 1024);
        assert_eq!(degree_threshold(&rat(-1, 2)), 0);
        assert_eq!(degree_threshold(&rat(200, 1)), u64::MAX);
    }
}
