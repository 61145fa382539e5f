//! The Chain Algorithm (Algorithm 1, Sec. 5.1).
//!
//! Climbs a good chain `0̂ ≺ C₁ ≺ … ≺ C_k = 1̂`, maintaining
//! `Q_i = (⋈_j Π_{R_j ∧ C_i}(R_j))⁺`. The crucial step (Theorem 5.7's
//! accounting) is per-tuple: for each `t ∈ Q_{i-1}` it picks the relation
//! `j* = argmin_j |t ⋈ Π_{R_j ∧ C_i}(R_j)|` — the choice *depends on `t`* —
//! iterates that smallest extension set, expands each candidate to the
//! closure `C_i` via FDs, and verifies it against every other covering
//! relation. That step is the general case of the shared
//! [`extend`](crate::extend) kernel: this driver hands it one side per
//! covering relation and the argmin switch.
//!
//! Planning (chain search) lives in the [`crate::engine`]; this module is
//! the chain driver, entered with a pre-computed [`ChainBound`].

use crate::engine::JoinError;
use crate::extend::{extend, Side};
use crate::{AccessPaths, Expander, Stats};
use fdjoin_bounds::chain::ChainBound;
use fdjoin_lattice::VarSet;
use fdjoin_query::{LatticePresentation, Query};
use fdjoin_storage::{Database, Relation, TrieIndex};
use std::sync::Arc;

/// Run the chain algorithm over a pre-validated chain bound. `use_argmin`
/// toggles the per-tuple relation choice (off = the A1 ablation).
pub(crate) fn execute(
    q: &Query,
    db: &Database,
    pres: &LatticePresentation,
    bound: &ChainBound,
    use_argmin: bool,
    paths: &AccessPaths<'_>,
    par: &crate::par::ParCtx,
) -> Result<(Relation, Stats), JoinError> {
    let lat = &pres.lattice;
    let chain = &bound.chain;
    let k = chain.steps();
    let mut stats = Stats::default();
    let ex = Expander::new(q, db, paths, &mut stats)?;

    // Level at which each variable enters the chain.
    let level_sets: Vec<VarSet> = chain
        .elems
        .iter()
        .map(|&c| lat.set_of(c).expect("closed-set lattice"))
        .collect();
    let level_of = |v: u32| -> usize {
        (0..=k)
            .find(|&i| level_sets[i].contains(v))
            .expect("1̂ contains every variable")
    };
    let col_order = |s: VarSet| -> Vec<u32> {
        let mut vars: Vec<u32> = s.iter().collect();
        vars.sort_by_key(|&v| (level_of(v), v));
        vars
    };

    // Acquire the trie index of Π_{R_j ∧ C_i}(R_j⁺) for every covering
    // (i, j) from the expander (step 1, "expand inputs to their closures",
    // happens behind it), in chain-level column order so Q_{i-1}'s shared
    // part is a prefix.
    // proj[i] = (index, prefix_len onto R_j ∧ C_{i-1}) per covering j.
    let mut proj: Vec<Vec<(Arc<TrieIndex>, usize)>> = vec![vec![]; k + 1];
    for (i, slot) in proj.iter_mut().enumerate().skip(1) {
        for j in 0..q.atoms().len() {
            let rj = pres.inputs[j];
            let mij = lat.meet(rj, chain.elems[i]);
            let mij_prev = lat.meet(rj, chain.elems[i - 1]);
            if mij == mij_prev {
                continue;
            }
            let vars = col_order(lat.set_of(mij).unwrap());
            let prefix_len = lat.set_of(mij_prev).unwrap().len() as usize;
            slot.push((ex.input_trie(j, &vars, &mut stats)?, prefix_len));
        }
    }

    let nv = q.n_vars();
    // Q₀ = ⋈_j Π_{R_j ∧ 0̂}(R_j): `{()}` semijoined with every input, so
    // empty if one is. A nullary atom covers no later step, so this is
    // where it takes part.
    let mut q_prev = Relation::nullary_unit();
    for a in q.atoms() {
        q_prev = q_prev.semijoin(db.relation(&a.name)?);
    }
    for i in 1..=k {
        let out_vars = col_order(level_sets[i]);
        // One side per covering atom, keyed on the shared prefix in Q_{i-1}
        // and compiled for the candidate's bound set C_{i-1} ∪ vars(Π_{R_j
        // ∧ C_i}) — j varies with the per-tuple argmin. Each expands to the
        // closure C_i (goodness, Eq. 11, guarantees C_{i-1} ∨ (R_j ∧ C_i)
        // = C_i) and verifies FDs within.
        debug_assert_eq!(
            q_prev.var_set(),
            level_sets[i - 1],
            "Q_{{i-1}} binds C_{{i-1}}"
        );
        let sides = proj[i]
            .iter()
            .map(|(p, plen)| Side::guarded(&ex, &q_prev, p, *plen, level_sets[i]))
            .collect::<Result<Vec<_>, JoinError>>()?;
        debug_assert!(
            !sides.is_empty(),
            "finite chain bound implies every step covered"
        );
        q_prev = extend(par, &q_prev, &sides, use_argmin, &out_vars, nv, &mut stats);
    }

    // Final answer: the last Q_i with its columns in ascending variable id,
    // reordered in its own buffer. The two orders differ by the variables
    // of later levels with small ids: for Fig. 1, `[y, z, x, u]` to `[x, y,
    // z, u]` sorts on `x` only.
    let all: Vec<u32> = (0..nv as u32).collect();
    let output = q_prev.reordered(&all);
    stats.output_tuples += output.len() as u64;
    Ok((output, stats))
}

#[cfg(test)]
mod tests {
    use crate::engine::chain_join;
    use fdjoin_instances::reference_join;
    use fdjoin_lattice::VarSet;
    use fdjoin_storage::{Database, Relation};

    #[test]
    fn triangle_matches_naive() {
        let q = fdjoin_query::examples::triangle();
        let mut db = Database::new();
        db.insert(
            "R",
            Relation::from_rows(vec![0, 1], [[1, 2], [1, 3], [2, 3], [7, 8]]),
        );
        db.insert(
            "S",
            Relation::from_rows(vec![1, 2], [[2, 3], [3, 1], [8, 9]]),
        );
        db.insert(
            "T",
            Relation::from_rows(vec![2, 0], [[3, 1], [1, 1], [9, 7]]),
        );
        let expect = reference_join(&q, &db);
        let got = chain_join(&q, &db).unwrap();
        assert!(got.output.is_sorted());
        assert_eq!(got.output, expect);
    }

    #[test]
    fn fig1_udf_matches_naive() {
        let q = fdjoin_query::examples::fig1_udf();
        let mut db = Database::new();
        db.insert(
            "R",
            Relation::from_rows(vec![0, 1], [[1, 1], [2, 1], [1, 2]]),
        );
        db.insert(
            "S",
            Relation::from_rows(vec![1, 2], [[1, 1], [2, 1], [1, 2]]),
        );
        db.insert(
            "T",
            Relation::from_rows(vec![2, 3], [[1, 1], [1, 2], [2, 1]]),
        );
        db.udfs.register(VarSet::from_vars([0, 2]), 3, |v| v[0]); // u = x
        db.udfs.register(VarSet::from_vars([1, 3]), 0, |v| v[1]); // x = u
        let expect = reference_join(&q, &db);
        let got = chain_join(&q, &db).unwrap();
        assert!(got.output.is_sorted());
        assert_eq!(
            got.output,
            expect,
            "chain {:?}",
            got.chain().map(|c| c.elems.clone())
        );
    }

    #[test]
    fn fig5_product_query() {
        let q = fdjoin_query::examples::fig5_udf_product();
        let mut db = Database::new();
        db.insert("R", Relation::from_rows(vec![0], [[1], [2], [3]]));
        db.insert("S", Relation::from_rows(vec![1], [[10], [20]]));
        db.udfs
            .register(VarSet::from_vars([0, 1]), 2, |v| v[0] * 1000 + v[1]);
        let expect = reference_join(&q, &db);
        assert_eq!(expect.len(), 6);
        let got = chain_join(&q, &db).unwrap();
        assert!(got.output.is_sorted());
        assert_eq!(got.output, expect);
    }

    #[test]
    fn simple_fd_path_matches_naive() {
        let q = fdjoin_query::examples::simple_fd_path();
        let mut db = Database::new();
        // y → z guarded in S.
        db.insert(
            "R",
            Relation::from_rows(vec![0, 1], [[1, 1], [2, 1], [3, 2]]),
        );
        db.insert("S", Relation::from_rows(vec![1, 2], [[1, 5], [2, 6]]));
        db.insert(
            "T",
            Relation::from_rows(vec![2, 3], [[5, 9], [6, 8], [7, 7]]),
        );
        let expect = reference_join(&q, &db);
        let got = chain_join(&q, &db).unwrap();
        assert!(got.output.is_sorted());
        assert_eq!(got.output, expect);
    }

    #[test]
    fn empty_input_gives_empty_output() {
        let q = fdjoin_query::examples::triangle();
        let mut db = Database::new();
        db.insert("R", Relation::new(vec![0, 1]));
        db.insert("S", Relation::from_rows(vec![1, 2], [[2, 3]]));
        db.insert("T", Relation::from_rows(vec![2, 0], [[3, 1]]));
        let got = chain_join(&q, &db).unwrap();
        assert!(got.output.is_sorted());
        assert!(got.output.is_empty());
    }
}
