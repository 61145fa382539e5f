//! The six workloads. Names and reasons here are the ones `BENCHMARK.json`
//! lists (a self-test keeps the two in step).

mod cold_plan;
mod delta_apply;
mod fig9_batch;
mod stream_page;
mod warm_execute;

use crate::metrics::Group::{self, *};
use crate::workload::Workload;
use fdjoin::core::Observer;

/// Seed and observer in, a set-up workload out.
type Build = fn(u64, &Observer) -> Result<Box<dyn Workload>, String>;

pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    /// The probe groups of the layers this workload's requests spend their
    /// time in (the README's interaction table); the traced pass measures
    /// these and the replay's own.
    pub groups: &'static [Group],
    build: Build,
}

impl Spec {
    /// Generate the inputs from `seed`, prepare, run the oracle, warm the
    /// caches: everything before the first timed request.
    pub fn setup(&self, seed: u64, obs: &Observer) -> Result<Box<dyn Workload>, String> {
        (self.build)(seed, obs).map_err(|e| format!("{} set-up: {e}", self.name))
    }
}

fn boxed<W: Workload + 'static>(w: Result<W, String>) -> Result<Box<dyn Workload>, String> {
    w.map(|w| Box::new(w) as Box<dyn Workload>)
}

pub static ALL: [Spec; 6] = [
    Spec {
        name: "udf_chain_warm",
        why: "Eq. (1)/Fig. 1 UDF query on the adversarial instance, N=2^14, warm Auto->Chain: \
              the headline N^1.5-vs-N^2 case; all time in chain_algo, UDF expansion and probes",
        groups: &[Estimate, Solve, Claim, Baseline],
        build: |seed, obs| boxed(warm_execute::udf_chain_warm(seed, obs)),
    },
    Spec {
        name: "fig9_csma_batch2",
        why: "Fig. 9 query (no SM-proof, CSMA required), two databases per request submitted to \
              a one-worker Executor: the paper's main algorithm behind the pool's queue and hand-off",
        groups: &[Estimate, Solve, Claim, Serving],
        build: |seed, obs| boxed(fig9_batch::Fig9Batch::new(seed, obs)),
    },
    Spec {
        name: "triangle_gj_par2",
        why: "FD-free triangle on its AGM worst case (4096 rows/relation), Generic-Join with \
              parallelism 2: generic_join, par fan-out, range-ordered merge, sort_dedup, output",
        groups: &[Solve, Claim, Merge],
        build: |seed, obs| boxed(warm_execute::triangle_gj_par2(seed, obs)),
    },
    Spec {
        name: "cold_plan",
        why: "eight paper queries on 64-row instances, fresh Engine + prepare + first execute \
              each: lattice presentation, exact LPs and proof search dominate; bypasses solve-loop \
              work",
        groups: &[Planning, AccessPaths],
        build: |seed, obs| boxed(cold_plan::ColdPlan::new(seed, obs)),
    },
    Spec {
        name: "stream_page",
        why: "Fig. 4 query, 61k answers paged ~512 rows at a time by checkpoint resume/limit: \
              the batch tries through suspend/resume cursors; per-row advance and snapshot cost",
        groups: &[Stream],
        build: |seed, obs| boxed(stream_page::StreamPage::new(seed, obs)),
    },
    Spec {
        name: "delta_apply",
        why: "triangle view over a 3x65536-edge random graph absorbing 4 inserts + 4 deletes per \
              relation: apply_delta merges, stats, trie rebuilds and evictions - the write path",
        groups: &[AccessPaths, Delta],
        build: |seed, obs| boxed(delta_apply::DeltaApply::new(seed, obs)),
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    ALL.iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdjoin::core::{Engine, Stats};
    use fdjoin::storage::Value;

    /// The generated relations of every unit, and the deterministic counters
    /// of executing each.
    fn inputs_and_counters(spec: &Spec, seed: u64) -> (Vec<Vec<Vec<Value>>>, Vec<Stats>) {
        let w = spec.setup(seed, &Observer::disabled()).unwrap();
        let mut relations = Vec::new();
        let mut counters = Vec::new();
        for unit in w.units() {
            for atom in unit.query.atoms() {
                let rel = unit.db.relation(&atom.name).unwrap();
                relations.push(rel.rows().map(<[Value]>::to_vec).collect());
            }
            let result = Engine::new()
                .prepare(&unit.query)
                .execute(&unit.db, &unit.opts)
                .unwrap();
            counters.push(result.stats.deterministic());
        }
        (relations, counters)
    }

    /// Same seed: identical relations and identical per-request counters.
    /// Different seed: different relations. (The two light workloads; the
    /// others share the generators and would take minutes in a debug build.)
    #[test]
    fn inputs_and_counters_are_a_function_of_the_seed() {
        for name in ["cold_plan", "fig9_csma_batch2"] {
            let spec = find(name).unwrap();
            let (first, again, other) = (
                inputs_and_counters(spec, 5),
                inputs_and_counters(spec, 5),
                inputs_and_counters(spec, 6),
            );
            assert_eq!(first, again, "{name}: same seed, different run");
            assert_ne!(
                first.0, other.0,
                "{name}: seeds 5 and 6 gave equal relations"
            );
        }
    }

    #[test]
    fn names_are_unique_and_findable() {
        for spec in &ALL {
            assert!(std::ptr::eq(find(spec.name).unwrap(), spec));
        }
        assert!(find("no_such_workload").is_none());
    }
}
