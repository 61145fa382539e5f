//! The metric catalogue: every name the harness reports, with its unit, its
//! direction, and (end-to-end only) the regression bound. `BENCHMARK.json`
//! lists the same catalogue; a self-test keeps the two in step.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// The probe group a per-layer metric belongs to. A workload measures the
/// groups whose layers its requests spend time in (`workloads::Spec::groups`,
/// the README's interaction table); the rest would describe no request the
/// benchmark sends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Group {
    /// Lattice presentation, LPs, proof search, prepare: `cold_plan`.
    Planning,
    /// The cost model's estimate: the warm `Auto` workloads.
    Estimate,
    /// Trie builds, index fill, `Relation::apply_delta`: `delta_apply`, `cold_plan`.
    AccessPaths,
    /// Probe kernels and the warm solve with its `Stats`: the solve workloads.
    Solve,
    /// The paper's claim as counts (distance to the bounds, work exponents):
    /// the solve workloads.
    Claim,
    /// The work exponent of the FD-oblivious baseline on the paper's headline
    /// instance: `udf_chain_warm`.
    Baseline,
    /// What each other algorithm would have cost; measured with `Claim`,
    /// never owed: one is absent when the algorithm does not apply to the query.
    Alternatives,
    /// `sort_dedup` and the fan-out: `triangle_gj_par2`.
    Merge,
    /// The `Executor` pool: `fig9_csma_batch2`.
    Serving,
    /// `ResultStream` cursors: `stream_page`.
    Stream,
    /// `MaterializedView` maintenance: `delta_apply`.
    Delta,
    /// Counters and instrument overheads of the replayed request itself:
    /// every workload.
    Replay,
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before a
    /// change counts as a regression. Per-layer metrics have none.
    pub bound: Option<f64>,
    /// Per-layer metrics only.
    pub group: Option<Group>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        group: None,
    }
}

const fn layer(group: Group, name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        group: Some(group),
    }
}

use Better::{Higher, Lower};
use Group::*;

/// What a user of the engine sees; identical names on every workload, all
/// listed in `BENCHMARK.json`. Two of the issue's seven are not here. Its
/// `fail_share` is 0 at a healthy commit and a listed metric may never read
/// 0, so the contract carries its complement `ok_share`; `fail_share` itself
/// is printed and compared. Its `req_p95_ms` cannot be bounded on this box
/// (runs of one binary spread 21-34 % on four workloads, the contract allows
/// a bound of 25 % at most); the whole run's p95 is printed and kept in the
/// report.
///
/// Bounds: see "A/A repeatability" in the README.
pub const END_TO_END: [MetricDef; 6] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("req_per_s", "1/s", Higher, 0.25),
    e2e("req_p50_ms", "ms", Lower, 0.25),
    e2e("cpu_ms_per_req", "ms", Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.25),
    // One failed request in a thousand is a regression ("any increase").
    e2e("ok_share", "ratio", Higher, 0.001),
];

/// Single-layer measurements from the traced pass, measured from outside the
/// engine through each layer's public functions.
pub const PER_LAYER: [MetricDef; 64] = [
    // Moves req_p50_ms on cold_plan only (warm workloads solve nothing).
    layer(Planning, "query.presentation_us", "us", Lower),
    layer(Planning, "lattice.fingerprint_us", "us", Lower),
    layer(Planning, "bounds.chain_search_us", "us", Lower),
    layer(Planning, "bounds.llp_solve_us", "us", Lower),
    layer(Planning, "bounds.smproof_search_us", "us", Lower),
    layer(Planning, "bounds.cllp_csm_us", "us", Lower),
    layer(Planning, "core.prepare_us", "us", Lower),
    layer(Planning, "core.plan_ms", "ms", Lower),
    layer(Planning, "core.plan_cache.rehydrate_us", "us", Lower),
    layer(
        Planning,
        "core.plan_cache.shared_hit_ratio",
        "ratio",
        Higher,
    ),
    layer(Replay, "core.prep.solves_per_req", "count", Lower),
    layer(Estimate, "core.cost.estimate_us", "us", Lower),
    // delta_apply (req_p50_ms, peak_rss_mib), setup_s everywhere, cold_plan slightly.
    layer(AccessPaths, "storage.index_build_ms", "ms", Lower),
    layer(AccessPaths, "core.index_fill_ms", "ms", Lower),
    layer(AccessPaths, "storage.index_bytes", "bytes", Lower),
    layer(Replay, "storage.index_builds_per_req", "count", Lower),
    layer(Replay, "storage.index_hits_per_req", "count", Higher),
    layer(Replay, "storage.index_evictions_per_req", "count", Lower),
    layer(AccessPaths, "storage.apply_delta_us", "us", Lower),
    // req_p50_ms and req_per_s on the three solve workloads; not cold_plan.
    layer(Solve, "storage.probe_seek_mops", "Mop/s", Higher),
    layer(Solve, "storage.probe_descend_mops", "Mop/s", Higher),
    layer(Solve, "core.solve_ms", "ms", Lower),
    layer(Solve, "core.ns_per_probe", "ns", Lower),
    layer(Solve, "core.work_per_req", "count", Lower),
    layer(Solve, "core.probes_per_req", "count", Lower),
    layer(Solve, "core.expansions_per_req", "count", Lower),
    layer(Solve, "core.intermediate_per_req", "count", Lower),
    layer(Solve, "core.output_rows_per_req", "count", Higher),
    layer(Solve, "core.useful_ratio", "ratio", Higher),
    // The paper's claim as tracked counts; they move no wall metric by themselves.
    layer(Claim, "core.work_minus_bound_log2", "log2", Lower),
    layer(Claim, "core.rows_minus_bound_log2", "log2", Lower),
    layer(Claim, "core.estimate_minus_work_log2", "log2", Lower),
    layer(Claim, "core.work_exponent", "exponent", Lower),
    layer(Baseline, "core.baseline_work_exponent", "exponent", Lower),
    layer(Alternatives, "core.alt_ms.chain", "ms", Lower),
    layer(Alternatives, "core.alt_ms.sma", "ms", Lower),
    layer(Alternatives, "core.alt_ms.csma", "ms", Lower),
    layer(Alternatives, "core.alt_ms.generic_join", "ms", Lower),
    layer(Alternatives, "core.alt_ms.binary_join", "ms", Lower),
    // req_p50_ms and cpu_ms_per_req on triangle_gj_par2.
    layer(Merge, "storage.sort_dedup_ms", "ms", Lower),
    layer(Merge, "storage.sort_dedup_sorted_ms", "ms", Lower),
    layer(Merge, "core.par.x2_speedup", "ratio", Higher),
    layer(Merge, "core.par.cpu_ratio", "ratio", Lower),
    // req_p50_ms on fig9_csma_batch2.
    layer(Serving, "exec.submit_overhead_us", "us", Lower),
    layer(Serving, "exec.batch_x2_speedup", "ratio", Higher),
    // req_p50_ms on stream_page.
    layer(Stream, "stream.open_us", "us", Lower),
    layer(Stream, "stream.first_row_us", "us", Lower),
    layer(Stream, "stream.exists_us", "us", Lower),
    layer(Stream, "stream.row_ns", "ns", Lower),
    layer(Stream, "stream.resume_us", "us", Lower),
    layer(Stream, "stream.checkpoint_us", "us", Lower),
    layer(Stream, "stream.probes_per_row", "count", Lower),
    layer(Stream, "stream.max_probes_between_rows", "count", Lower),
    layer(Stream, "stream.drain_over_gj_ratio", "ratio", Lower),
    // req_p50_ms on delta_apply.
    layer(Delta, "delta.materialize_ms", "ms", Lower),
    layer(Delta, "delta.join_work_per_batch", "count", Lower),
    layer(Delta, "delta.revalidated_per_batch", "count", Lower),
    layer(Delta, "delta.specialized_share", "ratio", Higher),
    layer(Delta, "delta.full_recomputes", "count", Lower),
    layer(Delta, "delta.speedup_vs_recompute", "ratio", Higher),
    // Instruments: they move nothing unless they exceed their own bound.
    layer(Replay, "obs.enabled_overhead_pct", "%", Lower),
    layer(Replay, "obs.spans_per_req", "count", Lower),
    layer(Replay, "obs.dropped_spans", "count", Lower),
    layer(Replay, "trace.overhead_pct", "%", Lower),
];

/// Named measurements in catalogue order.
#[derive(Clone, Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The measured metrics of `catalogue`, in its order. A non-finite value
    /// is a harness bug worth failing the run for.
    pub fn of(&self, catalogue: &[MetricDef]) -> Result<Vec<(MetricDef, f64)>, String> {
        catalogue
            .iter()
            .filter_map(|def| {
                self.get(def.name).map(|v| {
                    if v.is_finite() {
                        Ok((*def, v))
                    } else {
                        Err(format!("metric {} is {v}", def.name))
                    }
                })
            })
            .collect()
    }

    /// Fails when a metric the pass owes was not measured.
    pub fn require<'a>(&self, owed: impl IntoIterator<Item = &'a MetricDef>) -> Result<(), String> {
        match owed.into_iter().find(|def| self.get(def.name).is_none()) {
            Some(def) => Err(format!("metric {} was not measured", def.name)),
            None => Ok(()),
        }
    }
}

/// The per-layer metrics a workload measuring `groups` owes: those groups'
/// and the replay's, which every workload has.
pub fn owed_layers(groups: &[Group]) -> impl Iterator<Item = &'static MetricDef> + '_ {
    PER_LAYER.iter().filter(move |def| {
        def.group
            .is_some_and(|g| g != Alternatives && (g == Replay || groups.contains(&g)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_valid_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for def in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(def.name), "{} listed twice", def.name);
            assert!(def.name.len() <= 64);
            assert!(def.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def.unit.len() <= 16);
            assert!(def
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .all(|d| d.group.is_none() && d.bound.is_some_and(|b| b <= 0.25)));
        assert!(PER_LAYER
            .iter()
            .all(|d| d.group.is_some() && d.bound.is_none()));
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    #[test]
    fn values_report_missing_and_non_finite_metrics() {
        let mut v = Values::default();
        for def in &END_TO_END {
            v.set(def.name, 1.5);
        }
        assert_eq!(v.of(&END_TO_END).unwrap().len(), END_TO_END.len());
        assert!(v.require(&END_TO_END).is_ok());
        v.set("req_p50_ms", f64::NAN);
        assert!(v.of(&END_TO_END).is_err());
        v.set("req_p50_ms", 2.0);
        assert_eq!(v.get("req_p50_ms"), Some(2.0));
        // Unmeasured metrics are left out, and owed ones are missed.
        assert!(v.of(&PER_LAYER).unwrap().is_empty());
        assert!(Values::default().require(&END_TO_END).is_err());
    }

    #[test]
    fn every_workload_owes_the_replay_metrics_and_never_an_alternative() {
        let owed: Vec<&str> = owed_layers(&[Stream]).map(|d| d.name).collect();
        assert!(owed.contains(&"trace.overhead_pct") && owed.contains(&"stream.row_ns"));
        assert!(!owed.contains(&"core.solve_ms"));
        assert!(owed_layers(&[Claim]).all(|d| d.group != Some(Alternatives)));
    }
}
