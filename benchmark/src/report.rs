//! The whole-benchmark report: every workload run in a process of its own
//! (so `peak_rss_mib` is that workload's), once or `--repeat` times, with the
//! environment it ran in and the run-to-run spread of every metric.

use crate::json::Json;
use crate::metrics::{owed_layers, MetricDef, END_TO_END, PER_LAYER};
use crate::stat::{iqr_share, max_rel_spread, median, quartiles};
use crate::sys;
use crate::workloads;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

pub const SCHEMA: &str = "fdjoin-benchmark/1";

pub struct Plan {
    pub seed: u64,
    pub seconds: f64,
    pub repeat: usize,
    pub trace: bool,
}

pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Run one pass of one workload in a child process; returns its detail file
/// (see `main::write_detail`) with timing and load facts added.
fn run_child(name: &str, plan: &Plan, trace: bool) -> Result<Json, String> {
    let detail = out_dir().join(format!(
        "detail-{name}-{}.json",
        if trace { "trace" } else { "timed" }
    ));
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let load1_start = sys::load1();
    let started = Instant::now();
    // The child's human-readable lines go straight to our stdout; `status`
    // waits for it, so no process outlives this call.
    let status = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &plan.seed.to_string()])
        .args(["--seconds", &plan.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--detail")
        .arg(&detail)
        .status()
        .map_err(|e| format!("spawning {name}: {e}"))?;
    if !status.success() {
        return Err(format!(
            "{name} (trace {}) exited with {status}",
            trace as u8
        ));
    }
    let text =
        std::fs::read_to_string(&detail).map_err(|e| format!("{}: {e}", detail.display()))?;
    let Json::Obj(mut fields) = Json::parse(&text)? else {
        return Err(format!("{} is not an object", detail.display()));
    };
    fields.push(("wall_s".into(), Json::Num(started.elapsed().as_secs_f64())));
    fields.push(("load1_start".into(), Json::Num(load1_start)));
    fields.push(("load1_end".into(), Json::Num(sys::load1())));
    Ok(Json::Obj(fields))
}

/// Median, quartiles and spreads of one metric over the runs that report it.
fn summarize(def: &MetricDef, values: &[f64]) -> Json {
    let mut fields = vec![
        ("unit".to_string(), Json::str(def.unit)),
        ("better".to_string(), Json::str(def.better.as_str())),
        ("median".to_string(), Json::Num(median(values))),
    ];
    if let Some(bound) = def.bound {
        fields.push(("bound".into(), Json::Num(bound)));
    }
    if values.len() >= 2 {
        let [q1, _, q3] = quartiles(values);
        fields.push(("q1".into(), Json::Num(q1)));
        fields.push(("q3".into(), Json::Num(q3)));
        fields.push(("iqr_share".into(), Json::Num(iqr_share(values))));
        fields.push(("max_rel_spread".into(), Json::Num(max_rel_spread(values))));
    }
    fields.push((
        "values".into(),
        Json::Arr(values.iter().map(|&v| Json::Num(v)).collect()),
    ));
    Json::Obj(fields)
}

fn summarize_pass(runs: &[Json], pass: &str, catalogue: &[MetricDef]) -> Json {
    Json::obj(catalogue.iter().filter_map(|def| {
        let values: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.get(pass)?.get("metrics")?.get(def.name)?.as_f64())
            .collect();
        (!values.is_empty()).then(|| (def.name, summarize(def, &values)))
    }))
}

/// Run the plan and return the report.
pub fn run_all(plan: &Plan) -> Result<Json, String> {
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("{}: {e}", out_dir().display()))?;
    let load1_start = sys::load1();
    let mut per_workload: Vec<(&str, Vec<Json>)> = workloads::ALL
        .iter()
        .map(|s| (s.name, Vec::new()))
        .collect();
    for set in 0..plan.repeat {
        if plan.repeat > 1 {
            println!("== set {} of {}", set + 1, plan.repeat);
        }
        for (name, runs) in &mut per_workload {
            let mut run = vec![("timed".to_string(), run_child(name, plan, false)?)];
            if plan.trace {
                run.push(("traced".to_string(), run_child(name, plan, true)?));
            }
            runs.push(Json::Obj(run));
        }
    }
    let workloads = per_workload
        .into_iter()
        .map(|(name, runs)| {
            let summary = Json::obj([
                ("end_to_end", summarize_pass(&runs, "timed", &END_TO_END)),
                ("per_layer", summarize_pass(&runs, "traced", &PER_LAYER)),
            ]);
            Json::obj([
                ("name", Json::str(name)),
                ("summary", summary),
                ("runs", Json::Arr(runs)),
            ])
        })
        .collect();
    let mut env = sys::environment(plan.seed, load1_start);
    if let Json::Obj(fields) = &mut env {
        fields.push(("load1_end".into(), Json::Num(sys::load1())));
    }
    Ok(Json::obj([
        ("schema", Json::str(SCHEMA)),
        ("claim", Json::Null),
        ("env", env),
        ("seconds", Json::Num(plan.seconds)),
        ("repeat", Json::Num(plan.repeat as f64)),
        ("traced", Json::Bool(plan.trace)),
        ("workloads", Json::Arr(workloads)),
    ]))
}

/// Per metric × workload: median, quartiles and spreads across the sets.
pub fn print_summary(report: &Json) {
    let workloads = report
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap_or(&[]);
    for w in workloads {
        let name = w.get("name").and_then(Json::as_str).unwrap_or("?");
        for section in ["end_to_end", "per_layer"] {
            let Some(metrics) = w.get("summary").and_then(|s| s.get(section)?.as_obj()) else {
                continue;
            };
            if metrics.is_empty() {
                continue;
            }
            println!("\n{name}  [{section}]");
            println!(
                "  {:<36} {:>14} {:>14} {:>14} {:>8} {:>8}  unit",
                "metric", "median", "q1", "q3", "iqr%", "max%"
            );
            for (metric, s) in metrics {
                let f = |k: &str| s.get(k).and_then(Json::as_f64);
                let cell = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.4}"));
                let pct =
                    |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{:.1}", v * 100.0));
                println!(
                    "  {:<36} {:>14} {:>14} {:>14} {:>8} {:>8}  {}",
                    metric,
                    cell(f("median")),
                    cell(f("q1")),
                    cell(f("q3")),
                    pct(f("iqr_share")),
                    pct(f("max_rel_spread")),
                    s.get("unit").and_then(Json::as_str).unwrap_or(""),
                );
            }
        }
    }
}

/// Check that a report has the shape every consumer relies on: every
/// workload, every metric each of its passes owes, finite, from correct runs.
pub fn validate(report: &Json) -> Result<(), String> {
    if report.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err("missing or unknown schema".into());
    }
    let traced = report
        .get("traced")
        .and_then(Json::as_bool)
        .unwrap_or(false);
    let workloads = report
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("no workloads array")?;
    for spec in &workloads::ALL {
        let w = workloads
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(spec.name))
            .ok_or_else(|| format!("workload {} missing", spec.name))?;
        let runs = w.get("runs").and_then(Json::as_arr).unwrap_or(&[]);
        if runs.is_empty() {
            return Err(format!("{}: no runs", spec.name));
        }
        let mut passes: Vec<(&str, Vec<&MetricDef>)> = vec![("timed", END_TO_END.iter().collect())];
        if traced {
            passes.push(("traced", owed_layers(spec.groups).collect()));
        }
        for run in runs {
            for (pass, owed) in &passes {
                let p = run
                    .get(pass)
                    .ok_or_else(|| format!("{}: no {pass} pass", spec.name))?;
                if p.get("correct").and_then(Json::as_bool) != Some(true) {
                    return Err(format!("{}: {pass} pass is not correct", spec.name));
                }
                for def in owed {
                    let v = p
                        .get("metrics")
                        .and_then(|m| m.get(def.name)?.as_f64())
                        .ok_or_else(|| format!("{}: {} missing", spec.name, def.name))?;
                    if !v.is_finite() {
                        return Err(format!("{}: {} is {v}", spec.name, def.name));
                    }
                }
            }
        }
    }
    Ok(())
}
