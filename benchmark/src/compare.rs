//! `compare old.json new.json`: per-workload rows of end-to-end deltas judged
//! against the bounds, per-layer deltas for attribution, non-zero exit on a
//! regression.

use crate::json::Json;
use crate::metrics::{Better, MetricDef, END_TO_END, PER_LAYER};
use crate::stat::{iqr_share, median};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Improved,
    Regression,
    /// The run-to-run spread on either side exceeds the bound and the two
    /// sides' runs overlap: the data cannot tell.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Same => "ok",
            Verdict::Improved => "improved",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By what share of `old`'s median `new`'s median is worse (negative: better).
fn worsening(def: &MetricDef, old: f64, new: f64) -> f64 {
    if old == 0.0 {
        return 0.0;
    }
    match def.better {
        Better::Lower => (new - old) / old.abs(),
        Better::Higher => (old - new) / old.abs(),
    }
}

pub fn judge(def: &MetricDef, bound: f64, old: &[f64], new: &[f64]) -> Verdict {
    let worse = worsening(def, median(old), median(new));
    let spread = |v: &[f64]| if v.len() >= 2 { iqr_share(v) } else { 0.0 };
    if spread(old).max(spread(new)) > bound {
        // Too noisy to trust the medians — unless the two sides do not even
        // overlap, in which case every run agrees on the direction.
        let better_than = |a: f64, b: f64| worsening(def, b, a) < 0.0;
        let all_new_better = new.iter().all(|&n| old.iter().all(|&o| better_than(n, o)));
        let all_new_worse = new.iter().all(|&n| old.iter().all(|&o| better_than(o, n)));
        return match (all_new_better, all_new_worse && worse > bound) {
            (true, _) => Verdict::Improved,
            (_, true) => Verdict::Regression,
            _ => Verdict::Unresolved,
        };
    }
    if worse > bound {
        Verdict::Regression
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Same
    }
}

fn values_of(workload: &Json, section: &str, metric: &str) -> Vec<f64> {
    workload
        .get("summary")
        .and_then(|s| s.get(section)?.get(metric)?.get("values")?.as_arr())
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// Failed requests over attempted, across the timed runs of a workload.
fn fail_share(workload: &Json) -> f64 {
    let runs = workload.get("runs").and_then(Json::as_arr).unwrap_or(&[]);
    let sum = |key: &str| -> f64 {
        runs.iter()
            .filter_map(|r| r.get("timed")?.get(key)?.as_f64())
            .sum()
    };
    sum("failed") / sum("attempted").max(1.0)
}

/// Print the comparison; `Ok(true)` when something regressed.
pub fn compare(old: &Json, new: &Json) -> Result<bool, String> {
    fn workloads(report: &Json) -> Result<&[Json], String> {
        report
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or_else(|| "report has no workloads array".to_string())
    }
    let (old_ws, new_ws) = (workloads(old)?, workloads(new)?);
    let mut regressed = false;
    for new_w in new_ws {
        let name = new_w.get("name").and_then(Json::as_str).unwrap_or("?");
        let Some(old_w) = old_ws
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
        else {
            println!("\n{name}: not in the old report");
            continue;
        };
        println!("\n{name}");
        println!(
            "  {:<36} {:>14} {:>14} {:>9} {:>7}  verdict",
            "end-to-end", "old", "new", "worse%", "bound%"
        );
        for def in &END_TO_END {
            let (o, n) = (
                values_of(old_w, "end_to_end", def.name),
                values_of(new_w, "end_to_end", def.name),
            );
            if o.is_empty() || n.is_empty() {
                continue;
            }
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            let verdict = judge(def, bound, &o, &n);
            regressed |= verdict == Verdict::Regression;
            println!(
                "  {:<36} {:>14.4} {:>14.4} {:>9.1} {:>7}  {}",
                def.name,
                median(&o),
                median(&n),
                worsening(def, median(&o), median(&n)) * 100.0,
                format!("{:.1}", bound * 100.0),
                verdict.label()
            );
        }
        // `ok_share` above tolerates one failure in a thousand; any increase
        // of the failure count itself is a regression.
        let (fo, fn_) = (fail_share(old_w), fail_share(new_w));
        let failing = fn_ > fo;
        regressed |= failing;
        println!(
            "  {:<36} {:>14.6} {:>14.6} {:>9} {:>7}  {}",
            "fail_share",
            fo,
            fn_,
            "",
            "any",
            if failing { "REGRESSION" } else { "ok" }
        );
        let mut header = false;
        for def in &PER_LAYER {
            let (o, n) = (
                values_of(old_w, "per_layer", def.name),
                values_of(new_w, "per_layer", def.name),
            );
            if o.is_empty() || n.is_empty() {
                continue;
            }
            if !header {
                println!(
                    "  {:<36} {:>14} {:>14} {:>9}",
                    "per-layer", "old", "new", "change%"
                );
                header = true;
            }
            let (mo, mn) = (median(&o), median(&n));
            let change = if mo == 0.0 {
                0.0
            } else {
                (mn - mo) / mo.abs() * 100.0
            };
            println!(
                "  {:<36} {:>14.4} {:>14.4} {:>9.1}",
                def.name, mo, mn, change
            );
        }
    }
    println!(
        "\n{}",
        if regressed {
            "REGRESSION: at least one end-to-end metric worsened beyond its bound"
        } else {
            "no end-to-end metric worsened beyond its bound"
        }
    );
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const P50: MetricDef = END_TO_END[2];
    const RATE: MetricDef = END_TO_END[1];

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        assert_eq!((P50.name, RATE.name), ("req_p50_ms", "req_per_s"));
        let steady = [10.0, 10.1, 9.9, 10.0, 10.05];
        let by = |f: f64| steady.map(|v| v * f);
        // Lower is better: +20 % is a regression at a 10 % bound, −20 % a gain.
        assert_eq!(judge(&P50, 0.1, &steady, &by(1.2)), Verdict::Regression);
        assert_eq!(judge(&P50, 0.1, &steady, &by(0.8)), Verdict::Improved);
        assert_eq!(judge(&P50, 0.1, &steady, &by(1.05)), Verdict::Same);
        // Higher is better flips it.
        assert_eq!(judge(&RATE, 0.1, &steady, &by(0.8)), Verdict::Regression);
        assert_eq!(judge(&RATE, 0.1, &steady, &by(1.2)), Verdict::Improved);
        // A single run per side has no spread to doubt.
        assert_eq!(judge(&P50, 0.1, &[10.0], &[12.0]), Verdict::Regression);
    }

    #[test]
    fn spread_beyond_the_bound_is_unresolved_unless_runs_do_not_overlap() {
        let noisy = [8.0, 10.0, 12.0, 9.0, 11.0];
        assert_eq!(
            judge(&P50, 0.1, &noisy, &noisy.map(|v| v * 1.15)),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&P50, 0.1, &noisy, &noisy.map(|v| v * 0.5)),
            Verdict::Improved
        );
        assert_eq!(
            judge(&P50, 0.1, &noisy, &noisy.map(|v| v * 2.0)),
            Verdict::Regression
        );
    }
}
