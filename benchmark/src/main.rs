//! fdjoin's end-to-end benchmark. See README.md for the metric glossary and
//! the workload rationale; `BENCHMARK.json` at the repository root is the
//! machine-readable contract.
//!
//! ```text
//! fdjoin-benchmark --workload W --seed N --seconds S --trace 0|1   one pass of one workload
//! fdjoin-benchmark [--seed N] [--seconds S] [--trace] [--repeat K]  every workload, one report
//! fdjoin-benchmark --smoke                                          the above at 1/20, validated
//! fdjoin-benchmark compare old.json new.json                        deltas against the bounds
//! ```

mod compare;
mod gen;
mod json;
mod layers;
mod metrics;
mod report;
mod run;
mod span;
mod stat;
mod sys;
mod workload;
mod workloads;

use json::Json;
use metrics::{MetricDef, END_TO_END, PER_LAYER};
use run::RunReport;
use std::path::PathBuf;

/// Seconds one pass measures when `--seconds` is not given: `run_seconds` of
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    smoke: bool,
    detail: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        repeat: 1,
        smoke: false,
        detail: None,
    };
    fn number<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> Result<T, String> {
        value
            .ok_or_else(|| format!("{flag} needs a value"))?
            .parse()
            .map_err(|_| format!("{flag}: not a valid number"))
    }
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(it.next().ok_or("--workload needs a name")?.clone())
            }
            "--seed" => args.seed = number(flag, it.next())?,
            "--seconds" => args.seconds = number(flag, it.next())?,
            "--repeat" => args.repeat = number(flag, it.next())?,
            "--detail" => args.detail = Some(it.next().ok_or("--detail needs a path")?.into()),
            "--smoke" => args.smoke = true,
            // `--trace 0|1` (the driver's form) or a bare `--trace`.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    if args.repeat == 0 {
        return Err("--repeat must be at least 1".into());
    }
    Ok(args)
}

/// The result line the driver reads: exactly these four keys, and under
/// `metrics` every metric of `catalogue`. A per-layer metric this workload
/// does not measure (its requests spend no time in that layer) reads 0 here;
/// the printed block and the report files leave it out instead.
fn result_line(report: &RunReport, catalogue: &[MetricDef]) -> Json {
    let metrics = catalogue.iter().map(|def| {
        let v = report.values.get(def.name).unwrap_or(0.0);
        (
            def.name,
            Json::obj([("value", Json::Num(v)), ("unit", Json::str(def.unit))]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(report.correct)),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
}

/// Everything a pass found, for the parent process assembling the report.
fn write_detail(path: &PathBuf, report: &RunReport, catalogue: &[MetricDef]) -> Result<(), String> {
    let metrics = report
        .values
        .of(catalogue)?
        .into_iter()
        .map(|(def, v)| (def.name, Json::Num(v)));
    let notes = report
        .notes
        .iter()
        .map(|(k, v)| (k.as_str(), Json::str(v.as_str())));
    let detail = Json::obj([
        ("correct", Json::Bool(report.correct)),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("algorithm_used", Json::str(report.algorithm_used.as_str())),
        (
            "first_error",
            report.first_error.as_deref().map_or(Json::Null, Json::str),
        ),
        ("metrics", Json::obj(metrics)),
        ("notes", Json::obj(notes)),
    ]);
    std::fs::write(path, detail.render_pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

fn print_report(spec: &workloads::Spec, report: &RunReport, catalogue: &[MetricDef]) {
    println!("workload {}: {}", spec.name, spec.why);
    println!("  algorithm_used={}", report.algorithm_used);
    let mut unmeasured = 0;
    for def in catalogue {
        match report.values.get(def.name) {
            Some(v) => println!("  {:<36} {:>16.4} {}", def.name, v, def.unit),
            None => unmeasured += 1,
        }
    }
    if unmeasured > 0 {
        println!(
            "  ({unmeasured} metrics n/a: their layers take no part in this workload's requests)"
        );
    }
    for (k, v) in &report.notes {
        println!("  {k:<36} {v:>16}");
    }
    if let Some(e) = &report.first_error {
        println!("  first_error: {e}");
    }
}

/// One pass of one workload in this process.
fn single(name: &str, args: &Args) -> Result<(), String> {
    let spec = workloads::find(name).ok_or_else(|| {
        let known: Vec<&str> = workloads::ALL.iter().map(|s| s.name).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })?;
    let (report, catalogue) = if args.trace {
        let report = layers::traced_run(spec, args.seed, args.seconds)?;
        (report, &PER_LAYER[..])
    } else {
        let report = run::timed_run(spec, args.seed, args.seconds)?;
        (report, &END_TO_END[..])
    };
    // A non-finite value is a harness bug worth failing the pass for.
    report.values.of(catalogue)?;
    print_report(spec, &report, catalogue);
    if let Some(path) = &args.detail {
        write_detail(path, &report, catalogue)?;
    }
    println!("{}", result_line(&report, catalogue).render());
    Ok(())
}

/// Every workload, each pass in a child process, one report file.
fn all(args: &Args) -> Result<(), String> {
    let plan = if args.smoke {
        report::Plan {
            seed: args.seed,
            seconds: DEFAULT_SECONDS / 20.0,
            repeat: 1,
            trace: true,
        }
    } else {
        report::Plan {
            seed: args.seed,
            seconds: args.seconds,
            repeat: args.repeat,
            trace: args.trace,
        }
    };
    let report = report::run_all(&plan)?;
    if plan.repeat > 1 {
        report::print_summary(&report);
    }
    let path = report::out_dir().join(if args.smoke {
        "bench-smoke.json".to_string()
    } else {
        format!("bench-seed{}.json", plan.seed)
    });
    let text = report.render_pretty();
    std::fs::write(&path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
    // What was written must read back as a complete report.
    report::validate(&Json::parse(&text)?)?;
    let noisy = report
        .get("env")
        .and_then(|e| e.get("noisy")?.as_bool())
        .unwrap_or(false);
    println!(
        "\nreport: {}{}",
        path.display(),
        if noisy {
            "  (noisy: the box was already loaded when the run started)"
        } else {
            ""
        }
    );
    Ok(())
}

fn compare_files(old: &str, new: &str) -> Result<bool, String> {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let report = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        report::validate(&report).map_err(|e| format!("{path}: {e}"))?;
        Ok(report)
    };
    compare::compare(&load(old)?, &load(new)?)
}

fn real_main(argv: &[String]) -> Result<i32, String> {
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, old, new] = argv else {
            return Err("usage: compare old.json new.json".into());
        };
        return Ok(if compare_files(old, new)? { 1 } else { 0 });
    }
    let args = parse_args(argv)?;
    match &args.workload {
        Some(name) => single(name, &args)?,
        None => all(&args)?,
    }
    Ok(0)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = real_main(&argv).unwrap_or_else(|e| {
        eprintln!("fdjoin-benchmark: {e}");
        2
    });
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_command_line_parses() {
        let a = args(&[
            "--workload",
            "cold_plan",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("cold_plan"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 15.0, false));
        assert!(args(&["--trace", "1"]).unwrap().trace);
        assert!(args(&["--trace"]).unwrap().trace);
        assert!(args(&["--trace", "--seed", "3"]).unwrap().trace);
        assert_eq!(args(&["--repeat", "5"]).unwrap().repeat, 5);
    }

    #[test]
    fn bad_command_lines_are_rejected() {
        for bad in [
            &["--seed"][..],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--seconds", "-1"],
            &["--repeat", "0"],
            &["--frobnicate"],
        ] {
            assert!(args(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut values = metrics::Values::default();
        for def in &END_TO_END {
            values.set(def.name, 1.25);
        }
        let report = RunReport {
            attempted: 10,
            failed: 0,
            correct: true,
            first_error: None,
            values,
            algorithm_used: "chain".into(),
            notes: Vec::new(),
        };
        let line = result_line(&report, &END_TO_END).render();
        assert!(!line.contains('\n'));
        let parsed = Json::parse(&line).unwrap();
        let keys: Vec<&str> = parsed
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = parsed.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        let setup = parsed.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(1.25));
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
        // The traced line lists every per-layer metric, measured or not.
        let traced = Json::parse(&result_line(&report, &PER_LAYER).render()).unwrap();
        let metrics = traced.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), PER_LAYER.len());
        let unmeasured = traced.get("metrics").unwrap().get("stream.row_ns").unwrap();
        assert_eq!(unmeasured.get("value").unwrap().as_f64(), Some(0.0));
    }

    /// `BENCHMARK.json` is the contract the driver reads; the catalogue and
    /// the workload list in the code are what the binary reports. They must
    /// not drift apart.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let b = Json::parse(&text).unwrap();
        let keys: Vec<&str> = b
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            b.get("run_seconds").unwrap().as_f64(),
            Some(DEFAULT_SECONDS)
        );
        let listed: Vec<(&str, &str)> = b
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| {
                (
                    w.get("name").unwrap().as_str().unwrap(),
                    w.get("why").unwrap().as_str().unwrap(),
                )
            })
            .collect();
        let coded: Vec<(&str, &str)> = workloads::ALL.iter().map(|s| (s.name, s.why)).collect();
        assert_eq!(listed, coded);
        assert!(coded
            .iter()
            .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
        for (key, catalogue) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = b.get(key).unwrap().as_arr().unwrap();
            assert_eq!(listed.len(), catalogue.len(), "{key}");
            for (entry, def) in listed.iter().zip(catalogue) {
                assert_eq!(entry.get("name").unwrap().as_str(), Some(def.name));
                assert_eq!(entry.get("unit").unwrap().as_str(), Some(def.unit));
                assert_eq!(
                    entry.get("better").unwrap().as_str(),
                    Some(def.better.as_str())
                );
                assert_eq!(entry.get("bound").and_then(Json::as_f64), def.bound);
            }
        }
    }
}
