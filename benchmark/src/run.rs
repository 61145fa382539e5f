//! The timed run: one client sending requests back to back for a fixed time,
//! engine observers disabled and harness tracing off, in several *rounds*.
//! Every round sets the workload up from the seed again (timed: `setup_s`)
//! and then measures for its share of the time, so set-ups are spread over
//! the run like the requests are.
//!
//! The measured time is cut into half-second windows, and every time-based
//! metric is its **best window's**: the lowest window median, the highest
//! window rate, the lowest window CPU per request, the fastest set-up.
//!
//! Requests of one workload do identical work, so what differs between two
//! seconds of a run is the machine, and this one has speed modes: the same
//! `cold_plan` round takes 21 ms for a few seconds, then 35 ms for a few
//! more, and which mode a second is in has nothing to do with the program
//! (see the README's noise finding, decided on dumped per-request data).
//! Noise only adds time. A statistic of the whole run, or of its quieter
//! half, reads whatever share of slow seconds the neighbours dealt it; the
//! best window reads the program, and a slowdown in the program moves it
//! like any other window. What it cannot see is a regression that spares some
//! whole window of every run; the whole-run figures, which can, are printed
//! beside it and kept in the report.

use crate::metrics::Values;
use crate::span::Tracer;
use crate::stat::{least, median, percentile, percentile_index};
use crate::sys;
use crate::workload::{Outcome, Workload};
use crate::workloads::Spec;
use fdjoin::core::Observer;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// What one run of one workload produced, for either pass.
pub struct RunReport {
    pub attempted: u64,
    pub failed: u64,
    /// No request failed and every end-of-run check held.
    pub correct: bool,
    pub first_error: Option<String>,
    pub values: Values,
    pub algorithm_used: String,
    /// Facts worth printing that are not metrics (sample counts, …).
    pub notes: Notes,
}

pub type Notes = Vec<(String, String)>;

pub fn note(notes: &mut Notes, key: &str, value: impl ToString) {
    notes.push((key.to_string(), value.to_string()));
}

/// One request, with a panic counted as a failed request, not a lost one.
pub fn guarded_request(w: &mut dyn Workload, tracer: &mut Tracer) -> Outcome {
    let started = Instant::now();
    catch_unwind(AssertUnwindSafe(|| w.request(tracer))).unwrap_or_else(|_| Outcome {
        latency: started.elapsed(),
        verdict: Err("request panicked".into()),
    })
}

/// One measurement window of the closed loop: the requests that started in
/// it, and the wall and CPU time from its opening to the next window's.
#[derive(Default)]
struct Window {
    /// Latencies of the correct requests, ascending once the run is over.
    latencies_ms: Vec<f64>,
    attempted: u64,
    wall: Duration,
    cpu_ms: f64,
    /// Time the fixed calibration kernel took when this window opened.
    calibration_ms: f64,
}

impl Window {
    fn p50_ms(&self) -> f64 {
        percentile(&self.latencies_ms, 0.50)
    }

    /// Correct requests per second of wall time (the harness's checks
    /// included: the client sends its next request when it has checked the
    /// last).
    fn req_per_s(&self) -> f64 {
        self.latencies_ms.len() as f64 / self.wall.as_secs_f64()
    }

    fn cpu_ms_per_req(&self) -> f64 {
        self.cpu_ms / self.attempted as f64
    }
}

/// A fixed piece of engine-like work (binary searches over a sorted array
/// that fits the cache), timed once per window. It measures the machine, not
/// the program: when it drifts between two runs, so will every metric, and
/// the report says so.
struct Calibration {
    sorted: Vec<u64>,
}

impl Calibration {
    fn new() -> Calibration {
        Calibration {
            sorted: (0..1u64 << 15).map(|i| i * 7).collect(),
        }
    }

    fn run_ms(&self) -> f64 {
        let t = Instant::now();
        let mut key = 1u64;
        let mut found = 0usize;
        for _ in 0..40_000 {
            key = crate::gen::mix(key);
            found += self.sorted.partition_point(|&v| v < key % (7 << 15));
        }
        std::hint::black_box(found);
        t.elapsed().as_secs_f64() * 1e3
    }
}

/// The windows that may be a run's best: a window with fewer than half the
/// typical number of requests (a round's last, cut short, or one that opened
/// late behind a stalled request) has no say: a few fast samples are not a
/// quiet half second.
fn eligible(windows: &[Window]) -> Vec<&Window> {
    let counts: Vec<f64> = windows
        .iter()
        .map(|w| w.latencies_ms.len() as f64)
        .collect();
    let enough = (median(&counts) / 2.0).max(1.0);
    windows
        .iter()
        .filter(|w| w.latencies_ms.len() as f64 >= enough)
        .collect()
}

/// The figures of the whole run, for the notes: what the best window is
/// blind to shows here.
struct WholeRun {
    samples: usize,
    p50_ms: f64,
    p95_ms: f64,
    samples_beyond_p95: usize,
    req_per_s: f64,
    cpu_ms_per_req: f64,
}

fn whole_run(windows: &[Window]) -> WholeRun {
    let (mut all_ms, mut attempted, mut wall, mut cpu_ms) = (Vec::new(), 0, Duration::ZERO, 0.0);
    for win in windows {
        all_ms.extend_from_slice(&win.latencies_ms);
        attempted += win.attempted;
        wall += win.wall;
        cpu_ms += win.cpu_ms;
    }
    all_ms.sort_by(f64::total_cmp);
    WholeRun {
        samples: all_ms.len(),
        p50_ms: percentile(&all_ms, 0.50),
        p95_ms: percentile(&all_ms, 0.95),
        samples_beyond_p95: all_ms.len() - 1 - percentile_index(all_ms.len(), 0.95),
        req_per_s: all_ms.len() as f64 / wall.as_secs_f64(),
        cpu_ms_per_req: cpu_ms / attempted as f64,
    }
}

/// How many rounds (set-up, then a share of the measured time) a run has:
/// as many as keep the set-ups at about a tenth of the measured time, at
/// least five and at most ten; one in a smoke run. (Five, because a request's
/// speed depends on where this set-up's allocations happened to land:
/// `stream_page` read 2.5, 2.8 and 2.9 ms in the three rounds of one run.)
fn rounds_for(seconds: f64, first_setup_s: f64) -> usize {
    if seconds < 5.0 {
        1
    } else {
        ((0.1 * seconds / first_setup_s) as usize).clamp(5, 10)
    }
}

/// What the loop counted, over all rounds.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
}

/// The closed loop for one round: requests back to back for `share`, cut
/// into windows appended to `windows`. Returns the requests attempted.
fn measure(
    w: &mut dyn Workload,
    share: Duration,
    calibration: &Calibration,
    windows: &mut Vec<Window>,
    tally: &mut Tally,
) -> u64 {
    let mut tracer = Tracer::disabled();
    let window_len = Duration::from_millis(500);
    let first = windows.len();
    let mut attempted = 0;
    // When the open window was opened, and the process CPU time then.
    let mut opened = (Duration::ZERO, 0.0);
    let started = Instant::now();
    loop {
        let now = started.elapsed();
        // A request belongs to the window it starts in; a window is closed
        // (and the next one opened) by the first request to start after its
        // half second is over.
        if windows.len() == first || now >= opened.0 + window_len || now >= share {
            let cpu_now = sys::cpu_ms();
            if windows.len() > first {
                let open = windows.last_mut().expect("opened in this round");
                open.wall = now - opened.0;
                open.cpu_ms = cpu_now - opened.1;
            }
            if now >= share {
                return attempted;
            }
            windows.push(Window {
                calibration_ms: calibration.run_ms(),
                ..Window::default()
            });
            // The kernel's own time belongs to no window.
            opened = (started.elapsed(), sys::cpu_ms());
        }
        let window = windows.last_mut().expect("just pushed");
        let outcome = guarded_request(w, &mut tracer);
        attempted += 1;
        window.attempted += 1;
        tally.attempted += 1;
        match outcome.verdict {
            Ok(()) => window
                .latencies_ms
                .push(outcome.latency.as_secs_f64() * 1e3),
            Err(e) => {
                tally.failed += 1;
                tally.first_error.get_or_insert(e);
            }
        }
    }
}

pub fn timed_run(spec: &Spec, seed: u64, seconds: f64) -> Result<RunReport, String> {
    let obs = Observer::disabled();
    let calibration = Calibration::new();
    let mut setup_s: Vec<f64> = Vec::new();
    let mut windows: Vec<Window> = Vec::new();
    let mut tally = Tally::default();
    let mut finished = Ok(());
    let mut algorithm_used = String::new();
    let mut rounds = 1;
    // Every round is a complete set-up from the seed (the same instance every
    // time) and a share of the measured time on it. The instance is dropped
    // before the next is built, so peak memory is one instance's, not two.
    while setup_s.len() < rounds {
        let t = Instant::now();
        let mut w = spec.setup(seed, &obs)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if setup_s.len() == 1 {
            rounds = rounds_for(seconds, setup_s[0]);
        }
        let share = Duration::from_secs_f64(seconds / rounds as f64);
        let requests = measure(w.as_mut(), share, &calibration, &mut windows, &mut tally);
        if let Err(e) = w.finish(requests) {
            tally.first_error.get_or_insert(e.clone());
            finished = Err(e);
        }
        algorithm_used = w.algorithm_used();
    }
    let Tally {
        attempted,
        failed,
        mut first_error,
    } = tally;

    // A window in which no request succeeded holds nothing to take a
    // statistic of; its failures are counted above.
    windows.retain(|win| !win.latencies_ms.is_empty());
    if windows.is_empty() {
        return Err(format!(
            "{}: no request succeeded ({})",
            spec.name,
            first_error.take().unwrap_or_default()
        ));
    }
    for win in &mut windows {
        win.latencies_ms.sort_by(f64::total_cmp);
    }
    let candidates = eligible(&windows);
    let best_p50 = candidates
        .iter()
        .min_by(|a, b| a.p50_ms().total_cmp(&b.p50_ms()))
        .expect("the typical window is eligible");
    let whole = whole_run(&windows);

    let mut values = Values::default();
    values.set("setup_s", least(setup_s.iter().copied()));
    values.set(
        "req_per_s",
        candidates.iter().map(|w| w.req_per_s()).fold(0.0, f64::max),
    );
    values.set("req_p50_ms", best_p50.p50_ms());
    values.set(
        "cpu_ms_per_req",
        least(candidates.iter().map(|w| w.cpu_ms_per_req())),
    );
    values.set("peak_rss_mib", sys::peak_rss_mib());
    values.set("ok_share", 1.0 - failed as f64 / attempted as f64);

    let calibration_ms: Vec<f64> = windows.iter().map(|win| win.calibration_ms).collect();
    let mut notes = Notes::new();
    note(&mut notes, "fail_share", failed as f64 / attempted as f64);
    note(
        &mut notes,
        "samples",
        format!(
            "{} in the best window; {} in {} windows, {} beyond the whole run's p95",
            best_p50.latencies_ms.len(),
            whole.samples,
            windows.len(),
            whole.samples_beyond_p95
        ),
    );
    // The run's noise at a glance: one p50 per window, in order.
    let window_p50: Vec<String> = windows
        .iter()
        .map(|w| format!("{:.1}", w.p50_ms()))
        .collect();
    note(&mut notes, "window_p50_ms", window_p50.join(" "));
    let four = |value: f64| format!("{value:.4}");
    note(&mut notes, "whole_run_p50_ms", four(whole.p50_ms));
    note(&mut notes, "whole_run_p95_ms", four(whole.p95_ms));
    note(&mut notes, "whole_run_req_per_s", four(whole.req_per_s));
    note(
        &mut notes,
        "whole_run_cpu_ms_per_req",
        four(whole.cpu_ms_per_req),
    );
    note(
        &mut notes,
        "setup_rounds",
        format!("{} (median {:.4} s)", setup_s.len(), median(&setup_s)),
    );
    note(&mut notes, "calibration_ms", four(median(&calibration_ms)));
    Ok(RunReport {
        attempted,
        failed,
        correct: failed == 0 && finished.is_ok(),
        first_error,
        values,
        algorithm_used,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(latencies_ms: &[f64]) -> Window {
        Window {
            latencies_ms: latencies_ms.to_vec(),
            attempted: latencies_ms.len() as u64,
            wall: Duration::from_secs(1),
            cpu_ms: latencies_ms.iter().sum(),
            calibration_ms: 1.0,
        }
    }

    #[test]
    fn slow_and_starved_windows_are_not_the_best() {
        let windows = [
            window(&[24.0; 20]),
            window(&[10.0; 20]),
            window(&[11.0; 21]),
            // Opened late behind a stall: two fast samples are not a quiet window.
            window(&[1.0, 1.0]),
        ];
        let candidates = eligible(&windows);
        let medians: Vec<f64> = candidates.iter().map(|w| w.p50_ms()).collect();
        assert_eq!(medians, [24.0, 10.0, 11.0]);
        assert_eq!(least(candidates.iter().map(|w| w.p50_ms())), 10.0);
        let rates = candidates.iter().map(|w| w.req_per_s());
        assert_eq!(rates.fold(0.0, f64::max), 21.0);
        assert_eq!(least(candidates.iter().map(|w| w.cpu_ms_per_req())), 10.0);
        // The whole run sees everything.
        let whole = whole_run(&windows);
        assert_eq!(
            (whole.samples, whole.p50_ms, whole.p95_ms),
            (63, 11.0, 24.0)
        );
        assert_eq!(whole.samples_beyond_p95, 3);
    }

    #[test]
    fn rounds_follow_the_cost_of_a_set_up() {
        assert_eq!(rounds_for(20.0, 0.03), 10);
        assert_eq!(rounds_for(20.0, 0.3), 6);
        assert_eq!(rounds_for(20.0, 1.4), 5);
        assert_eq!(rounds_for(1.0, 0.03), 1);
    }
}
