//! What the harness reads from the operating system: process CPU time and
//! peak memory for the metrics, and the environment block of the report.

use crate::json::Json;
use std::process::Command;

/// Kernel clock ticks per second for `/proc/self/stat` times. `USER_HZ` is
/// 100 on every Linux ABI; reading it properly needs `sysconf`, i.e. libc.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU time of this process (all threads, including ones that
/// already exited) in milliseconds. Resolution is one tick (10 ms), so only
/// differences over a whole measured phase are meaningful.
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Field 2 (comm) may contain spaces; fields are counted after its ')'.
    let after_comm = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
    let mut fields = after_comm.split_whitespace();
    // After comm come state(3) … utime(14) stime(15).
    let utime: f64 = fields.nth(11).and_then(|f| f.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    (utime + stime) * 1000.0 / TICKS_PER_SECOND
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:") / 1024.0
}

fn status_kib(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// One-minute load average.
pub fn load1() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// A run that starts on a box already this busy is marked noisy.
pub fn noisy_load_threshold() -> f64 {
    0.5 * nproc() as f64
}

/// The environment block recorded once per report. `git` answers "unknown"
/// in an exported checkout that is not a repository.
pub fn environment(seed: u64, load_start: f64) -> Json {
    let repo = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    Json::obj([
        (
            "git_commit",
            Json::str(command_line("git", &["-C", repo, "rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        ("cpu_model", Json::str(cpu_model())),
        ("nproc", Json::Num(nproc() as f64)),
        ("seed", Json::Num(seed as f64)),
        ("load1_start", Json::Num(load_start)),
        ("noisy", Json::Bool(load_start > noisy_load_threshold())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        // Burn a little CPU so utime is non-zero on a fresh test process.
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 30 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_ms() >= 10.0, "cpu_ms = {}", cpu_ms());
        assert!(peak_rss_mib() > 0.5);
        assert!(load1() >= 0.0);
        assert!(nproc() >= 1);
    }
}
