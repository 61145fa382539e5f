//! The metrics pillar: a process-wide registry of atomic counters and
//! log₂-bucketed histograms, with Prometheus-style text exposition and a
//! JSON snapshot.
//!
//! Everything here is a plain atomic under an `RwLock`-ed name table: the
//! hot path (a registered counter add, a histogram observe) is one read
//! lock + one `fetch_add`, and call sites that record repeatedly hold the
//! returned `Arc<AtomicU64>`/`Arc<Histogram>` to skip even that. The
//! registry is deliberately *reconcilable* with the deterministic counter
//! structs of the stack (`Stats`, `PrepStats`, …): every `fdjoin_*_total`
//! counter is the exact sum of the corresponding struct fields over the
//! executions recorded into it — asserted by the root `observability`
//! integration tests.
//!
//! Histograms bucket by `⌊log₂ v⌋` (bucket 0 reserved for `v == 0`), which
//! matches how the paper's bounds are stated — exponents over the database
//! size — and keeps a full `u64` range in 66 fixed buckets with no
//! configuration.
//!
//! The **estimate-calibration** loop (the carried-over ROADMAP item) lives
//! here too: [`Registry::record_estimate_error`] takes the signed error
//! `estimate_log_max − log₂(observed work)` of one execution and maintains
//! (a) an absolute-error histogram, (b) over/under-estimate counters, and
//! (c) a running mean queryable as [`Registry::estimate_calibration_log2`]
//! — a fleet whose calibration sits at `+2.0` knows its admission caps are
//! paying for four-fold pessimism.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Number of histogram buckets: one for zero plus one per possible
/// `⌊log₂ v⌋` of a non-zero `u64` (0..=63), plus a terminal bucket that
/// exists only so `bucket_upper_bound` can render `+Inf` uniformly.
pub const HISTOGRAM_BUCKETS: usize = 66;

/// A fixed-shape log₂ histogram. Bucket `0` counts observations equal to
/// zero; bucket `1 + ⌊log₂ v⌋` counts `v > 0`. Observation is one
/// `fetch_add` per atomic — safe to share across the pool.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            1 + (63 - v.leading_zeros() as usize)
        }
    }

    /// The inclusive upper bound of bucket `i`, as Prometheus renders it
    /// (`le="..."`); the last bucket is unbounded.
    pub(crate) fn bucket_upper_bound(i: usize) -> Option<u64> {
        match i {
            0 => Some(0),
            _ if i < HISTOGRAM_BUCKETS - 1 => {
                Some(if i >= 64 { u64::MAX } else { (1u64 << i) - 1 })
            }
            _ => None, // +Inf
        }
    }

    /// Record one observation.
    pub fn observe(&self, v: u64) {
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations so far.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket counts (not cumulative).
    pub fn buckets(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }
}

/// A metric identity: name plus a rendered label set (`""` or
/// `key="value",…`). Labels are pre-rendered at registration; lookups are
/// exact string matches, keeping the registry free of any label algebra.
type MetricKey = (String, String);

/// The process-wide (per-[`Observer`](crate::Observer)) metrics store.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<MetricKey, Arc<AtomicU64>>>,
    /// Last-write-wins level metrics (e.g. `fdjoin_index_resident_bytes`,
    /// the byte-accounted index-cache residency) — same atomic storage as
    /// counters, but set rather than added, and rendered as `gauge`.
    gauges: RwLock<BTreeMap<MetricKey, Arc<AtomicU64>>>,
    histograms: RwLock<BTreeMap<MetricKey, Arc<Histogram>>>,
    /// Running sum of signed estimate errors, in milli-log₂ (an `f64`
    /// error ±e becomes `(e * 1000) as i64`; atomics keep the loop
    /// lock-free at the cost of micro-log₂ truncation).
    calib_sum_milli: AtomicI64,
    calib_count: AtomicU64,
}

/// Render a label set into its stable exposition form.
fn render_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::new();
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        // Prometheus label values escape backslash, quote, newline.
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter named `name{labels}`, created at zero on first use.
    /// Hold the returned handle across calls on hot paths.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<AtomicU64> {
        let key = (name.to_string(), render_labels(labels));
        if let Some(c) = self.counters.read().unwrap().get(&key) {
            return Arc::clone(c);
        }
        let mut w = self.counters.write().unwrap();
        Arc::clone(w.entry(key).or_default())
    }

    /// Add `v` to the counter named `name{labels}`.
    pub fn add(&self, name: &str, labels: &[(&str, &str)], v: u64) {
        self.counter(name, labels).fetch_add(v, Ordering::Relaxed);
    }

    /// The gauge named `name{labels}`, created at zero on first use.
    /// Hold the returned handle across calls on hot paths.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<AtomicU64> {
        let key = (name.to_string(), render_labels(labels));
        if let Some(g) = self.gauges.read().unwrap().get(&key) {
            return Arc::clone(g);
        }
        let mut w = self.gauges.write().unwrap();
        Arc::clone(w.entry(key).or_default())
    }

    /// Set the gauge named `name{labels}` to `v` (last write wins).
    pub fn set_gauge(&self, name: &str, labels: &[(&str, &str)], v: u64) {
        self.gauge(name, labels).store(v, Ordering::Relaxed);
    }

    /// The histogram named `name{labels}`, created empty on first use.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let key = (name.to_string(), render_labels(labels));
        if let Some(h) = self.histograms.read().unwrap().get(&key) {
            return Arc::clone(h);
        }
        let mut w = self.histograms.write().unwrap();
        Arc::clone(w.entry(key).or_default())
    }

    /// Record one observation into the histogram named `name{labels}`.
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], v: u64) {
        self.histogram(name, labels).observe(v);
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        let key = (name.to_string(), render_labels(labels));
        self.counters
            .read()
            .unwrap()
            .get(&key)
            .map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Record one execution's signed estimate error
    /// `estimate_log_max − log₂(observed work)` into the calibration loop:
    /// the absolute-error histogram `fdjoin_estimate_abs_error_millilog2`,
    /// the `fdjoin_estimate_{over,under}_total` counters, and the running
    /// mean behind [`Registry::estimate_calibration_log2`].
    pub fn record_estimate_error(&self, error_log2: f64) {
        let milli = (error_log2 * 1000.0) as i64;
        self.calib_sum_milli.fetch_add(milli, Ordering::Relaxed);
        self.calib_count.fetch_add(1, Ordering::Relaxed);
        self.observe(
            "fdjoin_estimate_abs_error_millilog2",
            &[],
            milli.unsigned_abs(),
        );
        if error_log2 >= 0.0 {
            self.add("fdjoin_estimate_over_total", &[], 1);
        } else {
            self.add("fdjoin_estimate_under_total", &[], 1);
        }
    }

    /// The running calibration factor: mean signed estimate error in
    /// `log₂`, over every execution recorded so far. Positive means the
    /// estimate over-predicts observed work by that many doublings on
    /// average; `None` before any execution.
    pub fn estimate_calibration_log2(&self) -> Option<f64> {
        let n = self.calib_count.load(Ordering::Relaxed);
        if n == 0 {
            return None;
        }
        Some(self.calib_sum_milli.load(Ordering::Relaxed) as f64 / 1000.0 / n as f64)
    }

    /// Prometheus text exposition (version 0.0.4 line format): `# TYPE`
    /// headers, counters as `name{labels} value`, histograms as cumulative
    /// `_bucket{le=…}` series plus `_sum`/`_count`. Deterministically
    /// ordered (BTreeMap iteration), so goldens and the CI checker can
    /// diff it.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let counters = self.counters.read().unwrap();
        let mut last_name = "";
        for ((name, labels), v) in counters.iter() {
            if name != last_name {
                out.push_str(&format!("# TYPE {name} counter\n"));
                last_name = name;
            }
            let v = v.load(Ordering::Relaxed);
            if labels.is_empty() {
                out.push_str(&format!("{name} {v}\n"));
            } else {
                out.push_str(&format!("{name}{{{labels}}} {v}\n"));
            }
        }
        let gauges = self.gauges.read().unwrap();
        let mut last_name = "";
        for ((name, labels), v) in gauges.iter() {
            if name != last_name {
                out.push_str(&format!("# TYPE {name} gauge\n"));
                last_name = name;
            }
            let v = v.load(Ordering::Relaxed);
            if labels.is_empty() {
                out.push_str(&format!("{name} {v}\n"));
            } else {
                out.push_str(&format!("{name}{{{labels}}} {v}\n"));
            }
        }
        if let Some(calib) = self.estimate_calibration_log2() {
            out.push_str("# TYPE fdjoin_estimate_calibration_log2 gauge\n");
            out.push_str(&format!("fdjoin_estimate_calibration_log2 {calib}\n"));
        }
        let histograms = self.histograms.read().unwrap();
        for ((name, labels), h) in histograms.iter() {
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let sep = if labels.is_empty() { "" } else { "," };
            let mut cumulative = 0u64;
            for (i, count) in h.buckets().iter().enumerate() {
                cumulative += count;
                // Skip interior empty buckets; always emit +Inf.
                let le = Histogram::bucket_upper_bound(i);
                if *count == 0 && le.is_some() {
                    continue;
                }
                let le = le.map_or("+Inf".to_string(), |b| b.to_string());
                out.push_str(&format!(
                    "{name}_bucket{{{labels}{sep}le=\"{le}\"}} {cumulative}\n"
                ));
            }
            out.push_str(&format!(
                "{name}_sum{} {}\n",
                if labels.is_empty() {
                    String::new()
                } else {
                    format!("{{{labels}}}")
                },
                h.sum()
            ));
            out.push_str(&format!(
                "{name}_count{} {}\n",
                if labels.is_empty() {
                    String::new()
                } else {
                    format!("{{{labels}}}")
                },
                h.count()
            ));
        }
        out
    }

    /// A point-in-time JSON snapshot: `{"counters": {...}, "gauges":
    /// {...}, "histograms": {...}, "estimate_calibration_log2": ...}`.
    /// Hand-rolled (no serde); keys are `name{labels}` strings.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        let counters = self.counters.read().unwrap();
        for (i, ((name, labels), v)) in counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let key = if labels.is_empty() {
                name.clone()
            } else {
                format!("{name}{{{labels}}}")
            };
            out.push('"');
            out.push_str(&crate::export::json_escape(&key));
            out.push_str("\":");
            out.push_str(&v.load(Ordering::Relaxed).to_string());
        }
        out.push_str("},\"gauges\":{");
        let gauges = self.gauges.read().unwrap();
        for (i, ((name, labels), v)) in gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let key = if labels.is_empty() {
                name.clone()
            } else {
                format!("{name}{{{labels}}}")
            };
            out.push('"');
            out.push_str(&crate::export::json_escape(&key));
            out.push_str("\":");
            out.push_str(&v.load(Ordering::Relaxed).to_string());
        }
        out.push_str("},\"histograms\":{");
        let histograms = self.histograms.read().unwrap();
        for (i, ((name, labels), h)) in histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let key = if labels.is_empty() {
                name.clone()
            } else {
                format!("{name}{{{labels}}}")
            };
            out.push('"');
            out.push_str(&crate::export::json_escape(&key));
            out.push_str("\":{\"count\":");
            out.push_str(&h.count().to_string());
            out.push_str(",\"sum\":");
            out.push_str(&h.sum().to_string());
            out.push_str(",\"buckets\":[");
            let mut first = true;
            for (b, count) in h.buckets().iter().enumerate() {
                if *count == 0 {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                let le = Histogram::bucket_upper_bound(b)
                    .map_or("\"+Inf\"".to_string(), |v| format!("\"{v}\""));
                out.push_str(&format!("{{\"le\":{le},\"count\":{count}}}"));
            }
            out.push_str("]}");
        }
        out.push_str("},\"estimate_calibration_log2\":");
        match self.estimate_calibration_log2() {
            Some(c) => out.push_str(&format!("{c}")),
            None => out.push_str("null"),
        }
        out.push('}');
        out
    }
}

/// The registry a *disabled* [`Observer`](crate::Observer) hands out: one
/// static sink shared by all of them. Nothing in the stack records into it
/// (every emit site branches on `is_enabled` first), so it stays empty; it
/// exists so `Observer::metrics` needs no `Option` in its signature.
pub(crate) fn detached_registry() -> Arc<Registry> {
    static DETACHED: OnceLock<Arc<Registry>> = OnceLock::new();
    Arc::clone(DETACHED.get_or_init(|| Arc::new(Registry::new())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_bucketing() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(1024), 11);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        // Bounds are inclusive: bucket 2 holds {2,3} => le = 3.
        assert_eq!(Histogram::bucket_upper_bound(0), Some(0));
        assert_eq!(Histogram::bucket_upper_bound(2), Some(3));
        assert_eq!(Histogram::bucket_upper_bound(HISTOGRAM_BUCKETS - 1), None);
    }

    #[test]
    fn counters_and_histograms_round_trip() {
        let r = Registry::new();
        r.add("fdjoin_probes_total", &[], 7);
        r.add("fdjoin_probes_total", &[], 3);
        assert_eq!(r.counter_value("fdjoin_probes_total", &[]), 10);
        r.add("fdjoin_executions_total", &[("algorithm", "csma")], 2);
        assert_eq!(
            r.counter_value("fdjoin_executions_total", &[("algorithm", "csma")]),
            2
        );
        assert_eq!(r.counter_value("fdjoin_executions_total", &[]), 0);
        r.observe("fdjoin_work", &[], 5);
        r.observe("fdjoin_work", &[], 0);
        let h = r.histogram("fdjoin_work", &[]);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 5);
    }

    #[test]
    fn gauges_are_last_write_wins() {
        let r = Registry::new();
        assert!(!r.to_prometheus().contains("fdjoin_index_resident_bytes"));
        r.set_gauge("fdjoin_index_resident_bytes", &[], 4096);
        r.set_gauge("fdjoin_index_resident_bytes", &[], 1024);
        let text = r.to_prometheus();
        assert!(text.contains("# TYPE fdjoin_index_resident_bytes gauge\n"));
        assert!(text.contains("fdjoin_index_resident_bytes 1024\n"));
        crate::export::validate_prometheus(&text).expect("gauge exposition validates");
        let json = r.to_json();
        crate::export::validate_json(&json).expect("gauge snapshot is valid JSON");
        assert!(json.contains("\"gauges\":{\"fdjoin_index_resident_bytes\":1024}"));
    }

    #[test]
    fn calibration_runs_a_mean() {
        let r = Registry::new();
        assert_eq!(r.estimate_calibration_log2(), None);
        r.record_estimate_error(2.0);
        r.record_estimate_error(1.0);
        r.record_estimate_error(-1.0);
        let calib = r.estimate_calibration_log2().unwrap();
        assert!((calib - 2.0 / 3.0).abs() < 1e-3, "calib = {calib}");
        assert_eq!(r.counter_value("fdjoin_estimate_over_total", &[]), 2);
        assert_eq!(r.counter_value("fdjoin_estimate_under_total", &[]), 1);
    }

    #[test]
    fn prometheus_exposition_shape() {
        let r = Registry::new();
        r.add("fdjoin_prepares_total", &[], 1);
        r.observe("fdjoin_work", &[], 6);
        r.record_estimate_error(0.5);
        let text = r.to_prometheus();
        assert!(text.contains("# TYPE fdjoin_prepares_total counter\n"));
        assert!(text.contains("fdjoin_prepares_total 1\n"));
        assert!(text.contains("# TYPE fdjoin_work histogram\n"));
        // 6 lands in bucket ⌊log2 6⌋+1 = 3, le = 7.
        assert!(text.contains("fdjoin_work_bucket{le=\"7\"} 1\n"));
        assert!(text.contains("fdjoin_work_bucket{le=\"+Inf\"} 1\n"));
        assert!(text.contains("fdjoin_work_sum 6\n"));
        assert!(text.contains("fdjoin_work_count 1\n"));
        assert!(text.contains("fdjoin_estimate_calibration_log2 0.5\n"));
        crate::export::validate_prometheus(&text).expect("own exposition validates");
    }

    #[test]
    fn json_snapshot_parses() {
        let r = Registry::new();
        r.add("fdjoin_prepares_total", &[], 2);
        r.observe("fdjoin_work", &[("algorithm", "sma")], 9);
        let json = r.to_json();
        crate::export::validate_json(&json).expect("snapshot is valid JSON");
        assert!(json.contains("\"fdjoin_prepares_total\":2"));
    }
}
