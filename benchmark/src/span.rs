//! The harness's own in-memory spans: one per call into a layer's public
//! function, recorded around the call from outside the engine and written
//! out when the pass ends. Disabled (timed runs), `enter`/`exit` are one
//! branch each.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct SpanRec {
    pub id: usize,
    pub parent: Option<usize>,
    /// Spans of one request share this identifier.
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    request: u64,
    stack: Vec<usize>,
    spans: Vec<SpanRec>,
}

/// Handle returned by [`Tracer::enter`]; `None` when tracing is off.
#[derive(Clone, Copy)]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled,
            request: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn disabled() -> Tracer {
        Tracer::new(false)
    }

    /// Open a span under the innermost open one. A span opened with an
    /// empty stack is a request root and starts a new request id.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let parent = self.stack.last().copied();
        if parent.is_none() {
            self.request += 1;
        }
        let id = self.spans.len();
        self.spans.push(SpanRec {
            id,
            parent,
            request: self.request,
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let now = self.epoch.elapsed().as_nanos() as u64;
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id].end_ns = now;
    }

    pub fn take_spans(&mut self) -> Vec<SpanRec> {
        assert!(self.stack.is_empty(), "open spans at drain");
        std::mem::take(&mut self.spans)
    }
}

/// Self time of every span: its duration minus the part of that interval its
/// direct children cover. Children of one parent are sequential here (one
/// client thread records them), so covering is a plain sum.
pub fn self_times_ns(spans: &[SpanRec]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(&child_ns)
        .map(|(s, &c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// Total self time per span name, and the total of the root spans. By
/// construction the self times sum to the roots' durations; the pass asserts
/// it (within rounding) before reporting shares.
pub fn self_time_by_name(spans: &[SpanRec]) -> (BTreeMap<&'static str, u64>, u64) {
    let selfs = self_times_ns(spans);
    let mut by_name = BTreeMap::new();
    let mut roots = 0;
    for (s, own) in spans.iter().zip(selfs) {
        *by_name.entry(s.name).or_insert(0) += own;
        if s.parent.is_none() {
            roots += s.duration_ns();
        }
    }
    (by_name, roots)
}

/// One JSON object per line: name, start, end, parent, request id, self time.
pub fn to_jsonl(spans: &[SpanRec]) -> String {
    let selfs = self_times_ns(spans);
    let mut out = String::new();
    for (s, own) in spans.iter().zip(selfs) {
        let line = Json::obj([
            ("id", Json::Num(s.id as f64)),
            (
                "parent",
                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
            ),
            ("request", Json::Num(s.request as f64)),
            ("name", Json::str(s.name)),
            ("start_ns", Json::Num(s.start_ns as f64)),
            ("end_ns", Json::Num(s.end_ns as f64)),
            ("self_ns", Json::Num(own as f64)),
        ]);
        out.push_str(&line.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: usize, parent: Option<usize>, start: u64, end: u64, name: &'static str) -> SpanRec {
        SpanRec {
            id,
            parent,
            request: 1,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            rec(0, None, 0, 100, "request"),
            rec(1, Some(0), 10, 40, "a"),
            rec(2, Some(1), 15, 25, "b"),
            rec(3, Some(0), 50, 90, "a"),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
        let (by_name, roots) = self_time_by_name(&spans);
        assert_eq!(roots, 100);
        assert_eq!(by_name["a"], 60);
        assert_eq!(by_name.values().sum::<u64>(), roots);
    }

    #[test]
    fn tracer_links_parents_and_requests() {
        let mut t = Tracer::new(true);
        for _ in 0..2 {
            let root = t.enter("request");
            let child = t.enter("layer");
            t.exit(child);
            t.exit(root);
        }
        let spans = t.take_spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!((spans[0].request, spans[2].request), (1, 2));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let (by_name, roots) = self_time_by_name(&spans);
        assert_eq!(by_name.values().sum::<u64>(), roots);
        // Every line of the export is one JSON object with the span fields.
        let jsonl = to_jsonl(&spans);
        assert_eq!(jsonl.lines().count(), 4);
        for line in jsonl.lines() {
            let v = Json::parse(line).unwrap();
            for key in ["name", "start_ns", "end_ns", "parent", "request", "self_ns"] {
                assert!(v.get(key).is_some(), "{key} missing in {line}");
            }
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        let open = t.enter("request");
        t.exit(open);
        assert!(t.take_spans().is_empty());
    }
}
