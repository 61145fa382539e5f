//! The span recorder: lock-cheap structured tracing.
//!
//! Design constraints, in order:
//!
//! 1. **Near-zero cost when disabled.** A disabled [`Observer`] is an
//!    `Option::None`; every entry point is one branch on it. No atomics,
//!    no thread-locals, no allocation.
//! 2. **Lock-cheap when enabled.** Span ids come from one atomic; a
//!    finished span takes the central bounded ring's mutex once, to push
//!    itself. A request emits 1–81 spans, so batching them per thread
//!    would save little.
//! 3. **Coherent trees across threads.** Parentage is inferred from a
//!    per-thread stack of open spans, and can be overridden explicitly
//!    ([`Observer::span_with_parent`]) when a child starts on a different
//!    thread than its parent — how `fdjoin_exec` links the per-database
//!    jobs of one `Executor::submit` into a single tree across the
//!    pool's worker threads.
//!
//! A [`Span`] is an RAII guard: it records its start eagerly and its
//! duration, fields, and parent link when dropped (or explicitly
//! [`Span::finish`]ed). Guards may be moved across threads and closed
//! there; the record enters the ring from whichever thread closes it.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The well-known span taxonomy of the fdjoin serving stack (see
/// `ARCHITECTURE.md` § Observability for where each is emitted).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// One `Engine::prepare`: lattice presentation + fingerprint.
    Prepare,
    /// One trie-index build in the shared access-path layer (cache
    /// misses only; hits emit no span). Keyed by relation/order/version
    /// fields.
    IndexBuild,
    /// One algorithm execution (`PreparedQuery::execute`), carrying the
    /// resolved algorithm and — under `Algorithm::Auto` — the decision.
    Solve,
    /// One sub-range block of a parallel solve, explicitly parented to its
    /// `Solve` span (the block runs on its own scoped thread).
    SolvePart,
    /// One `ResultStream` descent step that delivered (or failed to
    /// deliver) the next row.
    StreamAdvance,
    /// A `ResultStream` suspending itself after delivering a row (an
    /// instant span: the pause itself costs nothing).
    StreamPause,
    /// One `MaterializedView::apply_delta` batch absorption.
    DeltaApply,
    /// One per-database job of an `Executor::submit` batch.
    Batch,
    /// One `Executor::submit`/`submit_stream` root.
    Submit,
    /// A caller-defined grouping span (e.g. one request serving several
    /// prepares/submits as one tree).
    Request,
}

impl SpanKind {
    /// The snake_case wire name (stable; used in JSON-lines exports).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Prepare => "prepare",
            SpanKind::IndexBuild => "index_build",
            SpanKind::Solve => "solve",
            SpanKind::SolvePart => "solve_part",
            SpanKind::StreamAdvance => "stream_advance",
            SpanKind::StreamPause => "stream_pause",
            SpanKind::DeltaApply => "delta_apply",
            SpanKind::Batch => "batch",
            SpanKind::Submit => "submit",
            SpanKind::Request => "request",
        }
    }
}

impl std::fmt::Display for SpanKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A typed span field value.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    /// Unsigned counter/size.
    U64(u64),
    /// Real-valued quantity (e.g. a log₂ bound).
    F64(f64),
    /// Free-form text (escaped on JSON export).
    Str(String),
    /// Boolean flag.
    Bool(bool),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> FieldValue {
        FieldValue::U64(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> FieldValue {
        FieldValue::U64(v as u64)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> FieldValue {
        FieldValue::F64(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> FieldValue {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> FieldValue {
        FieldValue::Str(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> FieldValue {
        FieldValue::Bool(v)
    }
}

impl std::fmt::Display for FieldValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v:.3}"),
            FieldValue::Str(v) => f.write_str(v),
            FieldValue::Bool(v) => write!(f, "{v}"),
        }
    }
}

/// One finished span, as plain data.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Process-unique (per observer) span id, from one atomic counter.
    pub id: u64,
    /// Parent span id: inferred from the opening thread's span stack, or
    /// set explicitly for cross-thread children. `None` for roots.
    pub parent: Option<u64>,
    /// Taxonomy kind.
    pub kind: SpanKind,
    /// Human label (relation name, query body, `db=3`, …).
    pub label: String,
    /// Start, in nanoseconds since the observer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the observer's epoch (`>= start_ns`).
    pub end_ns: u64,
    /// Opening thread, as an opaque id (distinguishes pool workers).
    pub thread: u64,
    /// Typed key/value annotations.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl SpanRecord {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Look up a field by key.
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

/// Capacity of the central span ring. When full, the *oldest* spans are
/// dropped (counted in [`Observer::dropped_spans`]); tracing keeps the
/// recent past, like a flight recorder.
const MAX_SPANS: usize = 65_536;

/// Monotonic source of observer identities (thread-local span stacks are
/// keyed by them so two observers never mix their parents).
static OBSERVER_IDS: AtomicU64 = AtomicU64::new(1);
/// Monotonic source of opaque thread ids.
static THREAD_IDS: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's opaque id (stable for the thread's lifetime).
    static THREAD_ID: u64 = THREAD_IDS.fetch_add(1, Ordering::Relaxed);
    /// Per-observer state on this thread: the open-span stack (for parent
    /// inference). A plain Vec keyed by observer id — sessions hold very
    /// few observers.
    static TLS: RefCell<Vec<ThreadState>> = const { RefCell::new(Vec::new()) };
}

struct ThreadState {
    observer: u64,
    stack: Vec<u64>,
}

fn with_thread_state<R>(observer: u64, f: impl FnOnce(&mut ThreadState) -> R) -> R {
    TLS.with(|tls| {
        let mut v = tls.borrow_mut();
        if let Some(i) = v.iter().position(|s| s.observer == observer) {
            return f(&mut v[i]);
        }
        v.push(ThreadState {
            observer,
            stack: Vec::new(),
        });
        let last = v.len() - 1;
        f(&mut v[last])
    })
}

#[derive(Debug)]
struct Ring {
    spans: VecDeque<SpanRecord>,
    dropped: u64,
}

/// The enabled recorder state behind an [`Observer`].
#[derive(Debug)]
pub(crate) struct ObsCore {
    id: u64,
    epoch: Instant,
    next_span: AtomicU64,
    ring: Mutex<Ring>,
    max_spans: usize,
}

impl ObsCore {
    fn now_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn record(&self, rec: SpanRecord) {
        let mut ring = self.ring.lock().expect("span ring lock poisoned");
        if ring.spans.len() >= self.max_spans {
            ring.spans.pop_front();
            ring.dropped += 1;
        }
        ring.spans.push_back(rec);
    }
}

/// The one handle every layer emits through.
///
/// Cloning is cheap (an `Option<Arc>`); clones share the same span ring.
/// The default handle is **disabled**: every recording entry point is a
/// single branch, so leaving observability off costs nothing measurable.
/// The benchmark spine's `obs.enabled_overhead_pct` prices the same
/// requests with an enabled handle against a disabled one.
#[derive(Clone, Debug, Default)]
pub struct Observer {
    core: Option<Arc<ObsCore>>,
}

impl Observer {
    /// The no-op handle (what `Engine`s and `Executor`s carry by
    /// default).
    pub fn disabled() -> Observer {
        Observer { core: None }
    }

    /// An enabled recorder with its own span ring of `max_spans`.
    fn with_limits(max_spans: usize) -> Observer {
        Observer {
            core: Some(Arc::new(ObsCore {
                id: OBSERVER_IDS.fetch_add(1, Ordering::Relaxed),
                epoch: Instant::now(),
                next_span: AtomicU64::new(1),
                ring: Mutex::new(Ring {
                    spans: VecDeque::new(),
                    dropped: 0,
                }),
                max_spans,
            })),
        }
    }

    /// An enabled recorder.
    pub fn enabled() -> Observer {
        Observer::with_limits(MAX_SPANS)
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// Open a span whose parent is the innermost span currently open on
    /// *this thread* (or a root if none).
    pub fn span(&self, kind: SpanKind, label: impl Into<String>) -> Span {
        self.span_at(kind, label, None, Instant::now())
    }

    /// Open a span with an explicit parent — the cross-thread link: a pool
    /// job opened on a worker adopts the submitting thread's span id.
    /// `parent: None` forces a root.
    pub fn span_with_parent(
        &self,
        kind: SpanKind,
        label: impl Into<String>,
        parent: Option<u64>,
    ) -> Span {
        let Some(_) = &self.core else {
            return Span(None);
        };
        self.open(kind, label.into(), Some(parent), Instant::now())
    }

    /// Open a span that retroactively started at `start` (how index-build
    /// spans are emitted only for actual builds: probe first, time it,
    /// record the span only on the build path).
    pub fn span_started_at(
        &self,
        kind: SpanKind,
        label: impl Into<String>,
        start: Instant,
    ) -> Span {
        self.span_at(kind, label, None, start)
    }

    /// Open a span that infers its parent from this thread's stack but is
    /// **not** pushed onto it — for guards that migrate threads before
    /// closing (e.g. a `submit` span created on the submitting thread and
    /// finished by the pool worker or in `wait()`). A stack-registered
    /// guard closing elsewhere would leave a stale id on the origin
    /// thread's stack, mis-parenting every later span there; a detached
    /// guard can close anywhere. Children on other threads adopt it via
    /// [`Observer::span_with_parent`] with [`Span::id`].
    pub fn span_detached(&self, kind: SpanKind, label: impl Into<String>) -> Span {
        let Some(core) = &self.core else {
            return Span(None);
        };
        let id = core.next_span.fetch_add(1, Ordering::Relaxed);
        let parent = with_thread_state(core.id, |t| t.stack.last().copied());
        Span(Some(SpanData {
            core: Arc::clone(core),
            id,
            parent,
            kind,
            label: label.into(),
            start: Instant::now(),
            fields: Vec::new(),
        }))
    }

    fn span_at(
        &self,
        kind: SpanKind,
        label: impl Into<String>,
        parent: Option<Option<u64>>,
        start: Instant,
    ) -> Span {
        if self.core.is_none() {
            return Span(None);
        }
        self.open(kind, label.into(), parent, start)
    }

    fn open(
        &self,
        kind: SpanKind,
        label: String,
        parent: Option<Option<u64>>,
        start: Instant,
    ) -> Span {
        let core = self.core.as_ref().expect("checked by callers");
        let id = core.next_span.fetch_add(1, Ordering::Relaxed);
        let parent = match parent {
            Some(explicit) => {
                // Explicit parents still join this thread's stack so
                // grandchildren opened here nest under them.
                with_thread_state(core.id, |t| t.stack.push(id));
                explicit
            }
            None => with_thread_state(core.id, |t| {
                let p = t.stack.last().copied();
                t.stack.push(id);
                p
            }),
        };
        Span(Some(SpanData {
            core: Arc::clone(core),
            id,
            parent,
            kind,
            label,
            start,
            fields: Vec::new(),
        }))
    }

    /// The id of the innermost span open on this thread, for handing to
    /// [`Observer::span_with_parent`] on another thread.
    pub fn current_span(&self) -> Option<u64> {
        let core = self.core.as_ref()?;
        with_thread_state(core.id, |t| t.stack.last().copied())
    }

    /// Drain every span finished so far, on any thread.
    ///
    /// Records come back in no particular global order; the exporters
    /// ([`crate::export_jsonl`], [`crate::render_text_tree`]) sort.
    pub fn drain_spans(&self) -> Vec<SpanRecord> {
        let Some(core) = &self.core else {
            return Vec::new();
        };
        let mut ring = core.ring.lock().expect("span ring lock poisoned");
        ring.spans.drain(..).collect()
    }

    /// Spans evicted from the bounded ring since creation.
    pub fn dropped_spans(&self) -> u64 {
        match &self.core {
            Some(core) => core.ring.lock().expect("span ring lock poisoned").dropped,
            None => 0,
        }
    }
}

/// An open span (RAII). Dropping records it; [`Span::finish`] is an
/// explicit, self-documenting drop. On a disabled [`Observer`] every
/// method is a no-op on a `None`.
#[derive(Debug)]
pub struct Span(Option<SpanData>);

#[derive(Debug)]
struct SpanData {
    core: Arc<ObsCore>,
    id: u64,
    parent: Option<u64>,
    kind: SpanKind,
    label: String,
    start: Instant,
    fields: Vec<(&'static str, FieldValue)>,
}

impl Span {
    /// This span's id, for explicit cross-thread parenting. `None` on a
    /// disabled observer.
    pub fn id(&self) -> Option<u64> {
        self.0.as_ref().map(|d| d.id)
    }

    /// Attach a typed field (last write wins is *not* implemented — fields
    /// append, exporters show all).
    pub fn field(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if let Some(d) = &mut self.0 {
            d.fields.push((key, value.into()));
        }
    }

    /// Close the span now (identical to dropping it).
    pub fn finish(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(d) = self.0.take() else { return };
        let end = Instant::now();
        let rec = SpanRecord {
            id: d.id,
            parent: d.parent,
            kind: d.kind,
            label: d.label,
            start_ns: d.core.now_ns(d.start),
            end_ns: d.core.now_ns(end),
            thread: THREAD_ID.with(|t| *t),
            fields: d.fields,
        };
        with_thread_state(d.core.id, |t| {
            // The guard may close on a different thread than it opened on
            // (e.g. a Submit span finishing in `BatchHandle::wait`): the
            // id is then absent from this stack, which is fine.
            if let Some(i) = t.stack.iter().rposition(|&id| id == rec.id) {
                t.stack.remove(i);
            }
        });
        d.core.record(rec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_observer_records_nothing() {
        let obs = Observer::disabled();
        let mut s = obs.span(SpanKind::Solve, "x");
        s.field("k", 1u64);
        assert_eq!(s.id(), None);
        drop(s);
        assert!(obs.drain_spans().is_empty());
        assert!(!obs.is_enabled());
    }

    #[test]
    fn nesting_infers_parents_and_orders_closes() {
        let obs = Observer::enabled();
        {
            let root = obs.span(SpanKind::Request, "r");
            let root_id = root.id().unwrap();
            {
                let child = obs.span(SpanKind::Solve, "c");
                assert_eq!(obs.current_span(), child.id());
                let _grand = obs.span(SpanKind::IndexBuild, "g");
            }
            assert_eq!(obs.current_span(), Some(root_id));
        }
        let spans = obs.drain_spans();
        assert_eq!(spans.len(), 3);
        let by_kind = |k: SpanKind| spans.iter().find(|s| s.kind == k).unwrap();
        let root = by_kind(SpanKind::Request);
        let child = by_kind(SpanKind::Solve);
        let grand = by_kind(SpanKind::IndexBuild);
        assert_eq!(root.parent, None);
        assert_eq!(child.parent, Some(root.id));
        assert_eq!(grand.parent, Some(child.id));
        // Parents close after their children.
        assert!(root.end_ns >= child.end_ns);
        assert!(child.end_ns >= grand.end_ns);
        // Ids unique.
        let mut ids: Vec<u64> = spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 3);
    }

    #[test]
    fn cross_thread_parenting_via_explicit_ids() {
        let obs = Observer::enabled();
        let root = obs.span(SpanKind::Submit, "submit");
        let root_id = root.id();
        let obs2 = obs.clone();
        std::thread::spawn(move || {
            let _child = obs2.span_with_parent(SpanKind::Batch, "db=0", root_id);
        })
        .join()
        .unwrap();
        root.finish();
        let spans = obs.drain_spans();
        assert_eq!(spans.len(), 2);
        let child = spans.iter().find(|s| s.kind == SpanKind::Batch).unwrap();
        assert_eq!(child.parent, root_id);
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let obs = Observer::with_limits(4);
        for i in 0..10 {
            obs.span(SpanKind::Solve, format!("s{i}")).finish();
        }
        let spans = obs.drain_spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(obs.dropped_spans(), 6);
        // The *recent* past survives.
        assert_eq!(spans.last().unwrap().label, "s9");
    }
}
