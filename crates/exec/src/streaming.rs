//! Streaming service: budgeted, cancellable result delivery over
//! `fdjoin_stream` cursors, plus estimate-driven admission control.
//!
//! A materializing batch job either finishes or fails; a *stream* job can
//! also be **abandoned** — the [`StreamBudget`] caps (wall-clock deadline,
//! row count) stop the enumeration between rows, and because
//! a [`ResultStream`] suspends as plain data over the engine-wide trie
//! cache, abandoning it discards *nothing that was expensive*: the
//! prepared query's plans and every trie index built so far stay cached
//! for the next cursor (observable via
//! [`PrepStats`](fdjoin_core::PrepStats) windows — `index_builds` stays
//! flat while `stream_cursors` grows).
//!
//! Admission happens *before* work: [`StreamBudget::admit_below`] (and
//! [`Admission`] for materializing batches) compares the data-dependent
//! branch estimate [`PreparedQuery::estimate`] against a `log₂` cap and
//! rejects over-budget executions with [`JoinError::Budget`] — carrying
//! both sides of the comparison — without opening a cursor or touching the
//! pool.

use crate::batch::Executor;
use crate::pool::JobHandle;
use fdjoin_bigint::Rational;
use fdjoin_core::{JoinError, PreparedQuery, Stats};
use fdjoin_obs::{Observer, SpanKind};
use fdjoin_storage::{Database, Relation};
use fdjoin_stream::ResultStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Resource caps for one streaming execution, checked between rows.
/// Builder-style; an empty budget streams to exhaustion.
///
/// ```
/// use fdjoin_exec::StreamBudget;
/// use std::time::Duration;
/// let budget = StreamBudget::new()
///     .max_rows(1_000)
///     .deadline(Duration::from_millis(50));
/// ```
#[derive(Clone, Debug, Default)]
pub struct StreamBudget {
    deadline: Option<Duration>,
    max_rows: Option<u64>,
    admission: Option<Admission>,
}

impl StreamBudget {
    /// No caps: stream to exhaustion.
    pub fn new() -> StreamBudget {
        StreamBudget::default()
    }

    /// Stop delivering once this much wall-clock time has elapsed since
    /// submission ([`StreamEnd::Deadline`]). `Duration::ZERO` cancels
    /// before the first row — a deterministic way to test cancellation.
    pub fn deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Deliver at most this many rows ([`StreamEnd::RowBudget`]). Rows
    /// are fixed-width (`arity × size_of::<Value>()` bytes), so this is
    /// also the stream's byte cap.
    pub fn max_rows(mut self, n: u64) -> Self {
        self.max_rows = Some(n);
        self
    }

    /// Admission cap: reject the submission outright (with
    /// [`JoinError::Budget`], before any cursor is opened) unless the
    /// skew-pessimistic branch estimate
    /// ([`fdjoin_core::cost::JoinEstimate::log_max`]) fits under this
    /// `log₂` bound.
    pub fn admit_below(mut self, log_max: Rational) -> Self {
        self.admission = Some(Admission::below(log_max));
        self
    }
}

/// Why a streaming execution stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamEnd {
    /// Every answer was delivered.
    Exhausted,
    /// The [`StreamBudget::max_rows`] cap was reached.
    RowBudget,
    /// The [`StreamBudget::deadline`] passed; remaining rows abandoned.
    Deadline,
}

impl StreamEnd {
    /// Stable lowercase name (`exhausted`, `row-budget` or `deadline`),
    /// recorded as the `end` field of the stream's drive span.
    pub fn name(self) -> &'static str {
        match self {
            StreamEnd::Exhausted => "exhausted",
            StreamEnd::RowBudget => "row-budget",
            StreamEnd::Deadline => "deadline",
        }
    }
}

impl std::fmt::Display for StreamEnd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The result of one streaming execution: the delivered row prefix (in
/// enumeration order — sorted lexicographically by the atom variables),
/// how it ended, and the work it cost.
#[derive(Clone, Debug)]
pub struct StreamOutcome {
    /// Rows delivered before the stream ended (all of them iff
    /// [`StreamEnd::Exhausted`]).
    pub rows: Relation,
    /// The stream's work counters, including [`Stats::rows_streamed`].
    pub stats: Stats,
    /// Why delivery stopped.
    pub end: StreamEnd,
    /// Wall-clock time from submission to the end of delivery.
    pub wall: Duration,
}

impl std::fmt::Display for StreamOutcome {
    /// One line: rows delivered, why delivery stopped, wall time, and the
    /// work counters.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rows={} end={} wall={:.3}ms {}",
            self.rows.len(),
            self.end,
            self.wall.as_secs_f64() * 1e3,
            self.stats,
        )
    }
}

/// Estimate-driven admission for materializing batches
/// ([`Executor::submit_with_admission`]): every database whose
/// skew-pessimistic branch estimate exceeds the cap fails fast with
/// [`JoinError::Budget`] instead of executing.
#[derive(Clone, Debug)]
pub struct Admission {
    max_log_estimate: Rational,
}

impl Admission {
    /// Admit only executions whose estimated `log₂` branch count fits
    /// under `log_max`.
    pub fn below(log_max: Rational) -> Admission {
        Admission {
            max_log_estimate: log_max,
        }
    }

    /// Check one `(prepared, database)` pair against the cap.
    pub fn check(&self, prepared: &PreparedQuery, db: &Database) -> Result<(), JoinError> {
        let est = prepared.estimate(db)?;
        if est.log_max > self.max_log_estimate {
            return Err(JoinError::Budget {
                estimate_log_max: Box::new(est.log_max),
                budget_log: Box::new(self.max_log_estimate.clone()),
            });
        }
        Ok(())
    }
}

impl Executor {
    /// Stream `prepared`'s answers over `db` on the pool, delivering rows
    /// until the [`StreamBudget`] stops it. Returns immediately with a
    /// handle; admission (when [`StreamBudget::admit_below`] is set) runs
    /// synchronously on the submitting thread, so a rejected query costs
    /// an estimate — never a cursor, a trie build, or a pool slot.
    ///
    /// Cancellation is cooperative and loss-free for the serving layer: a
    /// budget-stopped stream abandons only the *un-delivered* suffix; the
    /// prepared plans and every cached trie index survive for the next
    /// submission.
    pub fn submit_stream(
        &self,
        prepared: &Arc<PreparedQuery>,
        db: &Arc<Database>,
        budget: StreamBudget,
    ) -> JobHandle<StreamOutcome> {
        let started = Instant::now();
        let obs = self.span_observer(prepared).clone();
        // Detached: the span opens here but closes on the pool worker,
        // after delivery ends.
        let mut span = obs.span_detached(SpanKind::Submit, "stream");
        let parent = span.id();
        if let Some(Err(e)) = budget.admission.as_ref().map(|a| a.check(prepared, db)) {
            span.field("error", e.to_string());
            return JobHandle::ready(Err(e));
        }
        let prepared = Arc::clone(prepared);
        let db = Arc::clone(db);
        // The submit span travels to the worker and closes there, after
        // delivery ends — it covers the whole stream's lifetime.
        self.spawn(move || {
            let r = run_stream(&prepared, &db, &budget, started, &obs, parent);
            match &r {
                Ok(o) => {
                    span.field("rows", o.rows.len());
                    span.field("end", o.end.name());
                }
                Err(e) => span.field("error", e.to_string()),
            }
            span.finish();
            r
        })
    }
}

/// Drive one cursor under the budget; runs on a pool worker.
fn run_stream(
    prepared: &PreparedQuery,
    db: &Database,
    budget: &StreamBudget,
    started: Instant,
    obs: &Observer,
    parent: Option<u64>,
) -> Result<StreamOutcome, JoinError> {
    // The drive span lives on *this* worker's stack, so the cursor's
    // per-row `stream_advance` spans and the open-time `index_build`
    // spans nest under it (no-op when the observer is disabled).
    let mut drive = obs.span_with_parent(SpanKind::Batch, "stream", parent);
    let mut stream = ResultStream::open(prepared, db)?;
    let mut rows = Relation::new((0..prepared.query().n_vars() as u32).collect());
    let mut delivered = 0u64;
    let mut first_row_ns: Option<u64> = None;
    let end = loop {
        if budget.max_rows.is_some_and(|cap| delivered >= cap) {
            break StreamEnd::RowBudget;
        }
        if budget.deadline.is_some_and(|d| started.elapsed() >= d) {
            break StreamEnd::Deadline;
        }
        match stream.next_row() {
            Some(row) => {
                if delivered == 0 {
                    first_row_ns = Some(started.elapsed().as_nanos() as u64);
                }
                delivered += 1;
                rows.push_row(row);
            }
            None => break StreamEnd::Exhausted,
        }
    };
    if obs.is_enabled() {
        if !matches!(end, StreamEnd::Exhausted) {
            // An instant span marking the abandonment point — the budget
            // suspended the cursor with answers possibly remaining.
            let mut pause = obs.span(SpanKind::StreamPause, "budget");
            pause.field("end", end.name());
        }
        drive.field("rows", delivered);
        drive.field("end", end.name());
        if let Some(ns) = first_row_ns {
            drive.field("first_row_ns", ns);
        }
    }
    let stats = stream.stats();
    drop(stream);
    drive.finish();
    Ok(StreamOutcome {
        rows,
        stats,
        end,
        wall: started.elapsed(),
    })
}
