//! Cursor-based result streaming: enumerate join answers one tuple at a
//! time, on demand, without ever materializing the full output.
//!
//! [`ResultStream`] is `fdjoin_core`'s Generic-Join search
//! ([`fdjoin_core::descent`]: a leapfrog descent over the shared trie
//! access paths, FD-expanding and verifying each full binding) stopped
//! after every answer. The search loop is resumable by construction — its
//! [`Position`] is plain data, a `(depth, lo, hi)` cursor per atom per
//! search depth plus the partial binding (the deepest depth binds without
//! narrowing, so there is no level below it) — so every
//! [`ResultStream::next_row`] call runs that same loop until it emits one
//! row and returns. Between calls the stream holds no borrows of its
//! indexes' interiors, so it can
//! be paused indefinitely, shipped across threads, or detached as a
//! [`StreamCheckpoint`] and reattached to an equal-content database later.
//!
//! Because the stream and `Algorithm::GenericJoin` run one function, the
//! enumeration visits the same leaves in the same order and meters the
//! same deterministic [`Stats`] — a fully drained stream performs
//! *exactly* the work of the materializing run (plus the streaming
//! counter [`Stats::rows_streamed`]). The
//! pruning entry points stop early and therefore do strictly less:
//!
//! - [`ResultStream::exists`] — suspend after the first answer;
//! - [`ResultStream::limit`] — materialize only a `k`-prefix;
//! - [`ResultStream::offset`] — skip rows without delivering them;
//! - [`ResultStream::count`] — drain without materializing rows.
//!
//! The stream promises no bound on the delay between consecutive rows:
//! the gap is whatever the descent spends finding the next answer, which
//! depends on the data (648 → 40 968 probes between rows from n = 2^8 to
//! 2^14 on `simple_fd_path`, an acyclic query).
//!
//! ```
//! use fdjoin_core::Engine;
//! use fdjoin_storage::{Database, Relation};
//! use fdjoin_stream::ResultStream;
//!
//! let q = fdjoin_query::examples::triangle();
//! let mut db = Database::new();
//! db.insert("R", Relation::from_rows(vec![0, 1], [[1, 2], [2, 3]]));
//! db.insert("S", Relation::from_rows(vec![1, 2], [[2, 3], [3, 1]]));
//! db.insert("T", Relation::from_rows(vec![2, 0], [[3, 1], [1, 2]]));
//!
//! let prepared = Engine::new().prepare(&q);
//! let mut stream = ResultStream::open(&prepared, &db).unwrap();
//! assert_eq!(stream.next_row(), Some(&[1, 2, 3][..]));
//! assert_eq!(stream.next_row(), Some(&[2, 3, 1][..]));
//! assert_eq!(stream.next_row(), None);
//! assert_eq!(stream.stats().rows_streamed, 2);
//! ```

#![forbid(unsafe_code)]

use fdjoin_core::descent::{Descent, Position};
use fdjoin_core::{JoinError, PreparedQuery, Scratch, Stats};
use fdjoin_obs::{Span, SpanKind};
use fdjoin_storage::{Database, Relation, Value};
use std::fmt;
use std::ops::ControlFlow;

/// A suspended-and-resumable cursor over the answers of a prepared query.
///
/// Open one with [`ResultStream::open`]; pull rows with
/// [`ResultStream::next_row`] (or the pruning fast paths). The stream
/// borrows the [`PreparedQuery`] and [`Database`] it was opened over, but
/// between calls its search position is plain data — see the
/// [module docs](self) for the design and [`StreamCheckpoint`] for
/// detaching the position entirely.
pub struct ResultStream<'a> {
    prepared: &'a PreparedQuery,
    /// The search set-up: binding order (ascending variable id) and tries.
    descent: Descent,
    /// The suspended search position.
    pos: Position,
    /// The descent's leaf scratch, kept across rows: the UDF argument
    /// buffer, and a finger for each guard lookup the leaf still runs (only
    /// guards whose relation violates its FD), resuming from the previous
    /// leaf's key.
    scratch: Scratch,
    /// Content versions of each atom's relation at open time, stamped into
    /// checkpoints so a resume against drifted data is rejected.
    versions: Vec<u64>,
    udf_version: u64,
    stats: Stats,
}

impl<'a> ResultStream<'a> {
    /// Open a cursor over `prepared`'s answers on `db`, positioned before
    /// the first row. Builds (or reuses from the engine-wide cache) one
    /// trie per atom plus the FD-guard tries and compiles the expansion
    /// programs; no output is computed yet. A UDF-only variable without a
    /// registered UDF is [`JoinError::MissingUdf`] here, not at a row.
    pub fn open(
        prepared: &'a PreparedQuery,
        db: &'a Database,
    ) -> Result<ResultStream<'a>, JoinError> {
        let mut stats = Stats::default();
        let paths = prepared.access_paths(db)?;
        let q = prepared.query();
        let descent = Descent::open(q, db, &paths, &mut stats)?;
        let mut versions = Vec::with_capacity(q.atoms().len());
        for a in q.atoms() {
            versions.push(db.relation(&a.name)?.version());
        }
        Ok(ResultStream {
            prepared,
            pos: descent.start(),
            scratch: descent.scratch(),
            descent,
            versions,
            udf_version: db.udfs.version(),
            stats,
        })
    }

    /// Advance the suspended search to the next answer, leaving it in the
    /// position's binding: the Generic-Join loop, stopped at its first
    /// emitted row.
    fn advance(&mut self) -> bool {
        self.descent
            .run(&mut self.pos, 0, &mut self.scratch, &mut self.stats, |_| {
                ControlFlow::Break(())
            })
            .is_break()
    }

    /// [`ResultStream::advance`] plus the delivery counters, untraced: what
    /// one delivered row costs inside a traced call.
    fn deliver(&mut self) -> Option<&[Value]> {
        if !self.advance() {
            return None;
        }
        self.stats.rows_streamed += 1;
        Some(self.pos.vals())
    }

    /// One `stream_advance` span through the prepared query's tracing
    /// handle, or `None` (one branch) when the engine has no observer.
    fn advance_span(&self, name: &'static str) -> Option<Span> {
        let obs = self.prepared.observer();
        obs.is_enabled()
            .then(|| obs.span(SpanKind::StreamAdvance, name))
    }

    /// Deliver up to `k` rows into a fresh relation under one
    /// `stream_advance` span for the whole call — a page is one unit of
    /// work to whoever reads the trace, and a span per row would cost more
    /// than the row.
    fn page(&mut self, name: &'static str, k: usize) -> Relation {
        let mut span = self.advance_span(name);
        let mut out = Relation::new((0..self.pos.vals().len() as u32).collect());
        while out.len() < k {
            match self.deliver() {
                Some(row) => out.push_row(row),
                None => break,
            }
        }
        if let Some(span) = &mut span {
            span.field("rows", out.len());
            span.field("rows_streamed", self.stats.rows_streamed);
        }
        out
    }

    /// The next answer, or `None` when the enumeration is exhausted. Each
    /// delivered row suspends the descent and counts into
    /// [`Stats::rows_streamed`]. Rows come out in lexicographic
    /// order of the atom variables (ascending id) and are distinct; the
    /// slice covers *all* query variables in ascending id, UDF-filled ones
    /// included — the same schema as a materialized `JoinResult::output`.
    #[allow(clippy::should_implement_trait)] // lending semantics, not Iterator
    pub fn next_row(&mut self) -> Option<&[Value]> {
        // One span per delivered (or attempted) row: the descent work
        // between two suspensions. Gated so the disabled path costs one
        // branch per row.
        let mut span = self.advance_span("next_row");
        let got = self.deliver().is_some();
        if let Some(span) = &mut span {
            span.field("emitted", got);
            span.field("rows_streamed", self.stats.rows_streamed);
        }
        got.then(|| self.pos.vals())
    }

    /// Whether at least one (more) answer exists, stopping the descent at
    /// the first one — the strongest pruning: on a nonempty result this
    /// does a vanishing fraction of the full enumeration's work. Consumes
    /// the witnessing row.
    pub fn exists(&mut self) -> bool {
        self.advance()
    }

    /// Drain the remaining answers and return how many there were, without
    /// materializing or delivering any row (no [`Stats::rows_streamed`]).
    pub fn count(&mut self) -> u64 {
        let mut n = 0;
        while self.advance() {
            n += 1;
        }
        n
    }

    /// Skip up to `n` answers without delivering them, then return `self`
    /// for chaining (`stream.offset(100).limit(10)`). Skipping walks the
    /// descent exactly as delivering would: `offset(n)` costs what reading
    /// `n` rows costs.
    pub fn offset(&mut self, n: usize) -> &mut Self {
        for _ in 0..n {
            if !self.advance() {
                break;
            }
        }
        self
    }

    /// Materialize at most `k` further answers, in arrival (enumeration)
    /// order. Stops the descent after the `k`-th row: on large results this
    /// does strictly less deterministic work than any materializing
    /// execution.
    pub fn limit(&mut self, k: usize) -> Relation {
        self.page("limit", k)
    }

    /// Drain the stream into a relation equal to the materialized
    /// `JoinResult::output` of the same query (sorted, deduplicated).
    pub fn collect_rows(&mut self) -> Relation {
        let mut out = self.page("collect_rows", usize::MAX);
        out.sort_dedup();
        out
    }

    /// Work counters so far: the deterministic descent/expansion counters
    /// (identical to the materializing run's once drained), the cache-warmth
    /// split, and the streaming counters.
    pub fn stats(&self) -> Stats {
        self.stats
    }

    /// Detach the suspended search position as plain data. The checkpoint
    /// is stamped with the content versions of everything the enumeration
    /// reads, so [`ResultStream::resume`] can verify it still addresses the
    /// same rows.
    pub fn checkpoint(&self) -> StreamCheckpoint {
        StreamCheckpoint {
            pos: self.pos.clone(),
            versions: self.versions.clone(),
            udf_version: self.udf_version,
            stats: self.stats,
        }
    }

    /// Reattach a [`StreamCheckpoint`] to `prepared` over `db`, continuing
    /// the enumeration exactly where [`ResultStream::checkpoint`] left it —
    /// no row is duplicated or dropped. Fails with
    /// [`StreamError::StaleCheckpoint`] if any relation the enumeration
    /// reads (atoms and FD guards are all atoms) or the UDF registry has
    /// changed content since the checkpoint was taken; cursor positions are
    /// trie-node ranges, meaningful only against identical content.
    pub fn resume(
        prepared: &'a PreparedQuery,
        db: &'a Database,
        ck: &StreamCheckpoint,
    ) -> Result<ResultStream<'a>, StreamError> {
        let mut s = ResultStream::open(prepared, db)?;
        if ck.versions.len() != s.versions.len() || !s.descent.admits(&ck.pos) {
            return Err(StreamError::Join(JoinError::InvalidOptions(
                "checkpoint shape does not match the prepared query".into(),
            )));
        }
        for (ai, (&have, &want)) in s.versions.iter().zip(&ck.versions).enumerate() {
            if have != want {
                return Err(StreamError::StaleCheckpoint {
                    relation: prepared.query().atoms()[ai].name.clone(),
                });
            }
        }
        if s.udf_version != ck.udf_version {
            return Err(StreamError::StaleCheckpoint {
                relation: "<udf registry>".into(),
            });
        }
        // Continue the checkpoint's deterministic metering; the index
        // acquisitions this reopen just performed are genuine traffic of
        // the resumed stream, so they merge on top.
        let reopened = s.stats;
        s.stats = ck.stats;
        s.stats.index_builds += reopened.index_builds;
        s.stats.index_hits += reopened.index_hits;
        s.pos = ck.pos.clone();
        Ok(s)
    }
}

impl fmt::Debug for ResultStream<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResultStream")
            .field("depth", &self.pos.depth())
            .field("done", &self.pos.is_done())
            .field("rows_streamed", &self.stats.rows_streamed)
            .finish()
    }
}

/// A suspended [`ResultStream`] as plain data: the search [`Position`]
/// (per-depth cursors and the partial binding), the content versions it is
/// valid against, and the work counters so far. Detached from every
/// lifetime — hold it as long as you like, then [`ResultStream::resume`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamCheckpoint {
    pos: Position,
    versions: Vec<u64>,
    udf_version: u64,
    stats: Stats,
}

impl StreamCheckpoint {
    /// The work counters accumulated up to the checkpoint.
    pub fn stats(&self) -> Stats {
        self.stats
    }

    /// Rows delivered before the checkpoint was taken.
    pub fn rows_streamed(&self) -> u64 {
        self.stats.rows_streamed
    }
}

/// Why a stream could not be (re)opened.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StreamError {
    /// The underlying engine error (missing relation, invalid checkpoint
    /// shape, budget rejection, …).
    Join(JoinError),
    /// A [`StreamCheckpoint`] was presented against a database whose named
    /// relation (or UDF registry) no longer has the content the checkpoint
    /// was taken over — its cursor positions would address the wrong rows.
    StaleCheckpoint {
        /// The first relation whose content version drifted.
        relation: String,
    },
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Join(e) => e.fmt(f),
            StreamError::StaleCheckpoint { relation } => write!(
                f,
                "stale checkpoint: relation {relation:?} changed content since the \
                 checkpoint was taken"
            ),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<JoinError> for StreamError {
    fn from(e: JoinError) -> StreamError {
        StreamError::Join(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdjoin_core::{Algorithm, Engine, ExecOptions};
    use fdjoin_lattice::VarSet;

    fn triangle_db() -> Database {
        let mut db = Database::new();
        db.insert(
            "R",
            Relation::from_rows(vec![0, 1], [[1, 2], [1, 3], [2, 3], [4, 5]]),
        );
        db.insert(
            "S",
            Relation::from_rows(vec![1, 2], [[2, 3], [3, 1], [5, 4]]),
        );
        db.insert(
            "T",
            Relation::from_rows(vec![2, 0], [[3, 1], [1, 1], [4, 4]]),
        );
        db
    }

    #[test]
    fn drains_to_the_materialized_answer() {
        let q = fdjoin_query::examples::triangle();
        let db = triangle_db();
        let prepared = Engine::new().prepare(&q);
        let expect = prepared
            .execute(&db, &ExecOptions::new().algorithm(Algorithm::GenericJoin))
            .unwrap();
        let mut s = ResultStream::open(&prepared, &db).unwrap();
        let got = s.collect_rows();
        assert_eq!(got, expect.output);
        assert_eq!(s.next_row(), None, "exhaustion is stable");
        // A drained stream performed exactly the materializing run's
        // deterministic work (streaming counters aside).
        let mut ours = s.stats().deterministic();
        assert_eq!(ours.rows_streamed, expect.output.len() as u64);
        ours.rows_streamed = 0;
        assert_eq!(ours, expect.stats.deterministic());
    }

    #[test]
    fn exists_stops_early() {
        let q = fdjoin_query::examples::triangle();
        let db = triangle_db();
        let prepared = Engine::new().prepare(&q);
        let full = prepared
            .execute(&db, &ExecOptions::new().algorithm(Algorithm::GenericJoin))
            .unwrap();
        let mut s = ResultStream::open(&prepared, &db).unwrap();
        assert!(s.exists());
        assert!(
            s.stats().deterministic().work() < full.stats.deterministic().work(),
            "exists() pruned the enumeration"
        );
    }

    #[test]
    fn offset_limit_paginate_without_overlap() {
        let q = fdjoin_query::examples::triangle();
        let db = triangle_db();
        let prepared = Engine::new().prepare(&q);
        let mut all = ResultStream::open(&prepared, &db).unwrap();
        let everything = all.collect_rows();
        let mut pages = Relation::new(vec![0, 1, 2]);
        let mut start = 0usize;
        loop {
            let mut s = ResultStream::open(&prepared, &db).unwrap();
            let page = s.offset(start).limit(2);
            if page.is_empty() {
                break;
            }
            for row in page.rows() {
                pages.push_row(row);
            }
            start += page.len();
        }
        pages.sort_dedup();
        assert_eq!(pages, everything);
    }

    #[test]
    fn checkpoint_rejects_content_drift() {
        let q = fdjoin_query::examples::triangle();
        let mut db = triangle_db();
        let prepared = Engine::new().prepare(&q);
        let ck = {
            let mut s = ResultStream::open(&prepared, &db).unwrap();
            s.next_row();
            s.checkpoint()
        };
        // Same data, same versions: resumes fine.
        assert!(ResultStream::resume(&prepared, &db, &ck).is_ok());
        // Touch one relation: its version moves, the checkpoint is stale.
        db.relation_mut("S")
            .unwrap()
            .apply_delta([[9u64, 9]], [] as [&[Value]; 0]);
        match ResultStream::resume(&prepared, &db, &ck) {
            Err(StreamError::StaleCheckpoint { relation }) => assert_eq!(relation, "S"),
            other => panic!("expected StaleCheckpoint, got {other:?}"),
        }
    }

    #[test]
    fn udf_filled_variables_expand_at_leaves() {
        // `z` occurs in no atom: it is bound by expansion, not search.
        let q = fdjoin_query::examples::fig5_udf_product();
        let mut db = Database::new();
        db.insert("R", Relation::from_rows(vec![0], [[1], [2]]));
        db.insert("S", Relation::from_rows(vec![1], [[10]]));
        db.udfs
            .register(VarSet::from_vars([0, 1]), 2, |v| v[0] + v[1]);
        let prepared = Engine::new().prepare(&q);
        let expect = prepared
            .execute(&db, &ExecOptions::new().algorithm(Algorithm::GenericJoin))
            .unwrap();
        let mut s = ResultStream::open(&prepared, &db).unwrap();
        assert_eq!(s.collect_rows(), expect.output);
    }
}
