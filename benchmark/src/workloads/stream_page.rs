//! `stream_page`: a paging session over Fig. 4's 61 k answers. Each request
//! reattaches a checkpoint, pulls one page, and detaches again — the same
//! tries as the batch algorithms, but through suspend/resume cursors, so
//! per-row advance and snapshot costs dominate, not materialisation.

use crate::gen::{rng_for, row_hash, subsample, unpinned};
use crate::span::Tracer;
use crate::workload::{assert_warm, engine, window, Outcome, Unit, Workload};
use fdjoin::bigint::rat;
use fdjoin::core::{Algorithm, ExecOptions, Observer, PrepStats, PreparedQuery, Stats};
use fdjoin::instances::normal_worst_case;
use fdjoin::query::{examples, Query};
use fdjoin::storage::Database;
use fdjoin::stream::{ResultStream, StreamCheckpoint};
use rand::rngs::StdRng;
use rand::Rng;
use std::time::Instant;

pub struct StreamPage {
    query: Query,
    prepared: PreparedQuery,
    db: Database,
    /// `prefix[i]` is the checksum of the oracle's first `i` rows in
    /// enumeration (lexicographic) order: any page is checked in O(page).
    prefix: Vec<u64>,
    start: StreamCheckpoint,
    cursor: StreamCheckpoint,
    offset: usize,
    /// Deterministic counters of the first complete pass.
    pass_stats: Option<Stats>,
    page_sizes: StdRng,
    warm: PrepStats,
}

/// Fig. 4's worst case with `2^n` rows per atom (`n` divisible by 3; output
/// `2^{4n/3}`), seeded-subsampled.
fn fig4_instance(n: i64, seed: u64) -> Database {
    let full = normal_worst_case(
        &examples::fig4_query(),
        &vec![rat(n, 1); 4],
        &rat(4 * n / 3, 1),
    )
    .expect("n divisible by 3 gives integral coefficients");
    subsample(&full, &mut rng_for(seed, &format!("fig4/{n}")), unpinned)
}

impl StreamPage {
    pub fn new(seed: u64, obs: &Observer) -> Result<StreamPage, String> {
        let query = examples::fig4_query();
        let db = fig4_instance(12, seed);
        let prepared = engine(obs).prepare(&query);
        // Oracle: a materializing bound-respecting algorithm on its own
        // engine; its sorted output is the enumeration order.
        let reference = fdjoin::core::Engine::new()
            .prepare(&query)
            .execute(&db, &ExecOptions::new().algorithm(Algorithm::Sma))
            .map_err(|e| format!("oracle failed: {e}"))?;
        let mut prefix = Vec::with_capacity(reference.output.len() + 1);
        prefix.push(0u64);
        for row in reference.output.rows() {
            prefix.push(prefix[prefix.len() - 1].wrapping_add(row_hash(row)));
        }
        drop(reference);
        let start = ResultStream::open(&prepared, &db)
            .map_err(|e| format!("open failed: {e}"))?
            .checkpoint();
        let mut me = StreamPage {
            query,
            prepared,
            db,
            prefix,
            cursor: start.clone(),
            start,
            offset: 0,
            pass_stats: None,
            page_sizes: rng_for(seed, "stream/pages"),
            warm: PrepStats::default(),
        };
        // One complete checked pass before the window opens: every trie is
        // built and the pass counters every later pass must repeat are known.
        while me.pass_stats.is_none() {
            me.request(&mut Tracer::disabled()).verdict?;
        }
        me.warm = me.prepared.prep_stats();
        Ok(me)
    }

    fn total(&self) -> usize {
        self.prefix.len() - 1
    }
}

impl Workload for StreamPage {
    fn algorithm_used(&self) -> String {
        "result-stream".into()
    }

    fn request(&mut self, tracer: &mut Tracer) -> Outcome {
        // Seeded page size around 512 rows.
        let want = self.page_sizes.gen_range(384..641usize);
        let t = Instant::now();
        let span = tracer.enter("stream.resume");
        let resumed = ResultStream::resume(&self.prepared, &self.db, &self.cursor);
        tracer.exit(span);
        let mut stream = match resumed {
            Ok(s) => s,
            Err(e) => {
                return Outcome {
                    latency: t.elapsed(),
                    verdict: Err(format!("resume failed: {e}")),
                }
            }
        };
        let span = tracer.enter("stream.limit");
        let page = stream.limit(want);
        tracer.exit(span);
        let span = tracer.enter("stream.checkpoint");
        let next = stream.checkpoint();
        tracer.exit(span);
        let latency = t.elapsed();

        let span = tracer.enter("harness.check");
        let expected = want.min(self.total() - self.offset);
        let got = page
            .rows()
            .fold(0u64, |acc, row| acc.wrapping_add(row_hash(row)));
        let slice = self.prefix[self.offset + expected].wrapping_sub(self.prefix[self.offset]);
        let mut verdict = if page.len() != expected {
            Err(format!(
                "page of {} rows at offset {}, expected {expected}",
                page.len(),
                self.offset
            ))
        } else if got != slice {
            Err(format!("page at offset {} has the wrong rows", self.offset))
        } else {
            Ok(())
        };
        self.offset += page.len();
        let pass_over = page.len() < want;
        let stats = stream.stats().deterministic();
        drop(stream);
        self.cursor = next;
        if pass_over {
            // A short page ends the pass: it must have seen every answer with
            // exactly the first pass's work, then the session starts over.
            if verdict.is_ok() && self.offset != self.total() {
                verdict = Err(format!("pass ended after {} rows", self.offset));
            }
            match &self.pass_stats {
                None => self.pass_stats = Some(stats),
                Some(first) if verdict.is_ok() && *first != stats => {
                    verdict = Err(format!("pass stats drifted: {stats} vs first pass {first}"));
                }
                Some(_) => {}
            }
            self.cursor = self.start.clone();
            self.offset = 0;
        }
        tracer.exit(span);
        Outcome { latency, verdict }
    }

    fn prep_window(&self) -> PrepStats {
        window(&self.prepared, &self.warm)
    }

    fn finish(&mut self, _requests: u64) -> Result<(), String> {
        assert_warm(&self.prep_window())
    }

    fn units(&self) -> Vec<Unit> {
        vec![Unit {
            query: self.query.clone(),
            db: self.db.clone(),
            opts: ExecOptions::new(),
        }]
    }
}
