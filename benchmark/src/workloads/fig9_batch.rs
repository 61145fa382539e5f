//! `fig9_csma_batch2`: the paper's main algorithm under the serving layer.
//! Fig. 9's query has no SM-proof, so `Auto` must fall through to CSMA; a
//! request submits one prepared query over two databases to an `Executor`
//! and waits for the batch — the only workload whose requests go through the
//! pool's queue, hand-off and result collection.
//!
//! The pool has one worker and a solve one task. With two of either, a
//! request takes anything between its parallel and its serial time depending on whether the box's two vCPUs are
//! two cores that second (they often are not), and the pipeline refused the
//! workload for it: two sets of runs of one binary spread 18 % and 30 % on
//! `req_p50_ms`. Two concurrent workers are measured in the traced pass
//! (`exec.batch_x2_speedup`), unbounded.

use crate::gen::{rng_for, subsample, unpinned};
use crate::span::Tracer;
use crate::workload::{assert_warm, engine, timed, window, Expect, Outcome, Rung, Unit, Workload};
use fdjoin::bigint::rat;
use fdjoin::core::{Algorithm, ExecOptions, Observer, PrepStats, PreparedQuery};
use fdjoin::exec::Executor;
use fdjoin::instances::normal_worst_case;
use fdjoin::query::{examples, Query};
use fdjoin::storage::Database;
use std::sync::Arc;

pub struct Fig9Batch {
    query: Query,
    prepared: Arc<PreparedQuery>,
    dbs: Arc<Vec<Database>>,
    opts: ExecOptions,
    executor: Executor,
    expects: Vec<Expect>,
    algorithm: Algorithm,
    warm: PrepStats,
    seed: u64,
}

/// Fig. 9's worst case with `2^n` rows per atom (`n` even; output `2^{3n/2}`),
/// seeded-subsampled; `tag` separates the two databases of one request.
fn fig9_instance(n: i64, seed: u64, tag: &str) -> Database {
    let full = normal_worst_case(
        &examples::fig9_query(),
        &vec![rat(n, 1); 3],
        &rat(3 * n / 2, 1),
    )
    .expect("even n gives integral coefficients");
    subsample(
        &full,
        &mut rng_for(seed, &format!("fig9/{n}/{tag}")),
        unpinned,
    )
}

impl Fig9Batch {
    pub fn new(seed: u64, obs: &Observer) -> Result<Fig9Batch, String> {
        let query = examples::fig9_query();
        let dbs = vec![fig9_instance(6, seed, "a"), fig9_instance(6, seed, "b")];
        // One task per solve (see the module comment): `Auto` would split
        // each of these solves in two.
        let opts = ExecOptions::new().parallelism(1);
        let prepared = Arc::new(engine(obs).prepare(&query));
        let mut expects = Vec::new();
        let mut algorithm = Algorithm::Auto;
        for db in &dbs {
            let first = prepared
                .execute(db, &opts)
                .map_err(|e| format!("first execute failed: {e}"))?;
            algorithm = first.algorithm_used;
            // Generic-Join is FD-oblivious and takes ~0.5 s per database here;
            // the Chain Algorithm is the cheap second family.
            expects.push(Expect::establish(&query, db, Algorithm::Chain, &first)?);
        }
        let mut me = Fig9Batch {
            query,
            prepared,
            dbs: Arc::new(dbs),
            opts,
            executor: Executor::with_threads(1).observe(obs.clone()),
            expects,
            algorithm,
            warm: PrepStats::default(),
            seed,
        };
        // One batch through the pool before the window opens: the worker has
        // run, every cache is full.
        me.request(&mut Tracer::disabled()).verdict?;
        me.warm = me.prepared.prep_stats();
        Ok(me)
    }
}

impl Workload for Fig9Batch {
    fn algorithm_used(&self) -> String {
        self.algorithm.to_string()
    }

    fn request(&mut self, tracer: &mut Tracer) -> Outcome {
        let span = tracer.enter("exec.submit");
        let (handle, submit) =
            timed(|| self.executor.submit(&self.prepared, &self.dbs, &self.opts));
        tracer.exit(span);
        let span = tracer.enter("exec.wait");
        let (batch, wait) = timed(|| handle.wait());
        tracer.exit(span);
        let span = tracer.enter("harness.check");
        let verdict = if batch.results.len() != self.expects.len() {
            Err(format!(
                "batch of {} results for {} databases",
                batch.results.len(),
                self.expects.len()
            ))
        } else {
            self.expects
                .iter()
                .zip(&batch.results)
                .try_for_each(|(expect, result)| expect.check(result))
        };
        drop(batch);
        tracer.exit(span);
        Outcome {
            latency: submit + wait,
            verdict,
        }
    }

    fn prep_window(&self) -> PrepStats {
        window(&self.prepared, &self.warm)
    }

    fn finish(&mut self, _requests: u64) -> Result<(), String> {
        assert_warm(&self.prep_window())
    }

    fn units(&self) -> Vec<Unit> {
        self.dbs
            .iter()
            .map(|db| Unit {
                query: self.query.clone(),
                db: db.clone(),
                opts: self.opts.clone(),
            })
            .collect()
    }

    fn ladder(&self) -> Vec<Rung> {
        [2, 4]
            .into_iter()
            .map(|n| Rung {
                n: f64::from(1u32 << n),
                db: fig9_instance(n, self.seed, "a"),
            })
            .collect()
    }
}
