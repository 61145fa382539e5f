//! The two single-client warm-serving workloads: one `PreparedQuery`, one
//! database, plans and tries cached, every request one `execute`.

use crate::gen::{rng_for, subsample, unpinned};
use crate::span::Tracer;
use crate::workload::{assert_warm, engine, timed, window, Expect, Outcome, Rung, Unit, Workload};
use fdjoin::bigint::rat;
use fdjoin::core::{Algorithm, ExecOptions, Observer, PrepStats, PreparedQuery};
use fdjoin::instances::{fig1_adversarial, normal_worst_case};
use fdjoin::query::{examples, Query};
use fdjoin::storage::Database;

/// The instance family a workload draws from, at any size.
#[derive(Clone, Copy)]
enum Family {
    /// `fig1_adversarial(2^k)` for the Eq. (1)/Fig. 1 UDF query.
    Fig1Udf,
    /// The triangle's AGM worst case with `2^k` rows per relation (`k` even).
    Triangle,
}

impl Family {
    fn query(self) -> Query {
        match self {
            Family::Fig1Udf => examples::fig1_udf(),
            Family::Triangle => examples::triangle(),
        }
    }

    /// The instance with `2^k` rows per relation, a seeded sixteenth dropped.
    fn instance(self, k: u32, seed: u64) -> Database {
        match self {
            // The hub row (1, 1) always stays: without it the instance is a
            // different, easier one (a third fewer answers), and which seeds
            // drew it would split every metric into two populations.
            Family::Fig1Udf => subsample(
                &fig1_adversarial(1 << k),
                &mut rng_for(seed, &format!("fig1/{k}")),
                |row| row == [1, 1],
            ),
            Family::Triangle => {
                let n = i64::from(k);
                let full =
                    normal_worst_case(&self.query(), &vec![rat(n, 1); 3], &rat(3 * n / 2, 1))
                        .expect("even k gives integral coefficients");
                subsample(
                    &full,
                    &mut rng_for(seed, &format!("triangle/{k}")),
                    unpinned,
                )
            }
        }
    }

    fn rungs(self, ks: &[u32], seed: u64) -> Vec<Rung> {
        ks.iter()
            .map(|&k| Rung {
                n: f64::from(1u32 << k),
                db: self.instance(k, seed),
            })
            .collect()
    }
}

pub struct WarmExecute {
    family: Family,
    seed: u64,
    query: Query,
    prepared: PreparedQuery,
    db: Database,
    opts: ExecOptions,
    expect: Expect,
    algorithm: Algorithm,
    warm: PrepStats,
}

/// The paper's Eq. (1)/Fig. 1 UDF query on the adversarial instance, N = 2^14:
/// `Auto` (→ Chain) stays within N^{3/2} where FD-oblivious plans pay N².
pub fn udf_chain_warm(seed: u64, obs: &Observer) -> Result<WarmExecute, String> {
    WarmExecute::new(
        Family::Fig1Udf,
        14,
        ExecOptions::new().parallelism(1),
        // GenericJoin/BinaryJoin/CSMA take 17 s to minutes here — the
        // paper's point — so the oracle is the other bound-respecting family.
        Algorithm::Sma,
        seed,
        obs,
    )
}

/// The FD-free triangle on its AGM worst case (4096 rows per relation,
/// ≈ 216 k answers after subsampling), Generic-Join fanned out over two
/// sub-range tasks.
pub fn triangle_gj_par2(seed: u64, obs: &Observer) -> Result<WarmExecute, String> {
    WarmExecute::new(
        Family::Triangle,
        12,
        ExecOptions::new()
            .algorithm(Algorithm::GenericJoin)
            .parallelism(2),
        Algorithm::Chain,
        seed,
        obs,
    )
}

impl WarmExecute {
    fn new(
        family: Family,
        k: u32,
        opts: ExecOptions,
        oracle: Algorithm,
        seed: u64,
        obs: &Observer,
    ) -> Result<WarmExecute, String> {
        let query = family.query();
        let db = family.instance(k, seed);
        let prepared = engine(obs).prepare(&query);
        let first = prepared
            .execute(&db, &opts)
            .map_err(|e| format!("first execute failed: {e}"))?;
        let expect = Expect::establish(&query, &db, oracle, &first)?;
        let algorithm = first.algorithm_used;
        drop(first);
        // One more run so lazily filled caches are full before the window opens.
        expect.check(&prepared.execute(&db, &opts))?;
        let warm = prepared.prep_stats();
        Ok(WarmExecute {
            family,
            seed,
            query,
            prepared,
            db,
            opts,
            expect,
            algorithm,
            warm,
        })
    }
}

impl Workload for WarmExecute {
    fn algorithm_used(&self) -> String {
        self.algorithm.to_string()
    }

    fn request(&mut self, tracer: &mut Tracer) -> Outcome {
        let span = tracer.enter("core.execute");
        let (result, latency) = timed(|| self.prepared.execute(&self.db, &self.opts));
        tracer.exit(span);
        let span = tracer.enter("harness.check");
        let verdict = self.expect.check(&result);
        drop(result);
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
            opts: self.opts.clone(),
        }]
    }

    fn ladder(&self) -> Vec<Rung> {
        match self.family {
            // From 2^8, where Generic-Join (quadratic here) is still cheap.
            Family::Fig1Udf => self.family.rungs(&[8, 9, 10, 11, 12, 13], self.seed),
            Family::Triangle => self.family.rungs(&[6, 8, 10], self.seed),
        }
    }
}
