//! `cold_plan`: the bypass workload for every solve-loop optimisation. Each
//! request is one round over eight paper queries on 64-row random instances,
//! each with a fresh `Engine`, `prepare`, and first `execute`: the data is
//! tiny, so lattice presentation, exact-rational LPs and chain/SM/CSM search
//! dominate.

use crate::gen::{rng_for, shuffle};
use crate::span::Tracer;
use crate::workload::{engine, timed, Expect, Outcome, Unit, Workload};
use fdjoin::core::{Algorithm, ExecOptions, Observer, PrepStats};
use fdjoin::instances::random_instance;
use fdjoin::query::{examples, Query};
use fdjoin::storage::Database;
use std::time::Duration;

/// Base tuples drawn per instance before projection.
const BASE_ROWS: usize = 64;

struct Case {
    name: &'static str,
    query: Query,
    db: Database,
    expect: Expect,
    algorithm: Algorithm,
}

pub struct ColdPlan {
    cases: Vec<Case>,
    obs: Observer,
    /// Prep counters summed over every prepared query of every request.
    prep: PrepStats,
}

fn add(total: &mut PrepStats, s: &PrepStats) {
    total.lattice_presentations += s.lattice_presentations;
    total.fingerprints += s.fingerprints;
    total.chain_searches += s.chain_searches;
    total.llp_solves += s.llp_solves;
    total.proof_searches += s.proof_searches;
    total.cllp_solves += s.cllp_solves;
    total.shared_hits += s.shared_hits;
    total.shared_misses += s.shared_misses;
    total.index_builds += s.index_builds;
    total.index_hits += s.index_hits;
    total.index_evictions += s.index_evictions;
    total.stream_cursors += s.stream_cursors;
}

/// A seeded `random_instance` of `query` whose *size profile* does not depend
/// on the seed: every relation is cut to three quarters of the size it has in
/// a fixed reference draw. Planning cost is a function of the log sizes (they
/// are the right-hand sides of the exact LPs), so without this the seed, not
/// the engine, decides how long a round takes — rounds ranged from 25 to 42 ms
/// across ten seeds.
fn instance(name: &str, query: &Query, seed: u64) -> Database {
    let sizes = |db: &Database| -> Vec<usize> {
        query
            .atoms()
            .iter()
            .map(|a| db.relation(&a.name).expect("generated").len())
            .collect()
    };
    let reference = random_instance(
        query,
        &mut rng_for(0, &format!("cold/{name}/ref")),
        BASE_ROWS,
        90,
    );
    let targets: Vec<usize> = sizes(&reference)
        .iter()
        .map(|&n| (n * 3 / 4).max(1))
        .collect();
    // A draw that came out smaller than a target somewhere is redrawn larger.
    for rows in (BASE_ROWS..).step_by(BASE_ROWS / 4) {
        let mut rng = rng_for(seed, &format!("cold/{name}/{rows}"));
        let mut db = random_instance(query, &mut rng, rows, 100);
        if sizes(&db)
            .iter()
            .zip(&targets)
            .any(|(have, want)| have < want)
        {
            continue;
        }
        for (atom, &want) in query.atoms().iter().zip(&targets) {
            let rel = db.relation(&atom.name).expect("generated");
            let mut keep: Vec<usize> = (0..rel.len()).collect();
            shuffle(&mut keep, &mut rng);
            keep.truncate(want);
            let cut = rel.select_rows(keep);
            db.insert(atom.name.clone(), cut);
        }
        return db;
    }
    unreachable!("the row count grows until every relation is large enough")
}

impl ColdPlan {
    pub fn new(seed: u64, obs: &Observer) -> Result<ColdPlan, String> {
        let queries: [(&'static str, Query); 8] = [
            ("fig1", examples::fig1_udf()),
            ("fig4", examples::fig4_query()),
            ("fig9", examples::fig9_query()),
            ("fig7", examples::fig7_query()),
            ("fig8", examples::fig8_query()),
            ("m3", examples::m3_query()),
            ("triangle", examples::triangle()),
            ("four_cycle_key", examples::four_cycle_key()),
        ];
        let mut cases = Vec::new();
        for (name, query) in queries {
            let db = instance(name, &query, seed);
            let first = engine(obs)
                .prepare(&query)
                .execute(&db, &ExecOptions::new())
                .map_err(|e| format!("{name}: first execute failed: {e}"))?;
            let expect = Expect::establish(&query, &db, Algorithm::GenericJoin, &first)
                .map_err(|e| format!("{name}: {e}"))?;
            cases.push(Case {
                name,
                query,
                db,
                expect,
                algorithm: first.algorithm_used,
            });
        }
        Ok(ColdPlan {
            cases,
            obs: obs.clone(),
            prep: PrepStats::default(),
        })
    }
}

impl Workload for ColdPlan {
    fn algorithm_used(&self) -> String {
        let names: Vec<String> = self
            .cases
            .iter()
            .map(|c| format!("{}={}", c.name, c.algorithm))
            .collect();
        names.join(",")
    }

    fn request(&mut self, tracer: &mut Tracer) -> Outcome {
        let mut latency = Duration::ZERO;
        let mut verdict = Ok(());
        for case in &self.cases {
            let span = tracer.enter("core.prepare");
            let (prepared, t_prepare) = timed(|| engine(&self.obs).prepare(&case.query));
            tracer.exit(span);
            let span = tracer.enter("core.first_execute");
            let (result, t_execute) = timed(|| prepared.execute(&case.db, &ExecOptions::new()));
            tracer.exit(span);
            latency += t_prepare + t_execute;
            let span = tracer.enter("harness.check");
            let stats = prepared.prep_stats();
            add(&mut self.prep, &stats);
            let checked = case.expect.check(&result).and_then(|()| {
                if stats.solves() == 0 {
                    Err("a cold prepare+execute planned nothing".to_string())
                } else {
                    Ok(())
                }
            });
            if verdict.is_ok() {
                verdict = checked.map_err(|e| format!("{}: {e}", case.name));
            }
            drop(result);
            tracer.exit(span);
        }
        Outcome { latency, verdict }
    }

    fn prep_window(&self) -> PrepStats {
        self.prep
    }

    fn finish(&mut self, requests: u64) -> Result<(), String> {
        let per_round = self.cases.len() as u64;
        if self.prep.lattice_presentations != requests * per_round {
            return Err(format!(
                "{} presentations over {requests} rounds of {per_round} queries",
                self.prep.lattice_presentations
            ));
        }
        Ok(())
    }

    fn units(&self) -> Vec<Unit> {
        self.cases
            .iter()
            .map(|c| Unit {
                query: c.query.clone(),
                db: c.db.clone(),
                opts: ExecOptions::new(),
            })
            .collect()
    }
}
