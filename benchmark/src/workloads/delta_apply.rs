//! `delta_apply`: the write path beside the read path. A triangle view over
//! a seeded random graph absorbs batches of 4 inserts + 4 deletes per
//! relation. Join work per batch is tiny, but every batch bumps three
//! relation versions, so the time goes to `Relation::apply_delta` merges,
//! statistics, trie rebuilds and index evictions — the layer that is
//! read-only and hot everywhere else is rebuilt here.

use crate::gen::{checksum, random_edges, rng_for, row_hash};
use crate::span::Tracer;
use crate::workload::{engine, timed, window, Outcome, Unit, Workload};
use fdjoin::core::{Algorithm, ExecOptions, Observer, PrepStats, PreparedQuery};
use fdjoin::delta::{DeltaBatch, DeltaOptions, MaterializedView};
use fdjoin::query::{examples, Query};
use fdjoin::storage::{Database, Value};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashMap;
use std::sync::Arc;

const EDGES: usize = 1 << 16;
/// Eight edges per vertex and relation, whatever the graph's size.
const VERTICES: u64 = EDGES as u64 / 8;
/// Inserts and deletes per relation per batch.
const CHURN: usize = 4;

type Edge = (Value, Value);

/// One relation of the harness's own model of the graph: the edge list (to
/// draw deletes from), positions (membership + O(1) removal), and adjacency
/// by first column (to enumerate the triangles through an edge).
#[derive(Default)]
struct EdgeSet {
    edges: Vec<Edge>,
    pos: HashMap<Edge, usize>,
    by_first: HashMap<Value, Vec<Value>>,
}

impl EdgeSet {
    fn contains(&self, e: Edge) -> bool {
        self.pos.contains_key(&e)
    }

    fn insert(&mut self, e: Edge) {
        self.pos.insert(e, self.edges.len());
        self.edges.push(e);
        self.by_first.entry(e.0).or_default().push(e.1);
    }

    fn remove(&mut self, e: Edge) {
        let at = self.pos.remove(&e).expect("removing a present edge");
        self.edges.swap_remove(at);
        if let Some(moved) = self.edges.get(at) {
            self.pos.insert(*moved, at);
        }
        let adj = self
            .by_first
            .get_mut(&e.0)
            .expect("adjacency of a present edge");
        let i = adj.iter().position(|&v| v == e.1).expect("listed");
        adj.swap_remove(i);
    }

    fn seconds(&self, first: Value) -> &[Value] {
        self.by_first.get(&first).map_or(&[], Vec::as_slice)
    }
}

/// An independent, incrementally maintained oracle for the triangle view
/// `R(x,y), S(y,z), T(z,x)`: the count and checksum of the answer set,
/// updated per edge by enumerating the triangles through it — a different
/// algorithm family from every join the engine runs.
struct TriangleModel {
    /// `R`, `S`, `T` in that order; relation `i`'s edge `(a, b)` closes a
    /// triangle with `(b, c)` in relation `i+1` and `(c, a)` in relation `i+2`.
    rels: [EdgeSet; 3],
    count: usize,
    checksum: u64,
}

impl TriangleModel {
    /// Hash of the output row `(x, y, z)` of the triangle whose edge in
    /// relation `i` is `(a, b)` and whose third vertex is `c`.
    fn triangle_hash(i: usize, (a, b): Edge, c: Value) -> u64 {
        let xyz = match i {
            0 => [a, b, c], // R(x,y), z = c
            1 => [c, a, b], // S(y,z), x = c
            _ => [b, c, a], // T(z,x), y = c
        };
        row_hash(&xyz)
    }

    /// Count and checksum of the triangles through edge `e` of relation `i`
    /// (whether or not `e` itself is present).
    fn through(&self, i: usize, e: Edge) -> (usize, u64) {
        let (next, last) = (&self.rels[(i + 1) % 3], &self.rels[(i + 2) % 3]);
        next.seconds(e.1)
            .iter()
            .filter(|&&c| last.contains((c, e.0)))
            .fold((0, 0u64), |(n, sum), &c| {
                (n + 1, sum.wrapping_add(Self::triangle_hash(i, e, c)))
            })
    }

    fn insert(&mut self, i: usize, e: Edge) {
        let (n, sum) = self.through(i, e);
        self.count += n;
        self.checksum = self.checksum.wrapping_add(sum);
        self.rels[i].insert(e);
    }

    fn remove(&mut self, i: usize, e: Edge) {
        self.rels[i].remove(e);
        let (n, sum) = self.through(i, e);
        self.count -= n;
        self.checksum = self.checksum.wrapping_sub(sum);
    }
}

const NAMES: [&str; 3] = ["R", "S", "T"];

pub struct DeltaApply {
    query: Query,
    prepared: Arc<PreparedQuery>,
    view: MaterializedView,
    model: TriangleModel,
    churn: StdRng,
    algorithm: Algorithm,
    warm: PrepStats,
    full_recomputes: u64,
}

/// A seeded random graph: `EDGES` edges per relation over `VERTICES` vertices.
fn graph(query: &Query, seed: u64) -> Database {
    let mut db = Database::new();
    for atom in query.atoms() {
        let rel = random_edges(
            atom.vars.clone(),
            VERTICES,
            EDGES,
            &mut rng_for(seed, &format!("delta/graph/{}", atom.name)),
        );
        db.insert(atom.name.clone(), rel);
    }
    db
}

impl DeltaApply {
    pub fn new(seed: u64, obs: &Observer) -> Result<DeltaApply, String> {
        let query = examples::triangle();
        let db = graph(&query, seed);
        let mut model = TriangleModel {
            rels: Default::default(),
            count: 0,
            checksum: 0,
        };
        // The model is filled edge by edge, so its count and checksum are
        // derived by its own algorithm, not copied from the engine.
        for (i, name) in NAMES.iter().enumerate() {
            for row in db.relation(name).expect("just generated").rows() {
                model.insert(i, (row[0], row[1]));
            }
        }
        let prepared = Arc::new(engine(obs).prepare(&query));
        let view = MaterializedView::materialize(prepared.clone(), db, DeltaOptions::new())
            .map_err(|e| format!("materialize failed: {e}"))?;
        let algorithm = view.algorithm_used();
        let mut me = DeltaApply {
            query,
            prepared,
            view,
            model,
            churn: rng_for(seed, "delta/churn"),
            algorithm,
            warm: PrepStats::default(),
            full_recomputes: 0,
        };
        me.check_view()?;
        // A second materializing family must agree with view and model.
        let reference = fdjoin::core::Engine::new()
            .prepare(&me.query)
            .execute(
                me.view.database(),
                &ExecOptions::new().algorithm(Algorithm::GenericJoin),
            )
            .map_err(|e| format!("oracle failed: {e}"))?;
        if reference.output != *me.view.output() {
            return Err("materialized view disagrees with the Generic-Join oracle".into());
        }
        drop(reference);
        // Two batches before the window opens: delta-profile plans exist.
        for _ in 0..2 {
            me.request(&mut Tracer::disabled()).verdict?;
        }
        me.warm = me.prepared.prep_stats();
        me.full_recomputes = 0;
        Ok(me)
    }

    /// The view must hold exactly the model's answer set.
    fn check_view(&self) -> Result<(), String> {
        let out = self.view.output();
        if out.len() != self.model.count {
            return Err(format!(
                "view has {} rows, model {}",
                out.len(),
                self.model.count
            ));
        }
        if checksum(out) != self.model.checksum {
            return Err("view rows differ from the model's".into());
        }
        Ok(())
    }

    /// Draw the next batch and apply it to the model: per relation, `CHURN`
    /// present edges to delete and `CHURN` absent ones to insert.
    fn next_batch(&mut self) -> DeltaBatch {
        let mut batch = DeltaBatch::new();
        let mut deleted = Vec::new();
        for (i, name) in NAMES.iter().enumerate() {
            for _ in 0..CHURN {
                let edges = &self.model.rels[i].edges;
                let e = edges[self.churn.gen_range(0..edges.len())];
                self.model.remove(i, e);
                deleted.push((i, e));
                batch.push_delete(*name, vec![e.0, e.1]);
            }
        }
        for (i, name) in NAMES.iter().enumerate() {
            for _ in 0..CHURN {
                // Never re-insert a row this batch deletes: the engine would
                // (rightly) skip both, and the applied-row check below counts.
                let e = loop {
                    let e = (
                        self.churn.gen_range(0..VERTICES),
                        self.churn.gen_range(0..VERTICES),
                    );
                    if !self.model.rels[i].contains(e) && !deleted.contains(&(i, e)) {
                        break e;
                    }
                };
                self.model.insert(i, e);
                batch.push_insert(*name, vec![e.0, e.1]);
            }
        }
        batch
    }
}

impl Workload for DeltaApply {
    fn algorithm_used(&self) -> String {
        self.algorithm.to_string()
    }

    fn request(&mut self, tracer: &mut Tracer) -> Outcome {
        let span = tracer.enter("harness.draw_batch");
        let batch = self.next_batch();
        tracer.exit(span);
        let span = tracer.enter("delta.apply_delta");
        let (applied, latency) = timed(|| self.view.apply_delta(&batch));
        tracer.exit(span);
        let span = tracer.enter("harness.check");
        let verdict = match applied {
            Err(e) => Err(format!("apply_delta failed: {e}")),
            Ok(stats) => {
                self.full_recomputes += stats.full_recomputes;
                let churned = (CHURN * NAMES.len()) as u64;
                if stats.full_recomputes != 0 {
                    Err("batch fell back to a full recompute".into())
                } else if (stats.inserts_applied, stats.deletes_applied) != (churned, churned) {
                    Err(format!(
                        "applied {}+/{}-, expected {churned}+/{churned}-",
                        stats.inserts_applied, stats.deletes_applied
                    ))
                } else {
                    self.check_view()
                }
            }
        };
        tracer.exit(span);
        Outcome { latency, verdict }
    }

    fn prep_window(&self) -> PrepStats {
        window(&self.prepared, &self.warm)
    }

    fn finish(&mut self, _requests: u64) -> Result<(), String> {
        if self.full_recomputes != 0 {
            return Err(format!("{} full recomputes", self.full_recomputes));
        }
        let fresh = fdjoin::core::Engine::new()
            .prepare(&self.query)
            .execute(self.view.database(), &ExecOptions::new())
            .map_err(|e| format!("final execute failed: {e}"))?;
        if fresh.output != *self.view.output() {
            return Err("maintained view differs from a fresh execution".into());
        }
        Ok(())
    }

    fn units(&self) -> Vec<Unit> {
        vec![Unit {
            query: self.query.clone(),
            db: self.view.database().clone(),
            opts: ExecOptions::new(),
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_counts_triangles_through_each_edge_kind() {
        let mut m = TriangleModel {
            rels: Default::default(),
            count: 0,
            checksum: 0,
        };
        // Triangle x=1, y=2, z=3: R(1,2), S(2,3), T(3,1).
        m.insert(0, (1, 2));
        m.insert(1, (2, 3));
        assert_eq!(m.count, 0);
        m.insert(2, (3, 1));
        assert_eq!((m.count, m.checksum), (1, row_hash(&[1, 2, 3])));
        // A second triangle sharing R(1,2): z = 4.
        m.insert(2, (4, 1));
        m.insert(1, (2, 4));
        assert_eq!(m.count, 2);
        assert_eq!(
            m.checksum,
            row_hash(&[1, 2, 3]).wrapping_add(row_hash(&[1, 2, 4]))
        );
        // Removing the shared edge removes both; re-inserting restores both.
        m.remove(0, (1, 2));
        assert_eq!((m.count, m.checksum), (0, 0));
        m.insert(0, (1, 2));
        assert_eq!(m.count, 2);
        m.remove(1, (2, 3));
        assert_eq!((m.count, m.checksum), (1, row_hash(&[1, 2, 4])));
    }
}
