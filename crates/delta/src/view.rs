//! Materialized views and the delta-rule maintenance procedure.

use crate::{DeltaBatch, DeltaStats};
use fdjoin_core::{Algorithm, ExecOptions, JoinError, PreparedQuery};
use fdjoin_obs::SpanKind;
use fdjoin_storage::{Relation, Value};
use std::sync::Arc;

/// Maintenance policy for a [`MaterializedView`].
#[derive(Clone, Debug)]
pub struct DeltaOptions {
    exec: ExecOptions,
    max_delta_fraction: f64,
}

impl Default for DeltaOptions {
    fn default() -> DeltaOptions {
        DeltaOptions {
            exec: ExecOptions::new(),
            max_delta_fraction: 0.25,
        }
    }
}

impl DeltaOptions {
    /// Defaults: `ExecOptions::new()` (auto algorithm selection) and a 25%
    /// recompute threshold.
    pub fn new() -> DeltaOptions {
        DeltaOptions::default()
    }

    /// The execution options used for the initial materialization, every
    /// delta join, and fallback recomputes.
    ///
    /// They also decide per-delta plan specialization. When they are plain
    /// [`Algorithm::Auto`] with no pinning constraints, each delta join
    /// asks the cost model (`fdjoin_core::cost::delta_plan`) whether a
    /// Δ-first binary plan is cheaper than the view's full plan at the
    /// delta profile, and runs it if so: a 1-tuple delta then pays for its
    /// few matches instead of a full chain/SMA/CSMA pass over the base
    /// relations. Views pinned to an explicit algorithm never specialize,
    /// and `ExecOptions::cost_tiebreak(false)` — the "decisions must be a
    /// function of the size profile" switch — turns specialization off.
    pub fn exec(mut self, exec: ExecOptions) -> Self {
        self.exec = exec;
        self
    }

    /// Fall back to one full recompute when a batch names more than this
    /// fraction of the query's size profile — the total tuples across the
    /// query's atoms (default 0.25). A delta that
    /// large drifts the size profile enough that re-running the join
    /// beats revalidating the whole materialization tuple by tuple; the
    /// per-profile plans it invalidates are local to the `PreparedQuery`
    /// — the shared `PlanCache` shape entry survives either way.
    pub fn max_delta_fraction(mut self, fraction: f64) -> Self {
        self.max_delta_fraction = fraction;
        self
    }

    /// The configured execution options.
    pub(crate) fn exec_options(&self) -> &ExecOptions {
        &self.exec
    }
}

/// A materialized join result kept current under [`DeltaBatch`] updates.
///
/// The view owns its database (the current relation versions) and the
/// materialized output of the prepared query over it. The invariant after
/// every successful [`MaterializedView::apply_delta`] is exactly
/// `output == execute(query, database)`; the differential test harness
/// (`tests/differential.rs`) checks it against a fresh join for all six
/// algorithms under random insert/delete sequences.
///
/// # Error contract
///
/// Validation errors (unknown relation, arity mismatch, foreign view)
/// are detected up front: the view — database *and* output — is
/// untouched and the batch was not absorbed; fix the batch and resubmit.
/// Errors surfacing mid-maintenance (an algorithm failing on a delta or
/// full profile) leave the database *fully* updated — the batch reaches
/// every relation before any join runs — with a stale output; the
/// cumulative [`MaterializedView::stats`] count the applied rows. Call
/// [`MaterializedView::refresh`] to re-establish the invariant before
/// reading the view again.
pub struct MaterializedView {
    prepared: Arc<PreparedQuery>,
    opts: DeltaOptions,
    db: fdjoin_storage::Database,
    output: Relation,
    algorithm_used: Algorithm,
    stats: DeltaStats,
    /// Algorithms run by the most recent batch's delta joins, in pass
    /// order — observable per-delta plan choices.
    delta_algorithms: Vec<Algorithm>,
}

impl MaterializedView {
    /// Execute the prepared query over `db` and keep the result
    /// maintained. Equivalent to
    /// [`ApplyDelta::materialize`](crate::ApplyDelta::materialize).
    pub fn materialize(
        prepared: Arc<PreparedQuery>,
        db: fdjoin_storage::Database,
        opts: DeltaOptions,
    ) -> Result<MaterializedView, JoinError> {
        let r = prepared.execute(&db, opts.exec_options())?;
        Ok(MaterializedView {
            prepared,
            opts,
            db,
            output: r.output,
            algorithm_used: r.algorithm_used,
            stats: DeltaStats::default(),
            delta_algorithms: Vec::new(),
        })
    }

    /// The materialized query answer (all variables, ascending id order).
    pub fn output(&self) -> &Relation {
        &self.output
    }

    /// The current database (base relations with all applied deltas).
    pub fn database(&self) -> &fdjoin_storage::Database {
        &self.db
    }

    /// The prepared query this view maintains.
    pub fn prepared(&self) -> &Arc<PreparedQuery> {
        &self.prepared
    }

    /// The algorithm the most recent full execution resolved to (delta
    /// joins may resolve differently per delta profile).
    pub fn algorithm_used(&self) -> Algorithm {
        self.algorithm_used
    }

    /// The algorithms the most recent batch's delta joins actually ran, in
    /// pass (relation-name) order — the observable record of per-delta
    /// plan choices ([`DeltaOptions::exec`]). Empty when the
    /// last batch took the fallback path or ran no delta joins.
    pub fn delta_algorithms(&self) -> &[Algorithm] {
        &self.delta_algorithms
    }

    /// Cumulative maintenance counters since materialization.
    pub fn stats(&self) -> DeltaStats {
        self.stats
    }

    /// Absorb one batch of inserts/deletes, maintaining the output via
    /// delta joins (or one full recompute past the
    /// [`DeltaOptions::max_delta_fraction`] threshold). Returns this
    /// batch's counters; cumulative ones accrue on
    /// [`MaterializedView::stats`].
    pub fn apply_delta(&mut self, delta: &DeltaBatch) -> Result<DeltaStats, JoinError> {
        let obs = self.prepared.observer().clone();
        // The span wraps the whole maintenance, so the delta joins'
        // `solve` spans (same thread, same observer) nest under it.
        let mut span = obs.span(SpanKind::DeltaApply, "apply_delta");
        let mut bs = DeltaStats {
            batches: 1,
            ..DeltaStats::default()
        };
        self.validate(delta)?;
        self.delta_algorithms.clear();
        if delta.is_empty() {
            self.stats.merge(&bs);
            if obs.is_enabled() {
                span.field("empty", true);
                obs.metrics().add("fdjoin_delta_batches_total", &[], 1);
            }
            return Ok(bs);
        }
        // Normalise the batch once; the threshold and every phase below
        // read the same (Δ⁺, Δ⁻) pairs. The threshold compares the
        // *effective* rows aimed at the query's atoms against the query's
        // size profile — the tuples the join actually reads. No-op and
        // duplicate rows (e.g. an at-least-once client replaying an applied
        // batch) and rows against auxiliary relations cost no join work and
        // count toward neither side; deduping + membership costs
        // |delta| log(|delta| + len), negligible next to the recompute it
        // can avoid.
        let net = self.net_deltas(delta);
        let atom_rows: usize = net
            .iter()
            .filter(|d| self.prepared.query().atom_index(d.name).is_some())
            .map(|d| d.plus.len() + d.minus.len())
            .sum();
        let total: u64 = self.prepared.size_profile(&self.db)?.iter().sum();
        let result = if (atom_rows as f64) > self.opts.max_delta_fraction * total as f64 {
            self.apply_all(&net, &mut bs);
            self.full_execute(&mut bs)
        } else {
            self.incremental(&net, &mut bs)
        };
        // Merge even on error: relations may already have absorbed rows,
        // and the cumulative counters must reflect that (see the error
        // contract above).
        self.stats.merge(&bs);
        if obs.is_enabled() {
            span.field("inserts_applied", bs.inserts_applied);
            span.field("deletes_applied", bs.deletes_applied);
            span.field("delta_joins", bs.delta_joins);
            span.field("specialized", bs.specialized_deltas);
            span.field("full_recomputes", bs.full_recomputes);
            span.field("join_work", bs.join_work);
            if let Err(e) = &result {
                span.field("error", e.to_string());
            }
            let m = obs.metrics();
            m.add("fdjoin_delta_batches_total", &[], 1);
            m.add("fdjoin_delta_specialized_total", &[], bs.specialized_deltas);
        }
        span.finish();
        result.map(|()| bs)
    }

    /// Re-execute the prepared query over the current database and replace
    /// the materialization (counted as a full recompute).
    pub fn refresh(&mut self) -> Result<DeltaStats, JoinError> {
        let mut bs = DeltaStats {
            batches: 1,
            ..DeltaStats::default()
        };
        self.full_execute(&mut bs)?;
        self.stats.merge(&bs);
        Ok(bs)
    }

    /// Every named relation must exist and every row must match its arity.
    fn validate(&self, delta: &DeltaBatch) -> Result<(), JoinError> {
        for (name, d) in delta.relations() {
            let arity = self.db.relation(name)?.arity();
            for row in d.inserts.iter().chain(&d.deletes) {
                if row.len() != arity {
                    return Err(JoinError::InvalidOptions(format!(
                        "delta row {row:?} has arity {}, relation {name:?} has arity {arity}",
                        row.len()
                    )));
                }
            }
        }
        Ok(())
    }

    /// Each relation's share of `delta`, normalised against the stored
    /// rows, in name order.
    fn net_deltas<'d>(&self, delta: &'d DeltaBatch) -> Vec<NetDelta<'d>> {
        delta
            .relations()
            .map(|(name, d)| {
                let rel = self.db.relation(name).expect("validated");
                let ins = sorted_delta_rows(rel.vars(), &d.inserts);
                let dels = sorted_delta_rows(rel.vars(), &d.deletes);
                let absent = |i: &usize| !rel.contains_row(ins.row(*i));
                let doomed = |i: &usize| {
                    let row = dels.row(*i);
                    rel.contains_row(row) && !ins.contains_row(row)
                };
                NetDelta {
                    name,
                    plus: ins.select_rows((0..ins.len()).filter(absent)),
                    minus: dels.select_rows((0..dels.len()).filter(doomed)),
                }
            })
            .collect()
    }

    /// Apply the whole batch to the stored relations — the one place a
    /// batch reaches them, on the incremental and the fallback path alike.
    fn apply_all(&mut self, net: &[NetDelta<'_>], bs: &mut DeltaStats) {
        for d in net {
            let rel = self.db.relation_mut(d.name).expect("validated above");
            let applied = rel.apply_delta(d.plus.rows(), d.minus.rows());
            bs.inserts_applied += applied.added as u64;
            bs.deletes_applied += applied.removed as u64;
        }
    }

    /// One full execution over the current database, replacing the
    /// materialized output.
    fn full_execute(&mut self, bs: &mut DeltaStats) -> Result<(), JoinError> {
        let before = self.prepared.prep_stats();
        let r = self.prepared.execute(&self.db, self.opts.exec_options())?;
        let solves = self.prepared.prep_stats().since(&before).solves();
        bs.full_recomputes += 1;
        bs.join_work += r.stats.work();
        bs.planning_solves += solves;
        if solves == 0 {
            bs.plans_reused += 1;
        }
        let (added, removed) = diff_counts(&self.output, &r.output);
        bs.tuples_added += added;
        bs.tuples_removed += removed;
        self.output = r.output;
        self.algorithm_used = r.algorithm_used;
        Ok(())
    }

    /// The incremental path: the batch applied once, one Δ⁺ join per
    /// updated query relation against the final versions, then survivors
    /// revalidated against Δ⁻ and unioned with the joins' outputs.
    fn incremental(&mut self, net: &[NetDelta<'_>], bs: &mut DeltaStats) -> Result<(), JoinError> {
        self.apply_all(net, bs);
        let prepared = Arc::clone(&self.prepared);
        let q = prepared.query();

        // Δ⁺ passes, in name order: each substitutes its relation's net
        // inserts for the relation and joins them against every other
        // relation's *final* version. Every new output tuple uses some
        // inserted row, so the pass of that row's relation produces it;
        // tuples using inserts of several relations come out of several
        // passes and the sort-dedup below keeps one.
        let mut additions: Vec<Relation> = Vec::new();
        for d in net {
            let Some(ai) = q.atom_index(d.name).filter(|_| !d.plus.is_empty()) else {
                continue;
            };
            let applied = self.db.replace(d.name, d.plus.clone()).expect("validated");
            // Ask the cost model whether this delta profile wants a
            // Δ-first specialized plan instead of the view's own
            // algorithm — only for plain-Auto views (an explicitly
            // pinned algorithm or a pinning option is always honored)
            // that have not opted out of data-dependent decisions via
            // `ExecOptions::cost_tiebreak(false)`.
            let exec = self.opts.exec_options();
            let specialized = if exec.is_plain_auto() && exec.cost_tiebreak_enabled() {
                fdjoin_core::cost::delta_plan(q, &self.db, ai)
                    .ok()
                    .flatten()
            } else {
                None
            };
            let exec_opts = match &specialized {
                Some(order) => exec
                    .clone()
                    .algorithm(Algorithm::BinaryJoin)
                    .atom_order(order.clone()),
                None => exec.clone(),
            };
            let before = prepared.prep_stats();
            let run = prepared.execute(&self.db, &exec_opts);
            let solves = prepared.prep_stats().since(&before).solves();
            self.db.replace(d.name, applied);
            match run {
                Ok(r) => {
                    bs.delta_joins += 1;
                    if specialized.is_some() {
                        bs.specialized_deltas += 1;
                    }
                    self.delta_algorithms.push(r.algorithm_used);
                    bs.join_work += r.stats.work();
                    bs.planning_solves += solves;
                    // A specialized Δ-first binary join needs no plans
                    // at all, so it neither solves nor *reuses* — only
                    // unspecialized runs evidence plan-cache reuse.
                    if solves == 0 && specialized.is_none() {
                        bs.plans_reused += 1;
                    }
                    additions.push(r.output);
                }
                // A pinned algorithm declined a delta profile (e.g. no
                // good chain at those sizes): the database is already
                // final, so one full recompute restores the invariant.
                Err(JoinError::NoGoodChain | JoinError::NoGoodProof | JoinError::NoCsmSequence) => {
                    return self.full_execute(bs);
                }
                Err(e) => return Err(e),
            }
        }

        // Survivors: every old output tuple's atom projections were stored
        // before the batch, so it survives iff none of them is in its
        // relation's net Δ⁻ — a lookup in the batch, not in the relation.
        // The check is complete because the output covers all variables
        // and the FD/UDF constraints it satisfied are data-independent.
        let minus: Vec<(&[u32], Option<&Relation>)> = q
            .atoms()
            .iter()
            .map(|a| {
                let d = net.iter().find(|d| d.name == a.name);
                let rel = self.db.relation(&a.name).expect("validated");
                (rel.vars(), d.map(|d| &d.minus).filter(|m| !m.is_empty()))
            })
            .collect();
        let nv = q.n_vars();
        let old_len = self.output.len() as u64;
        let mut next = Relation::new((0..nv as u32).collect());
        let mut survivors = 0u64;
        if minus.iter().all(|(_, m)| m.is_none()) {
            survivors = old_len;
            std::mem::swap(&mut next, &mut self.output);
        } else {
            let mut key: Vec<Value> = Vec::new();
            for row in self.output.rows() {
                bs.revalidated += 1;
                let keep = minus.iter().all(|(vars, minus)| {
                    bs.join_work += 1;
                    minus.is_none_or(|m| {
                        key.clear();
                        key.extend(vars.iter().map(|&v| row[v as usize]));
                        !m.contains_row(&key)
                    })
                });
                if keep {
                    next.push_row(row);
                    survivors += 1;
                }
            }
        }
        bs.tuples_removed += old_len - survivors;
        for add in &additions {
            for row in add.rows() {
                next.push_row(row);
            }
        }
        next.sort_dedup();
        bs.tuples_added += next.len() as u64 - survivors;
        self.output = next;
        Ok(())
    }
}

/// One relation's share of a [`DeltaBatch`], normalised against the rows
/// stored when the batch arrived. Both halves are sorted and duplicate-free.
struct NetDelta<'d> {
    name: &'d str,
    /// Δ⁺: the inserted rows not stored yet.
    plus: Relation,
    /// Δ⁻: the deleted rows that are stored and that the same batch does
    /// not insert again.
    minus: Relation,
}

/// The delta rows as a sorted + deduplicated relation over `vars`, for
/// logarithmic membership tests against row lists.
fn sorted_delta_rows(vars: &[u32], rows: &[Vec<Value>]) -> Relation {
    let mut rel = Relation::new(vars.to_vec());
    for row in rows {
        rel.push_row(row);
    }
    rel.sort_dedup();
    rel
}

/// Rows in `new` not in `old` and rows in `old` not in `new` (both sorted
/// and deduplicated, same schema) — one merge walk.
fn diff_counts(old: &Relation, new: &Relation) -> (u64, u64) {
    let (n, m) = (old.len(), new.len());
    let (mut i, mut j) = (0usize, 0usize);
    let (mut added, mut removed) = (0u64, 0u64);
    while i < n || j < m {
        let ord = if i == n {
            std::cmp::Ordering::Greater
        } else if j == m {
            std::cmp::Ordering::Less
        } else {
            old.row(i).cmp(new.row(j))
        };
        match ord {
            std::cmp::Ordering::Less => {
                removed += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                added += 1;
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    (added, removed)
}

/// The [`PreparedQuery`] extension trait: incremental maintenance as a
/// method of the prepared query itself, mirroring how
/// `fdjoin_exec::ExecuteBatch` adds batch execution.
pub trait ApplyDelta {
    /// Materialize the query over `db` into a maintainable view.
    fn materialize(
        self: &Arc<Self>,
        db: fdjoin_storage::Database,
        opts: DeltaOptions,
    ) -> Result<MaterializedView, JoinError>;

    /// Absorb one delta batch into a view previously materialized from
    /// *this* prepared query.
    fn apply_delta(
        &self,
        view: &mut MaterializedView,
        delta: &DeltaBatch,
    ) -> Result<DeltaStats, JoinError>;
}

impl ApplyDelta for PreparedQuery {
    fn materialize(
        self: &Arc<Self>,
        db: fdjoin_storage::Database,
        opts: DeltaOptions,
    ) -> Result<MaterializedView, JoinError> {
        MaterializedView::materialize(self.clone(), db, opts)
    }

    fn apply_delta(
        &self,
        view: &mut MaterializedView,
        delta: &DeltaBatch,
    ) -> Result<DeltaStats, JoinError> {
        if !std::ptr::eq(Arc::as_ptr(&view.prepared), self) {
            return Err(JoinError::InvalidOptions(
                "view was materialized from a different PreparedQuery".to_string(),
            ));
        }
        view.apply_delta(delta)
    }
}
