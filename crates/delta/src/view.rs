//! Materialized views and the delta-rule maintenance procedure.

use crate::{DeltaBatch, DeltaStats};
use fdjoin_core::{Algorithm, ExecOptions, JoinError, PreparedQuery};
use fdjoin_obs::{Span, SpanKind};
use fdjoin_storage::{DeltaApplied, Relation, Value};
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
    /// — the shared `PlanCache` shape entry survives either way. A NaN or
    /// negative fraction is [`JoinError::InvalidOptions`] at
    /// [`MaterializedView::materialize`].
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
/// Validation errors (unknown relation, arity mismatch)
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
    /// maintained. The view holds `prepared` for its whole life: every
    /// later [`MaterializedView::apply_delta`] and
    /// [`MaterializedView::refresh`] runs through it. A NaN or negative
    /// [`DeltaOptions::max_delta_fraction`] is [`JoinError::InvalidOptions`].
    pub fn materialize(
        prepared: Arc<PreparedQuery>,
        db: fdjoin_storage::Database,
        opts: DeltaOptions,
    ) -> Result<MaterializedView, JoinError> {
        // NaN would never fall back; a negative fraction would fall back on
        // every batch.
        let fraction = opts.max_delta_fraction;
        if fraction.is_nan() || fraction < 0.0 {
            return Err(JoinError::InvalidOptions(format!(
                "max_delta_fraction must be a non-negative number, not {fraction}"
            )));
        }
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
        // A rejected batch says so on its span, like a failed join does.
        self.validate(delta).map_err(|e| failed(&mut span, e))?;
        self.delta_algorithms.clear();
        if delta.is_empty() {
            self.stats.merge(&bs);
            span.field("empty", true);
            return Ok(bs);
        }
        // The threshold compares the *net* rows aimed at the query's atoms
        // against the query's size profile before the batch — the tuples
        // the join actually reads. No-op and duplicate rows (e.g. an
        // at-least-once client replaying an applied batch) and rows against
        // auxiliary relations cost no join work and count toward neither
        // side. The net rows are what applying the batch reports, so the
        // profile is read first.
        let total: u64 = self
            .prepared
            .size_profile(&self.db)
            .map_err(|e| failed(&mut span, e))?
            .iter()
            .sum();
        let net = self.apply_all(delta, &mut bs);
        let q = self.prepared.query();
        let atom_rows: usize = net
            .iter()
            .filter(|(name, _)| q.atom_index(name).is_some())
            .map(|(_, applied)| applied.changed())
            .sum();
        let result = if (atom_rows as f64) > self.opts.max_delta_fraction * total as f64 {
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
        }
        result.map(|()| bs).map_err(|e| failed(&mut span, e))
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

    /// Apply the whole batch to the stored relations — the one place a
    /// batch reaches them, on the incremental and the fallback path alike —
    /// and hand back what each relation absorbed, its net `Δ⁺` and `Δ⁻`, in
    /// name order.
    fn apply_all<'d>(
        &mut self,
        delta: &'d DeltaBatch,
        bs: &mut DeltaStats,
    ) -> Vec<(&'d str, DeltaApplied)> {
        delta
            .relations()
            .map(|(name, d)| {
                let rel = self.db.relation_mut(name).expect("validated above");
                let applied = rel.apply_delta(&d.inserts, &d.deletes);
                bs.inserts_applied += applied.added as u64;
                bs.deletes_applied += applied.removed as u64;
                (name, applied)
            })
            .collect()
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

    /// The incremental path over the applied batch's net rows: one Δ⁺ join
    /// per updated query relation against the final versions, then the
    /// answers revalidated against Δ⁻, and both spliced into the output.
    fn incremental(
        &mut self,
        net: &[(&str, DeltaApplied)],
        bs: &mut DeltaStats,
    ) -> Result<(), JoinError> {
        let prepared = Arc::clone(&self.prepared);
        let q = prepared.query();

        // Δ⁺ passes, in name order: each substitutes its relation's net
        // inserts for the relation and joins them against every other
        // relation's *final* version. Every new output tuple uses some
        // inserted row, so the pass of that row's relation produces it;
        // tuples using inserts of several relations come out of several
        // passes and the splice below adds one.
        let mut additions: Vec<Relation> = Vec::new();
        for &(name, ref applied) in net {
            let Some((ai, plus)) = q.atom_index(name).zip(applied.plus()) else {
                continue;
            };
            let current = self.db.replace(name, plus.clone()).expect("validated");
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
            self.db.replace(name, current);
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

        // Dropped answers: every old answer's atom projections were stored
        // before the batch, so it survives iff none of them is in its
        // relation's net Δ⁻ — a lookup in the batch, not in the relation.
        // The check is complete because the output covers all variables
        // and the FD/UDF constraints it satisfied are data-independent.
        let minus: Vec<(&[u32], Option<&Relation>)> = q
            .atoms()
            .iter()
            .map(|a| {
                let applied = net.iter().find(|(name, _)| *name == a.name);
                let rel = self.db.relation(&a.name).expect("validated");
                (rel.vars(), applied.and_then(|(_, d)| d.minus()))
            })
            .collect();
        let mut dropped = Relation::new(self.output.vars().to_vec());
        if minus.iter().any(|(_, m)| m.is_some()) {
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
                if !keep {
                    dropped.push_row(row);
                }
            }
        }
        // The answer is spliced where it lies: a dropped answer never comes
        // out of a Δ⁺ join (it reads a row the batch removed), so the counts
        // are exactly the answers added and dropped.
        let rows = additions.iter().flat_map(Relation::rows);
        let spliced = self.output.apply_delta(rows, dropped.rows());
        bs.tuples_added += spliced.added as u64;
        bs.tuples_removed += spliced.removed as u64;
        Ok(())
    }
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

/// Record `e` as the `error` field of `span` (a no-op on a disabled
/// observer) and hand it back.
fn failed(span: &mut Span, e: JoinError) -> JoinError {
    if span.id().is_some() {
        span.field("error", e.to_string());
    }
    e
}
