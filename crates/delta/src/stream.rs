//! Serving-layer wiring: delta workloads on `fdjoin_exec`'s machinery.

use crate::{DeltaBatch, DeltaStats, MaterializedView};
use fdjoin_core::JoinError;
use fdjoin_exec::{Executor, JobHandle};

/// Stream ordered delta batches into materialized views on an
/// [`Executor`]'s persistent pool.
///
/// Each submitted stream runs as one pool job, so its batches apply
/// strictly in order (view maintenance is stateful); distinct streams —
/// one per long-lived view — absorb their updates concurrently, sharing
/// the pool with `Executor::submit` query batches.
pub trait SubmitDeltas {
    /// Enqueue `deltas` against `view`; returns immediately with a handle.
    /// The stream stops at the first failing batch (later batches would
    /// observe a stale output); the handle returns the maintained view
    /// alongside the per-batch outcomes in submission order (shorter than
    /// the submitted list iff a batch failed), so a caller can
    /// [`refresh`](MaterializedView::refresh) and resubmit. A batch that
    /// panics on its worker (a registered UDF, say) takes the view down
    /// with it: the handle then reports [`JoinError::WorkerPanicked`] with
    /// the panic's message, and the pool keeps serving.
    fn submit_deltas(
        &self,
        view: MaterializedView,
        deltas: Vec<DeltaBatch>,
    ) -> JobHandle<(MaterializedView, Vec<Result<DeltaStats, JoinError>>)>;
}

impl SubmitDeltas for Executor {
    fn submit_deltas(
        &self,
        mut view: MaterializedView,
        deltas: Vec<DeltaBatch>,
    ) -> JobHandle<(MaterializedView, Vec<Result<DeltaStats, JoinError>>)> {
        self.spawn(move || {
            let mut results = Vec::with_capacity(deltas.len());
            for delta in &deltas {
                let r = view.apply_delta(delta);
                let failed = r.is_err();
                results.push(r);
                if failed {
                    break;
                }
            }
            Ok((view, results))
        })
    }
}
