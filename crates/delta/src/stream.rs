//! Serving-layer wiring: delta workloads on `fdjoin_exec`'s machinery.

use crate::{DeltaBatch, DeltaStats, MaterializedView};
use fdjoin_core::JoinError;
use fdjoin_exec::Executor;
use std::sync::mpsc::{channel, Receiver};

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
    /// observe a stale output); the handle returns the view alongside the
    /// per-batch outcomes, so a caller can
    /// [`refresh`](MaterializedView::refresh) and resubmit. A batch that
    /// panics on its worker (a registered UDF, say) takes the view down
    /// with it: the handle then reports [`JoinError::WorkerPanicked`] and
    /// the pool keeps serving.
    fn submit_deltas(&self, view: MaterializedView, deltas: Vec<DeltaBatch>) -> DeltaStreamHandle;
}

impl SubmitDeltas for Executor {
    fn submit_deltas(
        &self,
        mut view: MaterializedView,
        deltas: Vec<DeltaBatch>,
    ) -> DeltaStreamHandle {
        let (tx, rx) = channel();
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
            let _ = tx.send((view, results));
        });
        DeltaStreamHandle { rx }
    }
}

/// An in-flight delta stream submitted via [`SubmitDeltas`].
pub struct DeltaStreamHandle {
    rx: Receiver<(MaterializedView, Vec<Result<DeltaStats, JoinError>>)>,
}

impl DeltaStreamHandle {
    /// Block until the stream drains (or stops on an error); returns the
    /// maintained view and the per-batch outcomes in submission order
    /// (shorter than the submitted list iff a batch failed).
    /// [`JoinError::WorkerPanicked`] if the job panicked on its worker: it
    /// owned the view, so there is nothing to hand back.
    pub fn wait(self) -> Result<(MaterializedView, Vec<Result<DeltaStats, JoinError>>), JoinError> {
        self.rx.recv().map_err(|_| {
            JoinError::WorkerPanicked(
                "the delta stream job ended without reporting a result".to_string(),
            )
        })
    }
}
