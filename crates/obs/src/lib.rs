//! # `fdjoin_obs` — observability for the fdjoin serving stack
//!
//! The stack's other crates *measure* deterministically (`Stats`,
//! `PrepStats`, `BatchStats`, `DeltaStats`, `StreamOutcome` count probes,
//! index builds, plan-cache hits, …) but each counter struct is siloed in
//! one call's return value. This crate is the cross-cutting layer that
//! stitches those measurements into three operator-facing surfaces:
//!
//! 1. **Structured tracing** ([`Observer`], [`Span`]): a lock-cheap span
//!    recorder — atomic span ids, per-thread buffers, one bounded ring —
//!    that `Engine::prepare`, index builds, `PreparedQuery::execute`,
//!    `ResultStream`, `MaterializedView::apply_delta`, and the
//!    `Executor` all emit through, with parent/child links that survive
//!    the hand-off to pool workers so one `Executor::submit` yields one
//!    coherent span tree. Exportable as JSON-lines ([`export_jsonl`]) and
//!    a compact text tree ([`render_text_tree`]).
//! 2. **Metrics** ([`Registry`], [`Histogram`]): process-wide atomic
//!    counters and log₂-bucketed histograms with Prometheus-style text
//!    exposition ([`Registry::to_prometheus`]) and a JSON snapshot
//!    ([`Registry::to_json`]), reconcilable 1:1 against the counter
//!    structs. Includes the estimate-calibration loop
//!    ([`Registry::record_estimate_error`] /
//!    [`Registry::estimate_calibration_log2`]): the running gap between
//!    `PreparedQuery::estimate` and observed `Stats::work`.
//! 3. **Validators** ([`validate_jsonl`], [`validate_prometheus`],
//!    [`validate_json`]): tiny format checkers so CI can assert the
//!    export surfaces stay machine-parseable without external tooling.
//!
//! (The third pillar of the observability layer — EXPLAIN / EXPLAIN
//! ANALYZE — lives in `fdjoin_core::explain`, because it renders plans
//! and bounds this crate deliberately knows nothing about.)
//!
//! ## Cost discipline
//!
//! The default [`Observer`] is **disabled**: a `None` inside a `Clone`
//! handle. Every recording entry point branches on that option and does
//! nothing else, so the stack's hot paths pay one predictable branch when
//! observability is off — pinned by the `obs_overhead` pass in
//! `benches/probe_ablation.rs`. This crate depends on nothing (not even
//! other fdjoin crates), so every layer down to storage can emit through
//! it.
//!
//! ```
//! use fdjoin_obs::{Observer, SpanKind, export_jsonl, validate_jsonl};
//!
//! let obs = Observer::enabled();
//! {
//!     let mut solve = obs.span(SpanKind::Solve, "triangle");
//!     solve.field("algorithm", "csma");
//!     solve.field("work", 42u64);
//! } // dropping the guard records the span
//! obs.metrics().add("fdjoin_executions_total", &[("algorithm", "csma")], 1);
//!
//! let spans = obs.drain_spans();
//! let jsonl = export_jsonl(&spans);
//! assert_eq!(validate_jsonl(&jsonl).unwrap(), 1);
//! assert!(obs.metrics().to_prometheus().contains("fdjoin_executions_total"));
//! ```

#![forbid(unsafe_code)]

mod export;
mod metrics;
mod span;

pub use export::{
    export_jsonl, render_text_tree, validate_json, validate_jsonl, validate_prometheus,
};
pub use metrics::{Histogram, Registry, HISTOGRAM_BUCKETS};
pub use span::{FieldValue, Observer, Span, SpanKind, SpanRecord};
