//! # `fdjoin_obs` — observability for the fdjoin serving stack
//!
//! The stack's other crates *measure* deterministically (`Stats`,
//! `PrepStats`, `BatchStats`, `DeltaStats`, `StreamOutcome` count probes,
//! index builds, plan-cache hits, …) but each counter struct is siloed in
//! one call's return value. This crate is the cross-cutting layer that
//! puts those measurements on one request's span tree:
//!
//! 1. **Structured tracing** ([`Observer`], [`Span`]): a lock-cheap span
//!    recorder — atomic span ids, per-thread open-span stacks, one
//!    bounded ring — that `Engine::prepare`, index builds,
//!    `PreparedQuery::execute`, `ResultStream`,
//!    `MaterializedView::apply_delta`, and the `Executor` all emit
//!    through, with parent/child links that survive
//!    the hand-off to pool workers so one `Executor::submit` yields one
//!    coherent span tree. Each span carries its request's own counters
//!    as fields: a `solve` span holds the algorithm, rows, work,
//!    predicted bound and estimate of one execution, so a request's work
//!    is read against its own bound. Exportable as JSON-lines
//!    ([`export_jsonl`]) and a compact text tree ([`render_text_tree`]).
//! 2. **Validator** ([`validate_jsonl`]): a tiny JSON checker so CI can
//!    assert the span export stays machine-parseable without external
//!    tooling.
//!
//! (EXPLAIN / EXPLAIN ANALYZE live in `fdjoin_core::explain`, because
//! they render plans and bounds this crate deliberately knows nothing
//! about.)
//!
//! ## Cost discipline
//!
//! The default [`Observer`] is **disabled**: a `None` inside a `Clone`
//! handle. Every recording entry point branches on that option and does
//! nothing else, so the stack's hot paths pay one predictable branch when
//! observability is off; the benchmark spine's `obs.enabled_overhead_pct`
//! prices an enabled handle against a disabled one. This crate depends
//! on nothing (not even other fdjoin crates), so every layer down to
//! storage can emit through it.
//!
//! ```
//! use fdjoin_obs::{Observer, SpanKind, export_jsonl, validate_jsonl};
//! use std::collections::BTreeMap;
//!
//! let obs = Observer::enabled();
//! for algorithm in ["csma", "chain", "csma"] {
//!     let mut solve = obs.span(SpanKind::Solve, "triangle");
//!     solve.field("algorithm", algorithm);
//!     solve.field("work", 42u64);
//! } // dropping the guard records the span
//!
//! let spans = obs.drain_spans();
//! let jsonl = export_jsonl(&spans);
//! assert_eq!(validate_jsonl(&jsonl).unwrap(), 3);
//!
//! // Per-algorithm execution counts, read off the drained spans.
//! let mut solves: BTreeMap<String, usize> = BTreeMap::new();
//! for s in spans.iter().filter(|s| s.kind == SpanKind::Solve) {
//!     *solves.entry(s.field("algorithm").unwrap().to_string()).or_default() += 1;
//! }
//! assert_eq!(solves["csma"], 2);
//! assert_eq!(solves["chain"], 1);
//! ```

#![forbid(unsafe_code)]

mod export;
mod span;

pub use export::{export_jsonl, render_text_tree, validate_jsonl};
pub use span::{FieldValue, Observer, Span, SpanKind, SpanRecord};
