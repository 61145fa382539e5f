//! Enumeration-complexity classification under functional dependencies
//! (Carmeli–Kröll, *Enumeration Complexity of Conjunctive Queries with
//! Functional Dependencies*, arXiv:1712.07880).
//!
//! The classical dichotomy (Bagan–Durand–Grandjean) says a self-join-free
//! conjunctive query admits linear preprocessing + constant-delay
//! enumeration iff it is **free-connex**; Carmeli–Kröll lift the dichotomy
//! to databases with FDs by applying it to the **FD-extended query**: each
//! atom's attribute set replaced by its FD-closure. A query that is not
//! free-connex can therefore still be enumerable with constant delay when
//! its FDs make the extension free-connex.
//!
//! Every query this repo evaluates is *full* (all variables free, Eq. 3 of
//! the source paper), and for full queries free-connexity degenerates to
//! α-acyclicity of the query hypergraph ([`Hypergraph::is_acyclic`]). The
//! FD-extension is exactly [`Query::closure_query`] — the `Q⁺` the paper
//! builds in Sec. 2 — so the whole classification is two GYO reductions:
//!
//! | `H(Q)` acyclic | `H(Q⁺)` acyclic | class |
//! |---|---|---|
//! | yes | (implied) | [`EnumerationClass::ConstantDelay`] |
//! | no | yes | [`EnumerationClass::ConstantDelayViaFds`] |
//! | no | no | [`EnumerationClass::NotConstantDelay`] |
//!
//! The class is a statement about the *query* — which side of the dichotomy
//! it falls on — not about this repo's cursor: `fdjoin_stream`'s
//! `ResultStream` runs the same leapfrog descent whatever the class says
//! and does not exploit it yet. Measured on `examples::simple_fd_path()`
//! (classified [`EnumerationClass::ConstantDelay`]) with `R = S = {(i,i)}`,
//! `T = {(n/2,0), (n−1,0)}`: 649 / 2 569 / 10 249 / 40 969 probes between
//! consecutive rows at n = 2^8 / 2^10 / 2^12 / 2^14 — linear in the data.
//! The planner records the class on `fdjoin_core::AutoDecision` so
//! `Algorithm::Auto` callers see it per execution.

use crate::Query;
use std::fmt;

/// The Carmeli–Kröll enumeration class of a (full) conjunctive query with
/// FDs: whether linear preprocessing + constant-delay enumeration is
/// attainable *for the query*, and whether the FDs are what makes it so.
/// `fdjoin_stream::ResultStream` does not exploit it yet: its delay is
/// linear in the data on constant-delay-class queries too (649 → 40 969
/// probes between rows from n = 2^8 to 2^14 on `simple_fd_path`; see the
/// module docs).
///
/// For full queries free-connexity degenerates to α-acyclicity, so the
/// classification is two GYO reductions — one on the query hypergraph
/// `H(Q)`, one on the FD-extension `H(Q⁺)` ([`Query::closure_query`]):
///
/// | `H(Q)` acyclic | `H(Q⁺)` acyclic | class |
/// |---|---|---|
/// | yes | (implied) | [`EnumerationClass::ConstantDelay`] |
/// | no | yes | [`EnumerationClass::ConstantDelayViaFds`] |
/// | no | no | [`EnumerationClass::NotConstantDelay`] |
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EnumerationClass {
    /// The query hypergraph itself is α-acyclic (free-connex as a full
    /// query): constant-delay enumeration holds even ignoring the FDs.
    ConstantDelay,
    /// The query hypergraph is cyclic, but the FD-extended hypergraph
    /// (atoms replaced by their closures, [`Query::closure_query`]) is
    /// acyclic — constant delay is attainable *because of* the FDs.
    ConstantDelayViaFds,
    /// Even the FD-extension is cyclic: by the Carmeli–Kröll dichotomy no
    /// enumeration algorithm achieves linear preprocessing with constant
    /// delay (conditional on the usual hypotheses, e.g. the hardness of
    /// Boolean matrix multiplication).
    NotConstantDelay,
}

impl EnumerationClass {
    /// Whether constant-delay enumeration is attainable for the query
    /// (either branch of the positive side of the dichotomy).
    pub fn is_constant_delay(self) -> bool {
        matches!(
            self,
            EnumerationClass::ConstantDelay | EnumerationClass::ConstantDelayViaFds
        )
    }
}

impl fmt::Display for EnumerationClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EnumerationClass::ConstantDelay => "constant-delay",
            EnumerationClass::ConstantDelayViaFds => "constant-delay-via-fds",
            EnumerationClass::NotConstantDelay => "not-constant-delay",
        };
        f.write_str(s)
    }
}

impl Query {
    /// Classify this query's enumeration complexity under its FDs (see
    /// [`EnumerationClass`] for the decision table). Costs two GYO
    /// reductions over atom-count-sized hypergraphs — cheap enough to run
    /// once per `prepare`.
    pub fn enumeration_class(&self) -> EnumerationClass {
        if self.hypergraph().is_acyclic() {
            EnumerationClass::ConstantDelay
        } else if self.closure_query().hypergraph().is_acyclic() {
            EnumerationClass::ConstantDelayViaFds
        } else {
            EnumerationClass::NotConstantDelay
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples;

    /// The triangle with a guarded FD `x → y`: cyclic as a hypergraph, but
    /// `T(z,x)⁺ = {x,y,z}` absorbs both other atoms — the Carmeli–Kröll
    /// positive case that exists only because of the FD.
    fn keyed_triangle() -> Query {
        let mut b = Query::builder();
        let (x, y, z) = (b.var("x"), b.var("y"), b.var("z"));
        b.atom("R", &[x, y]).atom("S", &[y, z]).atom("T", &[z, x]);
        b.fd(&[x], &[y]);
        b.build()
    }

    #[test]
    fn acyclic_queries_are_constant_delay() {
        assert_eq!(
            examples::simple_fd_path().enumeration_class(),
            EnumerationClass::ConstantDelay
        );
        assert_eq!(
            examples::fig1_udf().enumeration_class(),
            EnumerationClass::ConstantDelay
        );
        assert_eq!(
            examples::composite_key().enumeration_class(),
            EnumerationClass::ConstantDelay
        );
        assert!(examples::simple_fd_path()
            .enumeration_class()
            .is_constant_delay());
    }

    #[test]
    fn cyclic_fd_free_queries_are_not_constant_delay() {
        let class = examples::triangle().enumeration_class();
        assert_eq!(class, EnumerationClass::NotConstantDelay);
        assert!(!class.is_constant_delay());
    }

    #[test]
    fn fds_can_rescue_a_cyclic_query() {
        let q = keyed_triangle();
        // The raw hypergraph is the triangle (cyclic) …
        assert!(!q.hypergraph().is_acyclic());
        // … but the FD-extension is acyclic, so the class credits the FDs.
        let class = q.enumeration_class();
        assert_eq!(class, EnumerationClass::ConstantDelayViaFds);
        assert!(class.is_constant_delay());
    }

    #[test]
    fn display_names_are_stable() {
        assert_eq!(
            EnumerationClass::ConstantDelay.to_string(),
            "constant-delay"
        );
        assert_eq!(
            EnumerationClass::ConstantDelayViaFds.to_string(),
            "constant-delay-via-fds"
        );
        assert_eq!(
            EnumerationClass::NotConstantDelay.to_string(),
            "not-constant-delay"
        );
    }
}
