//! The cross-query plan cache: plans shared between *isomorphic* queries.
//!
//! The per-query cache in [`PreparedQuery`](super::PreparedQuery) amortizes
//! planning across executions of one query; this module amortizes it across
//! *queries*. Two queries whose lattice presentations are isomorphic (same
//! closed-set lattice up to relabeling, same multiset of input closures)
//! need exactly the same chain searches, LLP solves, and proof-sequence
//! constructions — only the labels differ. [`PlanCache`] keys shape entries
//! by the canonical certificate from
//! [`fdjoin_lattice::canonical_fingerprint`] and stores every plan in
//! canonical coordinates; preparing an isomorphic query *rehydrates* the
//! plans through the relabeling instead of recomputing them (observable as
//! [`PrepStats::shared_hits`](super::PrepStats::shared_hits)).
//!
//! The cache is one map under one lock, handed around as an `Arc`, so a
//! serving layer can attach one cache to any number of engines and worker
//! threads; a shape is looked up once per prepare, never per execution.
//! Memory is bounded at both levels: the shape count is capped in total
//! (least-recently-*prepared* shapes evicted first), and each shape's
//! per-size-profile plan maps are themselves bounded `PlanMap`s
//! (arbitrary replacement past their cap).

use super::plan::Plans;
use super::relabel::Relabel;
use fdjoin_lattice::PresentationFingerprint;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A canonical size-profile key: `(canonical input element, size)` pairs in
/// canonical slot order. Two isomorphic queries executing over databases
/// with corresponding relation sizes produce the same key.
pub(crate) type CanonKey = Vec<(u32, u64)>;

/// All cached plans for one presentation shape, in canonical coordinates.
#[derive(Debug)]
pub(crate) struct ShapeEntry {
    pub plans: Plans<CanonKey>,
    last_used: AtomicU64,
}

/// Aggregate counters for a [`PlanCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Prepares that found their shape already cached.
    pub shape_hits: u64,
    /// Prepares that inserted a new shape.
    pub shape_misses: u64,
    /// Shapes evicted to stay within capacity.
    pub evictions: u64,
    /// Shapes currently resident.
    pub shapes: usize,
}

impl PlanCacheStats {
    /// Total prepares that consulted the cache (`shape_hits +
    /// shape_misses`); with `shapes + evictions == shape_misses` this is
    /// the reconciliation identity the accounting tests pin down.
    pub fn prepares(&self) -> u64 {
        self.shape_hits + self.shape_misses
    }
}

const DEFAULT_SHAPES: usize = 1024;

/// An engine-level plan cache shared across queries, keyed by
/// lattice-presentation isomorphism.
///
/// Attach one to an [`Engine`](super::Engine) with
/// [`Engine::with_plan_cache`](super::Engine::with_plan_cache); every
/// [`PreparedQuery`](super::PreparedQuery) made by that engine then
/// publishes the plans it computes and rehydrates the plans isomorphic
/// queries already paid for:
///
/// ```
/// use fdjoin_core::{Engine, ExecOptions, PlanCache};
/// use std::sync::Arc;
///
/// let cache = Arc::new(PlanCache::new());
/// let engine = Engine::with_plan_cache(cache.clone());
/// let q = fdjoin_query::examples::triangle();
/// let prepared = engine.prepare(&q);
/// assert_eq!(cache.stats().shapes, 1);
/// ```
pub struct PlanCache {
    shapes: Mutex<HashMap<Vec<u8>, Arc<ShapeEntry>>>,
    max_shapes: usize,
    clock: AtomicU64,
    shape_hits: AtomicU64,
    shape_misses: AtomicU64,
    evictions: AtomicU64,
}

impl PlanCache {
    /// A cache with the default capacity (1024 shapes).
    pub fn new() -> PlanCache {
        PlanCache::with_capacity(DEFAULT_SHAPES)
    }

    /// A cache holding at most `max_shapes` distinct presentation shapes
    /// (at least one).
    pub fn with_capacity(max_shapes: usize) -> PlanCache {
        PlanCache {
            shapes: Mutex::new(HashMap::new()),
            max_shapes: max_shapes.max(1),
            clock: AtomicU64::new(0),
            shape_hits: AtomicU64::new(0),
            shape_misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Current counters.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            shape_hits: self.shape_hits.load(Ordering::Relaxed),
            shape_misses: self.shape_misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            shapes: self.shapes.lock().expect("plan cache lock poisoned").len(),
        }
    }

    /// Get-or-insert the shape entry for a fingerprint, evicting the
    /// least-recently-prepared shape when at capacity.
    pub(crate) fn shape(&self, fp: &PresentationFingerprint) -> Arc<ShapeEntry> {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let mut map = self.shapes.lock().expect("plan cache lock poisoned");
        if let Some(entry) = map.get(fp.certificate()) {
            entry.last_used.store(stamp, Ordering::Relaxed);
            self.shape_hits.fetch_add(1, Ordering::Relaxed);
            return entry.clone();
        }
        self.shape_misses.fetch_add(1, Ordering::Relaxed);
        if map.len() >= self.max_shapes {
            let victim = map
                .iter()
                .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                .map(|(k, _)| k.clone());
            if let Some(k) = victim {
                map.remove(&k);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        let entry = Arc::new(ShapeEntry {
            plans: Plans::default(),
            last_used: AtomicU64::new(stamp),
        });
        map.insert(fp.certificate().to_vec(), entry.clone());
        entry
    }
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new()
    }
}

impl fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.stats();
        write!(
            f,
            "PlanCache({} shapes, {} hits / {} misses, {} evicted)",
            s.shapes, s.shape_hits, s.shape_misses, s.evictions
        )
    }
}

/// One canonical labeling of the prepared query's presentation, in the
/// forms the cache needs.
#[derive(Debug)]
struct LabelVariant {
    /// `to_canon[e]` = canonical index of local element `e`.
    to_canon: Vec<usize>,
    /// `from_canon[c]` = local element with canonical index `c`.
    from_canon: Vec<usize>,
    /// Canonical element per local atom (`to_canon[inputs[j]]`).
    input_canon: Vec<usize>,
}

/// A prepared query's handle into the shared cache: its shape entry plus
/// the isomorphisms between its local coordinates and the canonical ones.
///
/// Symmetric presentations admit several equally canonical labelings (the
/// automorphism coset reported by `canonical_fingerprint`); the handle
/// keeps them all and canonicalizes each size-profile key by minimizing
/// over them, so e.g. the three rotations of a triangle query land on the
/// same cached plan whichever atom carries which cardinality.
#[derive(Debug)]
pub(crate) struct SharedHandle {
    pub entry: Arc<ShapeEntry>,
    variants: Vec<LabelVariant>,
}

/// A canonicalized size profile: the cache key, the slot map of the chosen
/// labeling (`slot[j]` = canonical slot of local atom `j`), and which
/// labeling variant produced it.
pub(crate) struct KeyedProfile {
    pub key: CanonKey,
    slot: Vec<usize>,
    variant: usize,
}

impl SharedHandle {
    pub fn new(entry: Arc<ShapeEntry>, fp: &PresentationFingerprint, inputs: &[usize]) -> Self {
        let variants = fp
            .labelings()
            .iter()
            .map(|labels| LabelVariant {
                to_canon: labels.clone(),
                from_canon: PresentationFingerprint::invert(labels),
                input_canon: inputs.iter().map(|&r| labels[r]).collect(),
            })
            .collect();
        SharedHandle { entry, variants }
    }

    /// The canonical key for a local size profile: atoms ordered by
    /// (canonical input element, size), minimized over all canonical
    /// labelings. Ties within a key are interchangeable — planning sees
    /// only the (element, size) pair.
    pub(crate) fn canon_key(&self, lens: &[u64]) -> KeyedProfile {
        let mut best: Option<KeyedProfile> = None;
        for (v, variant) in self.variants.iter().enumerate() {
            let mut idx: Vec<usize> = (0..lens.len()).collect();
            idx.sort_by_key(|&j| (variant.input_canon[j], lens[j], j));
            let mut slot = vec![0usize; lens.len()];
            let key: CanonKey = idx
                .iter()
                .enumerate()
                .map(|(k, &j)| {
                    slot[j] = k;
                    (variant.input_canon[j] as u32, lens[j])
                })
                .collect();
            if best.as_ref().is_none_or(|b| key < b.key) {
                best = Some(KeyedProfile {
                    key,
                    slot,
                    variant: v,
                });
            }
        }
        best.expect("at least one labeling")
    }

    /// The relabeling carrying local plans into canonical coordinates.
    pub(crate) fn relabel_to_canon(&self, kp: &KeyedProfile) -> Relabel {
        Relabel {
            elem: self.variants[kp.variant].to_canon.clone(),
            slot: kp.slot.clone(),
        }
    }

    /// The relabeling carrying canonical plans into local coordinates.
    pub(crate) fn relabel_to_local(&self, kp: &KeyedProfile) -> Relabel {
        let mut inv_slot = vec![0usize; kp.slot.len()];
        for (j, &s) in kp.slot.iter().enumerate() {
            inv_slot[s] = j;
        }
        Relabel {
            elem: self.variants[kp.variant].from_canon.clone(),
            slot: inv_slot,
        }
    }
}
