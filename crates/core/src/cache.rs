//! Pluggable cache backends for the batch driver.
//!
//! The batch driver's memoization was originally hard-wired to the
//! in-memory [`StructuralCache`]. Persistent serving (PR 5) needs a
//! second tier — a durable content-addressed store that survives
//! restarts — without the driver knowing which tier answered. This
//! module defines the seam: [`CacheBackend`] is what the plan and
//! commit phases of `analyze_batch_*` talk to, and anything that can
//! answer "have we classified this structure before?" can implement it.
//!
//! Two backends exist today:
//!
//! - [`StructuralCache`] itself — the memory-only tier, byte-for-byte
//!   the pre-trait behavior;
//! - `biv_store::TieredCache` — memory in front of a durable
//!   append-only record log, write-through on commit.
//!
//! # Versioning
//!
//! A durable cache outlives the binary that wrote it, so every entry is
//! keyed by `(FORMAT_VERSION, summary_key)` — the structural hash, mixed
//! for the invariant product (see [`summary_key`](crate::summary_key)).
//! In practice the version is stamped once per store, not per record,
//! and a mismatch invalidates the whole store wholesale. **Any change to the analyzer
//! that can alter a [`StructuralSummary`]'s bytes — classification
//! rules, closed-form rendering, trip-count logic, the summary format
//! itself — must bump [`FORMAT_VERSION`].** The structural hash alone
//! is not enough: it fingerprints the *input*, not the analysis.
//!
//! Budget configuration also changes summaries (deterministic breaches
//! degrade values to `unknown`), so persistent stores additionally key
//! on [`analysis_fingerprint`], which folds the budget caps in.

use std::sync::Arc;

use crate::batch::{StructuralCache, StructuralSummary};
use crate::budget::Budget;

/// The analysis format version stamped into persistent stores.
///
/// Bump this whenever the analyzer's observable output for any input
/// can change; stale stores are then invalidated wholesale on open
/// (every record becomes garbage and is compacted away).
///
/// History: 1 — original summary format; 2 — mixed-geometric
/// classification plus per-loop verified invariants in every summary;
/// 3 — invariants computed only when requested, cached under their own
/// key ([`summary_key`](crate::summary_key)). The invariant engine's
/// configuration is fixed in code, so this version covers it too.
pub const FORMAT_VERSION: u32 = 3;

/// The configuration fingerprint a persistent store is keyed on,
/// alongside [`FORMAT_VERSION`].
///
/// Two processes whose fingerprints differ must not share records:
/// deterministic budget caps (nodes / SCC / order) change summaries
/// reproducibly, so a store written under one budget is stale under
/// another. The wall-clock deadline is deliberately *excluded* —
/// deadline-degraded summaries are never cacheable in the first place
/// (see [`StructuralSummary::cacheable`]), so the deadline cannot leak
/// into persisted bytes.
pub fn analysis_fingerprint(budget: &Budget) -> String {
    fn cap(v: Option<usize>) -> String {
        v.map_or_else(|| "-".to_string(), |n| n.to_string())
    }
    format!(
        "nodes={},scc={},order={}",
        cap(budget.max_region_nodes),
        cap(budget.max_scc),
        cap(budget.max_order),
    )
}

/// Point-in-time counters for a backend's durable tier, reported by
/// `bivd`'s `stats` endpoint and `bivc --stats-json` under the `store`
/// key. Memory-only backends report `None` and the key is omitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreGauges {
    /// Lookups answered by the durable tier (memory tier missed).
    pub disk_hits: u64,
    /// Lookups that missed both tiers.
    pub disk_misses: u64,
    /// Records currently live (latest record per product key).
    pub records_live: u64,
    /// Superseded or invalidated records still occupying log bytes.
    pub records_garbage: u64,
    /// Log rewrites performed (on open, when the garbage ratio crossed
    /// the compaction threshold, or on wholesale invalidation).
    pub compactions: u64,
    /// Records dropped because their checksum or framing failed on
    /// open; the log was truncated to the consistent prefix before
    /// them.
    pub corrupt_records_skipped: u64,
}

/// What the batch driver's plan and commit phases require of a cache.
///
/// Contract (the differential suites pin all of it):
///
/// - [`lookup`](CacheBackend::lookup) records exactly one hit or miss
///   in the backend's cumulative counters per call;
/// - [`note_duplicate_hit`](CacheBackend::note_duplicate_hit) records a
///   hit with no lookup — the driver found a structural twin earlier in
///   the same batch and shares its result;
/// - [`commit`](CacheBackend::commit) is only ever called with
///   summaries whose [`StructuralSummary::cacheable`] is true; durable
///   backends must re-check it anyway (defense in depth — a
///   budget-degraded or panicked summary must never be persisted);
/// - `hits + misses` across the cumulative counters equals the number
///   of functions ever submitted, regardless of tiering.
pub trait CacheBackend: Send {
    /// Looks a product key ([`summary_key`](crate::summary_key)) up,
    /// counting a hit or a miss. A hit from *any* tier counts as a hit
    /// here; tier attribution shows up only in
    /// [`store_gauges`](CacheBackend::store_gauges).
    fn lookup(&mut self, key: u64) -> Option<Arc<StructuralSummary>>;

    /// Counts a batch-local duplicate as a hit (no lookup performed).
    fn note_duplicate_hit(&mut self);

    /// Commits a cacheable summary under its product key; returns how
    /// many entries the memory tier evicted to make room.
    fn commit(&mut self, key: u64, summary: Arc<StructuralSummary>) -> usize;

    /// The memory tier, for capacity / entry-count gauges.
    fn memory(&self) -> &StructuralCache;

    /// Counters for the durable tier, if the backend has one.
    fn store_gauges(&self) -> Option<StoreGauges> {
        None
    }

    /// Makes the durable tier durable *now* (fsync + index snapshot).
    /// Memory-only backends do nothing.
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl CacheBackend for StructuralCache {
    fn lookup(&mut self, hash: u64) -> Option<Arc<StructuralSummary>> {
        StructuralCache::lookup(self, hash)
    }

    fn note_duplicate_hit(&mut self) {
        self.note_hit();
    }

    fn commit(&mut self, hash: u64, summary: Arc<StructuralSummary>) -> usize {
        self.insert(hash, summary)
    }

    fn memory(&self) -> &StructuralCache {
        self
    }
}

impl CacheBackend for Box<dyn CacheBackend + Send> {
    fn lookup(&mut self, hash: u64) -> Option<Arc<StructuralSummary>> {
        (**self).lookup(hash)
    }

    fn note_duplicate_hit(&mut self) {
        (**self).note_duplicate_hit()
    }

    fn commit(&mut self, hash: u64, summary: Arc<StructuralSummary>) -> usize {
        (**self).commit(hash, summary)
    }

    fn memory(&self) -> &StructuralCache {
        (**self).memory()
    }

    fn store_gauges(&self) -> Option<StoreGauges> {
        (**self).store_gauges()
    }

    fn flush(&mut self) -> std::io::Result<()> {
        (**self).flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structural_cache_implements_the_backend_contract() {
        let mut cache = StructuralCache::new(2);
        let summary = Arc::new(StructuralSummary::from_loops(Vec::new()));
        assert!(CacheBackend::lookup(&mut cache, 7).is_none());
        assert_eq!(cache.commit(7, Arc::clone(&summary)), 0);
        assert!(CacheBackend::lookup(&mut cache, 7).is_some());
        cache.note_duplicate_hit();
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.misses(), 1);
        assert!(cache.store_gauges().is_none());
        assert!(cache.flush().is_ok());
        assert_eq!(cache.memory().capacity(), 2);
    }

    #[test]
    fn boxed_backends_forward() {
        let mut boxed: Box<dyn CacheBackend + Send> = Box::new(StructuralCache::new(4));
        let summary = Arc::new(StructuralSummary::from_loops(Vec::new()));
        assert!(boxed.lookup(1).is_none());
        boxed.commit(1, summary);
        assert!(boxed.lookup(1).is_some());
        assert_eq!(boxed.memory().len(), 1);
        assert!(boxed.store_gauges().is_none());
    }

    #[test]
    fn fingerprint_tracks_deterministic_caps_only() {
        let unlimited = analysis_fingerprint(&Budget::UNLIMITED);
        assert_eq!(unlimited, "nodes=-,scc=-,order=-");
        let with_time = analysis_fingerprint(&Budget {
            time_ms: Some(5),
            ..Budget::UNLIMITED
        });
        assert_eq!(
            unlimited, with_time,
            "the nondeterministic deadline must not change the fingerprint"
        );
        let capped = analysis_fingerprint(&Budget {
            max_scc: Some(64),
            ..Budget::UNLIMITED
        });
        assert_ne!(unlimited, capped);
        assert_eq!(capped, "nodes=-,scc=64,order=-");
    }
}
