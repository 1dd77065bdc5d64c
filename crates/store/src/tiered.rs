//! The two-tier cache backend: a bounded in-memory [`StructuralCache`]
//! in front of a durable [`Store`], write-through on commit.
//!
//! Tiering is invisible to the batch driver: a hit from either tier is
//! one hit in the front tier's cumulative counters, so
//! `hits + misses == functions submitted` holds exactly as it does for
//! the memory-only backend. Which tier answered shows up only in the
//! [`StoreGauges`] — `disk_hits` are lookups the memory tier missed.
//!
//! A disk hit *promotes*: the summary is inserted into the memory tier
//! so repeats stay off the (already cheap) index path and FIFO eviction
//! sees realistic traffic.

use std::path::Path;
use std::sync::Arc;

use biv_core::{CacheBackend, StoreGauges, StructuralCache, StructuralSummary};

use crate::store::{Store, StoreOptions};

/// Memory tier in front of a durable store; implements
/// [`CacheBackend`] so `analyze_batch_with_backend` and the server's
/// shared variant can use it interchangeably with a bare
/// [`StructuralCache`].
#[derive(Debug)]
pub struct TieredCache {
    mem: StructuralCache,
    store: Store,
}

impl TieredCache {
    /// Fronts `store` with a memory tier bounded to `mem_capacity`.
    pub fn new(mem_capacity: usize, store: Store) -> TieredCache {
        TieredCache {
            mem: StructuralCache::new(mem_capacity),
            store,
        }
    }

    /// Opens (creating if absent) the store in `dir` and fronts it.
    pub fn open(
        dir: &Path,
        mem_capacity: usize,
        options: &StoreOptions,
    ) -> std::io::Result<TieredCache> {
        Ok(TieredCache::new(mem_capacity, Store::open(dir, options)?))
    }

    /// The durable tier.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// The durable tier, mutably (tests and maintenance).
    pub fn store_mut(&mut self) -> &mut Store {
        &mut self.store
    }
}

impl CacheBackend for TieredCache {
    fn lookup(&mut self, hash: u64) -> Option<Arc<StructuralSummary>> {
        if let Some(summary) = self.mem.peek(hash) {
            self.mem.note_hit();
            return Some(summary);
        }
        match self.store.get(hash) {
            Some(summary) => {
                self.mem.note_hit();
                self.mem.insert(hash, Arc::clone(&summary));
                Some(summary)
            }
            None => {
                self.mem.note_miss();
                None
            }
        }
    }

    fn note_duplicate_hit(&mut self) {
        self.mem.note_hit();
    }

    fn commit(&mut self, hash: u64, summary: Arc<StructuralSummary>) -> usize {
        let evicted = self.mem.insert(hash, Arc::clone(&summary));
        // Write-through. `put` re-checks `cacheable()` and refuses
        // wedged stores; an I/O error wedges rather than failing the
        // batch — persistence degrades, answers do not.
        let _ = self.store.put(hash, &summary);
        evicted
    }

    fn memory(&self) -> &StructuralCache {
        &self.mem
    }

    fn store_gauges(&self) -> Option<StoreGauges> {
        Some(self.store.stats())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.store.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("biv-tiered-test-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn summary(tag: &str) -> Arc<StructuralSummary> {
        Arc::new(StructuralSummary::from_loops(vec![biv_core::LoopSummary {
            name: format!("L_{tag}"),
            trip_count: "8".to_string(),
            max_trip_count: None,
            classes: Vec::new(),
            invariants: Vec::new(),
        }]))
    }

    #[test]
    fn disk_hits_promote_and_counters_balance() {
        let dir = tmp_dir("promote");
        let opts = StoreOptions::default();
        {
            let mut warm = TieredCache::open(&dir, 16, &opts).expect("open");
            assert!(warm.lookup(1).is_none());
            warm.commit(1, summary("a"));
            warm.flush().expect("flush");
        }
        let mut tiered = TieredCache::open(&dir, 16, &opts).expect("reopen");
        // Memory tier is cold; the store answers and promotes.
        assert!(tiered.lookup(1).is_some());
        let gauges = tiered.store_gauges().expect("gauges");
        assert_eq!(gauges.disk_hits, 1);
        assert_eq!(gauges.disk_misses, 0);
        // Promoted: second lookup is a pure memory hit.
        assert!(tiered.lookup(1).is_some());
        assert_eq!(tiered.store_gauges().expect("gauges").disk_hits, 1);
        // One miss on a hash neither tier has.
        assert!(tiered.lookup(99).is_none());
        let mem = tiered.memory();
        assert_eq!(mem.hits() + mem.misses(), 3, "one count per lookup");
        assert_eq!(mem.hits(), 2);
        assert_eq!(tiered.store_gauges().expect("gauges").disk_misses, 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pre_invariant_store_invalidates_wholesale_on_reopen() {
        // A store written by the previous analyzer release must not
        // serve a single record to the current release. Today that is
        // format 2 → 3: a v2 store holds invariant-bearing summaries
        // under plain structural-hash keys, so serving any of them would
        // hand a plain request the wrong product. (The same test covered
        // 1 → 2, when records lacked the invariants field entirely.)
        let dir = tmp_dir("pre-invariant");
        let old_opts = StoreOptions {
            format_version: biv_core::FORMAT_VERSION - 1,
            ..StoreOptions::default()
        };
        {
            let mut old = TieredCache::open(&dir, 16, &old_opts).expect("open old");
            old.commit(1, summary("a"));
            old.commit(2, summary("b"));
            old.flush().expect("flush");
        }
        let mut fresh = TieredCache::open(&dir, 16, &StoreOptions::default()).expect("reopen");
        assert!(fresh.lookup(1).is_none(), "stale record must not serve");
        assert!(fresh.lookup(2).is_none(), "stale record must not serve");
        let gauges = fresh.store_gauges().expect("gauges");
        assert_eq!(gauges.disk_hits, 0, "zero disk hits from a stale store");
        assert_eq!(gauges.disk_misses, 2);
        assert_eq!(gauges.records_live, 0, "wholesale invalidation");
        // The store is usable going forward under the current version.
        fresh.commit(1, summary("a"));
        fresh.flush().expect("flush");
        let mut again = TieredCache::open(&dir, 16, &StoreOptions::default()).expect("re-reopen");
        assert!(again.lookup(1).is_some());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn commit_writes_through_but_never_persists_uncacheable() {
        let dir = tmp_dir("writethrough");
        let opts = StoreOptions::default();
        let mut tiered = TieredCache::open(&dir, 16, &opts).expect("open");
        tiered.commit(1, summary("a"));
        let degraded = Arc::new(StructuralSummary {
            loops: Vec::new(),
            breaches: vec![biv_core::BudgetBreach::Deadline],
            error: None,
        });
        tiered.commit(2, degraded);
        assert!(tiered.store().contains(1));
        assert!(
            !tiered.store().contains(2),
            "non-cacheable summaries must never reach disk"
        );
        fs::remove_dir_all(&dir).ok();
    }
}
