//! Parallel batch analysis with structural-hash memoization.
//!
//! The paper's classifier is a single linear-time pass per function, so
//! whole-program throughput is bounded only by how many functions can be
//! fed to it. This module turns the one-function [`analyze`] driver into
//! a corpus driver:
//!
//! - **Sharding** — functions are distributed over a
//!   [`std::thread::scope`] worker pool (`jobs` workers; `0` means
//!   auto-detect via `BIV_JOBS` or the machine's available parallelism).
//!   Workers pull work items from a shared atomic cursor, so scheduling
//!   is dynamic, but each result is sent back over an mpsc channel
//!   tagged with its pre-assigned slot and reordered into **input
//!   order**: output is byte-identical for every job count.
//! - **Structural memoization** — before any work is scheduled, each
//!   function is hashed *structurally* (CFG shape, instruction opcodes,
//!   constants, canonically numbered variables and arrays — names and
//!   value numbering excluded). Functions whose hash is already in the
//!   [`StructuralCache`], or that duplicate an earlier function in the
//!   same batch, are served from the cache and never analyzed again.
//!   Generated and machine-translated corpora are full of duplicate
//!   functions; they are classified exactly once.
//! - **Canonical summaries** — cached results must not leak one
//!   function's variable names into another structurally identical
//!   function's report, so summaries render SSA values canonically by
//!   value index (`%7`) via [`describe_class_with`]. Two α-renamed
//!   functions therefore produce byte-identical summaries.
//!
//! Determinism guarantees (pinned by the differential test suite):
//!
//! 1. `analyze_batch(funcs, jobs=N)` output equals `jobs=1` output,
//!    byte for byte, for every `N` — the hit/miss plan is computed
//!    serially before any thread is spawned.
//! 2. Cache statistics are scheduling-independent: `misses` is the
//!    number of distinct structures analyzed, `hits + misses` equals the
//!    number of functions submitted.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};

use biv_ir::{EntityId, Function, Inst, Operand, Terminator};

use crate::budget::BudgetBreach;
use crate::cache::CacheBackend;
use crate::config::AnalysisConfig;
use crate::display::{canonical_value_name, describe_class_with};
use crate::driver::{analyze_protected, AnalysisError};

/// Options for a batch run.
#[derive(Debug, Clone)]
pub struct BatchOptions {
    /// Worker threads; `0` resolves via [`resolve_jobs`] (the `BIV_JOBS`
    /// environment variable, then available parallelism).
    pub jobs: usize,
    /// The per-function analysis configuration.
    pub config: AnalysisConfig,
    /// Maximum entries the structural cache retains (FIFO eviction).
    pub cache_capacity: usize,
    /// Whether summaries carry each loop's verified invariants. The
    /// invariant product costs a null-space derivation plus interpreter
    /// replay per function, so served entry points set this from the
    /// request (`bivc --invariants`, the `invariants` op); the two
    /// products are cached under different keys (see [`summary_key`]).
    pub invariants: bool,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            jobs: 0,
            config: AnalysisConfig::default(),
            cache_capacity: 4096,
            invariants: true,
        }
    }
}

/// The cache key of one product of a function: plain summaries are keyed
/// by the structural hash itself, invariant-bearing ones by a fixed mix
/// of it, so the two products never share a cache, store, or replica
/// entry. The structural hash stays the function's visible identity.
pub fn summary_key(hash: u64, invariants: bool) -> u64 {
    if !invariants {
        return hash;
    }
    let mut h = Fnv1a::new();
    h.write_bytes(b"invariants");
    h.write_u64(hash);
    h.finish()
}

/// Resolves a requested job count: explicit request wins, then the
/// `BIV_JOBS` environment variable, then the machine's available
/// parallelism, then 1.
pub fn resolve_jobs(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Ok(var) = std::env::var("BIV_JOBS") {
        if let Ok(n) = var.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Counters for one batch run. All values are scheduling-independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchStats {
    /// Functions submitted.
    pub functions: usize,
    /// Functions served from the cache (including duplicates within the
    /// batch, which are analyzed once and shared).
    pub hits: usize,
    /// Functions actually analyzed (distinct structures not in cache).
    pub misses: usize,
    /// Entries evicted from the cache by this batch's insertions.
    pub evictions: usize,
    /// Worker threads used.
    pub jobs: usize,
}

impl BatchStats {
    /// Renders the scheduling-independent counters (everything except
    /// `jobs`, which varies by invocation and must not affect
    /// byte-identical output comparisons).
    pub fn render(&self) -> String {
        format!(
            "batch: {} functions, {} analyzed, {} cache hits, {} evictions",
            self.functions, self.misses, self.hits, self.evictions
        )
    }
}

/// One loop's classification summary, rendered canonically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopSummary {
    /// Loop name (source label when present).
    pub name: String,
    /// Rendered trip count.
    pub trip_count: String,
    /// Rendered trip-count upper bound, when known.
    pub max_trip_count: Option<String>,
    /// `(canonical value name, class description)` per classified value,
    /// in value-numbering order.
    pub classes: Vec<(String, String)>,
    /// Verified polynomial relations between this loop's induction
    /// variables (`2*%3 - %2^2 + %2 = 0` style), in derivation order.
    /// Every entry passed the interpreter check. Computed only for the
    /// invariant product ([`BatchOptions::invariants`]), which is cached
    /// under its own [`summary_key`]; always empty in plain summaries,
    /// and empty when no relation was derived or none survived checking.
    pub invariants: Vec<String>,
}

/// The cache-shareable portion of a function's analysis: everything
/// except the function's own name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructuralSummary {
    /// Per-loop summaries in inner-to-outer order.
    pub loops: Vec<LoopSummary>,
    /// Budget breaches hit while analyzing (empty with the default
    /// unlimited budget).
    pub breaches: Vec<BudgetBreach>,
    /// Set when the analysis panicked: the caught payload. `loops` is
    /// empty in that case — the function degraded to an error line, the
    /// rest of the batch is unaffected.
    pub error: Option<String>,
}

impl StructuralSummary {
    /// A summary holding only the analyzed loops — no breaches, no
    /// error. What every analysis produced before budgets existed.
    pub fn from_loops(loops: Vec<LoopSummary>) -> StructuralSummary {
        StructuralSummary {
            loops,
            breaches: Vec::new(),
            error: None,
        }
    }

    /// Whether this summary may be retained in a structure-keyed cache.
    /// Panicked analyses must not poison the cache, and deadline-
    /// degraded results are nondeterministic on identical input (the
    /// deterministic caps — nodes/SCC/order — breach identically every
    /// time, so they are safe to share).
    pub fn cacheable(&self) -> bool {
        self.error.is_none() && self.breaches.iter().all(BudgetBreach::is_deterministic)
    }
}

/// One function's batch result.
#[derive(Debug, Clone)]
pub struct FunctionSummary {
    /// The function's name (never cached — two structurally identical
    /// functions keep their own names).
    pub name: String,
    /// The structural hash used as the cache key.
    pub hash: u64,
    /// Whether this result was served from the cache (a pre-existing
    /// entry or an earlier duplicate in the same batch).
    pub cached: bool,
    /// The shared summary body.
    pub summary: Arc<StructuralSummary>,
}

impl FunctionSummary {
    /// Renders the per-function report block. Deterministic: identical
    /// for every job count and for cached vs freshly analyzed results.
    pub fn render(&self) -> String {
        self.render_with(false)
    }

    /// [`FunctionSummary::render`] with verified invariant lines included
    /// when `show_invariants` is set. Only the invariant product carries
    /// relations to print, so pair the flag with the
    /// [`BatchOptions::invariants`] the summary was produced under; a
    /// summary's bytes depend only on its product key, so warm and cold
    /// output stay byte-identical for either flag state.
    pub fn render_with(&self, show_invariants: bool) -> String {
        let mut out = String::new();
        out.push_str(&format!("func {} [{:016x}]\n", self.name, self.hash));
        render_summary_body_with(&mut out, &self.summary, show_invariants);
        out
    }
}

/// Renders a summary's loop blocks, budget lines, and error line — the
/// body under each `func` header in the batch report — optionally
/// printing each loop's verified invariant relations after its class
/// lines.
fn render_summary_body_with(out: &mut String, summary: &StructuralSummary, show_invariants: bool) {
    use std::fmt::Write as _;
    if let Some(error) = &summary.error {
        let _ = writeln!(out, "  error: internal: {error}");
    }
    for l in &summary.loops {
        let _ = writeln!(out, "  loop {}: trip count {}", l.name, l.trip_count);
        if let Some(max) = &l.max_trip_count {
            let _ = writeln!(out, "    max trip count: {max}");
        }
        for (value, class) in &l.classes {
            let _ = writeln!(out, "    {value:<8} => {class}");
        }
        if show_invariants {
            for relation in &l.invariants {
                let _ = writeln!(out, "    invariant: {relation}");
            }
        }
    }
    for breach in &summary.breaches {
        let _ = writeln!(out, "  budget: {breach}");
    }
}

/// A bounded structural-hash → summary cache with FIFO eviction,
/// reusable across batches (e.g. successive files fed to `bivc`).
#[derive(Debug, Default)]
pub struct StructuralCache {
    map: HashMap<u64, Arc<StructuralSummary>>,
    order: VecDeque<u64>,
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl StructuralCache {
    /// Creates a cache bounded to `capacity` entries (0 disables
    /// retention entirely: every lookup misses, nothing is stored).
    pub fn new(capacity: usize) -> StructuralCache {
        StructuralCache {
            capacity,
            ..StructuralCache::default()
        }
    }

    /// Entries currently retained.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// The configured retention bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Cumulative hits across all batches served by this cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cumulative misses across all batches served by this cache.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Cumulative evictions across all batches served by this cache.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Looks `hash` up without touching the counters.
    pub fn peek(&self, hash: u64) -> Option<Arc<StructuralSummary>> {
        self.map.get(&hash).map(Arc::clone)
    }

    /// Looks `hash` up, recording a hit or a miss in the cumulative
    /// counters — the counted form backends route through.
    pub fn lookup(&mut self, hash: u64) -> Option<Arc<StructuralSummary>> {
        let found = self.peek(hash);
        if found.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        found
    }

    /// Records a hit that bypassed [`lookup`](StructuralCache::lookup)
    /// (a batch-local structural twin served from its representative).
    pub fn note_hit(&mut self) {
        self.hits += 1;
    }

    /// Records a miss that bypassed [`lookup`](StructuralCache::lookup)
    /// (a tiered backend checked every tier via `peek` and found
    /// nothing; the miss is still charged to the front tier's counters
    /// so `hits + misses` tracks functions submitted).
    pub fn note_miss(&mut self) {
        self.misses += 1;
    }

    /// Inserts a summary, evicting FIFO past capacity; returns how many
    /// entries were evicted.
    pub fn insert(&mut self, hash: u64, summary: Arc<StructuralSummary>) -> usize {
        if self.capacity == 0 {
            return 0;
        }
        let mut evicted = 0;
        if self.map.insert(hash, summary).is_none() {
            self.order.push_back(hash);
        }
        while self.map.len() > self.capacity {
            let Some(oldest) = self.order.pop_front() else {
                break;
            };
            if self.map.remove(&oldest).is_some() {
                self.evictions += 1;
                evicted += 1;
            }
        }
        evicted
    }
}

/// The result of a batch run: per-function summaries in input order plus
/// scheduling-independent statistics.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// One summary per submitted function, in input order.
    pub functions: Vec<FunctionSummary>,
    /// Counters for this run.
    pub stats: BatchStats,
}

impl BatchReport {
    /// Renders every function block plus the stats line. Byte-identical
    /// across job counts.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.functions {
            out.push_str(&f.render());
        }
        out.push_str(&self.stats.render());
        out.push('\n');
        out
    }
}

/// Analyzes a batch of functions with a fresh cache.
pub fn analyze_batch(funcs: &[Function], opts: &BatchOptions) -> BatchReport {
    let mut cache = StructuralCache::new(opts.cache_capacity);
    analyze_batch_with_cache(funcs, opts, &mut cache)
}

/// Analyzes a batch of functions, consulting and updating `cache`.
///
/// The hit/miss plan is computed serially before any worker starts, so
/// results, summaries, and statistics do not depend on scheduling.
pub fn analyze_batch_with_cache(
    funcs: &[Function],
    opts: &BatchOptions,
    cache: &mut StructuralCache,
) -> BatchReport {
    analyze_batch_with_backend(funcs, opts, cache)
}

/// Analyzes a batch of functions against any [`CacheBackend`] — the
/// in-memory [`StructuralCache`], or a memory+disk write-through tier
/// such as `biv_store::TieredCache`.
///
/// The hit/miss plan is computed serially before any worker starts, so
/// results, summaries, and statistics do not depend on scheduling. Which
/// tier answered a lookup never changes the summary bytes — only the
/// backend's own counters.
pub fn analyze_batch_with_backend<B: CacheBackend + ?Sized>(
    funcs: &[Function],
    opts: &BatchOptions,
    cache: &mut B,
) -> BatchReport {
    let hashes: Vec<u64> = funcs.iter().map(structural_hash).collect();
    let keys = product_keys(&hashes, opts.invariants);
    let mut stats = BatchStats {
        functions: funcs.len(),
        ..BatchStats::default()
    };
    let (plans, representatives) = plan_batch(&keys, cache, &mut stats);

    // Parallel analysis of the representatives.
    let jobs = resolve_jobs(opts.jobs).min(representatives.len()).max(1);
    stats.jobs = jobs;
    let computed = compute_representatives(funcs, &representatives, jobs, opts);

    commit_batch(&keys, &representatives, &computed, cache, &mut stats);
    assemble_report(plans, funcs, &hashes, &computed, stats)
}

/// The cache key of every function's requested product, in input order.
fn product_keys(hashes: &[u64], invariants: bool) -> Vec<u64> {
    hashes.iter().map(|&h| summary_key(h, invariants)).collect()
}

/// Per-function decision from the serial plan phase.
enum Plan {
    /// Served from the backend (any tier).
    Cached(Arc<StructuralSummary>),
    /// Analyzed this batch, as representative `slot` (or sharing it).
    Computed {
        /// Index into the representative/computed arrays.
        slot: usize,
    },
}

/// Serial planning: decide, per function, whether it is served from the
/// backend, aliases an earlier function in this batch, or is the
/// representative that will actually be analyzed. Counts hits and
/// misses in `stats` and in the backend's cumulative counters.
///
/// Every decision is made on product keys ([`summary_key`]), never raw
/// structural hashes. The batch-local duplicate check runs first and
/// never consults the backend: the two cases are mutually exclusive (a
/// key lands in `slot_of_key` only after the backend missed on its first
/// occurrence, and planning never inserts), so counter totals are
/// identical to checking the backend first.
fn plan_batch<B: CacheBackend + ?Sized>(
    keys: &[u64],
    cache: &mut B,
    stats: &mut BatchStats,
) -> (Vec<(Plan, bool)>, Vec<usize>) {
    let mut slot_of_key: HashMap<u64, usize> = HashMap::new();
    let mut representatives: Vec<usize> = Vec::new();
    let mut plans: Vec<(Plan, bool)> = Vec::with_capacity(keys.len());
    for (i, &key) in keys.iter().enumerate() {
        if let Some(&slot) = slot_of_key.get(&key) {
            // Duplicate within this batch: share the representative's
            // result. Counts as a hit — it is not analyzed again.
            stats.hits += 1;
            cache.note_duplicate_hit();
            plans.push((Plan::Computed { slot }, true));
        } else if let Some(summary) = cache.lookup(key) {
            stats.hits += 1;
            plans.push((Plan::Cached(summary), true));
        } else {
            stats.misses += 1;
            let slot = representatives.len();
            slot_of_key.insert(key, slot);
            representatives.push(i);
            plans.push((Plan::Computed { slot }, false));
        }
    }
    (plans, representatives)
}

/// Deterministic cache insertion, in representative (= input) order.
/// Uncacheable summaries (panicked or deadline-degraded) are skipped so
/// they cannot poison later lookups; an injected commit fault has the
/// same effect — the result is still returned, just not retained.
fn commit_batch<B: CacheBackend + ?Sized>(
    keys: &[u64],
    representatives: &[usize],
    computed: &[Arc<StructuralSummary>],
    cache: &mut B,
    stats: &mut BatchStats,
) {
    for (slot, &i) in representatives.iter().enumerate() {
        if !computed[slot].cacheable() || crate::faults::fire("cache.commit") {
            continue;
        }
        stats.evictions += cache.commit(keys[i], Arc::clone(&computed[slot]));
    }
}

/// Resolves every plan into input-order [`FunctionSummary`] blocks.
fn assemble_report(
    plans: Vec<(Plan, bool)>,
    funcs: &[Function],
    hashes: &[u64],
    computed: &[Arc<StructuralSummary>],
    stats: BatchStats,
) -> BatchReport {
    let functions = plans
        .into_iter()
        .zip(funcs.iter().zip(hashes))
        .map(|((plan, cached), (func, &hash))| {
            let summary = match plan {
                Plan::Cached(s) => s,
                Plan::Computed { slot } => Arc::clone(&computed[slot]),
            };
            FunctionSummary {
                name: func.name().to_string(),
                hash,
                cached,
                summary,
            }
        })
        .collect();
    BatchReport { functions, stats }
}

/// Renders a batch report grouped by input file, exactly as `bivc`
/// prints it: a `══ path ══` header per file, that file's function
/// blocks, then the stats line. `ranges` pairs each display path with
/// its function count; counts must sum to `functions.len()`.
///
/// This is the single definition of the batch output format — the
/// local CLI and the analysis server both render through it, which is
/// what makes their outputs byte-identical by construction.
pub fn render_grouped(
    ranges: &[(String, usize)],
    functions: &[FunctionSummary],
    stats: &BatchStats,
) -> String {
    render_grouped_with(ranges, functions, stats, false)
}

/// [`render_grouped`] with per-loop invariant lines when
/// `show_invariants` is set — the format behind `bivc --invariants`,
/// local and remote alike.
pub fn render_grouped_with(
    ranges: &[(String, usize)],
    functions: &[FunctionSummary],
    stats: &BatchStats,
    show_invariants: bool,
) -> String {
    let mut out = String::new();
    let mut next = 0usize;
    for (path, count) in ranges {
        out.push_str(&format!("══ {path} ══\n"));
        for summary in &functions[next..next + count] {
            out.push_str(&summary.render_with(show_invariants));
        }
        next += count;
    }
    debug_assert_eq!(next, functions.len(), "ranges cover every function");
    out.push_str(&stats.render());
    out.push('\n');
    out
}

/// Computes the statistics a *cold* run over `hashes` would report: a
/// fresh cache of `capacity` entries, batch-local deduplication, FIFO
/// eviction. Pure arithmetic — no analysis is performed.
///
/// This is the determinism anchor for remote serving: a long-running
/// server answers from a warm shared cache, but its rendered stats line
/// must not depend on which requests happened to come first, so it
/// reports what a fresh `bivc` run over the same inputs would have said.
/// The warm cache's real cumulative counters stay observable through the
/// server's `stats` endpoint instead.
pub fn cold_batch_stats(hashes: &[u64], capacity: usize) -> BatchStats {
    let mut seen: std::collections::HashSet<u64> = std::collections::HashSet::new();
    let mut distinct = 0usize;
    for &h in hashes {
        if seen.insert(h) {
            distinct += 1;
        }
    }
    // A fresh FIFO cache only ever evicts once more distinct structures
    // have been inserted than it can hold.
    let evictions = if capacity == 0 {
        0
    } else {
        distinct.saturating_sub(capacity)
    };
    BatchStats {
        functions: hashes.len(),
        hits: hashes.len() - distinct,
        misses: distinct,
        evictions,
        jobs: 0,
    }
}

/// Analyzes a batch against a mutex-shared cache, as used by concurrent
/// servers: the lock is held only for the serial plan phase (lookups)
/// and the commit phase (insertions), never while a function is being
/// analyzed, so requests on different worker threads overlap their
/// actual classification work.
///
/// Two racing batches that both miss on the same structure each analyze
/// it once — wasted work, never wrong output, because summaries are
/// canonical and insertion is idempotent. Counter invariants are
/// preserved under contention: every submitted function increments
/// exactly one of the cache's cumulative `hits`/`misses` counters.
pub fn analyze_batch_shared(
    funcs: &[Function],
    opts: &BatchOptions,
    cache: &Mutex<StructuralCache>,
) -> BatchReport {
    analyze_batch_shared_backend(funcs, opts, cache)
}

/// [`analyze_batch_shared`] over any [`CacheBackend`] — what `bivd`
/// runs when a durable store is configured. The lock is held only for
/// the serial plan phase (lookups) and the commit phase (insertions and
/// write-through appends), never while a function is being analyzed.
pub fn analyze_batch_shared_backend<B: CacheBackend>(
    funcs: &[Function],
    opts: &BatchOptions,
    cache: &Mutex<B>,
) -> BatchReport {
    let hashes: Vec<u64> = funcs.iter().map(structural_hash).collect();
    let keys = product_keys(&hashes, opts.invariants);
    let mut stats = BatchStats {
        functions: funcs.len(),
        ..BatchStats::default()
    };
    let (plans, representatives) = {
        let mut cache = cache.lock().expect("structural cache poisoned");
        plan_batch(&keys, &mut *cache, &mut stats)
    };

    // Analysis runs with the lock released. Server workers call this
    // with `jobs: 1` — request-level parallelism comes from the pool.
    let jobs = resolve_jobs(opts.jobs).min(representatives.len()).max(1);
    stats.jobs = jobs;
    let computed = compute_representatives(funcs, &representatives, jobs, opts);

    {
        // Same commit gate as the unshared path: never retain panicked
        // or deadline-degraded summaries, and let the injected commit
        // fault drop retention without affecting the returned report.
        let mut cache = cache.lock().expect("structural cache poisoned");
        commit_batch(&keys, &representatives, &computed, &mut *cache, &mut stats);
    }

    assemble_report(plans, funcs, &hashes, &computed, stats)
}

/// Analyzes the representative functions, sharded over `jobs` workers.
///
/// Workers pull indices from a shared cursor and send each result back
/// tagged with its slot; the receive loop reorders into input order, so
/// no lock is held while a summary is produced.
fn compute_representatives(
    funcs: &[Function],
    representatives: &[usize],
    jobs: usize,
    opts: &BatchOptions,
) -> Vec<Arc<StructuralSummary>> {
    let summarize_one = |func| Arc::new(summarize(func, &opts.config, opts.invariants));
    if representatives.len() <= 1 || jobs == 1 {
        return representatives
            .iter()
            .map(|&i| summarize_one(&funcs[i]))
            .collect();
    }
    let cursor = AtomicUsize::new(0);
    let reps = representatives;
    std::thread::scope(|scope| {
        let cursor = &cursor;
        let (tx, rx) = mpsc::channel::<(usize, Arc<StructuralSummary>)>();
        for _ in 0..jobs {
            let tx = tx.clone();
            scope.spawn(move || loop {
                let k = cursor.fetch_add(1, Ordering::Relaxed);
                if k >= reps.len() {
                    break;
                }
                let summary = summarize_one(&funcs[reps[k]]);
                if tx.send((k, summary)).is_err() {
                    break;
                }
            });
        }
        // The receiver loop ends when every worker has dropped its
        // sender clone; the original must go first.
        drop(tx);
        let mut slots: Vec<Option<Arc<StructuralSummary>>> = vec![None; reps.len()];
        for (k, summary) in rx {
            slots[k] = Some(summary);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every slot filled"))
            .collect()
    })
}

/// Analyzes one function and renders its canonical summary.
///
/// Runs behind the panic-isolation boundary: a panicking function
/// yields an error summary (rendered as an `error:` line) while the
/// rest of the batch proceeds normally. Loop invariants are derived and
/// checked only when `invariants` is set.
pub(crate) fn summarize(
    func: &Function,
    config: &AnalysisConfig,
    invariants: bool,
) -> StructuralSummary {
    let analysis = match analyze_protected(func, *config) {
        Ok(analysis) => analysis,
        Err(AnalysisError::Internal { detail }) => {
            return StructuralSummary {
                loops: Vec::new(),
                breaches: Vec::new(),
                error: Some(detail),
            };
        }
    };
    let namer = canonical_value_name;
    let mut invariants = if invariants {
        crate::invariants::function_invariants(func, config, &analysis)
    } else {
        Default::default()
    };
    let mut loops = Vec::new();
    for (l, info) in analysis.loops() {
        // `VecMap` iteration is in value-index order.
        let classes = info
            .classes
            .iter()
            .map(|(v, c)| {
                (
                    canonical_value_name(v),
                    describe_class_with(&analysis, c, &namer),
                )
            })
            .collect();
        loops.push(LoopSummary {
            name: info.name.clone(),
            trip_count: info.trip_count.to_string(),
            max_trip_count: info.max_trip_count.as_ref().map(|p| p.to_string()),
            classes,
            invariants: invariants.remove(&l).unwrap_or_default(),
        });
    }
    StructuralSummary {
        loops,
        breaches: analysis.budget_breaches().to_vec(),
        error: None,
    }
}

/// Computes the structural hash of a function: CFG shape, labels,
/// instruction opcodes, constants, and *canonically numbered* variables
/// and arrays. Variable and array names, value numbering, and the
/// function's own name are excluded, so α-renamed functions collide (by
/// design) while any single-instruction change separates.
pub fn structural_hash(func: &Function) -> u64 {
    let mut h = Fnv1a::new();
    let mut canon = Canonicalizer::default();
    h.write_usize(func.params().len());
    for &p in func.params() {
        h.write_u64(canon.var(p));
    }
    h.write_usize(func.blocks.iter().count());
    for (block, data) in func.blocks.iter() {
        // Block identity is its arena index (construction order), which
        // the parser assigns purely from program structure.
        h.write_u64(block.index() as u64);
        match &data.label {
            Some(label) => {
                h.write_u8(1);
                h.write_bytes(label.as_bytes());
            }
            None => h.write_u8(0),
        }
        h.write_usize(data.insts.len());
        for inst in &data.insts {
            hash_inst(&mut h, &mut canon, inst);
        }
        hash_term(&mut h, &mut canon, &data.term);
    }
    h.finish()
}

fn hash_operand(h: &mut Fnv1a, canon: &mut Canonicalizer, op: &Operand) {
    match op {
        Operand::Var(v) => {
            h.write_u8(1);
            h.write_u64(canon.var(*v));
        }
        Operand::Const(c) => {
            h.write_u8(2);
            h.write_u64(*c as u64);
        }
    }
}

fn hash_inst(h: &mut Fnv1a, canon: &mut Canonicalizer, inst: &Inst) {
    match inst {
        Inst::Copy { dst, src } => {
            h.write_u8(10);
            hash_operand(h, canon, src);
            h.write_u64(canon.var(*dst));
        }
        Inst::Neg { dst, src } => {
            h.write_u8(11);
            hash_operand(h, canon, src);
            h.write_u64(canon.var(*dst));
        }
        Inst::Binary { dst, op, lhs, rhs } => {
            h.write_u8(12);
            h.write_u8(*op as u8);
            hash_operand(h, canon, lhs);
            hash_operand(h, canon, rhs);
            h.write_u64(canon.var(*dst));
        }
        Inst::Load { dst, array, index } => {
            h.write_u8(13);
            h.write_u64(canon.array(*array));
            h.write_usize(index.len());
            for op in index {
                hash_operand(h, canon, op);
            }
            h.write_u64(canon.var(*dst));
        }
        Inst::Store {
            array,
            index,
            value,
        } => {
            h.write_u8(14);
            h.write_u64(canon.array(*array));
            h.write_usize(index.len());
            for op in index {
                hash_operand(h, canon, op);
            }
            hash_operand(h, canon, value);
        }
    }
}

fn hash_term(h: &mut Fnv1a, canon: &mut Canonicalizer, term: &Terminator) {
    match term {
        Terminator::Jump(b) => {
            h.write_u8(20);
            h.write_u64(b.index() as u64);
        }
        Terminator::Branch {
            op,
            lhs,
            rhs,
            then_bb,
            else_bb,
        } => {
            h.write_u8(21);
            h.write_u8(*op as u8);
            hash_operand(h, canon, lhs);
            hash_operand(h, canon, rhs);
            h.write_u64(then_bb.index() as u64);
            h.write_u64(else_bb.index() as u64);
        }
        Terminator::Return => h.write_u8(22),
    }
}

/// First-occurrence canonical numbering of variables and arrays.
#[derive(Default)]
struct Canonicalizer {
    vars: HashMap<biv_ir::Var, u64>,
    arrays: HashMap<biv_ir::Array, u64>,
}

impl Canonicalizer {
    fn var(&mut self, v: biv_ir::Var) -> u64 {
        let next = self.vars.len() as u64;
        *self.vars.entry(v).or_insert(next)
    }

    fn array(&mut self, a: biv_ir::Array) -> u64 {
        let next = self.arrays.len() as u64;
        *self.arrays.entry(a).or_insert(next)
    }
}

/// FNV-1a, 64-bit: tiny, dependency-free, and stable across platforms.
pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    pub(crate) fn new() -> Fnv1a {
        Fnv1a(0xCBF2_9CE4_8422_2325)
    }

    pub(crate) fn write_u8(&mut self, byte: u8) {
        self.0 ^= u64::from(byte);
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
    }

    pub(crate) fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_usize(bytes.len());
        for &b in bytes {
            self.write_u8(b);
        }
    }

    pub(crate) fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.write_u8(b);
        }
    }

    pub(crate) fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use biv_ir::parser::parse_program;

    fn funcs_of(src: &str) -> Vec<Function> {
        parse_program(src).expect("test source parses").functions
    }

    const TWO_LOOPS: &str = r#"
        func first(n) {
            j = 1
            L1: for i = 1 to n { j = j + i A[j] = i }
        }
        func second(n) {
            q = 1
            L1: for r = 1 to n { q = q + r A[q] = r }
        }
        func third(n) {
            j = 2
            L1: for i = 1 to n { j = j + i A[j] = i }
        }
    "#;

    /// A literal-init running sum: `2s = i² − i` holds on every iteration.
    const RUNNING_SUM: &str =
        "func sums(n) { i = 1 s = 0 loop { s = s + i i = i + 1 if i > n { break } } }";

    #[test]
    fn only_the_invariant_product_derives_invariants() {
        let func = &funcs_of(RUNNING_SUM)[0];
        let config = AnalysisConfig::default();
        let plain = summarize(func, &config, false);
        assert!(plain.loops.iter().all(|l| l.invariants.is_empty()));
        let product = analyze_batch(std::slice::from_ref(func), &BatchOptions::default());
        assert_eq!(
            product.functions[0].summary.loops[0].invariants,
            ["%0 + 2*%1 - %0^2 = 0"],
            "the default options keep the invariant product"
        );
        // Everything but the relations is the same analysis.
        let mut stripped = (*product.functions[0].summary).clone();
        stripped.loops.iter_mut().for_each(|l| l.invariants.clear());
        assert_eq!(stripped, plain);
    }

    #[test]
    fn products_never_share_a_key() {
        let hash = structural_hash(&funcs_of(RUNNING_SUM)[0]);
        assert_eq!(summary_key(hash, false), hash, "plain keys stay the hash");
        assert_ne!(summary_key(hash, true), hash);
        assert_eq!(summary_key(hash, true), summary_key(hash, true));
    }

    #[test]
    fn alternating_products_on_one_warm_cache_match_cold_runs() {
        let src = format!("{RUNNING_SUM}\n{TWO_LOOPS}");
        let funcs = funcs_of(&src);
        let opts = |invariants| BatchOptions {
            jobs: 1,
            invariants,
            ..BatchOptions::default()
        };
        let blocks = |report: &BatchReport, invariants| -> String {
            report
                .functions
                .iter()
                .map(|f| f.render_with(invariants))
                .collect()
        };
        let cold = |invariants| {
            let report = analyze_batch(&funcs, &opts(invariants));
            blocks(&report, invariants)
        };
        let (cold_plain, cold_invariants) = (cold(false), cold(true));
        assert!(cold_invariants.contains("invariant: "));

        let mut cache = StructuralCache::new(64);
        for (pass, invariants) in [false, true, false, true].into_iter().enumerate() {
            let report = analyze_batch_with_cache(&funcs, &opts(invariants), &mut cache);
            let want = if invariants {
                &cold_invariants
            } else {
                &cold_plain
            };
            assert_eq!(&blocks(&report, invariants), want, "pass {pass}");
            // The first pass of each product analyzes its three distinct
            // structures; the other product's entries never answer.
            assert_eq!(
                report.stats.misses,
                if pass < 2 { 3 } else { 0 },
                "pass {pass}"
            );
            let relations = report
                .functions
                .iter()
                .flat_map(|f| &f.summary.loops)
                .any(|l| !l.invariants.is_empty());
            assert_eq!(relations, invariants, "pass {pass}");
        }
        assert_eq!(cache.len(), 6, "one entry per structure and product");
    }

    #[test]
    fn alpha_renamed_functions_share_a_hash() {
        let funcs = funcs_of(TWO_LOOPS);
        assert_eq!(structural_hash(&funcs[0]), structural_hash(&funcs[1]));
    }

    #[test]
    fn constant_mutation_changes_the_hash() {
        let funcs = funcs_of(TWO_LOOPS);
        assert_ne!(structural_hash(&funcs[0]), structural_hash(&funcs[2]));
    }

    #[test]
    fn batch_serves_duplicates_from_cache() {
        let funcs = funcs_of(TWO_LOOPS);
        let report = analyze_batch(&funcs, &BatchOptions::default());
        assert_eq!(report.stats.functions, 3);
        assert_eq!(report.stats.misses, 2); // first/second share; third differs
        assert_eq!(report.stats.hits, 1);
        assert!(report.functions[1].cached);
        assert_eq!(
            report.functions[0].summary, report.functions[1].summary,
            "α-renamed twins share the summary"
        );
        // Names are never cached.
        assert_eq!(report.functions[0].name, "first");
        assert_eq!(report.functions[1].name, "second");
    }

    #[test]
    fn cache_persists_across_batches() {
        let funcs = funcs_of(TWO_LOOPS);
        let opts = BatchOptions::default();
        let mut cache = StructuralCache::new(16);
        let first = analyze_batch_with_cache(&funcs, &opts, &mut cache);
        assert_eq!(first.stats.misses, 2);
        let second = analyze_batch_with_cache(&funcs, &opts, &mut cache);
        assert_eq!(second.stats.misses, 0);
        assert_eq!(second.stats.hits, 3);
        // Per-function output is identical whether analyzed or cached;
        // only the stats line records the different hit counts.
        for (a, b) in first.functions.iter().zip(&second.functions) {
            assert_eq!(a.render(), b.render());
        }
    }

    #[test]
    fn eviction_is_counted_and_bounded() {
        let funcs = funcs_of(TWO_LOOPS);
        let opts = BatchOptions {
            cache_capacity: 1,
            ..BatchOptions::default()
        };
        let mut cache = StructuralCache::new(opts.cache_capacity);
        let report = analyze_batch_with_cache(&funcs, &opts, &mut cache);
        assert_eq!(cache.len(), 1);
        assert_eq!(report.stats.evictions, 1);
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn job_counts_do_not_change_output() {
        let funcs = funcs_of(TWO_LOOPS);
        let render_with = |jobs: usize| {
            let opts = BatchOptions {
                jobs,
                ..BatchOptions::default()
            };
            analyze_batch(&funcs, &opts).render()
        };
        let serial = render_with(1);
        assert_eq!(serial, render_with(2));
        assert_eq!(serial, render_with(8));
    }

    #[test]
    fn resolve_jobs_prefers_explicit_request() {
        assert_eq!(resolve_jobs(3), 3);
        assert!(resolve_jobs(0) >= 1);
    }

    #[test]
    fn cold_stats_replay_matches_a_fresh_run() {
        let funcs = funcs_of(TWO_LOOPS);
        let hashes: Vec<u64> = funcs.iter().map(structural_hash).collect();
        for capacity in [0, 1, 2, 4096] {
            let opts = BatchOptions {
                cache_capacity: capacity,
                ..BatchOptions::default()
            };
            let fresh = analyze_batch(&funcs, &opts);
            let mut replay = cold_batch_stats(&hashes, capacity);
            replay.jobs = fresh.stats.jobs;
            assert_eq!(replay, fresh.stats, "capacity {capacity}");
        }
    }

    #[test]
    fn shared_cache_batches_match_exclusive_ones() {
        let funcs = funcs_of(TWO_LOOPS);
        let opts = BatchOptions {
            jobs: 1,
            ..BatchOptions::default()
        };
        let shared = Mutex::new(StructuralCache::new(16));
        let first = analyze_batch_shared(&funcs, &opts, &shared);
        let second = analyze_batch_shared(&funcs, &opts, &shared);
        let mut exclusive = StructuralCache::new(16);
        let expect_first = analyze_batch_with_cache(&funcs, &opts, &mut exclusive);
        let expect_second = analyze_batch_with_cache(&funcs, &opts, &mut exclusive);
        assert_eq!(first.render(), expect_first.render());
        assert_eq!(second.render(), expect_second.render());
        let cache = shared.lock().unwrap();
        assert_eq!(cache.hits(), exclusive.hits());
        assert_eq!(cache.misses(), exclusive.misses());
        assert_eq!(
            cache.hits() + cache.misses(),
            2 * funcs.len() as u64,
            "every submitted function counts exactly once"
        );
    }

    #[test]
    fn shared_cache_is_consistent_under_contention() {
        let funcs = funcs_of(TWO_LOOPS);
        let opts = BatchOptions {
            jobs: 1,
            ..BatchOptions::default()
        };
        let shared = Mutex::new(StructuralCache::new(64));
        let rounds = 8;
        let reference = analyze_batch(&funcs, &opts).render();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..rounds {
                        let report = analyze_batch_shared(&funcs, &opts, &shared);
                        for (f, name) in report.functions.iter().zip(["first", "second", "third"]) {
                            assert_eq!(f.name, name);
                        }
                        assert_eq!(
                            report.stats.hits + report.stats.misses,
                            funcs.len(),
                            "per-request counts are total"
                        );
                    }
                });
            }
        });
        let cache = shared.lock().unwrap();
        assert_eq!(
            cache.hits() + cache.misses(),
            (4 * rounds * funcs.len()) as u64,
            "cumulative hits + misses == functions submitted"
        );
        drop(cache);
        // A warm follow-up run renders the same per-function blocks as a
        // cold exclusive run; only the stats line differs.
        let warm = analyze_batch_shared(&funcs, &opts, &shared);
        let cold = analyze_batch(&funcs, &opts);
        assert!(reference.contains(&cold.functions[0].render()));
        for (w, c) in warm.functions.iter().zip(&cold.functions) {
            assert_eq!(w.render(), c.render());
        }
    }
}
