//! Durable-store benchmark: cold analysis that writes every summary
//! through to disk, against a warm restart that serves the same corpus
//! from the persisted record log. The gap is the paper's analysis cost;
//! the warm number is what a `bivd --cache-dir` restart pays. The
//! emitted `BENCH_store.json` carries both timings plus the measured
//! warm disk-hit rate. Both legs store the plain product — what
//! `bivc --cache-dir` without `--invariants` serves.

use std::cell::Cell;
use std::path::PathBuf;
use std::time::Duration;

use biv_bench::criterion_group;
use biv_bench::harness::{BenchmarkId, Criterion, Throughput};
use biv_bench::report::{self, Baseline};
use biv_core::{analyze_batch_with_backend, BatchOptions, Budget, CacheBackend};
use biv_store::{StoreOptions, TieredCache};
use biv_workload::{generate_corpus, CorpusSpec};

/// A new subsystem has no pre-change medians to compare against.
const BASELINES: &[Baseline] = &[];

const CORPUS_FUNCTIONS: usize = 64;

fn timing(group: &mut biv_bench::harness::BenchmarkGroup<'_>) {
    if report::quick_mode() {
        group.measurement_time(Duration::from_millis(300));
        group.warm_up_time(Duration::from_millis(50));
        group.sample_size(5);
    } else {
        group.measurement_time(Duration::from_secs(2));
        group.warm_up_time(Duration::from_millis(400));
        group.sample_size(10);
    }
}

fn corpus_spec() -> CorpusSpec {
    CorpusSpec {
        functions: CORPUS_FUNCTIONS,
        duplicate_every: 0,
        loops: 2,
        trip: 100,
        seed: 0xC0FFEE,
    }
}

fn bench_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("biv-bench-store-{tag}-{}", std::process::id()))
}

fn batch_opts() -> BatchOptions {
    BatchOptions {
        jobs: 1,
        invariants: false,
        ..BatchOptions::default()
    }
}

/// Cold: every iteration starts from an empty directory, analyzes the
/// whole corpus, and writes every summary through to a fresh log —
/// analysis cost plus full store-write overhead.
fn bench_store_cold(c: &mut Criterion) {
    let corpus = generate_corpus(&corpus_spec());
    let options = StoreOptions::for_budget(&Budget::UNLIMITED);
    let mut group = c.benchmark_group("store");
    timing(&mut group);
    group.throughput(Throughput::Elements(CORPUS_FUNCTIONS as u64));
    let iteration = Cell::new(0u64);
    group.bench_with_input(
        BenchmarkId::new("cold", CORPUS_FUNCTIONS),
        &corpus.funcs,
        |b, funcs| {
            b.iter(|| {
                let dir = bench_dir(&format!("cold-{}", iteration.get()));
                iteration.set(iteration.get() + 1);
                let mut tiered = TieredCache::open(&dir, 4096, &options).expect("open cold store");
                let report = analyze_batch_with_backend(funcs, &batch_opts(), &mut tiered);
                tiered.flush().expect("flush");
                std::fs::remove_dir_all(&dir).ok();
                report
            })
        },
    );
    group.finish();
}

/// Warm: the store is populated once; every iteration reopens it with
/// an empty memory tier and serves the whole corpus from disk. This is
/// the restart path — decode instead of analyze.
fn bench_store_warm(c: &mut Criterion) {
    let corpus = generate_corpus(&corpus_spec());
    let options = StoreOptions::for_budget(&Budget::UNLIMITED);
    let dir = bench_dir("warm");
    let _ = std::fs::remove_dir_all(&dir);
    {
        let mut tiered = TieredCache::open(&dir, 4096, &options).expect("populate store");
        analyze_batch_with_backend(&corpus.funcs, &batch_opts(), &mut tiered);
        tiered.flush().expect("flush");
    }
    let mut group = c.benchmark_group("store");
    timing(&mut group);
    group.throughput(Throughput::Elements(CORPUS_FUNCTIONS as u64));
    group.bench_with_input(
        BenchmarkId::new("warm", CORPUS_FUNCTIONS),
        &corpus.funcs,
        |b, funcs| {
            b.iter(|| {
                let mut tiered = TieredCache::open(&dir, 4096, &options).expect("open warm store");
                analyze_batch_with_backend(funcs, &batch_opts(), &mut tiered)
            })
        },
    );
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, bench_store_cold, bench_store_warm);

/// One uninstrumented warm pass to measure the disk-hit rate the bench
/// loop exercises: distinct corpus + empty memory tier means every
/// function should be served by the durable tier.
fn measured_hit_rate() -> f64 {
    let corpus = generate_corpus(&corpus_spec());
    let options = StoreOptions::for_budget(&Budget::UNLIMITED);
    let dir = bench_dir("hitrate");
    let _ = std::fs::remove_dir_all(&dir);
    {
        let mut tiered = TieredCache::open(&dir, 4096, &options).expect("populate");
        analyze_batch_with_backend(&corpus.funcs, &batch_opts(), &mut tiered);
        tiered.flush().expect("flush");
    }
    let mut tiered = TieredCache::open(&dir, 4096, &options).expect("reopen");
    let report = analyze_batch_with_backend(&corpus.funcs, &batch_opts(), &mut tiered);
    let gauges = tiered.store_gauges().expect("store gauges");
    std::fs::remove_dir_all(&dir).ok();
    gauges.disk_hits as f64 / report.stats.functions.max(1) as f64
}

fn main() {
    let mut criterion = Criterion::new();
    benches(&mut criterion);
    criterion.final_summary();
    let hit_rate = measured_hit_rate();
    println!("warm disk hit rate: {:.3}", hit_rate);
    let path = report::workspace_root().join("BENCH_store.json");
    match report::emit_json_with_extras(
        &path,
        "store",
        criterion.measurements(),
        BASELINES,
        &[("warm_hit_rate", hit_rate)],
    ) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }
}
