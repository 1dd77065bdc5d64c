//! Invariant-engine benchmark: what the `--invariants` path costs on top
//! of classification. Three figures go to `BENCH_invariant.json`:
//! the derivation (closed-form evaluation plus fraction-free integer
//! null space) over the canonical running-sum IV pair, the
//! interpreter-trace checking predicate over realistic histories, and
//! the end-to-end batch analysis of an invariant-bearing corpus
//! (derivation + machine-checking included, as served).

use std::time::Duration;

use biv_algebra::{Rational, SymPoly};
use biv_bench::criterion_group;
use biv_bench::harness::{BenchmarkId, Criterion, Throughput};
use biv_bench::report::{self, Baseline};
use biv_core::{analyze_batch, BatchOptions};
use biv_invariant::check::SeedHistories;
use biv_invariant::{check_candidate, derive_candidates, Candidate, InvariantConfig, IvClosedForm};
use biv_workload::{generate, WorkloadSpec};

/// Medians measured at the commit before derivation moved to integer
/// rows and fraction-free elimination (rational Gauss–Jordan, every
/// closed form re-evaluated inside every monomial), on the same shapes
/// (ns/op): the median of seven full-mode runs on a 2-vCPU VM.
const BASELINES: &[Baseline] = &[
    Baseline {
        id: "invariant/derive/2iv",
        median_ns: 83_383.0,
    },
    Baseline {
        id: "invariant/batch/24",
        median_ns: 43_245_000.0,
    },
];

const CORPUS_FUNCTIONS: usize = 24;
const CHECK_SEEDS: usize = 4;
const CHECK_ITERATIONS: i64 = 64;

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

fn rat(n: i128, d: i128) -> Rational {
    Rational::new(n, d).expect("nonzero denominator")
}

/// The running-sum IV pair: `i = 1 + h`, `s = h/2 + h²/2`.
fn running_sum_ivs() -> Vec<IvClosedForm> {
    vec![
        IvClosedForm {
            name: "i".into(),
            coeffs: vec![
                SymPoly::constant(Rational::from_integer(1)),
                SymPoly::constant(Rational::from_integer(1)),
            ],
            geo: Vec::new(),
        },
        IvClosedForm {
            name: "s".into(),
            coeffs: vec![
                SymPoly::zero(),
                SymPoly::constant(rat(1, 2)),
                SymPoly::constant(rat(1, 2)),
            ],
            geo: Vec::new(),
        },
    ]
}

/// Derivation alone: basis construction, exact evaluation matrix, and
/// fraction-free integer null-space solve for the degree-2 basis over
/// two IVs.
fn bench_derive(c: &mut Criterion) {
    let ivs = running_sum_ivs();
    let config = InvariantConfig::default();
    let sanity = derive_candidates(&ivs, &config);
    assert!(!sanity.is_empty(), "running-sum pair must yield relations");
    let mut group = c.benchmark_group("invariant");
    timing(&mut group);
    group.bench_with_input(BenchmarkId::new("derive", "2iv"), &ivs, |b, ivs| {
        b.iter(|| derive_candidates(ivs, &config))
    });
    group.finish();
}

/// Checking alone: the exact-i128 evaluation of one candidate over
/// realistic seeded histories (4 seeds × 64 observed iterations).
fn bench_check(c: &mut Criterion) {
    let cand = Candidate {
        coeffs: vec![0, 1, 2, -1, 0, 0],
        exps: vec![
            vec![0, 0],
            vec![1, 0],
            vec![0, 1],
            vec![2, 0],
            vec![1, 1],
            vec![0, 2],
        ],
    };
    let seeds: Vec<SeedHistories> = (0..CHECK_SEEDS)
        .map(|_| {
            let index: Vec<i64> = (1..=CHECK_ITERATIONS).collect();
            let sum: Vec<i64> = (1..=CHECK_ITERATIONS).map(|h| h * (h - 1) / 2).collect();
            vec![index, sum]
        })
        .collect();
    assert!(
        check_candidate(&cand, &seeds, 4),
        "bench candidate must verify"
    );
    let mut group = c.benchmark_group("invariant");
    timing(&mut group);
    group.throughput(Throughput::Elements(
        (CHECK_SEEDS as u64) * (CHECK_ITERATIONS as u64),
    ));
    group.bench_with_input(
        BenchmarkId::new("check", CHECK_SEEDS * CHECK_ITERATIONS as usize),
        &seeds,
        |b, seeds| b.iter(|| check_candidate(&cand, seeds, 4)),
    );
    group.finish();
}

/// End to end: batch analysis of an invariant-bearing corpus, exactly as
/// `bivc --invariants` serves it — classification, derivation, and
/// interpreter checking per function.
fn bench_batch(c: &mut Criterion) {
    let funcs: Vec<_> = (0..CORPUS_FUNCTIONS)
        .map(|i| generate(&WorkloadSpec::invariants(2, 0xBEEF + i as u64)).func)
        .collect();
    let opts = BatchOptions {
        jobs: 1,
        invariants: true,
        ..BatchOptions::default()
    };
    let sanity = analyze_batch(&funcs, &opts);
    let with_invariants = sanity
        .functions
        .iter()
        .flat_map(|f| f.summary.loops.iter())
        .filter(|l| !l.invariants.is_empty())
        .count();
    assert!(with_invariants > 0, "corpus must carry verified invariants");
    let mut group = c.benchmark_group("invariant");
    timing(&mut group);
    group.throughput(Throughput::Elements(CORPUS_FUNCTIONS as u64));
    group.bench_with_input(
        BenchmarkId::new("batch", CORPUS_FUNCTIONS),
        &funcs,
        |b, funcs| b.iter(|| analyze_batch(funcs, &opts)),
    );
    group.finish();
}

criterion_group!(benches, bench_derive, bench_check, bench_batch);

fn main() {
    let mut criterion = Criterion::new();
    benches(&mut criterion);
    criterion.final_summary();
    let path = report::workspace_root().join("BENCH_invariant.json");
    match report::emit_json(&path, "invariant", criterion.measurements(), BASELINES) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }
}
