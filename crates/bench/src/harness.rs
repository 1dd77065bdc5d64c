//! A minimal, dependency-free benchmark harness with a Criterion-style
//! API.
//!
//! The workspace builds in fully offline environments, so the benches
//! cannot pull in the `criterion` crate. This module provides the small
//! subset of its surface the `benches/` binaries use — benchmark groups,
//! per-input benchmarks, batched iteration, throughput reporting — with
//! wall-clock timing from `std::time::Instant`. Numbers are printed to
//! stdout in a stable `group/name  time: [..]` format.

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Top-level harness state, threaded through every benchmark function.
#[derive(Debug, Default)]
pub struct Criterion {
    results: Vec<Measurement>,
}

/// One finished benchmark measurement.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// `group/name` identifier.
    pub id: String,
    /// Mean wall-clock time per iteration.
    pub mean: Duration,
    /// Median per-iteration time across samples. Robust against a stray
    /// slow sample (page faults, scheduler noise) and therefore the
    /// number recorded in `BENCH_*.json`.
    pub median: Duration,
    /// Per-sample per-iteration times, in measurement order.
    pub samples: Vec<Duration>,
    /// Throughput elements per iteration, when declared.
    pub elements: Option<u64>,
}

impl Criterion {
    /// Creates a fresh harness.
    pub fn new() -> Criterion {
        Criterion::default()
    }

    /// Starts a named benchmark group.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
            measurement_time: Duration::from_secs(1),
            warm_up_time: Duration::from_millis(200),
            sample_size: 10,
            throughput: None,
        }
    }

    /// Runs a benchmark outside any group.
    pub fn bench_function<F>(&mut self, name: &str, f: F)
    where
        F: FnMut(&mut Bencher),
    {
        let mut group = self.benchmark_group("");
        group.bench_function(name, f);
        group.finish();
    }

    /// All measurements recorded so far.
    pub fn measurements(&self) -> &[Measurement] {
        &self.results
    }

    /// Prints a one-line closing summary.
    pub fn final_summary(&self) {
        println!("{} benchmarks measured", self.results.len());
    }
}

/// Declared throughput for a group, à la Criterion.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// How batched iteration amortizes setup; accepted for API compatibility.
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One setup per iteration.
    PerIteration,
}

/// A `name/parameter` benchmark identifier.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Creates an identifier from a function name and a parameter.
    pub fn new(function_name: impl Display, parameter: impl Display) -> BenchmarkId {
        BenchmarkId {
            id: format!("{function_name}/{parameter}"),
        }
    }
}

/// A group of related benchmarks sharing timing configuration.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    measurement_time: Duration,
    warm_up_time: Duration,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the target total measurement time.
    pub fn measurement_time(&mut self, t: Duration) -> &mut Self {
        self.measurement_time = t;
        self
    }

    /// Sets the warm-up time before sampling.
    pub fn warm_up_time(&mut self, t: Duration) -> &mut Self {
        self.warm_up_time = t;
        self
    }

    /// Sets the number of samples taken per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Declares the throughput of subsequent benchmarks in the group.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Benchmarks a closure.
    pub fn bench_function<F>(&mut self, name: impl BenchName, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = self.qualified(&name.bench_name());
        let mut bencher = Bencher {
            warm_up_time: self.warm_up_time,
            measurement_time: self.measurement_time,
            sample_size: self.sample_size,
            mean: Duration::ZERO,
            samples: Vec::new(),
        };
        f(&mut bencher);
        let samples = std::mem::take(&mut bencher.samples);
        self.record(id, bencher.mean, samples);
        self
    }

    /// Benchmarks a closure against a borrowed input.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.bench_function(id, |b| f(b, input))
    }

    /// Ends the group (measurements are already recorded).
    pub fn finish(&mut self) {}

    fn qualified(&self, name: &str) -> String {
        if self.name.is_empty() {
            name.to_string()
        } else {
            format!("{}/{name}", self.name)
        }
    }

    fn record(&mut self, id: String, mean: Duration, samples: Vec<Duration>) {
        let elements = match self.throughput {
            Some(Throughput::Elements(n)) | Some(Throughput::Bytes(n)) => Some(n),
            None => None,
        };
        let median = median_duration(&samples).unwrap_or(mean);
        let thrpt = match elements {
            Some(n) if median > Duration::ZERO => {
                let per_sec = n as f64 / median.as_secs_f64();
                format!("  thrpt: [{} elem/s]", human_count(per_sec))
            }
            _ => String::new(),
        };
        println!(
            "{id:<40} time: [{} median {} mean]{thrpt}",
            human_duration(median),
            human_duration(mean)
        );
        self.criterion.results.push(Measurement {
            id,
            mean,
            median,
            samples,
            elements,
        });
    }
}

/// Things accepted as a benchmark name: `&str` or [`BenchmarkId`].
pub trait BenchName {
    /// The rendered name.
    fn bench_name(&self) -> String;
}

impl BenchName for &str {
    fn bench_name(&self) -> String {
        (*self).to_string()
    }
}

impl BenchName for BenchmarkId {
    fn bench_name(&self) -> String {
        self.id.clone()
    }
}

/// Per-benchmark timing driver.
pub struct Bencher {
    warm_up_time: Duration,
    measurement_time: Duration,
    sample_size: usize,
    mean: Duration,
    samples: Vec<Duration>,
}

impl Bencher {
    /// Times `routine` in a loop.
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        // Warm up and estimate the per-iteration cost.
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        while warm_start.elapsed() < self.warm_up_time || warm_iters == 0 {
            black_box(routine());
            warm_iters += 1;
        }
        let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters as f64;
        let budget = self.measurement_time.as_secs_f64() / self.sample_size as f64;
        let iters_per_sample = ((budget / per_iter.max(1e-9)) as u64).max(1);
        let mut total = Duration::ZERO;
        let mut iters = 0u64;
        self.samples.clear();
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(routine());
            }
            let sample = t0.elapsed();
            self.samples.push(sample.div_f64(iters_per_sample as f64));
            total += sample;
            iters += iters_per_sample;
        }
        self.mean = total.div_f64(iters as f64);
    }

    /// Times `routine` with a fresh `setup` product per call; only the
    /// routine is timed. The routine's output is dropped *outside* the
    /// timed window (matching criterion semantics), so a routine that
    /// wants its input's teardown excluded too can simply return the
    /// input alongside its result.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        // Warm up.
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        let mut timed = Duration::ZERO;
        while warm_start.elapsed() < self.warm_up_time || warm_iters == 0 {
            let input = setup();
            let t0 = Instant::now();
            let out = black_box(routine(input));
            timed += t0.elapsed();
            drop(out);
            warm_iters += 1;
        }
        let per_iter = (timed.as_secs_f64() / warm_iters as f64).max(1e-9);
        let budget = self.measurement_time.as_secs_f64() / self.sample_size as f64;
        let iters_per_sample = ((budget / per_iter) as u64).max(1);
        let mut total = Duration::ZERO;
        let mut iters = 0u64;
        self.samples.clear();
        for _ in 0..self.sample_size {
            let mut sample = Duration::ZERO;
            for _ in 0..iters_per_sample {
                let input = setup();
                let t0 = Instant::now();
                let out = black_box(routine(input));
                sample += t0.elapsed();
                drop(out);
            }
            self.samples.push(sample.div_f64(iters_per_sample as f64));
            total += sample;
            iters += iters_per_sample;
        }
        self.mean = total.div_f64(iters as f64);
    }
}

/// The median of a set of per-sample durations (average of the middle
/// pair for even counts); `None` when empty.
pub fn median_duration(samples: &[Duration]) -> Option<Duration> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort();
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2
    })
}

fn human_duration(d: Duration) -> String {
    let ns = d.as_nanos() as f64;
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.3} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.3} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

fn human_count(n: f64) -> String {
    if n < 1_000.0 {
        format!("{n:.1}")
    } else if n < 1_000_000.0 {
        format!("{:.2} K", n / 1_000.0)
    } else if n < 1_000_000_000.0 {
        format!("{:.2} M", n / 1_000_000.0)
    } else {
        format!("{:.2} G", n / 1_000_000_000.0)
    }
}

/// Bundles benchmark functions into a single group runner, mirroring
/// `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::harness::Criterion) {
            $( $target(c); )+
        }
    };
}

/// Generates `main` for a bench binary, mirroring
/// `criterion::criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut criterion = $crate::harness::Criterion::new();
            $( $group(&mut criterion); )+
            criterion.final_summary();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_measures_something() {
        let mut c = Criterion::new();
        let mut group = c.benchmark_group("t");
        group.measurement_time(Duration::from_millis(20));
        group.warm_up_time(Duration::from_millis(5));
        group.sample_size(3);
        // black_box keeps the sum from being const-folded in release mode,
        // where a 0ns body would defeat the mean > 0 assertion below.
        group.bench_function("spin", |b| {
            b.iter(|| (0..std::hint::black_box(10_000u64)).sum::<u64>())
        });
        group.finish();
        assert_eq!(c.measurements().len(), 1);
        assert!(c.measurements()[0].mean > Duration::ZERO);
    }

    #[test]
    fn iter_batched_measures_routine_only() {
        let mut c = Criterion::new();
        let mut group = c.benchmark_group("t");
        group.measurement_time(Duration::from_millis(20));
        group.warm_up_time(Duration::from_millis(5));
        group.sample_size(3);
        group.bench_with_input(BenchmarkId::new("sum", 64), &64u64, |b, &n| {
            b.iter_batched(
                || vec![1u64; n as usize],
                |v| v.iter().sum::<u64>(),
                BatchSize::SmallInput,
            )
        });
        group.finish();
        assert_eq!(c.measurements().len(), 1);
        assert_eq!(c.measurements()[0].id, "t/sum/64");
    }
}
