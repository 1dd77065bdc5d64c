//! The batch workloads: one `bivc --jobs 2 DIR` run is one operation.
//!
//! - `batch_default` — 256 distinct two-loop functions of the default
//!   class mix, one per file. No two share a structure, so `bivc`'s
//!   memo cache never hits and every function pays the whole analysis
//!   path, including invariant work the plain report never prints.
//! - `batch_invariants` — 96 files of the invariant preset, rendered
//!   with `--invariants`: 384 planted running-sum relations that must
//!   each be derived, replayed, checked, and printed.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use biv_core::{analyze, analyze_batch, render_grouped_with, BatchOptions, BatchReport};
use biv_ir::parser::parse_program;
use biv_ir::Function;
use biv_workload::{
    count_classes, generate, running_sum_relation, ExpectedCounts, InvariantPlant, WorkloadSpec,
};

use crate::layers::{trace_corpus, LayerTimes};
use crate::process::run_measured;
use crate::stats::{median, ms, quantile, ratio, Metrics};
use crate::{Env, Outcome};

/// Worker threads for the measured runs: the host has two cores.
const JOBS: &str = "2";

/// Start-up probes per run; `setup_s` is their median.
const SETUP_PROBES: usize = 41;

/// Fewest measured runs, however short `--seconds` is.
const MIN_RUNS: usize = 5;

/// A one-function, loop-free file: running `bivc` on it costs process
/// start-up and almost nothing else.
const SETUP_SOURCE: &str = "func setup(n) {\n    x = n + 1\n    A[x] = n\n}\n";

/// Which batch workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `batch_default`.
    Default,
    /// `batch_invariants`.
    Invariants,
}

/// One generated input file with its ground truth.
pub struct Input {
    /// Display path, exactly as `bivc` prints it for the directory.
    pub path: String,
    /// The file's source.
    pub source: String,
    expected: ExpectedCounts,
    plants: Vec<InvariantPlant>,
}

/// A generated corpus, written to `dir`.
pub struct Corpus {
    /// The directory `bivc` is pointed at.
    pub dir: PathBuf,
    /// Files in `bivc`'s order (sorted by name).
    pub inputs: Vec<Input>,
}

impl Corpus {
    /// The sources, in order.
    pub fn sources(&self) -> Vec<String> {
        self.inputs.iter().map(|i| i.source.clone()).collect()
    }

    /// The directory as a command-line argument.
    pub fn dir_arg(&self) -> String {
        self.dir.display().to_string()
    }
}

/// Generates and writes `count` files made from `spec_of(i)`.
pub fn write_corpus(
    dir: &Path,
    count: usize,
    spec_of: impl Fn(usize) -> WorkloadSpec,
) -> std::io::Result<Corpus> {
    std::fs::create_dir_all(dir)?;
    let mut inputs = Vec::with_capacity(count);
    for i in 0..count {
        let w = generate(&spec_of(i));
        let file = dir.join(format!("f{i:04}.biv"));
        std::fs::write(&file, &w.source)?;
        inputs.push(Input {
            path: file.display().to_string(),
            source: w.source,
            expected: w.expected,
            plants: w.invariant_plants,
        });
    }
    Ok(Corpus {
        dir: dir.to_path_buf(),
        inputs,
    })
}

/// The function seed of file `i` under workload seed `seed`: distinct
/// per file and per workload seed.
pub fn file_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(1 << 20).wrapping_add(i as u64)
}

/// What `bivc` must print for a corpus, computed in-process with one
/// job: the plain report and the `--invariants` report.
pub struct Reference {
    /// `bivc DIR` stdout.
    pub plain: String,
    /// `bivc --invariants DIR` stdout.
    pub invariants: String,
    /// The in-process batch report both were rendered from.
    pub report: BatchReport,
    /// The parsed functions, in order.
    pub funcs: Vec<Function>,
}

/// Renders the expected `bivc` outputs for `corpus`.
pub fn reference(corpus: &Corpus) -> Reference {
    let mut funcs = Vec::new();
    let mut ranges = Vec::new();
    for input in &corpus.inputs {
        let program = parse_program(&input.source).expect("generated source parses");
        ranges.push((input.path.clone(), program.functions.len()));
        funcs.extend(program.functions);
    }
    let opts = BatchOptions {
        jobs: 1,
        ..BatchOptions::default()
    };
    let report = analyze_batch(&funcs, &opts);
    Reference {
        plain: render_grouped_with(&ranges, &report.functions, &report.stats, false),
        invariants: render_grouped_with(&ranges, &report.functions, &report.stats, true),
        report,
        funcs,
    }
}

/// Every planted class is recovered: per file, each class count is at
/// least what the generator planted.
fn check_planted_classes(corpus: &Corpus, funcs: &[Function]) -> Result<(), String> {
    for (input, func) in corpus.inputs.iter().zip(funcs) {
        let got = count_classes(&analyze(func));
        let want = input.expected;
        let covered = got.linear >= want.linear
            && got.polynomial >= want.polynomial
            && got.geometric >= want.geometric
            && got.mixed_geometric >= want.mixed_geometric
            && got.wraparound >= want.wraparound
            && got.periodic >= want.periodic
            && got.monotonic >= want.monotonic;
        if !covered {
            return Err(format!(
                "{}: classes {got:?} do not cover planted {want:?}",
                input.path
            ));
        }
    }
    Ok(())
}

/// Every planted running-sum relation is printed verbatim in its own
/// file's block, under its own loop.
fn check_planted_relations(corpus: &Corpus, funcs: &[Function], out: &str) -> Result<(), String> {
    for (input, func) in corpus.inputs.iter().zip(funcs) {
        let block = file_block(out, &input.path)
            .ok_or_else(|| format!("{}: no block in the report", input.path))?;
        let analysis = analyze(func);
        for plant in &input.plants {
            let (l, info) = analysis
                .loops()
                .find(|(_, info)| info.name == plant.label)
                .ok_or_else(|| format!("{}: loop {} not analyzed", input.path, plant.label))?;
            let header = analysis.forest().data(l).header;
            let phis = &analysis.ssa().block(header).phis;
            let degree = |v| match info.classes.get(v) {
                Some(biv_core::Class::Induction(cf)) => cf.degree(),
                _ => 0,
            };
            let (sum, index) = match phis.as_slice() {
                [a, b] if degree(*a) == 2 => (*a, *b),
                [a, b] => (*b, *a),
                _ => return Err(format!("{}: {} lacks its φ pair", input.path, plant.label)),
            };
            let want = format!(
                "    invariant: {}",
                running_sum_relation(
                    &biv_core::canonical_value_name(sum),
                    &biv_core::canonical_value_name(index)
                )
            );
            if !loop_lines(block, &plant.label).any(|line| line == want) {
                return Err(format!(
                    "{}: loop {} does not print `{}`",
                    input.path,
                    plant.label,
                    want.trim()
                ));
            }
        }
    }
    Ok(())
}

/// The lines of one file's `══ path ══` block.
fn file_block<'a>(out: &'a str, path: &str) -> Option<&'a str> {
    let header = format!("══ {path} ══\n");
    let start = out.find(&header)? + header.len();
    let rest = &out[start..];
    let end = rest
        .find("══ ")
        .or_else(|| rest.find("batch: "))
        .unwrap_or(rest.len());
    Some(&rest[..end])
}

/// The lines printed under `loop LABEL:` within a file block.
fn loop_lines<'a>(block: &'a str, label: &str) -> impl Iterator<Item = &'a str> {
    let head = format!("  loop {label}:");
    block
        .lines()
        .skip_while(move |l| !l.starts_with(&head))
        .skip(1)
        .take_while(|l| l.starts_with("    "))
}

/// Relations `bivc --invariants` printed.
fn printed_relations(out: &str) -> usize {
    out.lines()
        .filter(|l| l.starts_with("    invariant: "))
        .count()
}

/// Runs `bivc ARGS DIR` and checks its stdout against `want`. Returns
/// the wall time and peak RSS, or why the run failed.
fn bivc_run(env: &Env, args: &[&str], want: &str) -> Result<(Duration, u64), String> {
    let run = run_measured(Command::new(&env.bivc).args(args))
        .map_err(|e| format!("cannot run bivc: {e}"))?;
    if !run.success {
        return Err(format!(
            "bivc {args:?} failed: {}",
            String::from_utf8_lossy(&run.stderr).trim()
        ));
    }
    if run.stdout != want.as_bytes() {
        return Err(format!("bivc {args:?}: stdout differs from the reference"));
    }
    Ok((run.wall, run.max_rss_kb))
}

/// Runs the `batch_default` or `batch_invariants` workload.
pub fn run(env: &Env, kind: Kind, seed: u64, seconds: u64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let corpus = match kind {
        Kind::Default => write_corpus(&env.work.join("batch"), 256, |i| {
            WorkloadSpec::mixed(2, file_seed(seed, i))
        }),
        Kind::Invariants => write_corpus(&env.work.join("batch"), 96, |i| {
            WorkloadSpec::invariants(2, file_seed(seed, i))
        }),
    };
    let corpus = match corpus {
        Ok(c) => c,
        Err(e) => return Outcome::broken(format!("cannot write the corpus: {e}")),
    };

    // Oracles, all before anything is timed.
    let reference = reference(&corpus);
    let planted = match kind {
        Kind::Default => check_planted_classes(&corpus, &reference.funcs),
        Kind::Invariants => {
            check_planted_relations(&corpus, &reference.funcs, &reference.invariants)
        }
    };
    out.check(planted);
    if kind == Kind::Default && reference.report.stats.hits != 0 {
        out.check(Err(format!(
            "{} of {} functions share a structure; the corpus must be distinct",
            reference.report.stats.hits,
            corpus.inputs.len()
        )));
    }
    let dir = corpus.dir_arg();
    let (want, mut args) = match kind {
        Kind::Default => (&reference.plain, vec!["--jobs", JOBS]),
        Kind::Invariants => (&reference.invariants, vec!["--invariants", "--jobs", JOBS]),
    };
    args.push(&dir);

    if trace {
        let (mut m, passes) = analysis_layers(env, &corpus, &reference, seconds, &mut out);
        out.samples = passes;
        let stats = reference.report.stats;
        m.add(
            "core.cache_hit_ratio",
            ratio(stats.hits as f64, stats.functions as f64),
            "ratio",
        );
        m.extend(crate::serve::idle_layers());
        out.metrics = m;
        return out;
    }

    let setup = match setup_probes(env) {
        Ok(s) => s,
        Err(e) => return Outcome::broken(e),
    };

    // One untimed warm-up run, then measure for `seconds`.
    out.check(bivc_run(env, &args, want).map(drop));
    let functions = corpus.inputs.len() as f64;
    let (mut walls, mut rss) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while walls.len() < MIN_RUNS || start.elapsed() < Duration::from_secs(seconds) {
        let result = bivc_run(env, &args, want);
        if let Ok((wall, kb)) = &result {
            walls.push(ms(*wall));
            rss.push(*kb as f64 / 1024.0);
        }
        out.check(result.map(drop));
        if out.failed > 0 && walls.is_empty() && out.attempted >= MIN_RUNS as u64 {
            break;
        }
    }
    out.samples = walls.len();
    let busy_s: f64 = walls.iter().sum::<f64>() / 1e3;
    let m = &mut out.metrics;
    m.add("setup_s", setup, "s");
    m.add("fn_per_s", functions * walls.len() as f64 / busy_s, "fn/s");
    m.add("op_ms_p50", median(&walls), "ms");
    m.add("op_ms_p90", quantile(&walls, 0.9), "ms");
    m.add("peak_rss_mb", median(&rss), "MB");
    out
}

/// `setup_s` for the batch workloads: the median wall time of `bivc`
/// on a one-function file — the process start-up every batch pays
/// before its first function.
fn setup_probes(env: &Env) -> Result<f64, String> {
    let file = env.work.join("setup.biv");
    std::fs::write(&file, SETUP_SOURCE).map_err(|e| format!("cannot write {file:?}: {e}"))?;
    let file = file.display().to_string();
    let want = {
        let funcs = parse_program(SETUP_SOURCE)
            .expect("setup source parses")
            .functions;
        let report = analyze_batch(&funcs, &BatchOptions::default());
        render_grouped_with(
            &[(file.clone(), 1)],
            &report.functions,
            &report.stats,
            false,
        )
    };
    let mut probes = Vec::with_capacity(SETUP_PROBES);
    for _ in 0..SETUP_PROBES {
        let (wall, _) = bivc_run(env, &["--jobs", JOBS, &file], &want)?;
        probes.push(wall.as_secs_f64());
    }
    Ok(median(&probes))
}

/// The per-layer numbers of one corpus, at one job, over about
/// `seconds`: the traced layers (median of repeated passes), `bivc
/// --jobs 1` wall time, the part of it no traced layer accounts for,
/// and the invariant drift check. Also returns the number of passes.
pub fn analysis_layers(
    env: &Env,
    corpus: &Corpus,
    reference: &Reference,
    seconds: u64,
    out: &mut Outcome,
) -> (Metrics, usize) {
    let dir = corpus.dir_arg();
    let sources = corpus.sources();

    // Traced passes and `bivc --jobs 1` runs alternate, so both see the
    // same machine.
    let (mut passes, mut walls) = (Vec::<LayerTimes>::new(), Vec::new());
    let start = Instant::now();
    while passes.len() < 3 || (start.elapsed() < Duration::from_secs(seconds) && passes.len() < 40)
    {
        passes.push(trace_corpus(&sources));
        let result = bivc_run(env, &["--jobs", "1", &dir], &reference.plain);
        if let Ok((wall, _)) = &result {
            walls.push(ms(*wall));
        }
        out.check(result.map(drop));
    }
    if walls.is_empty() {
        return (Metrics::default(), 0);
    }

    // Drift check: the rebuilt invariant path must verify exactly what
    // the real one prints.
    let verified = passes[0].verified;
    let drift = bivc_run(
        env,
        &["--invariants", "--jobs", "1", &dir],
        &reference.invariants,
    )
    .and_then(|_| match printed_relations(&reference.invariants) {
        printed if printed == verified => Ok(()),
        printed => Err(format!(
            "invariant drift: the traced rebuild verified {verified}, \
                 bivc --invariants printed {printed}"
        )),
    });
    out.check(drift);

    let layer = |f: fn(&LayerTimes) -> Duration| {
        median(&passes.iter().map(|p| ms(f(p))).collect::<Vec<_>>())
    };
    let classify_ms = layer(|p| p.classify);
    let traced_ms = layer(LayerTimes::total);
    let wall_ms = median(&walls);
    let unattributed_ms = median(
        &walls
            .iter()
            .zip(&passes)
            .map(|(wall, pass)| wall - ms(pass.total()))
            .collect::<Vec<_>>(),
    );
    let share = ratio(unattributed_ms, wall_ms);
    eprintln!(
        "perfbench: traced layers {traced_ms:.1} ms of bivc --jobs 1 {wall_ms:.1} ms; \
         unattributed {:.1}% (tolerance ±{:.0}%){}",
        share * 100.0,
        crate::TRACE_TOLERANCE * 100.0,
        if share.abs() <= crate::TRACE_TOLERANCE {
            ""
        } else {
            " EXCEEDED"
        }
    );
    let p = &passes[0];
    let mut m = Metrics::default();
    m.add("ir.parse_ms", layer(|p| p.parse), "ms");
    m.add("ir.loop_forest_ms", layer(|p| p.loop_forest), "ms");
    m.add("ssa.build_ms", layer(|p| p.ssa), "ms");
    m.add("core.classify_ms", classify_ms, "ms");
    m.add(
        "core.classify_ns_per_inst",
        classify_ms * 1e6 / p.insts as f64,
        "ns/inst",
    );
    m.add("core.closed_forms_ms", layer(|p| p.closed_forms), "ms");
    m.add("core.single_job_ms", wall_ms, "ms");
    m.add("core.unattributed_ms", unattributed_ms, "ms");
    m.add("core.unattributed_share", share, "ratio");
    m.add("invariant.derive_ms", layer(|p| p.derive), "ms");
    m.add("invariant.replay_ms", layer(|p| p.replay), "ms");
    m.add("invariant.check_ms", layer(|p| p.check), "ms");
    m.add("invariant.candidates", p.candidates as f64, "count");
    m.add("invariant.verified", p.verified as f64, "count");
    m.add(
        "invariant.verified_ratio",
        ratio(p.verified as f64, p.candidates as f64),
        "ratio",
    );
    (m, walls.len())
}
