//! `perfbench` — the repository's end-to-end benchmark, with a traced
//! per-layer breakdown.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch_default|batch_invariants|serve_mixed \
//!     --seed N --seconds S --trace 0|1 [--out RESULT.json]
//! ```
//!
//! Run from the repository root. The harness builds `bivc` and `bivd`
//! (release, into `$CARGO_TARGET_DIR` or `target/`), generates the
//! workload's inputs from the seed, measures for `--seconds`, checks
//! every output against an in-process reference, and prints one JSON
//! object as its last stdout line. With `--trace 0` that object holds
//! the end-to-end metrics; with `--trace 1` it holds the per-layer
//! metrics, taken by timing each layer's public entry points from
//! outside and by reading the shards' `stats` op — nothing is traced
//! inside the programs. `--out` additionally writes the result, stamped
//! with the git revision, `nproc`, seed, and sample count.
//!
//! The load is sized for a two-core host: batch runs use `--jobs 2`,
//! and serving is one closed-loop client against two single-worker
//! shards. The exit code is non-zero when any output is wrong.

mod batch;
mod layers;
mod process;
mod serve;
mod stats;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use biv_server::Json;

use crate::stats::Metrics;

/// How far the traced layers may fall short of (or exceed) the
/// single-job `bivc` wall time before the traced run says so.
pub const TRACE_TOLERANCE: f64 = 0.25;

/// Where the run's scratch files live, relative to the repository root.
const WORK_ROOT: &str = ".bench_work";

/// The built binaries and this run's scratch directory.
pub struct Env {
    /// The `bivc` binary.
    pub bivc: PathBuf,
    /// The `bivd` binary.
    pub bivd: PathBuf,
    /// This run's scratch directory, removed on exit.
    pub work: PathBuf,
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: program runs, requests, and oracle checks.
    pub attempted: u64,
    /// Operations that errored, were refused, or printed wrong output.
    pub failed: u64,
    /// The first few failures, for stderr.
    pub errors: Vec<String>,
    /// Timed samples behind the reported percentiles.
    pub samples: usize,
    /// The reported metrics.
    pub metrics: Metrics,
    /// Set when the harness itself could not run the workload.
    pub fatal: Option<String>,
}

impl Outcome {
    /// Records one checked operation.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }

    /// A run the harness could not carry out.
    pub fn broken(reason: String) -> Outcome {
        Outcome {
            fatal: Some(reason),
            ..Outcome::default()
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut out) = (None, None, None, false, None);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["batch_default", "batch_invariants", "serve_mixed"].contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        out,
    })
}

/// Builds `bivc` and `bivd` from the repository at the working
/// directory and returns their paths.
fn build() -> Result<(PathBuf, PathBuf), String> {
    if !Path::new("Cargo.toml").is_file() || !Path::new("src/bin/bivd.rs").is_file() {
        return Err("run from the repository root: no Cargo.toml with bivc/bivd here".into());
    }
    let status = Command::new(std::env::var_os("CARGO").unwrap_or("cargo".into()))
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "bivc",
            "--bin",
            "bivd",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building bivc and bivd failed ({status})"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let release = target.join("release");
    Ok((release.join("bivc"), release.join("bivd")))
}

/// Refuses to measure next to a `bivd` that is already running: on a
/// two-core host a stray shard skews every number.
fn refuse_strays() -> Result<(), String> {
    let me = std::process::id();
    let Ok(procs) = std::fs::read_dir("/proc") else {
        return Ok(());
    };
    for entry in procs.flatten() {
        let Some(pid) = entry
            .file_name()
            .to_str()
            .and_then(|p| p.parse::<u32>().ok())
        else {
            continue;
        };
        if pid == me {
            continue;
        }
        let Ok(exe) = std::fs::read_link(entry.path().join("exe")) else {
            continue;
        };
        let exe = exe.to_string_lossy();
        let exe = exe.trim_end_matches(" (deleted)");
        if Path::new(exe).file_name().is_some_and(|n| n == "bivd") {
            return Err(format!(
                "a bivd from an earlier run is still alive (pid {pid}, {exe}); stop it first"
            ));
        }
    }
    Ok(())
}

/// The revision being measured, when the checkout is a git repository.
fn git_revision() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The result line.
fn result_json(outcome: &Outcome) -> Json {
    let metrics = outcome
        .metrics
        .0
        .iter()
        .map(|&(name, value, unit)| {
            (
                name.to_string(),
                Json::obj(vec![
                    ("value", Json::Float(value)),
                    ("unit", Json::Str(unit.into())),
                ]),
            )
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Int(outcome.attempted as i64)),
        ("failed", Json::Int(outcome.failed as i64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// Removes the run's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(WORK_ROOT);
    }
}

/// Removes scratch directories that killed runs left behind.
fn remove_stale_work() {
    let Ok(entries) = std::fs::read_dir(WORK_ROOT) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let pid = name.to_str().and_then(|n| n.strip_prefix("run-"));
        if pid.is_some_and(|pid| !Path::new("/proc").join(pid).exists()) {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    refuse_strays()?;
    remove_stale_work();
    let (bivc, bivd) = build()?;
    let work = WorkDir(Path::new(WORK_ROOT).join(format!("run-{}", std::process::id())));
    std::fs::create_dir_all(&work.0).map_err(|e| format!("cannot create {:?}: {e}", work.0))?;
    let env = Env {
        bivc,
        bivd,
        work: work.0.clone(),
    };
    let mut outcome = match args.workload.as_str() {
        "batch_default" => batch::run(
            &env,
            batch::Kind::Default,
            args.seed,
            args.seconds,
            args.trace,
        ),
        "batch_invariants" => batch::run(
            &env,
            batch::Kind::Invariants,
            args.seed,
            args.seconds,
            args.trace,
        ),
        _ => serve::run(&env, args.seed, args.seconds, args.trace),
    };
    if let Some(reason) = outcome.fatal.take() {
        return Err(reason);
    }
    if !args.trace {
        let ok = (outcome.attempted - outcome.failed) as f64 / outcome.attempted.max(1) as f64;
        outcome.metrics.add("ok_frac", ok, "ratio");
    }
    if outcome.metrics.0.iter().any(|(_, v, _)| !v.is_finite()) {
        outcome.check(Err("a metric is not a finite number".into()));
    }
    Ok(outcome)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for e in &outcome.errors {
        eprintln!("perfbench: FAILED: {e}");
    }
    eprintln!(
        "perfbench: {} seed {} trace {}: {} samples, {} of {} operations failed",
        args.workload,
        args.seed,
        u8::from(args.trace),
        outcome.samples,
        outcome.failed,
        outcome.attempted
    );
    let result = result_json(&outcome);
    if let Some(path) = &args.out {
        let stamped = Json::obj(vec![
            ("workload", Json::Str(args.workload.clone())),
            ("seed", Json::Int(args.seed as i64)),
            ("seconds", Json::Int(args.seconds as i64)),
            ("trace", Json::Bool(args.trace)),
            ("revision", Json::Str(git_revision())),
            (
                "nproc",
                Json::Int(std::thread::available_parallelism().map_or(0, |n| n.get() as i64)),
            ),
            ("samples", Json::Int(outcome.samples as i64)),
            ("result", result.clone()),
        ]);
        if let Err(e) = std::fs::write(path, stamped.to_text() + "\n") {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    println!("{}", result.to_text());
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
