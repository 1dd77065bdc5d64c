//! Golden-file tests for `bivc`'s multi-file batch output.
//!
//! The batch CLI's stdout is a stable, documented format: per-file
//! headers, canonical per-function summaries, and a scheduling-independent
//! stats line. These tests pin it byte-for-byte against fixtures under
//! `tests/golden/` and check that `--jobs` never changes it.
//!
//! To regenerate the goldens after an intentional format change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_cli
//! ```

use std::path::Path;
use std::process::{Command, Output};

fn bivc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bivc"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .env_remove("BIV_JOBS")
        .output()
        .expect("bivc runs")
}

fn stdout_of(args: &[&str]) -> String {
    let out = bivc(args);
    assert!(
        out.status.success(),
        "bivc {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("bivc output is UTF-8")
}

fn check_golden(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden `{}`: {e} (run with UPDATE_GOLDEN=1)",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "golden `{name}` mismatch — if the change is intentional, rerun with UPDATE_GOLDEN=1"
    );
}

#[test]
fn multi_file_batch_output_matches_golden() {
    let actual = stdout_of(&[
        "--jobs",
        "2",
        "tests/golden/fig1.biv",
        "tests/golden/poly.biv",
    ]);
    check_golden("multi_file.txt", &actual);
}

#[test]
fn directory_batch_output_matches_golden() {
    // A directory argument expands recursively (sorted, deterministic)
    // and triggers batch mode without an explicit flag.
    let actual = stdout_of(&["tests/golden"]);
    check_golden("directory.txt", &actual);
}

#[test]
fn cli_output_is_job_count_invariant() {
    let base = stdout_of(&["--jobs", "1", "tests/golden"]);
    for jobs in ["2", "8"] {
        let got = stdout_of(&["--jobs", jobs, "tests/golden"]);
        assert_eq!(base, got, "--jobs {jobs} changed the batch output");
    }
    // BIV_JOBS picks the default worker count but not the output.
    let out = Command::new(env!("CARGO_BIN_EXE_bivc"))
        .args(["--batch", "tests/golden"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .env("BIV_JOBS", "3")
        .output()
        .expect("bivc runs");
    assert!(out.status.success());
    assert_eq!(base, String::from_utf8(out.stdout).unwrap());
}

#[test]
fn repeated_runs_are_byte_identical_across_hash_seeds() {
    // Every spawned process gets a fresh `RandomState` hash seed, so any
    // surviving dependence on HashMap iteration order would flicker
    // between runs. Covers the detailed single-function mode (SSA dump,
    // classes, trip counts, dependences) and the parallel batch mode.
    for args in [
        &[
            "--ssa",
            "--classes",
            "--trip-counts",
            "--deps",
            "tests/golden/fig1.biv",
        ][..],
        &["--classes", "--trip-counts", "tests/golden/poly.biv"][..],
        &["--jobs", "4", "tests/golden"][..],
    ] {
        let first = stdout_of(args);
        for run in 0..2 {
            assert_eq!(
                first,
                stdout_of(args),
                "bivc {args:?} output changed on re-run {run}"
            );
        }
    }
}

#[test]
fn structural_twins_are_reported_as_cache_hits() {
    // wrap.biv holds an α-renamed pair: the stats line must show one
    // analysis and one hit.
    let actual = stdout_of(&["--batch", "tests/golden/nested/wrap.biv"]);
    assert!(
        actual.contains("batch: 2 functions, 1 analyzed, 1 cache hits, 0 evictions"),
        "unexpected stats in:\n{actual}"
    );
}

#[test]
fn time_flag_reports_phases_on_stderr_only() {
    let plain = stdout_of(&["--classes", "tests/golden/fig1.biv"]);
    let out = bivc(&["--classes", "--time", "tests/golden/fig1.biv"]);
    assert!(out.status.success());
    assert_eq!(
        plain,
        String::from_utf8(out.stdout).unwrap(),
        "--time must not change stdout"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("timing: parse") && err.contains("classify"),
        "missing timing line in stderr:\n{err}"
    );
}

#[test]
fn missing_input_fails_cleanly() {
    let out = bivc(&["--batch", "tests/golden/nope.biv"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("nope.biv"));
}

#[test]
fn removed_watch_bench_flags_fail_as_unknown() {
    // The per-nest incremental mode is gone; its flags must fail loudly
    // rather than fall through to the default analysis dump.
    for args in [
        &["--watch-bench", "tests/golden/fig1.biv"][..],
        &["--edits", "4", "tests/golden/fig1.biv"][..],
    ] {
        let out = bivc(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "bivc {args:?} must fail");
        assert!(
            stderr.contains("unknown flag"),
            "bivc {args:?} stderr:\n{stderr}"
        );
        assert!(out.stdout.is_empty(), "bivc {args:?} printed a report");
    }
}

#[test]
fn cache_cap_drives_the_eviction_counter() {
    // Unbounded (default): the golden directory's distinct structures
    // all stay resident, so nothing is evicted.
    let unbounded = stdout_of(&["--batch", "tests/golden"]);
    assert!(
        unbounded.contains(" 0 evictions"),
        "default capacity must not evict:\n{unbounded}"
    );
    // A capacity of 1 must evict every distinct structure after the
    // first; only the stats line may change.
    let capped = stdout_of(&["--batch", "--cache-cap", "1", "tests/golden"]);
    let body = |s: &str| s[..s.rfind("batch:").expect("stats line")].to_string();
    assert_eq!(
        body(&unbounded),
        body(&capped),
        "--cache-cap must never change the analysis itself"
    );
    let evictions = |s: &str| -> usize {
        let stats = &s[s.rfind("batch:").unwrap()..];
        let n = stats
            .split(',')
            .find_map(|field| field.trim().strip_suffix(" evictions"))
            .expect("stats line ends with evictions");
        n.trim().parse().expect("eviction count")
    };
    assert_eq!(evictions(&unbounded), 0);
    assert!(
        evictions(&capped) > 0,
        "cap 1 with several distinct structures must evict:\n{capped}"
    );
    // `--cache-cap=N` spelling parses too.
    assert_eq!(
        capped,
        stdout_of(&["--batch", "--cache-cap=1", "tests/golden"])
    );
}

#[test]
fn batch_reports_per_file_errors_and_analyzes_the_rest() {
    let dir = std::env::temp_dir().join(format!("biv-golden-errs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("a_bad.biv"),
        "func broken( { this is not the language\n",
    )
    .unwrap();
    std::fs::write(
        dir.join("b_good.biv"),
        "func fine(n) { j = 1 L1: for i = 1 to n { j = j + i A[j] = i } }\n",
    )
    .unwrap();
    let missing = dir.join("c_missing.biv");

    let out = bivc(&[
        "--batch",
        &dir.display().to_string(),
        &missing.display().to_string(),
    ]);
    assert!(
        !out.status.success(),
        "per-file failures must surface in the exit code"
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    // The good file is fully analyzed and rendered...
    assert!(
        stdout.contains("b_good.biv") && stdout.contains("batch: 1 functions, 1 analyzed"),
        "good file missing from output:\n{stdout}"
    );
    // ...the bad ones are reported individually, without aborting.
    assert!(
        stderr.contains("a_bad.biv") && stderr.contains("parse error"),
        "parse failure not reported:\n{stderr}"
    );
    assert!(
        stderr.contains("c_missing.biv") && stderr.contains("cannot read"),
        "read failure not reported:\n{stderr}"
    );
    assert!(
        !stdout.contains("a_bad.biv"),
        "failed files must not get output headers:\n{stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
