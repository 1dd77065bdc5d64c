//! JSON emission for benchmark results — the `BENCH_*.json` perf
//! trajectory.
//!
//! Each bench binary that participates in the trajectory calls
//! [`emit_json`] after its groups finish. The emitted file records, per
//! measurement, the median and mean ns/op, the declared element count,
//! the derived throughput, and — when the binary carries a recorded
//! baseline from before an optimization landed — the baseline median and
//! the speedup against it. The format is hand-rolled (the workspace
//! builds offline, so no serde), flat, and stable so later PRs can diff
//! trajectories mechanically.

use std::io::Write as _;
use std::path::Path;

use crate::harness::Measurement;

/// A recorded pre-change median for one benchmark id, in nanoseconds.
/// Bench binaries bake these in as constants when an optimization PR
/// wants the emitted JSON to carry its own before/after comparison.
#[derive(Debug, Clone, Copy)]
pub struct Baseline {
    /// The `group/name` measurement id this baseline belongs to.
    pub id: &'static str,
    /// Median ns/op measured before the change.
    pub median_ns: f64,
}

/// Whether quick mode is on (`BIV_BENCH_QUICK=1`): CI smoke runs use it
/// to shrink measurement times and shape sweeps while still exercising
/// the full emit path.
pub fn quick_mode() -> bool {
    std::env::var_os("BIV_BENCH_QUICK").is_some_and(|v| v != "0" && !v.is_empty())
}

/// Writes `measurements` as a JSON report to `path`.
///
/// `bench` names the bench binary; `baselines` carries recorded
/// pre-change medians (empty slice when there is nothing to compare
/// against). Returns an I/O error if the file cannot be written.
pub fn emit_json(
    path: &Path,
    bench: &str,
    measurements: &[Measurement],
    baselines: &[Baseline],
) -> std::io::Result<()> {
    emit_json_with_extras(path, bench, measurements, baselines, &[])
}

/// Like [`emit_json`], with extra top-level numeric fields — for bench
/// binaries whose trajectory carries more than timings (e.g. the store
/// bench's warm hit rate).
pub fn emit_json_with_extras(
    path: &Path,
    bench: &str,
    measurements: &[Measurement],
    baselines: &[Baseline],
    extras: &[(&str, f64)],
) -> std::io::Result<()> {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"bench\": {},\n", json_string(bench)));
    out.push_str(&format!(
        "  \"quick\": {},\n",
        if quick_mode() { "true" } else { "false" }
    ));
    for (key, value) in extras {
        out.push_str(&format!("  {}: {},\n", json_string(key), json_f64(*value)));
    }
    out.push_str("  \"results\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        let median_ns = m.median.as_nanos() as f64;
        let mean_ns = m.mean.as_nanos() as f64;
        out.push_str("    {\n");
        out.push_str(&format!("      \"id\": {},\n", json_string(&m.id)));
        out.push_str(&format!("      \"median_ns\": {},\n", json_f64(median_ns)));
        out.push_str(&format!("      \"mean_ns\": {},\n", json_f64(mean_ns)));
        out.push_str(&format!("      \"samples\": {},\n", m.samples.len()));
        match m.elements {
            Some(n) => {
                out.push_str(&format!("      \"elements\": {n},\n"));
                let eps = if median_ns > 0.0 {
                    n as f64 * 1e9 / median_ns
                } else {
                    0.0
                };
                out.push_str(&format!(
                    "      \"throughput_elems_per_sec\": {},\n",
                    json_f64(eps)
                ));
            }
            None => {
                out.push_str("      \"elements\": null,\n");
                out.push_str("      \"throughput_elems_per_sec\": null,\n");
            }
        }
        match baselines.iter().find(|b| b.id == m.id) {
            Some(b) => {
                out.push_str(&format!(
                    "      \"baseline_median_ns\": {},\n",
                    json_f64(b.median_ns)
                ));
                let speedup = if median_ns > 0.0 {
                    b.median_ns / median_ns
                } else {
                    0.0
                };
                out.push_str(&format!("      \"speedup\": {}\n", json_f64(speedup)));
            }
            None => {
                out.push_str("      \"baseline_median_ns\": null,\n");
                out.push_str("      \"speedup\": null\n");
            }
        }
        out.push_str(if i + 1 == measurements.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    let mut file = std::fs::File::create(path)?;
    file.write_all(out.as_bytes())
}

/// The workspace root `BENCH_*.json` lands in: the nearest directory at
/// or above the current one whose `Cargo.toml` declares `[workspace]`.
/// Cargo runs benches from their package root, so this is the checkout
/// being benchmarked, never one baked in at compile time (a second copy
/// of the repo that shares a `target/` must not write into the first).
/// Falls back to the current directory outside any workspace.
pub fn workspace_root() -> std::path::PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| ".".into());
    find_workspace_root(&cwd).unwrap_or(cwd)
}

fn find_workspace_root(start: &Path) -> Option<std::path::PathBuf> {
    start
        .ancestors()
        .find(|dir| {
            std::fs::read_to_string(dir.join("Cargo.toml"))
                .is_ok_and(|manifest| manifest.lines().any(|l| l.trim() == "[workspace]"))
        })
        .map(Path::to_path_buf)
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.1}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn measurement(id: &str, median_ns: u64) -> Measurement {
        Measurement {
            id: id.to_string(),
            mean: Duration::from_nanos(median_ns + 5),
            median: Duration::from_nanos(median_ns),
            samples: vec![Duration::from_nanos(median_ns); 3],
            elements: Some(100),
        }
    }

    #[test]
    fn emits_valid_shape_with_baseline() {
        let dir = std::env::temp_dir().join("biv_bench_report_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.json");
        let ms = [measurement("g/a", 2_000), measurement("g/b", 500)];
        let baselines = [Baseline {
            id: "g/a",
            median_ns: 4_000.0,
        }];
        emit_json(&path, "kernel", &ms, &baselines).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"bench\": \"kernel\""));
        assert!(text.contains("\"id\": \"g/a\""));
        assert!(text.contains("\"median_ns\": 2000.0"));
        assert!(text.contains("\"baseline_median_ns\": 4000.0"));
        assert!(text.contains("\"speedup\": 2.0"));
        // The entry without a baseline reports nulls.
        assert!(text.contains("\"baseline_median_ns\": null"));
        // Balanced braces as a cheap well-formedness check.
        assert_eq!(
            text.matches('{').count(),
            text.matches('}').count(),
            "unbalanced JSON"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn workspace_root_is_found_from_a_member_directory() {
        let root = std::env::temp_dir().join(format!("biv_bench_root_{}", std::process::id()));
        let member = root.join("crates/member/src");
        std::fs::create_dir_all(&member).unwrap();
        std::fs::write(root.join("Cargo.toml"), "[workspace]\nmembers = []\n").unwrap();
        std::fs::write(
            root.join("crates/member/Cargo.toml"),
            "[package]\nname = \"member\"\n",
        )
        .unwrap();
        assert_eq!(
            find_workspace_root(&member).as_deref(),
            Some(root.as_path())
        );
        assert_eq!(
            find_workspace_root(&root.join("crates/member")).as_deref(),
            Some(root.as_path())
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn escapes_strings() {
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
    }
}
