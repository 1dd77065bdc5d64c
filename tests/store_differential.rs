//! Differential tests for the durable analysis store.
//!
//! The store's contract is that durability is invisible except in
//! latency and counters: a warm run over the same corpus must produce
//! byte-identical output to a cold in-memory run, stale entries from an
//! older analyzer version must never be served, and on-disk hits must
//! line up exactly with the structural-hash equivalence classes the
//! in-memory cache computes. A fault-gated module additionally proves
//! that injected store-layer faults (torn writes, short writes, corrupt
//! records) never change served bytes and that reopening repairs the
//! damage.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::{Arc, Mutex};

use biv::core_analysis::{
    analyze_batch_with_backend, BatchOptions, Budget, CacheBackend, StructuralCache,
};
use biv::ir::parser::parse_program;
use biv::ir::Function;
use biv::store::{Store, StoreOptions, TieredCache};

/// A corpus with two α-renamed twins (`f`/`g` differ only in variable
/// names — labels are structural, so they share `L1`) and two genuinely
/// distinct structures: three equivalence classes over four functions.
const CORPUS: &str = "func f(n) { j = 1 L1: for i = 1 to n { j = j + i A[j] = i } }\n\
     func g(m) { s = 1 L1: for t = 1 to m { s = s + t A[s] = t } }\n\
     func h(n, c, k) { j = n L7: loop { i = j + c j = i + k A[j] = A[i] + 1 if j > 1000 { break } } }\n\
     func k(n) { s = 0 L3: for t = 1 to n { s = s + 2 A[s] = t } }\n";

fn corpus_funcs() -> Vec<Function> {
    parse_program(CORPUS).expect("corpus parses").functions
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("biv-store-diff-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Serializes every test that opens a store in this process. In a
/// fault-injection build the `store_chaos` tests arm a process-global
/// fault plan, and a store opened by a concurrent test would inherit it.
static PLAN_GATE: Mutex<()> = Mutex::new(());

fn batch_opts() -> BatchOptions {
    BatchOptions {
        jobs: 1,
        ..BatchOptions::default()
    }
}

#[test]
fn format_version_bump_invalidates_the_store_wholesale() {
    let _gate = PLAN_GATE.lock().unwrap();
    let dir = fresh_dir("version");
    let funcs = corpus_funcs();
    let options = StoreOptions::for_budget(&Budget::UNLIMITED);

    // Populate and flush under the current format version.
    {
        let mut tiered = TieredCache::open(&dir, 4096, &options).expect("open cold");
        let report = analyze_batch_with_backend(&funcs, &batch_opts(), &mut tiered);
        tiered.flush().expect("flush");
        assert_eq!(report.stats.misses, 3, "three equivalence classes");
        let gauges = tiered.store_gauges().expect("tiered cache has a store");
        assert_eq!(gauges.records_live, 3);
        assert_eq!(gauges.disk_hits, 0);
    }

    // An analyzer upgrade: every persisted summary is potentially stale.
    let mut bumped = options.clone();
    bumped.format_version += 1;
    let mut tiered = TieredCache::open(&dir, 4096, &bumped).expect("open after bump");
    let report = analyze_batch_with_backend(&funcs, &batch_opts(), &mut tiered);
    let gauges = tiered.store_gauges().expect("store gauges");
    assert_eq!(gauges.disk_hits, 0, "stale records must never be served");
    assert_eq!(report.stats.misses, 3, "everything is recomputed");
    assert!(
        gauges.compactions >= 1,
        "wholesale invalidation is recorded as a compaction"
    );
    assert_eq!(
        gauges.records_live, 3,
        "the store is repopulated under the new version"
    );

    // And the old-version records really are gone from disk: reopening
    // with the bumped options again serves everything from disk.
    drop(tiered);
    let store = Store::open(&dir, &bumped).expect("reopen");
    assert_eq!(store.len(), 3);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn disk_hits_match_the_in_memory_hit_set() {
    let _gate = PLAN_GATE.lock().unwrap();
    let dir = fresh_dir("alpha");
    let funcs = corpus_funcs();
    let options = StoreOptions::for_budget(&Budget::UNLIMITED);

    // Reference: a cold in-memory run partitions the corpus into hits
    // (α-renamed duplicates) and misses (distinct structures).
    let mut mem = StructuralCache::new(4096);
    let cold = analyze_batch_with_backend(&funcs, &batch_opts(), &mut mem);
    let distinct = cold.stats.misses;
    let duplicates = cold.stats.hits;
    assert_eq!((distinct, duplicates), (3, 1));

    // Populate the store.
    {
        let mut tiered = TieredCache::open(&dir, 4096, &options).expect("open cold");
        let warm_up = analyze_batch_with_backend(&funcs, &batch_opts(), &mut tiered);
        tiered.flush().expect("flush");
        assert_eq!(warm_up.render(), cold.render(), "cold bytes match");
    }

    // Warm run with an empty memory tier: each distinct structure is a
    // disk hit exactly once; α-renamed twins are served from the
    // promoted memory entry, not the disk.
    let mut tiered = TieredCache::open(&dir, 4096, &options).expect("open warm");
    let warm = analyze_batch_with_backend(&funcs, &batch_opts(), &mut tiered);
    let gauges = tiered.store_gauges().expect("store gauges");
    assert_eq!(
        gauges.disk_hits as usize, distinct,
        "disk hits must equal the distinct-structure count"
    );
    assert_eq!(gauges.disk_misses, 0, "a warm store misses nothing");
    assert_eq!(warm.stats.misses, 0, "nothing is recomputed warm");
    assert_eq!(
        warm.stats.hits,
        funcs.len(),
        "every function is a cache hit warm"
    );
    // The per-function reports agree with the in-memory run not just in
    // stats but in every byte of the summary bodies.
    for (a, b) in cold.functions.iter().zip(warm.functions.iter()) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.hash, b.hash);
        assert_eq!(
            Arc::as_ref(&a.summary),
            Arc::as_ref(&b.summary),
            "summary for {} must round-trip the store unchanged",
            a.name
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

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

#[test]
fn cli_cache_dir_is_byte_identical_cold_and_warm() {
    let dir = fresh_dir("cli");
    let dir_arg = dir.display().to_string();
    let plain = stdout_of(&["--batch", "tests/golden"]);
    let cold = stdout_of(&["--cache-dir", &dir_arg, "tests/golden"]);
    let warm = stdout_of(&["--cache-dir", &dir_arg, "tests/golden"]);
    assert_eq!(plain, cold, "cold --cache-dir run must match a plain run");
    assert_eq!(plain, warm, "warm --cache-dir run must match a plain run");
    // `--cache-dir=DIR` spelling parses too.
    assert_eq!(
        plain,
        stdout_of(&[&format!("--cache-dir={dir_arg}"), "tests/golden"])
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_stats_json_reports_memory_and_disk_counters() {
    let dir = fresh_dir("stats");
    let dir_arg = dir.display().to_string();
    let json_path = dir.join("stats.json");
    std::fs::create_dir_all(&dir).unwrap();
    let json_arg = json_path.display().to_string();

    let stat = |json: &biv::server::Json, path: &[&str]| -> i64 {
        path.iter()
            .try_fold(json, |node, key| node.get(key))
            .and_then(|v| v.as_i64())
            .unwrap_or_else(|| panic!("stats missing {path:?} in {}", json.to_text()))
    };

    // Cold run: everything is analyzed, the store object is present.
    stdout_of(&[
        "--cache-dir",
        &dir_arg,
        "--stats-json",
        &json_arg,
        "tests/golden",
    ]);
    let cold = biv::server::Json::parse(&std::fs::read_to_string(&json_path).unwrap())
        .expect("stats json parses");
    let functions = stat(&cold, &["batch", "functions"]);
    assert!(functions > 0);
    assert_eq!(stat(&cold, &["store", "disk_hits"]), 0);
    assert_eq!(
        stat(&cold, &["cache", "hits"]) + stat(&cold, &["cache", "misses"]),
        functions,
        "the cache books must balance"
    );

    // Warm run: zero recomputation, disk hits cover the distinct set.
    stdout_of(&[
        "--cache-dir",
        &dir_arg,
        "--stats-json",
        &json_arg,
        "tests/golden",
    ]);
    let warm = biv::server::Json::parse(&std::fs::read_to_string(&json_path).unwrap())
        .expect("stats json parses");
    assert_eq!(
        stat(&warm, &["batch", "misses"]),
        0,
        "warm run recomputes nothing"
    );
    assert_eq!(stat(&warm, &["batch", "hits"]), functions);
    assert_eq!(
        stat(&warm, &["store", "disk_hits"]),
        stat(&cold, &["batch", "misses"]),
        "disk hits warm must equal distinct structures cold"
    );

    // Without --cache-dir the store object is omitted, not zeroed.
    stdout_of(&["--batch", "--stats-json", &json_arg, "tests/golden"]);
    let mem_only = biv::server::Json::parse(&std::fs::read_to_string(&json_path).unwrap())
        .expect("stats json parses");
    assert!(
        mem_only.get("store").is_none(),
        "no store without --cache-dir"
    );
    assert!(mem_only.get("cache").is_some());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn remote_refuses_local_only_store_flags() {
    for args in [
        &[
            "--remote",
            "tcp:127.0.0.1:1",
            "--cache-dir",
            "/tmp/x",
            "f.biv",
        ][..],
        &[
            "--remote",
            "tcp:127.0.0.1:1",
            "--stats-json",
            "/tmp/x.json",
            "f.biv",
        ][..],
    ] {
        let out = bivc(args);
        assert!(!out.status.success(), "bivc {args:?} must be refused");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("local-only"),
            "expected a local-only error for {args:?}, got:\n{stderr}"
        );
    }
}

/// Store-layer fault injection: the `Store` profile arms torn writes,
/// short writes, and record corruption at a fixed seed. Served bytes
/// must never change, and reopening must repair whatever the faults
/// broke. Gated on the feature because production builds carry no
/// injection hooks; the plan is process-global, so these tests hold
/// [`PLAN_GATE`] while it is armed.
#[cfg(feature = "fault-injection")]
mod store_chaos {
    use super::*;

    /// The function blocks of a rendered report, without the trailing
    /// stats line: warmth legitimately changes the true counters (the
    /// CLI and daemon replay a cold cache for their printed line), so
    /// byte-identity under faults is asserted on the analysis itself.
    fn body(rendered: &str) -> String {
        let cut = rendered.rfind("batch:").expect("stats line");
        rendered[..cut].to_string()
    }

    #[test]
    fn store_faults_never_change_served_bytes() {
        let _gate = PLAN_GATE.lock().unwrap();
        biv_faults::uninstall();
        let options = StoreOptions::for_budget(&Budget::UNLIMITED);
        let dir = fresh_dir("chaos");

        // Every round extends the corpus with one fresh structure, so a
        // fully-persisted store still performs at least one injected
        // write per round, and reuses the surviving prefix of what
        // earlier rounds managed to persist. `install` clears the fired
        // counter, so fires accumulate across the per-round seeds.
        let mut fired = 0;
        for round in 0..40u64 {
            let source = format!(
                "{CORPUS}func r{round}(n) {{ s = 0 L9: for t = 1 to n {{ s = s + {stride} A[s] = t }} }}\n",
                stride = round + 3
            );
            let funcs = parse_program(&source)
                .expect("round corpus parses")
                .functions;
            let mut mem = StructuralCache::new(4096);
            let reference =
                body(&analyze_batch_with_backend(&funcs, &batch_opts(), &mut mem).render());

            biv_faults::install(round, biv_faults::Profile::Store);
            // A fresh tiered cache per round: each reopen replays
            // whatever consistent prefix survived the previous round's
            // faults, recomputes the rest, and keeps serving.
            let mut tiered = TieredCache::open(&dir, 4096, &options)
                .expect("open stays possible under store faults");
            let report = analyze_batch_with_backend(&funcs, &batch_opts(), &mut tiered);
            assert_eq!(
                body(&report.render()),
                reference,
                "round {round}: store faults must never leak into output"
            );
            assert_eq!(
                report.stats.hits + report.stats.misses,
                funcs.len(),
                "round {round}: the books must balance under injection"
            );
            // Flush may fail under injection — that is a durability
            // loss, never a correctness loss.
            let _ = tiered.flush();
            fired += biv_faults::total_fired();
            biv_faults::uninstall();
        }
        assert!(
            fired > 0,
            "the store fault plan never fired — the suite is inert"
        );

        // Recovery: with the plan gone, reopening yields a consistent
        // store whose surviving entries decode and serve correctly.
        let funcs = corpus_funcs();
        let mut mem = StructuralCache::new(4096);
        let reference = body(&analyze_batch_with_backend(&funcs, &batch_opts(), &mut mem).render());
        let mut tiered = TieredCache::open(&dir, 4096, &options).expect("clean reopen");
        let report = analyze_batch_with_backend(&funcs, &batch_opts(), &mut tiered);
        assert_eq!(
            body(&report.render()),
            reference,
            "clean reopen serves clean bytes"
        );
        tiered.flush().expect("clean flush");

        // And a final warm run serves everything without recomputation.
        let mut tiered = TieredCache::open(&dir, 4096, &options).expect("warm reopen");
        let warm = analyze_batch_with_backend(&funcs, &batch_opts(), &mut tiered);
        assert_eq!(body(&warm.render()), reference);
        assert_eq!(warm.stats.misses, 0, "the repaired store is fully warm");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_records_are_truncated_on_reopen_and_counted() {
        let _gate = PLAN_GATE.lock().unwrap();
        biv_faults::uninstall();
        let funcs = corpus_funcs();
        let options = StoreOptions::for_budget(&Budget::UNLIMITED);
        let dir = fresh_dir("corrupt");

        // Populate under a corruption-heavy plan until at least one
        // record is corrupted on disk (the in-process index still holds
        // the correct summaries, so serving stays right all along).
        let mut corrupted = false;
        for seed in 0..64u64 {
            biv_faults::install(seed, biv_faults::Profile::Store);
            let mut tiered = TieredCache::open(&dir, 4096, &options).expect("open");
            let _ = analyze_batch_with_backend(&funcs, &batch_opts(), &mut tiered);
            let _ = tiered.flush();
            biv_faults::uninstall();
            let reopened = Store::open(&dir, &options).expect("reopen");
            if reopened.stats().corrupt_records_skipped > 0 {
                corrupted = true;
                // The consistent prefix survives; the corrupted tail is
                // truncated, never served.
                assert!(reopened.len() < 3, "corrupt records must be dropped");
                break;
            }
            std::fs::remove_dir_all(&dir).ok();
        }
        assert!(
            corrupted,
            "no seed in 0..64 corrupted a record — site inert"
        );

        // The truncated store heals: a clean run recomputes the missing
        // summaries and persists them again.
        let mut tiered = TieredCache::open(&dir, 4096, &options).expect("open healed");
        let report = analyze_batch_with_backend(&funcs, &batch_opts(), &mut tiered);
        assert_eq!(report.stats.hits + report.stats.misses, funcs.len());
        tiered.flush().expect("flush");
        let healed = Store::open(&dir, &options).expect("final reopen");
        assert_eq!(healed.len(), 3, "the store is whole again");
        assert_eq!(healed.stats().corrupt_records_skipped, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
