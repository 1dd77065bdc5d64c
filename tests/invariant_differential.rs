//! The invariant serving contract, differentially: `bivc --invariants`
//! must print (1) exactly the plain batch report plus per-loop
//! `invariant:` lines — nothing else moves — with (2) every planted
//! running-sum relation recovered verbatim, and (3) the same bytes
//! whether the batch is analyzed locally, by a `bivd` daemon
//! (`--remote`), or across a 3-shard fleet (`--fleet`), cold and warm.
//! Plus the checker canary: an off-by-one coefficient against *real*
//! interpreter traces must be rejected by the same predicate the
//! pipeline uses. And because invariants are a separately keyed product,
//! computed only on request, alternating plain and `--invariants` runs
//! on one warm backend (`--cache-dir`, `--remote`, a replicated fleet
//! with stores) must each print the cold local bytes for their flag.

#![cfg(unix)]

// These tests use only a slice of the shared helpers.
#[allow(dead_code)]
mod common;

use std::collections::BTreeMap;
use std::io::BufRead;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use biv::server::{Client, Endpoint, Json, Request, Response};
use biv::workload::{generate, running_sum_relation, WorkloadSpec};
use common::{
    await_alive, await_replication_settled, bivc, bivc_stdout, scratch_dir, stat, Daemon,
};

/// Writes one `invariants`-preset workload file per seed; returns the
/// total number of planted running-sum pairs.
fn write_invariant_corpus(dir: &Path, seeds: &[u64]) -> usize {
    let mut planted = 0;
    for (i, &seed) in seeds.iter().enumerate() {
        let w = generate(&WorkloadSpec::invariants(2, seed));
        std::fs::write(dir.join(format!("inv_{i}.biv")), &w.source).expect("write corpus file");
        planted += w.invariant_plants.len();
    }
    planted
}

#[test]
fn invariants_flag_is_pure_line_addition_and_recovers_planted_labels() {
    let dir = scratch_dir("inv-diff-local");
    let planted = write_invariant_corpus(&dir, &[3, 4]);
    let dir_arg = dir.display().to_string();
    let with = bivc_stdout(&["--invariants", &dir_arg]);
    let plain = bivc_stdout(&["--batch", &dir_arg]);

    // The flag adds `invariant:` lines and changes nothing else.
    assert_ne!(with, plain, "the corpus must actually carry invariants");
    let stripped: String = with
        .lines()
        .filter(|l| !l.trim_start().starts_with("invariant: "))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(
        stripped, plain,
        "--invariants must be a pure line addition over the plain report"
    );

    // Group the emitted relations by (function, loop) — different
    // corpus files reuse the same planted loop labels — and check every
    // planted running-sum pair reports exactly its ground-truth relation.
    let mut by_loop: BTreeMap<(String, String), Vec<String>> = BTreeMap::new();
    let mut func = String::new();
    let mut current = String::new();
    for line in with.lines() {
        let t = line.trim_start();
        if let Some(rest) = t.strip_prefix("══ ") {
            // `══ path ══` group headers disambiguate the per-file
            // functions, which all share the generator's name.
            func = rest.trim_end_matches(" ══").to_string();
        } else if let Some(rest) = t.strip_prefix("loop ") {
            current = rest.split(':').next().unwrap_or("").to_string();
        } else if let Some(rel) = t.strip_prefix("invariant: ") {
            by_loop
                .entry((func.clone(), current.clone()))
                .or_default()
                .push(rel.into());
        }
    }
    let rs_total: usize = by_loop
        .iter()
        .filter(|((_, name), _)| name.starts_with("RS"))
        .map(|(_, rels)| rels.len())
        .sum();
    assert_eq!(
        rs_total, planted,
        "one verified invariant per planted pair, none missing, none extra"
    );
    for ((func, name), rels) in by_loop.iter().filter(|((_, n), _)| n.starts_with("RS")) {
        assert_eq!(rels.len(), 1, "{func} loop {name}: {rels:?}");
        // Shape `2*SUM + IDX - IDX^2 = 0`: parse the two names back out
        // and require the whole line to be the canonical rendering.
        let rel = &rels[0];
        let sum = rel
            .strip_prefix("2*")
            .and_then(|r| r.split(' ').next())
            .unwrap_or_else(|| panic!("{func} loop {name}: unexpected relation `{rel}`"));
        let index = rel
            .split(" + ")
            .nth(1)
            .and_then(|r| r.split(' ').next())
            .unwrap_or_else(|| panic!("{func} loop {name}: unexpected relation `{rel}`"));
        assert_eq!(
            rel,
            &running_sum_relation(sum, index),
            "{func} loop {name}: planted label must be recovered verbatim"
        );
    }
}

/// Spawns one `bivd --tcp 127.0.0.1:0 --fleet shard=K/N <extra...>`
/// shard and returns the child plus the endpoint parsed from its banner.
/// `extra` must carry `--peers`: every fleet member runs the agent.
fn spawn_tcp_shard(shard: u32, shard_count: u32, extra: &[&str]) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_bivd"))
        .args([
            "--tcp",
            "127.0.0.1:0",
            "--fleet",
            &format!("shard={shard}/{shard_count}"),
            "--workers",
            "2",
        ])
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("bivd spawns");
    let stderr = child.stderr.take().expect("stderr piped");
    let mut lines = std::io::BufReader::new(stderr).lines();
    let banner = lines
        .next()
        .expect("bivd prints a banner")
        .expect("banner reads");
    let endpoint = banner
        .split("listening on ")
        .nth(1)
        .and_then(|rest| rest.split(' ').next())
        .unwrap_or_else(|| panic!("unparseable bivd banner: {banner}"))
        .to_string();
    std::thread::spawn(move || for _ in lines.by_ref() {});
    (child, endpoint)
}

fn drain_fleet(children: Vec<Child>, endpoints: &str) {
    for endpoint in endpoints.split(',') {
        let mut client = Client::connect(&Endpoint::parse(endpoint)).expect("connect for drain");
        assert_eq!(
            client.request(&Request::Shutdown).expect("shutdown"),
            Response::ShutdownAck
        );
    }
    for mut child in children {
        let status = child.wait().expect("bivd exits");
        assert!(status.success(), "shard exited uncleanly: {status}");
    }
}

#[test]
fn remote_and_three_shard_fleet_invariant_bytes_match_local_warm_and_cold() {
    let dir = scratch_dir("inv-diff-serve");
    write_invariant_corpus(&dir, &[7, 8, 9]);
    let dir_arg = dir.display().to_string();
    let reference = bivc_stdout(&["--invariants", &dir_arg]);
    assert!(reference.contains("invariant: "));

    // Daemon: the first pass analyzes, the second serves the daemon's
    // warm cache — the invariant lines must ride the cached summaries.
    let daemon = Daemon::spawn("inv-remote", &[]);
    let socket = daemon.remote_arg();
    for pass in ["cold", "warm"] {
        let out = bivc_stdout(&["--remote", &socket, "--invariants", &dir_arg]);
        assert_eq!(reference, out, "--remote {pass} pass diverged");
    }
    daemon.shutdown();

    // 3-shard fleet (shard 0 seeds it), cold then warm, byte-identical
    // both times.
    let mut children = Vec::new();
    let mut endpoints: Vec<String> = Vec::new();
    for shard in 0..3 {
        let peers = endpoints.first().map_or("none", String::as_str).to_string();
        let (child, endpoint) =
            spawn_tcp_shard(shard, 3, &["--peers", &peers, "--heartbeat-ms", "50"]);
        children.push(child);
        endpoints.push(endpoint);
    }
    await_alive(&endpoints[0], 3, Duration::from_secs(10));
    let endpoints = endpoints.join(",");
    for pass in ["cold", "warm"] {
        let out = bivc_stdout(&["--fleet", &endpoints, "--invariants", &dir_arg]);
        assert_eq!(reference, out, "--fleet {pass} pass diverged");
    }
    drain_fleet(children, &endpoints);
}

/// The flag order every cross-flag test runs on one warm backend.
const ALTERNATING: [bool; 4] = [false, true, false, true];

/// The `bivc` flag selecting the report for `invariants`.
fn flag(invariants: bool) -> &'static str {
    if invariants {
        "--invariants"
    } else {
        "--batch"
    }
}

/// Cold local reports for a corpus directory: `[plain, --invariants]`.
fn cold_references(dir_arg: &str) -> [String; 2] {
    let refs = [false, true].map(|invariants| bivc_stdout(&[flag(invariants), dir_arg]));
    assert!(!refs[0].contains("invariant: ") && refs[1].contains("invariant: "));
    refs
}

/// Runs `bivc`, asserting success; returns (stdout, stderr).
fn bivc_output(args: &[&str]) -> (String, String) {
    let out = bivc(args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "bivc {args:?} failed:\n{stderr}");
    (String::from_utf8(out.stdout).expect("UTF-8 stdout"), stderr)
}

#[test]
fn cache_dir_alternating_flags_match_cold_local_runs() {
    let dir = scratch_dir("inv-cross-store");
    let corpus = dir.join("corpus");
    std::fs::create_dir_all(&corpus).expect("corpus dir");
    write_invariant_corpus(&corpus, &[11, 12, 13]);
    let corpus_arg = corpus.display().to_string();
    let store_arg = dir.join("store").display().to_string();
    let json_path = dir.join("stats.json");
    let json_arg = json_path.display().to_string();
    let reference = cold_references(&corpus_arg);

    let mut misses = Vec::new();
    for (pass, invariants) in ALTERNATING.into_iter().enumerate() {
        let out = bivc_stdout(&[
            "--cache-dir",
            &store_arg,
            "--stats-json",
            &json_arg,
            flag(invariants),
            &corpus_arg,
        ]);
        assert_eq!(
            out, reference[invariants as usize],
            "pass {pass} (invariants={invariants}) diverged from the cold local run"
        );
        let stats = Json::parse(&std::fs::read_to_string(&json_path).expect("stats written"))
            .expect("stats json parses");
        misses.push(stat(&stats, &["batch", "misses"]));
    }
    // Each product is analyzed once, on its first pass, and then served
    // from the store; neither is ever answered by the other's records.
    assert!(misses[0] > 0, "{misses:?}");
    assert_eq!(misses, [misses[0], misses[0], 0, 0]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn remote_alternating_flags_match_cold_local_runs() {
    let dir = scratch_dir("inv-cross-remote");
    write_invariant_corpus(&dir, &[14, 15, 16]);
    let dir_arg = dir.display().to_string();
    let reference = cold_references(&dir_arg);

    let daemon = Daemon::spawn("inv-cross-remote", &[]);
    let socket = daemon.remote_arg();
    let misses = || {
        let mut client = Client::connect(&Endpoint::Unix(daemon.socket.clone())).expect("connect");
        let Response::Stats(stats) = client.request(&Request::Stats).expect("stats") else {
            panic!("expected a stats response");
        };
        stat(&stats, &["cache", "misses"])
    };
    let mut first_pass_misses = 0;
    for (pass, invariants) in ALTERNATING.into_iter().enumerate() {
        let out = bivc_stdout(&["--remote", &socket, flag(invariants), &dir_arg]);
        assert_eq!(
            out, reference[invariants as usize],
            "--remote pass {pass} (invariants={invariants}) diverged"
        );
        if pass == 0 {
            first_pass_misses = misses();
        }
    }
    assert!(first_pass_misses > 0);
    assert_eq!(
        misses(),
        2 * first_pass_misses,
        "one miss per structure and product; warm passes all hit"
    );
    daemon.shutdown();
}

#[test]
fn replicated_fleet_alternating_flags_match_cold_local_runs_and_fail_over_warm() {
    const FILES: usize = 6;
    let dir = scratch_dir("inv-cross-fleet");
    let corpus = dir.join("corpus");
    std::fs::create_dir_all(&corpus).expect("corpus dir");
    write_invariant_corpus(&corpus, &(21..21 + FILES as u64).collect::<Vec<_>>());
    let corpus_arg = corpus.display().to_string();
    let reference = cold_references(&corpus_arg);

    // Two member shards, R=2: every summary a shard commits is pushed
    // to the other, so each shard's store ends up holding both products
    // of every structure — each under its own key.
    let member = |shard: u32, peers: &str| {
        let store = dir.join(format!("store{shard}")).display().to_string();
        let args = [
            "--peers",
            peers,
            "--replicas",
            "2",
            "--heartbeat-ms",
            "50",
            "--cache-dir",
            &store,
        ];
        spawn_tcp_shard(shard, 2, &args)
    };
    let (child0, ep0) = member(0, "none");
    let (child1, ep1) = member(1, &ep0);
    let mut shards = KillOnUnwind(vec![child0, child1]);
    await_alive(&ep0, 2, Duration::from_secs(10));

    for (pass, invariants) in ALTERNATING.into_iter().enumerate() {
        let (out, stderr) = bivc_output(&["--fleet", &ep0, flag(invariants), &corpus_arg]);
        assert_eq!(
            out, reference[invariants as usize],
            "--fleet pass {pass} (invariants={invariants}) diverged"
        );
        // One seed, two shards: the banner counts the ring, not seeds.
        assert!(
            stderr.contains(&format!("analyzing {FILES} files across 2 shards")),
            "pass {pass} banner:\n{stderr}"
        );
        if pass >= 2 {
            assert!(
                stderr.contains(" 0 analyzed"),
                "pass {pass} is warm:\n{stderr}"
            );
        }
    }

    // Every pass pushed each file's single function to its replica.
    let endpoints = [ep0.clone(), ep1.clone()];
    let pushed = (ALTERNATING.len() * FILES) as i64;
    await_replication_settled(&endpoints, pushed, Duration::from_secs(10));

    // SIGKILL shard 1: its keys fail over to shard 0, which must serve
    // both products warm from replicas, each under the right key.
    let mut child1 = shards.0.pop().expect("shard 1");
    child1.kill().expect("kill shard 1");
    child1.wait().expect("reap shard 1");
    for invariants in [false, true] {
        let (out, stderr) = bivc_output(&["--fleet", &ep0, flag(invariants), &corpus_arg]);
        assert_eq!(
            out, reference[invariants as usize],
            "failover (invariants={invariants}) diverged"
        );
        assert!(
            stderr.contains(" 0 analyzed"),
            "failover (invariants={invariants}) must be served warm:\n{stderr}"
        );
    }
    drain_fleet(std::mem::take(&mut shards.0), &ep0);
    std::fs::remove_dir_all(&dir).ok();
}

/// Shard processes a failing test would otherwise leave running.
struct KillOnUnwind(Vec<Child>);

impl Drop for KillOnUnwind {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

#[test]
fn off_by_one_canary_is_rejected_against_real_interpreter_traces() {
    use biv::invariant::{check_candidate, Candidate};
    use biv::ssa::{fold_constants, SsaFunction, SsaInterpreter};

    let w = generate(&WorkloadSpec::invariants(1, 5));
    let analysis = biv::core_analysis::analyze(&w.func);
    let (l, info) = analysis
        .loops()
        .find(|(_, info)| info.name == "RS0x0")
        .expect("planted running-sum loop");
    let header = analysis.forest().data(l).header;
    let phis = analysis.ssa().block(header).phis.clone();
    assert_eq!(phis.len(), 2);
    let degree = |v| match info.classes.get(v) {
        Some(biv::core_analysis::Class::Induction(cf)) => cf.degree(),
        other => panic!("unexpected φ class {other:?}"),
    };
    let (index, sum) = if degree(phis[0]) == 1 {
        (phis[0], phis[1])
    } else {
        (phis[1], phis[0])
    };

    // Replay the program exactly as the pipeline's checker does: a
    // clean SSA build (no synthetic exit values), constants folded.
    let mut ssa = SsaFunction::build(&w.func);
    fold_constants(&mut ssa);
    let (trace, fault) = SsaInterpreter::default().run_partial(&ssa, &[10]);
    assert!(
        fault.is_none(),
        "workload must interpret cleanly: {fault:?}"
    );
    let histories = vec![trace.history(index), trace.history(sum)];
    assert!(histories.iter().all(|h| h.len() >= 4));

    // Basis [1, i, s, i², is, s²]: the true relation 2s + i − i² = 0
    // passes; the same candidate with one coefficient off by one fails.
    let good = Candidate {
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
    assert!(
        check_candidate(&good, std::slice::from_ref(&histories), 4),
        "the true planted relation must verify on the real trace"
    );
    let mut broken = good.clone();
    broken.coeffs[2] = 3; // 3s + i − i²: off by one in the sum coefficient
    assert!(
        !check_candidate(&broken, &[histories], 4),
        "the off-by-one canary must be rejected"
    );
}
