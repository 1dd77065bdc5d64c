//! Chaos suite: a live in-process server under the deterministic
//! `Chaos` fault profile (net EINTR/short ops, worker deaths, injected
//! job panics, queue-full storms, dropped cache commits) must uphold
//! three invariants at a fixed seed:
//!
//! 1. every accepted request is answered (success or structured error —
//!    never dropped, never hung);
//! 2. the cache books stay balanced (`hits + misses == functions`);
//! 3. once a client's retries succeed, the bytes are identical to an
//!    uninjected run.
//!
//! Gated on the `fault-injection` feature: without it these hooks do
//! not exist. The fault plan is process-global, so the two tests are
//! serialized on one mutex.

#![cfg(feature = "fault-injection")]

// These tests use only a slice of the shared helpers.
#[allow(dead_code)]
mod common;

use std::io::BufRead;
use std::sync::atomic::AtomicBool;
use std::sync::Mutex;
use std::time::Duration;

use biv::server::{Client, Endpoint, Request, Response, Server, ServerConfig};
use common::{await_alive, await_replication_settled, local_reference, stat};

static GATE: Mutex<()> = Mutex::new(());

const SOURCES: [(&str, &str); 3] = [
    (
        "mem/quad.biv",
        "func f(n) { j = 1 L14: for i = 1 to n { j = j + i A[j] = i } }\n",
    ),
    (
        "mem/fig1.biv",
        "func fig1(n, c, k) { j = n L7: loop { i = j + c j = i + k A[j] = A[i] + 1 if j > 1000 { break } } }\n",
    ),
    (
        "mem/pair.biv",
        "func g(n) { j = 1 L1: for i = 1 to n { j = j + i A[j] = i } }\nfunc h(m) { s = 0 L2: for t = 1 to m { s = s + 2 A[s] = t } }\n",
    ),
];

fn files() -> Vec<biv::server::AnalyzeFile> {
    SOURCES
        .iter()
        .map(|(path, source)| biv::server::AnalyzeFile {
            path: (*path).into(),
            source: (*source).into(),
        })
        .collect()
}

fn spawn_server(workers: usize) -> (String, std::thread::JoinHandle<()>) {
    let mut config = ServerConfig::new(Endpoint::Tcp("127.0.0.1:0".into()));
    config.workers = workers;
    let server = Server::bind(config).expect("bind 127.0.0.1:0");
    let endpoint = server.bound_endpoint();
    let flag: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
    let handle = std::thread::spawn(move || {
        server.run(flag).expect("server run");
    });
    (endpoint, handle)
}

/// Submits one analyze request, riding out injected busy storms and
/// internal errors with bounded retries; returns the successful output.
fn analyze_with_retries(client: &mut Client, attempt_cap: usize) -> String {
    for _ in 0..attempt_cap {
        let response = client
            .request(&Request::Analyze {
                files: files(),
                cache_cap: None,
                invariants: false,
            })
            .expect("transport stays usable under injection");
        match response {
            Response::Analyze { output, errors, .. } => {
                assert!(errors.is_empty(), "unexpected per-file errors: {errors:?}");
                return output;
            }
            Response::Busy { retry_after_ms } => {
                std::thread::sleep(Duration::from_millis(retry_after_ms.min(20)));
            }
            Response::Error { kind, message } => {
                assert!(
                    kind == "internal" || kind == "timeout",
                    "unexpected error kind {kind}: {message}"
                );
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }
    panic!("no success within {attempt_cap} attempts");
}

#[test]
fn chaos_profile_upholds_the_serving_invariants() {
    let _gate = GATE.lock().unwrap();
    biv_faults::uninstall();
    let (endpoint, handle) = spawn_server(2);
    let mut client = Client::connect(&Endpoint::parse(&endpoint)).expect("connect");

    // The reference bytes come from the same server before any fault
    // is armed.
    let reference = analyze_with_retries(&mut client, 1);

    biv_faults::install(42, biv_faults::Profile::Chaos);
    for round in 0..30 {
        let output = analyze_with_retries(&mut client, 100);
        assert_eq!(
            output, reference,
            "round {round}: retries must converge to the uninjected bytes"
        );
    }
    let fired = biv_faults::total_fired();
    biv_faults::uninstall();
    assert!(fired > 0, "the chaos plan never fired — the suite is inert");

    // Recovery: with the plan gone the very next request is clean.
    assert_eq!(analyze_with_retries(&mut client, 1), reference);

    let Response::Stats(stats) = client.request(&Request::Stats).expect("stats") else {
        panic!("expected stats");
    };
    // Invariant 1: every accepted request was answered — as a report or
    // as a structured internal error — and none timed out or leaked.
    let accepted = stat(&stats, &["requests", "analyze_accepted"]);
    let ok = stat(&stats, &["requests", "analyze_ok"]);
    let panics = stat(&stats, &["requests", "worker_panics"]);
    assert_eq!(
        accepted,
        ok + panics,
        "accepted requests must all be answered: {accepted} accepted, {ok} ok, {panics} panicked"
    );
    assert_eq!(stat(&stats, &["requests", "timeouts"]), 0);
    assert_eq!(stat(&stats, &["requests", "late_results"]), 0);
    // Invariant 2: the cache books balance exactly under injection
    // (dropped commits cost retention, never accounting).
    assert_eq!(
        stat(&stats, &["cache", "hits"]) + stat(&stats, &["cache", "misses"]),
        stat(&stats, &["requests", "functions"])
    );

    assert_eq!(
        client.request(&Request::Shutdown).expect("shutdown"),
        Response::ShutdownAck
    );
    handle.join().expect("clean drain under chaos");
}

/// One real `bivd` process, a member of a 3-shard fleet seeded from
/// `peers`, armed with the `fleet` fault profile (epoll EINTR +
/// spurious wakes on its event loop, lost heartbeats, partitions).
/// `--replicas 3` makes every shard a replica of every key, so failover
/// may use the whole ring. Returns the child and its resolved endpoint.
fn spawn_shard_process(shard: u32, peers: &str) -> (std::process::Child, String) {
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_bivd"))
        .args([
            "--tcp",
            "127.0.0.1:0",
            "--fleet",
            &format!("shard={shard}/3"),
            "--workers",
            "1",
            "--peers",
            peers,
            "--replicas",
            "3",
            "--heartbeat-ms",
            "50",
            "--faults",
            "seed=42,profile=fleet",
        ])
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn bivd");
    let stderr = child.stderr.take().expect("piped stderr");
    let mut lines = std::io::BufReader::new(stderr).lines();
    let banner = lines
        .next()
        .expect("bivd prints a listening line")
        .expect("readable stderr");
    let endpoint = banner
        .split("listening on ")
        .nth(1)
        .and_then(|rest| rest.split(' ').next())
        .unwrap_or_else(|| panic!("unparsable bivd banner: {banner}"))
        .to_string();
    // Keep draining stderr so the child never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    (child, endpoint)
}

/// Distinct sources so the batch spreads across the whole ring.
fn fleet_corpus(n: usize) -> Vec<biv::server::AnalyzeFile> {
    (0..n)
        .map(|i| biv::server::AnalyzeFile {
            path: format!("mem/fleet{i}.biv"),
            source: format!(
                "func w{i}(n) {{ j = {i} L1: for i = 1 to n {{ j = j + i A[j] = i + {i} }} }}\n"
            ),
        })
        .collect()
}

#[test]
fn sigkilled_shard_mid_batch_reroutes_without_changing_bytes() {
    let _gate = GATE.lock().unwrap();
    biv_faults::uninstall();

    let (child0, ep0) = spawn_shard_process(0, "none");
    let (child1, ep1) = spawn_shard_process(1, &ep0);
    let (child2, ep2) = spawn_shard_process(2, &ep0);
    let shards = vec![(child0, ep0.clone()), (child1, ep1), (child2, ep2)];
    await_alive(&ep0, 3, Duration::from_secs(10));
    let endpoints: Vec<String> = shards.iter().map(|(_, e)| e.clone()).collect();
    let files = fleet_corpus(24);
    let reference = local_reference(&files);

    // The router side also runs under the fleet profile, so dials
    // occasionally fail as if shards were dead — every such event must
    // be absorbed by re-routing within the replica set (here the whole
    // ring) without touching the bytes.
    biv_faults::install(42, biv_faults::Profile::Fleet);
    let mut router =
        biv::fleet::Router::new(biv::fleet::FleetConfig::new(endpoints.clone())).expect("router");

    // Batch 1: whole fleet up (modulo injected dial failures).
    let report = router.analyze(files.clone()).expect("fleet batch 1");
    assert_eq!(report.output, reference, "fleet must match local bytes");
    assert!(report.errors.is_empty(), "{:?}", report.errors);

    // SIGKILL shard 1 while a larger batch is in flight: whichever
    // round the death lands in, every file must still be answered —
    // served by a successor after re-routing — and the reassembled
    // bytes must not change.
    let big = fleet_corpus(48);
    let big_reference = local_reference(&big);
    let victim = shards[1].0.id();
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(10));
        // SAFETY-free process kill via the std API is unavailable for a
        // pid we only have numerically on another thread, so shell out.
        let _ = std::process::Command::new("kill")
            .args(["-9", &victim.to_string()])
            .status();
    });
    let report = router.analyze(big.clone()).expect("fleet batch 2");
    killer.join().unwrap();
    assert_eq!(
        report.output, big_reference,
        "mid-batch shard death must not change the reassembled bytes"
    );
    assert!(
        report.errors.is_empty(),
        "every file answered or re-routed, none failed: {:?}",
        report.errors
    );

    // Batch 3: the kill has certainly landed by now; the router must
    // observe the dead shard and still produce identical bytes.
    let report = router.analyze(files.clone()).expect("fleet batch 3");
    assert_eq!(report.output, reference);
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert!(
        report.dead_shards.contains(&1),
        "the SIGKILLed shard must be observed dead, saw {:?}",
        report.dead_shards
    );
    biv_faults::uninstall();

    // Drain the survivors; reap the victim.
    for (i, (mut child, endpoint)) in shards.into_iter().enumerate() {
        if i == 1 {
            let _ = child.wait();
            continue;
        }
        let mut client = Client::connect(&Endpoint::parse(&endpoint)).expect("connect");
        assert_eq!(
            client.request(&Request::Shutdown).expect("shutdown"),
            Response::ShutdownAck
        );
        let status = child.wait().expect("shard exits");
        assert!(status.success(), "shard {i} drained cleanly");
    }
}

/// One real `bivd` process running the full cluster agent: shard K of
/// `count`, R-way replication, fast heartbeats, a persistent store, and
/// the `fleet` fault profile (lost heartbeats, partitions, replica
/// lag). Returns the child and its resolved endpoint.
fn spawn_member_shard_process(
    shard: u32,
    count: u32,
    peers: &str,
    cache_dir: &std::path::Path,
) -> (std::process::Child, String) {
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_bivd"))
        .args([
            "--tcp",
            "127.0.0.1:0",
            "--fleet",
            &format!("shard={shard}/{count}"),
            "--workers",
            "1",
            "--peers",
            peers,
            "--replicas",
            "2",
            "--heartbeat-ms",
            "50",
            "--cache-dir",
            &cache_dir.to_string_lossy(),
            "--faults",
            "seed=42,profile=fleet",
        ])
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn member bivd");
    let stderr = child.stderr.take().expect("piped stderr");
    let mut lines = std::io::BufRead::lines(std::io::BufReader::new(stderr));
    let banner = lines
        .next()
        .expect("bivd prints a listening line")
        .expect("readable stderr");
    let endpoint = banner
        .split("listening on ")
        .nth(1)
        .and_then(|rest| rest.split(' ').next())
        .unwrap_or_else(|| panic!("unparsable bivd banner: {banner}"))
        .to_string();
    std::thread::spawn(move || for _ in lines {});
    (child, endpoint)
}

/// R=2 warm failover: three member shards gossip into one ring, a batch
/// replicates every committed summary to its ring successor, the
/// primary of part of the keyspace is SIGKILLed — and the re-run batch
/// is served **entirely warm** (zero recomputes) from the replicas,
/// byte-identical, with zero per-file errors.
#[test]
fn sigkilled_primary_is_served_warm_from_its_replica() {
    let _gate = GATE.lock().unwrap();
    biv_faults::uninstall();

    let tmp = std::env::temp_dir().join(format!("biv_warm_failover_{}", std::process::id()));
    let dirs: Vec<std::path::PathBuf> = (0..3).map(|i| tmp.join(format!("shard{i}"))).collect();
    for dir in &dirs {
        std::fs::create_dir_all(dir).expect("mk cache dir");
    }

    // Shard 0 boots seedless; 1 and 2 bootstrap from it.
    let (child0, ep0) = spawn_member_shard_process(0, 3, "none", &dirs[0]);
    let (child1, ep1) = spawn_member_shard_process(1, 3, &ep0, &dirs[1]);
    let (child2, ep2) = spawn_member_shard_process(2, 3, &ep0, &dirs[2]);
    let mut shards = vec![(child0, ep0.clone()), (child1, ep1), (child2, ep2)];
    await_alive(&ep0, 3, Duration::from_secs(10));

    // The router bootstraps the whole ring from the one seed.
    let files = fleet_corpus(24);
    let reference = local_reference(&files);
    let mut router =
        biv::fleet::Router::new(biv::fleet::FleetConfig::new(vec![ep0.clone()])).expect("router");
    let report = router.analyze(files.clone()).expect("fleet batch 1");
    assert_eq!(report.output, reference, "fleet must match local bytes");
    assert!(report.errors.is_empty(), "{:?}", report.errors);

    // Every committed summary must land on its replica before the kill
    // — 24 single-function files, R=2, so exactly one replica copy each.
    let endpoints: Vec<String> = shards.iter().map(|(_, e)| e.clone()).collect();
    await_replication_settled(&endpoints, files.len() as i64, Duration::from_secs(10));

    // SIGKILL shard 1 — no drain, no snapshot flush, no goodbye.
    let victim = shards[1].0.id();
    let _ = std::process::Command::new("kill")
        .args(["-9", &victim.to_string()])
        .status();
    let _ = shards[1].0.wait();

    // Re-run the same batch through a fresh router (bootstrapped from
    // the surviving seed): shard 1's keys fail over to their replicas,
    // which already hold the summaries — nothing is recomputed.
    let mut router =
        biv::fleet::Router::new(biv::fleet::FleetConfig::new(vec![ep0.clone()])).expect("router");
    let report = router.analyze(files.clone()).expect("fleet batch 2");
    assert_eq!(
        report.output, reference,
        "failover to replicas must not change the bytes"
    );
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert_eq!(
        report.analyzed, 0,
        "the replicas must serve the dead primary's keys warm (saw {} recomputes)",
        report.analyzed
    );

    for (i, (mut child, endpoint)) in shards.into_iter().enumerate() {
        if i == 1 {
            continue; // already reaped
        }
        let mut client = Client::connect(&Endpoint::parse(&endpoint)).expect("connect");
        assert_eq!(
            client.request(&Request::Shutdown).expect("shutdown"),
            Response::ShutdownAck
        );
        let status = child.wait().expect("shard exits");
        assert!(status.success(), "shard {i} drained cleanly");
    }
    let _ = std::fs::remove_dir_all(&tmp);
}

/// Rolling restart: each member shard in turn is SIGTERMed and
/// relaunched at a **new port** with the same identity; incarnation
/// bumping reclaims its ring slot, gossip teaches the survivors the new
/// endpoint, and every batch in between is byte-identical with zero
/// per-file errors — no operator action, no router reconfiguration
/// beyond re-probing one live seed.
#[test]
fn rolling_restart_of_every_shard_keeps_the_bytes_identical() {
    let _gate = GATE.lock().unwrap();
    biv_faults::uninstall();

    let tmp = std::env::temp_dir().join(format!("biv_rolling_restart_{}", std::process::id()));
    let dirs: Vec<std::path::PathBuf> = (0..3).map(|i| tmp.join(format!("shard{i}"))).collect();
    for dir in &dirs {
        std::fs::create_dir_all(dir).expect("mk cache dir");
    }

    let (child0, ep0) = spawn_member_shard_process(0, 3, "none", &dirs[0]);
    let (child1, ep1) = spawn_member_shard_process(1, 3, &ep0, &dirs[1]);
    let (child2, ep2) = spawn_member_shard_process(2, 3, &ep0, &dirs[2]);
    let mut shards = vec![(child0, ep0), (child1, ep1), (child2, ep2)];
    await_alive(&shards[0].1, 3, Duration::from_secs(10));

    let files = fleet_corpus(24);
    let reference = local_reference(&files);
    let batch = |seed: &str| -> biv::fleet::FleetReport {
        let mut router =
            biv::fleet::Router::new(biv::fleet::FleetConfig::new(vec![seed.to_string()]))
                .expect("router");
        router.analyze(files.clone()).expect("fleet batch")
    };

    let report = batch(&shards[0].1);
    assert_eq!(report.output, reference);
    assert!(report.errors.is_empty(), "{:?}", report.errors);

    for k in 0..3usize {
        // SIGTERM shard k: it drains, flushes its store, and announces
        // its departure.
        let pid = shards[k].0.id();
        let _ = std::process::Command::new("kill")
            .args(["-15", &pid.to_string()])
            .status();
        let status = shards[k].0.wait().expect("shard exits");
        assert!(status.success(), "shard {k} drained cleanly on SIGTERM");

        // Relaunch it with the same identity and store but a fresh
        // port, seeded from a surviving peer.
        let seed = shards[(k + 1) % 3].1.clone();
        let (child, endpoint) = spawn_member_shard_process(k as u32, 3, &seed, &dirs[k]);
        shards[k] = (child, endpoint);

        // The ring heals: all three alive again, the rejoined shard at
        // its new endpoint.
        let view = await_alive(&seed, 3, Duration::from_secs(10));
        let member = view.member(k as u32).expect("rejoined shard in view");
        assert_eq!(
            member.endpoint, shards[k].1,
            "gossip must carry the restarted shard's new endpoint"
        );

        // A batch right after each restart: identical bytes, no errors,
        // routed off one live seed with no operator involvement.
        let report = batch(&seed);
        assert_eq!(
            report.output, reference,
            "restart of shard {k} must not change the bytes"
        );
        assert!(report.errors.is_empty(), "{:?}", report.errors);
    }

    for (i, (mut child, endpoint)) in shards.into_iter().enumerate() {
        let mut client = Client::connect(&Endpoint::parse(&endpoint)).expect("connect");
        assert_eq!(
            client.request(&Request::Shutdown).expect("shutdown"),
            Response::ShutdownAck
        );
        let status = child.wait().expect("shard exits");
        assert!(status.success(), "shard {i} drained cleanly");
    }
    let _ = std::fs::remove_dir_all(&tmp);
}

#[test]
fn killed_workers_are_respawned_and_their_requests_answered() {
    let _gate = GATE.lock().unwrap();
    biv_faults::uninstall();
    let (endpoint, handle) = spawn_server(2);
    let mut client = Client::connect(&Endpoint::parse(&endpoint)).expect("connect");
    let reference = analyze_with_retries(&mut client, 1);

    // The Worker profile fires `worker.job.panic` on 1/4 of jobs and
    // kills the whole worker thread on ~1/10 — the fixed seed makes the
    // firing schedule reproducible, so the loop below always terminates
    // at the same round.
    biv_faults::install(7, biv_faults::Profile::Worker);
    let mut seen = (0i64, 0i64);
    for _ in 0..200 {
        let output = analyze_with_retries(&mut client, 100);
        assert_eq!(output, reference);
        let Response::Stats(stats) = client.request(&Request::Stats).expect("stats") else {
            panic!("expected stats");
        };
        seen = (
            stat(&stats, &["requests", "worker_panics"]),
            stat(&stats, &["requests", "workers_respawned"]),
        );
        if seen.0 >= 1 && seen.1 >= 1 {
            break;
        }
    }
    biv_faults::uninstall();
    assert!(
        seen.0 >= 1 && seen.1 >= 1,
        "expected at least one worker panic and one respawn, saw {seen:?}"
    );

    // The pool is whole again: a clean request succeeds first try.
    assert_eq!(analyze_with_retries(&mut client, 1), reference);
    assert_eq!(
        client.request(&Request::Shutdown).expect("shutdown"),
        Response::ShutdownAck
    );
    handle.join().expect("clean drain after worker deaths");
}
