//! The `serve_mixed` workload: a two-shard `bivd` fleet with gossip
//! membership, two-way replication and durable stores, driven by one
//! closed-loop `biv_fleet::Router` client sending 8-file requests.
//!
//! Six files of every request repeat a warm pool that setup preloaded;
//! two are fresh structures. Each shard's memory tier holds fewer
//! summaries than the pool, so warm hits split between memory and the
//! store, and every fresh file costs an analysis, a store write, and a
//! replica push. Analysis is a small share of a request here; network,
//! queueing, store, and replication dominate.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use biv_core::{analyze_batch, cold_batch_stats, render_grouped, BatchOptions, FunctionSummary};
use biv_fleet::{FleetConfig, MemberState, Router, View};
use biv_ir::parser::parse_program;
use biv_server::{AnalyzeFile, Client, Endpoint, Json, Request, Response};
use biv_store::{StoreOptions, TieredCache};
use biv_workload::rng::SplitMix64;
use biv_workload::{generate, WorkloadSpec};

use crate::batch::{analysis_layers, file_seed, reference, write_corpus, Corpus};
use crate::process::{die_with_parent, peak_rss_kb};
use crate::stats::{median, ms, quantile, ratio, Metrics};
use crate::{Env, Outcome};

/// Fleet size.
const SHARDS: u32 = 2;
/// Summaries in the warm pool.
const POOL: usize = 384;
/// Each shard's memory tier: a third of the pool, so warm hits split
/// between memory and the store.
const CACHE_CAP: usize = 128;
/// Files per request, and how many of them are fresh structures.
const FILES_PER_REQUEST: usize = 8;
const FRESH_PER_REQUEST: usize = 2;
/// Files per preload request during setup.
const PRELOAD_CHUNK: usize = 32;
/// Fleets set up per run; `setup_s` is the median.
const SETUPS: usize = 3;
/// Pings per shard and connection kind for `net.*ping_us_p50`; few,
/// because a reused connection stalls on delayed ACKs.
const PINGS: usize = 25;
/// `peak_rss_mb` is read after this many requests, so it measures a
/// fixed amount of work however fast the host runs: each fresh file
/// grows the shards' caches and store indexes.
const RSS_AFTER_REQUESTS: usize = 1000;
/// How long any one wait on a shard may take before the run fails.
const PATIENCE: Duration = Duration::from_secs(30);

/// The function spec of every served file: one loop of the default
/// class mix.
fn spec(seed: u64) -> WorkloadSpec {
    WorkloadSpec::mixed(1, seed)
}

/// One `bivd` process of the fleet.
struct Shard {
    child: Child,
    endpoint: String,
    log: PathBuf,
}

/// A running fleet. Dropping it shuts every shard down (protocol
/// `shutdown`, then kill) and removes its stores and logs.
pub struct Fleet {
    shards: Vec<Shard>,
    dir: PathBuf,
    stopped: bool,
}

impl Fleet {
    /// Spawns the shards in `dir` and waits until each listens. Shard 0
    /// seeds the membership; the others join through it.
    fn spawn(env: &Env, dir: &Path) -> Result<Fleet, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
        let mut fleet = Fleet {
            shards: Vec::new(),
            dir: dir.to_path_buf(),
            stopped: false,
        };
        for k in 0..SHARDS {
            let peers = match fleet.shards.first() {
                Some(seed) => seed.endpoint.clone(),
                None => "none".to_string(),
            };
            let log = dir.join(format!("shard{k}.log"));
            let stderr = File::create(&log).map_err(|e| format!("cannot create {log:?}: {e}"))?;
            let mut cmd = Command::new(&env.bivd);
            cmd.arg("--tcp")
                .arg("127.0.0.1:0")
                .arg("--fleet")
                .arg(format!("shard={k}/{SHARDS}"))
                .arg("--peers")
                .arg(peers)
                .arg("--replicas")
                .arg("2")
                .arg("--cache-dir")
                .arg(store_dir(dir, k))
                .arg("--cache-cap")
                .arg(CACHE_CAP.to_string())
                .arg("--workers")
                .arg("1")
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(stderr);
            let child = die_with_parent(&mut cmd)
                .spawn()
                .map_err(|e| format!("cannot spawn bivd: {e}"))?;
            fleet.shards.push(Shard {
                child,
                endpoint: String::new(),
                log,
            });
            let shard = fleet.shards.last_mut().expect("just pushed");
            shard.endpoint = wait_listening(shard)?;
        }
        Ok(fleet)
    }

    fn endpoints(&self) -> Vec<String> {
        self.shards.iter().map(|s| s.endpoint.clone()).collect()
    }

    /// Sum of the shards' peak resident sets, in MiB.
    fn peak_rss_mb(&self) -> f64 {
        self.shards
            .iter()
            .filter_map(|s| peak_rss_kb(s.child.id()))
            .sum::<u64>() as f64
            / 1024.0
    }

    /// Every shard's `stats` object, in shard order.
    fn stats(&self) -> Result<Vec<Json>, String> {
        self.shards
            .iter()
            .map(|s| match request(&s.endpoint, &Request::Stats)? {
                Response::Stats(json) => Ok(json),
                other => Err(format!("{}: stats answered {other:?}", s.endpoint)),
            })
            .collect()
    }

    /// Asks every shard to drain, then kills whatever has not exited
    /// within a few seconds. Idempotent.
    fn stop(&mut self) {
        if self.stopped {
            return;
        }
        self.stopped = true;
        for shard in &self.shards {
            let _ = request(&shard.endpoint, &Request::Shutdown);
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        for shard in &mut self.shards {
            while Instant::now() < deadline && matches!(shard.child.try_wait(), Ok(None)) {
                std::thread::sleep(Duration::from_millis(5));
            }
            if matches!(shard.child.try_wait(), Ok(None)) {
                let _ = shard.child.kill();
            }
            let _ = shard.child.wait();
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.stop();
        for (k, shard) in self.shards.iter().enumerate() {
            let _ = std::fs::remove_dir_all(store_dir(&self.dir, k as u32));
            let _ = std::fs::remove_file(&shard.log);
        }
        let _ = std::fs::remove_dir(&self.dir);
    }
}

fn store_dir(dir: &Path, shard: u32) -> PathBuf {
    dir.join(format!("store{shard}"))
}

/// One request on a fresh connection.
fn request(endpoint: &str, req: &Request) -> Result<Response, String> {
    Client::connect_timeout(&Endpoint::parse(endpoint), Duration::from_secs(5))
        .and_then(|mut c| c.request(req))
        .map_err(|e| format!("{endpoint}: {e}"))
}

/// Polls the shard's log for its `listening on ENDPOINT` banner.
fn wait_listening(shard: &mut Shard) -> Result<String, String> {
    let deadline = Instant::now() + PATIENCE;
    loop {
        let log = std::fs::read_to_string(&shard.log).unwrap_or_default();
        if let Some(rest) = log.split("listening on ").nth(1) {
            if let Some(endpoint) = rest.split_whitespace().next() {
                return Ok(endpoint.to_string());
            }
        }
        if let Ok(Some(status)) = shard.child.try_wait() {
            return Err(format!("bivd exited early ({status}): {}", log.trim()));
        }
        if Instant::now() > deadline {
            return Err(format!("bivd never listened: {}", log.trim()));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Waits until the seed's membership view lists every shard as alive.
/// A router bootstrapped earlier sees a one-shard ring and sends every
/// request to the seed.
fn wait_converged(seed: &str) -> Result<(), String> {
    let deadline = Instant::now() + PATIENCE;
    loop {
        if let Ok(Response::Members { view }) = request(seed, &Request::Members) {
            let view = View::from_json(&view)?;
            let alive = view
                .members
                .iter()
                .filter(|m| m.state == MemberState::Alive)
                .count();
            if view.shard_count == SHARDS && alive == SHARDS as usize {
                return Ok(());
            }
        }
        if Instant::now() > deadline {
            return Err(format!("membership never converged on {seed}"));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A counter from one shard's stats object, by path.
fn counter(stats: &Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(stats, |j, key| j.get(key))
        .and_then(Json::as_i64)
        .unwrap_or(0) as f64
}

/// Sum over shards of a counter.
fn total(stats: &[Json], path: &[&str]) -> f64 {
    stats.iter().map(|s| counter(s, path)).sum()
}

/// Waits until every replica push has landed: no batch queued and
/// every pushed entry received.
fn wait_replicated(fleet: &Fleet) -> Result<(), String> {
    let deadline = Instant::now() + PATIENCE;
    loop {
        let stats = fleet.stats()?;
        let lag = total(&stats, &["replication", "replication_lag"]);
        let pushed = total(&stats, &["replication", "pushed"]);
        let received = total(&stats, &["requests", "replica_received"]);
        if lag == 0.0 && received >= pushed {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err("replication never settled".into());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Where a request's file came from.
#[derive(Clone, Copy)]
enum FileRef {
    Pool(usize),
    Fresh(usize),
}

/// One request of the measured window: its files, and its latency and
/// output or why it failed.
struct Sent {
    refs: Vec<FileRef>,
    result: Result<(Duration, String), String>,
}

/// The display path of the `n`th fresh file.
fn fresh_path(n: usize) -> String {
    format!("fresh/r{n:06}.biv")
}

/// The expected report for one request: per-file blocks from the local
/// summaries, then the cold stats line over their hashes — exactly
/// what a local `bivc` run over the same files prints.
fn expected_output(paths: &[String], summaries: Vec<FunctionSummary>) -> String {
    let ranges: Vec<(String, usize)> = paths.iter().map(|p| (p.clone(), 1)).collect();
    let hashes: Vec<u64> = summaries.iter().map(|s| s.hash).collect();
    let stats = cold_batch_stats(&hashes, BatchOptions::default().cache_capacity);
    render_grouped(&ranges, &summaries, &stats)
}

/// Sends `files` through the router and checks the reassembled bytes.
fn checked_request(router: &mut Router, files: Vec<AnalyzeFile>, want: &str) -> Result<(), String> {
    let report = router.analyze(files)?;
    if !report.errors.is_empty() {
        return Err(format!("fleet errors: {:?}", report.errors));
    }
    if report.output != want {
        return Err("fleet output differs from the local render".into());
    }
    Ok(())
}

/// One timed setup: spawn, membership convergence, router bootstrap,
/// warm-pool preload, and replication settled.
fn setup(
    env: &Env,
    dir: &Path,
    pool: &Corpus,
    summaries: &[FunctionSummary],
    out: &mut Outcome,
) -> Result<(Fleet, Router), String> {
    let fleet = Fleet::spawn(env, dir)?;
    let seed = fleet.shards[0].endpoint.clone();
    wait_converged(&seed)?;
    let mut router = Router::new(FleetConfig::new(vec![seed]))?;
    if router.shard_count() != SHARDS || router.replica_scope() != Some(2) {
        return Err(format!(
            "router bootstrapped {} shards, replica scope {:?}",
            router.shard_count(),
            router.replica_scope()
        ));
    }
    for (chunk, summaries) in pool
        .inputs
        .chunks(PRELOAD_CHUNK)
        .zip(summaries.chunks(PRELOAD_CHUNK))
    {
        let paths: Vec<String> = chunk.iter().map(|i| i.path.clone()).collect();
        let want = expected_output(&paths, summaries.to_vec());
        let files = chunk
            .iter()
            .map(|i| AnalyzeFile {
                path: i.path.clone(),
                source: i.source.clone(),
            })
            .collect();
        out.check(checked_request(&mut router, files, &want));
    }
    wait_replicated(&fleet)?;
    Ok((fleet, router))
}

/// Per-layer metrics of the serving stack on a workload that never
/// touches it: no server, store, network, or fleet work at all.
pub fn idle_layers() -> Metrics {
    let mut m = Metrics::default();
    for (name, unit) in SERVE_LAYERS {
        m.add(name, 0.0, unit);
    }
    m
}

/// The serving layers' metric names and units, in report order.
const SERVE_LAYERS: [(&str, &str); 15] = [
    ("store.disk_hit_ratio", "ratio"),
    ("store.records_written_per_fresh_fn", "count"),
    ("store.open_ms", "ms"),
    ("server.queue_wait_ms_p99", "ms"),
    ("server.parse_ms_p50", "ms"),
    ("server.analyze_ms_p50", "ms"),
    ("server.render_ms_p50", "ms"),
    ("server.rejected_busy", "count"),
    ("net.ping_us_p50", "us"),
    ("net.reused_ping_us_p50", "us"),
    ("net.connections_per_req", "count"),
    ("fleet.overhead_ms", "ms"),
    ("fleet.shard_share_max", "ratio"),
    ("fleet.replica_pushes_per_miss", "count"),
    ("fleet.replication_lag_end", "count"),
];

/// Runs the `serve_mixed` workload.
pub fn run(env: &Env, seed: u64, seconds: u64, trace: bool) -> Outcome {
    let mut out = Outcome::default();

    // Harness preparation, untimed: the pool and its expected blocks.
    let pool = match write_corpus(&env.work.join("pool"), POOL, |i| spec(file_seed(seed, i))) {
        Ok(c) => c,
        Err(e) => return Outcome::broken(format!("cannot write the pool: {e}")),
    };
    let pool_ref = reference(&pool);
    let pool_summaries = &pool_ref.report.functions;

    let mut setups = Vec::with_capacity(SETUPS);
    let mut live = None;
    for i in 0..SETUPS {
        drop(live.take());
        let start = Instant::now();
        let dir = env.work.join(format!("fleet{i}"));
        match setup(env, &dir, &pool, pool_summaries, &mut out) {
            Ok(fleet) => live = Some(fleet),
            Err(e) => return Outcome::broken(e),
        }
        setups.push(start.elapsed().as_secs_f64());
    }
    let (mut fleet, mut router) = live.expect("at least one setup");

    // Fresh structures, generated ahead so the client loop only sends.
    let fresh_seed = |n: usize| file_seed(seed, POOL + n);
    let mut fresh: Vec<String> = Vec::new();
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x5e_7e_d0);
    let mut sent: Vec<Sent> = Vec::new();
    let before = match fleet.stats() {
        Ok(s) => s,
        Err(e) => return Outcome::broken(e),
    };
    let mut generating = Duration::ZERO;
    let mut rss_mb = 0.0;
    let window = Instant::now();
    while sent.len() < 10 || window.elapsed() < Duration::from_secs(seconds) {
        let need = (sent.len() + 1) * FRESH_PER_REQUEST;
        if fresh.len() < need {
            let t = Instant::now();
            fresh.extend((fresh.len()..need + 256).map(|n| generate(&spec(fresh_seed(n))).source));
            generating += t.elapsed();
        }
        let first_fresh = rng.gen_range_usize(0..FILES_PER_REQUEST);
        let second_fresh =
            (first_fresh + 1 + rng.gen_range_usize(0..FILES_PER_REQUEST - 1)) % FILES_PER_REQUEST;
        let mut next_fresh = sent.len() * FRESH_PER_REQUEST;
        let refs: Vec<FileRef> = (0..FILES_PER_REQUEST)
            .map(|slot| {
                if slot == first_fresh || slot == second_fresh {
                    next_fresh += 1;
                    FileRef::Fresh(next_fresh - 1)
                } else {
                    FileRef::Pool(rng.gen_range_usize(0..POOL))
                }
            })
            .collect();
        let files = refs
            .iter()
            .map(|r| match *r {
                FileRef::Pool(i) => AnalyzeFile {
                    path: pool.inputs[i].path.clone(),
                    source: pool.inputs[i].source.clone(),
                },
                FileRef::Fresh(n) => AnalyzeFile {
                    path: fresh_path(n),
                    source: fresh[n].clone(),
                },
            })
            .collect();
        let start = Instant::now();
        let result = router.analyze(files);
        let elapsed = start.elapsed();
        let result = match result {
            Ok(report) if report.errors.is_empty() => Ok((elapsed, report.output)),
            Ok(report) => Err(format!("fleet errors: {:?}", report.errors)),
            Err(e) => Err(e),
        };
        sent.push(Sent { refs, result });
        if sent.len() == RSS_AFTER_REQUESTS {
            rss_mb = fleet.peak_rss_mb();
        }
    }
    if sent.len() < RSS_AFTER_REQUESTS {
        rss_mb = fleet.peak_rss_mb();
    }
    let window_s = window.elapsed().saturating_sub(generating).as_secs_f64();
    let after = match fleet.stats() {
        Ok(s) => s,
        Err(e) => return Outcome::broken(e),
    };

    // Oracle, after the window: every response against the local render.
    let fresh_used = sent.len() * FRESH_PER_REQUEST;
    let fresh_funcs: Vec<_> = fresh[..fresh_used]
        .iter()
        .flat_map(|s| parse_program(s).expect("generated source parses").functions)
        .collect();
    let fresh_summaries = analyze_batch(
        &fresh_funcs,
        &BatchOptions {
            jobs: 2,
            ..BatchOptions::default()
        },
    )
    .functions;
    let mut latencies = Vec::with_capacity(sent.len());
    for Sent { refs, result } in &sent {
        let (paths, summaries): (Vec<String>, Vec<FunctionSummary>) = refs
            .iter()
            .map(|r| match *r {
                FileRef::Pool(i) => (pool.inputs[i].path.clone(), pool_summaries[i].clone()),
                FileRef::Fresh(n) => (fresh_path(n), fresh_summaries[n].clone()),
            })
            .unzip();
        let checked = match result {
            Ok((elapsed, output)) if *output == expected_output(&paths, summaries) => {
                latencies.push(ms(*elapsed));
                Ok(())
            }
            Ok(_) => Err("fleet output differs from the local render".to_string()),
            Err(e) => Err(e.clone()),
        };
        out.check(checked);
    }
    out.samples = latencies.len();

    if !trace {
        let served = (latencies.len() * FILES_PER_REQUEST) as f64;
        let m = &mut out.metrics;
        m.add("setup_s", median(&setups), "s");
        m.add("fn_per_s", served / window_s, "fn/s");
        m.add("op_ms_p50", median(&latencies), "ms");
        m.add("op_ms_p90", quantile(&latencies, 0.9), "ms");
        m.add("peak_rss_mb", rss_mb, "MB");
        return out;
    }

    // Traced run: the shards' own counters over the window, the
    // network round trip, store reopen, and the analysis layers on the
    // pool files.
    let delta = |path: &[&str]| total(&after, path) - total(&before, path);
    let worst = |path: &[&str]| after.iter().map(|s| counter(s, path)).fold(0.0, f64::max);
    let hits = delta(&["cache", "hits"]);
    let misses = delta(&["cache", "misses"]);
    let disk_hits = delta(&["store", "disk_hits"]);
    let disk_misses = delta(&["store", "disk_misses"]);
    let written = delta(&["store", "records_live"]) + delta(&["store", "records_garbage"]);
    let functions = delta(&["requests", "functions"]);
    let share_max = before
        .iter()
        .zip(&after)
        .map(|(b, a)| {
            counter(a, &["requests", "functions"]) - counter(b, &["requests", "functions"])
        })
        .fold(0.0, f64::max);
    let lag_end = total(&after, &["replication", "replication_lag"]);
    let shard_total_p50_ms = worst(&["latency", "total", "p50_us"]) / 1e3;
    let (pings, reused_pings) = match ping_all(&fleet) {
        Ok(p) => p,
        Err(e) => return Outcome::broken(e),
    };
    fleet.stop();
    let store_open_ms = (0..SHARDS)
        .map(|k| {
            let start = Instant::now();
            let opened = TieredCache::open(
                &store_dir(&fleet.dir, k),
                CACHE_CAP,
                &StoreOptions::default(),
            );
            let elapsed = ms(start.elapsed());
            out.check(
                opened
                    .map(drop)
                    .map_err(|e| format!("cannot reopen store {k}: {e}")),
            );
            elapsed
        })
        .fold(0.0, f64::max);
    drop(fleet);

    let (mut m, _) = analysis_layers(env, &pool, &pool_ref, seconds, &mut out);
    let requests = sent.len() as f64;
    m.add("core.cache_hit_ratio", ratio(hits, hits + misses), "ratio");
    m.add(
        "store.disk_hit_ratio",
        ratio(disk_hits, disk_hits + disk_misses),
        "ratio",
    );
    m.add(
        "store.records_written_per_fresh_fn",
        ratio(written, fresh_used as f64),
        "count",
    );
    m.add("store.open_ms", store_open_ms, "ms");
    m.add(
        "server.queue_wait_ms_p99",
        worst(&["latency", "queue_wait", "p99_us"]) / 1e3,
        "ms",
    );
    m.add(
        "server.parse_ms_p50",
        worst(&["latency", "parse", "p50_us"]) / 1e3,
        "ms",
    );
    m.add(
        "server.analyze_ms_p50",
        worst(&["latency", "analyze", "p50_us"]) / 1e3,
        "ms",
    );
    m.add(
        "server.render_ms_p50",
        worst(&["latency", "render", "p50_us"]) / 1e3,
        "ms",
    );
    m.add(
        "server.rejected_busy",
        delta(&["requests", "rejected_busy"]),
        "count",
    );
    m.add("net.ping_us_p50", median(&pings), "us");
    m.add("net.reused_ping_us_p50", median(&reused_pings), "us");
    m.add(
        "net.connections_per_req",
        ratio(delta(&["requests", "connections"]), requests),
        "count",
    );
    m.add(
        "fleet.overhead_ms",
        median(&latencies) - shard_total_p50_ms,
        "ms",
    );
    m.add(
        "fleet.shard_share_max",
        ratio(share_max, functions),
        "ratio",
    );
    m.add(
        "fleet.replica_pushes_per_miss",
        ratio(delta(&["replication", "pushed"]), misses),
        "count",
    );
    m.add("fleet.replication_lag_end", lag_end, "count");
    out.metrics = m;
    out
}

/// `ping` round trips to every shard, in microseconds: each on a fresh
/// connection (connect included, as the router pays per shard group),
/// and on one reused connection per shard.
fn ping_all(fleet: &Fleet) -> Result<(Vec<f64>, Vec<f64>), String> {
    let (mut fresh, mut reused) = (Vec::new(), Vec::new());
    for endpoint in fleet.endpoints() {
        let endpoint = Endpoint::parse(&endpoint);
        let ping = |client: &mut Client| match client.request(&Request::Ping) {
            Ok(Response::Pong) => Ok(()),
            other => Err(format!("{endpoint:?}: ping answered {other:?}")),
        };
        let connect = || {
            Client::connect_timeout(&endpoint, Duration::from_secs(5))
                .map_err(|e| format!("{endpoint:?}: {e}"))
        };
        for _ in 0..PINGS {
            let start = Instant::now();
            ping(&mut connect()?)?;
            fresh.push(start.elapsed().as_secs_f64() * 1e6);
        }
        let mut client = connect()?;
        for _ in 0..PINGS {
            let start = Instant::now();
            ping(&mut client)?;
            reused.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    Ok((fresh, reused))
}
