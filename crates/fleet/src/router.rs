//! The fleet router: fans one analyze batch out across N shards and
//! reassembles the responses **byte-identically** to a single local
//! `bivc` run.
//!
//! ```text
//!              ┌──────── shard 0 ──────── per-file blocks ┐
//!  files ──┬──▶│                                          ├──▶ input-order
//!          │   ├──────── shard 1 ──────── per-file blocks ┤    blocks +
//!          │   │                                          │    cold stats
//!          └──▶└──────── shard 2 ──────── per-file blocks ┘    line
//! ```
//!
//! **Bootstrap.** [`Router::new`] treats the configured endpoints as
//! *seeds*: it asks each in turn for the fleet's membership view
//! (`members` frame), and the first view answer defines the ring size,
//! the per-shard endpoints, the initial liveness, and the replication
//! factor R — one live seed suffices to discover the whole ring. A
//! fleet whose shards run no membership agent cannot be routed: every
//! seed answers `no-cluster`, and `new` fails with a hint to start
//! `bivd` with `--peers`.
//!
//! **Routing.** Files route by content key
//! ([`crate::ring::content_key`]) over the consistent-hash [`Ring`], so
//! identical sources always land on the shard whose structural cache
//! already holds their summaries. The fan-out runs in rounds: every
//! pending file is grouped by its current shard, groups go out
//! concurrently (one connection per group), and a group whose shard is
//! gone — unreachable, killed mid-batch, draining, or answering
//! `wrong-shard` because its endpoint now hosts another shard — marks
//! that shard dead and comes back as pending for the next round. Every
//! re-route kills one shard, so a batch ends within `shard_count + 1`
//! rounds.
//!
//! **Failover scope.** Re-routing is scoped to each key's *replica set*
//! (the R successors that replication actually writes to, see
//! [`crate::replicate`]): a SIGKILLed primary's files are served warm
//! by a replica, and a file whose **entire** replica set is dead fails
//! as a file (`no live replica`) while the rest of the batch completes
//! byte-identically.
//!
//! Per-shard busy rejections are absorbed with the exact client backoff
//! policy ([`biv_server::client::busy_backoff`]); a group that exhausts
//! its backoff budget fails its files and is counted in
//! [`FleetReport::backoff_exhausted`] (and the process-wide ledger,
//! [`biv_server::client::backoff_exhausted`]).

use std::collections::BTreeMap;
use std::time::Duration;

use biv_core::cold_batch_stats;
use biv_server::client::{busy_backoff, note_backoff_exhausted};
use biv_server::net::Endpoint;
use biv_server::{AnalyzeFile, Client, FileError, FleetFile, Request, Response};

use crate::faults;
use crate::membership::{MemberState, View};
use crate::ring::{content_key, Ring};

/// How long one membership probe (connect + `members` exchange) may
/// take before the router tries the next seed.
const PROBE_TIMEOUT: Duration = Duration::from_secs(2);

/// How the router talks to its fleet.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Seed endpoints (`tcp:HOST:PORT` or a Unix socket path). Any one
    /// live member's entry bootstraps the full ring.
    pub endpoints: Vec<String>,
    /// Cold-replay cache capacity for the stats line, exactly as
    /// `bivc --cache-cap` passes it. `None` means the default.
    pub cache_cap: Option<usize>,
    /// Busy rejections tolerated per group submission before the shard
    /// is declared saturated for those files.
    pub max_busy_retries: u32,
    /// Compute and render verified per-loop invariants in each shard's
    /// per-file blocks, exactly as `bivc --invariants` does locally.
    /// Shards derive invariants only for requests carrying this flag and
    /// cache, store, and replicate that product under its own key, so
    /// warm and cold fleet runs stay byte-identical for either setting.
    pub invariants: bool,
}

impl FleetConfig {
    /// A config for `endpoints` with the default retry budget.
    pub fn new(endpoints: Vec<String>) -> FleetConfig {
        FleetConfig {
            endpoints,
            cache_cap: None,
            max_busy_retries: 10,
            invariants: false,
        }
    }
}

/// The reassembled result of one fleet batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetReport {
    /// The batch report — byte-identical to a local `bivc` run over the
    /// same readable, parsable files (failed files excepted, listed in
    /// `errors`).
    pub output: String,
    /// Functions analyzed or served from shard caches.
    pub functions: usize,
    /// Distinct structures actually analyzed across the fleet.
    pub analyzed: usize,
    /// Functions served from warm shard caches.
    pub cached: usize,
    /// Per-file failures: parse errors from shards, plus files the
    /// router could not place anywhere.
    pub errors: Vec<FileError>,
    /// Busy rejections absorbed by backoff across all shards.
    pub busy_retries: u64,
    /// Group submissions that ran out of busy-backoff budget.
    pub backoff_exhausted: u64,
    /// Shards found dead (unreachable, draining, or no longer at their
    /// endpoint) during the batch.
    pub dead_shards: Vec<u32>,
    /// Human-readable routing events (shard deaths and why) for the
    /// caller's stderr; never part of `output`.
    pub notes: Vec<String>,
}

/// What one per-shard group submission came back with.
enum GroupOutcome {
    /// The shard served the group: per-file results in request order.
    Served {
        files: Vec<FleetFile>,
        functions: usize,
        analyzed: usize,
        cached: usize,
    },
    /// The shard is gone from its endpoint (unreachable, died
    /// mid-exchange, draining, or the endpoint hosts another shard
    /// now): mark it dead and re-route its files.
    Dead(String),
    /// The shard answered but unusably (busy exhaustion, protocol
    /// violation, refusal): the group's files fail, the batch goes on.
    Refused(String),
}

/// A connected fleet router.
#[derive(Debug)]
pub struct Router {
    config: FleetConfig,
    ring: Ring,
    /// `endpoints_by_shard[k]` = where shard `k` is served (`None` for
    /// a shard the view has no member record for).
    endpoints_by_shard: Vec<Option<String>>,
    /// Liveness at bootstrap time; each batch starts from this and
    /// marks further deaths as it finds them. A shard without an
    /// endpoint is never alive.
    initial_alive: Vec<bool>,
    /// R: how many ring successors hold each key's summaries.
    replicas: u32,
}

impl Router {
    /// Builds a router from the membership view of the first seed in
    /// `config.endpoints` that answers one (see the module docs).
    ///
    /// # Errors
    /// With an empty endpoint list, or when no seed answers with a
    /// view — unreachable, or a `bivd` running without `--peers`.
    pub fn new(config: FleetConfig) -> Result<Router, String> {
        if config.endpoints.is_empty() {
            return Err("a fleet needs at least one endpoint".into());
        }
        let view = probe_members(&config.endpoints)?;
        Router::from_members(config, &view)
    }

    /// Builds a router from a bootstrap view: ring size, endpoints,
    /// liveness, and the replica scope all come from the view.
    /// `config.endpoints` is kept only as the seed list.
    ///
    /// # Errors
    /// When the view describes an empty or oversized ring.
    pub fn from_members(config: FleetConfig, view: &View) -> Result<Router, String> {
        let n = view.shard_count;
        if n == 0 {
            return Err("membership view describes an empty ring".into());
        }
        if n > 65_536 {
            return Err(format!("membership view describes {n} shards; refusing"));
        }
        let mut endpoints_by_shard: Vec<Option<String>> = vec![None; n as usize];
        let mut initial_alive = vec![false; n as usize];
        for m in &view.members {
            if m.shard_id >= n {
                continue;
            }
            endpoints_by_shard[m.shard_id as usize] = Some(m.endpoint.clone());
            // Anything short of Dead is still worth one dial: a
            // Suspect may well be alive, and a Draining record can be
            // a stale rumor about a shard that has already restarted.
            // If the dial fails the first group finds out and
            // re-routes; only a settled Dead verdict skips upfront.
            initial_alive[m.shard_id as usize] = m.state != MemberState::Dead;
        }
        Ok(Router {
            config,
            ring: Ring::new(n),
            endpoints_by_shard,
            initial_alive,
            replicas: view.replication.max(1),
        })
    }

    /// The fleet size this router routes against.
    pub fn shard_count(&self) -> u32 {
        self.ring.shard_count()
    }

    /// The replica scope R from the bootstrap view (always `Some`).
    pub fn replica_scope(&self) -> Option<u32> {
        Some(self.replicas)
    }

    /// Analyzes `files` across the fleet. The returned
    /// [`FleetReport::output`] is byte-identical to a local `bivc`
    /// batch run over the same files; per-file failures (parse errors,
    /// files no live replica could take) are reported in
    /// [`FleetReport::errors`] without disturbing the rest.
    ///
    /// # Errors
    /// Only when *nothing* can be served because every shard is dead.
    /// Per-file trouble never fails the batch.
    pub fn analyze(&mut self, files: Vec<AnalyzeFile>) -> Result<FleetReport, String> {
        let n = self.shard_count();
        // Input-order result slots: a served per-file result, or a
        // routing-level error message.
        let mut slots: Vec<Option<Result<FleetFile, String>>> = vec![None; files.len()];
        let mut alive = self.initial_alive.clone();
        let mut dead_shards: Vec<u32> = Vec::new();
        let mut notes: Vec<String> = Vec::new();
        let (mut functions, mut analyzed, mut cached) = (0usize, 0usize, 0usize);
        let (mut busy_retries, mut backoff_exhausted) = (0u64, 0u64);

        let keys: Vec<u64> = files.iter().map(|f| content_key(&f.source)).collect();
        let mut pending: Vec<usize> = (0..files.len()).collect();

        // Each round either finishes every pending file or marks at
        // least one more shard dead, so this loop runs at most n + 1
        // times.
        while !pending.is_empty() {
            if !alive.iter().any(|&a| a) {
                for index in pending.drain(..) {
                    slots[index] = Some(Err(format!(
                        "no live shard left in the fleet ({n} configured, all dead)"
                    )));
                }
                break;
            }

            // Group this round's files by the first live member of
            // their replica set. BTreeMap keeps the fan-out order
            // deterministic.
            let mut groups: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
            for index in std::mem::take(&mut pending) {
                match self.ring.route_replica(keys[index], &alive, self.replicas) {
                    Some(shard) => groups.entry(shard).or_default().push(index),
                    None => {
                        slots[index] = Some(Err(
                            "no live replica: this file's primary and every replica are dead"
                                .into(),
                        ));
                    }
                }
            }

            // Fan the groups out, one connection per shard group.
            let round: Vec<(u32, Vec<usize>, GroupOutcome, u64, bool)> =
                std::thread::scope(|scope| {
                    let handles: Vec<_> = groups
                        .into_iter()
                        .map(|(shard, members)| {
                            let endpoint = self.endpoints_by_shard[shard as usize]
                                .as_deref()
                                .expect("only shards with an endpoint start alive");
                            let payload: Vec<AnalyzeFile> =
                                members.iter().map(|&i| files[i].clone()).collect();
                            let config = &self.config;
                            let handle = scope
                                .spawn(move || submit_group(endpoint, shard, n, payload, config));
                            (shard, members, handle)
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|(shard, members, handle)| {
                            let (outcome, busy, exhausted) = handle.join().unwrap_or_else(|_| {
                                (
                                    GroupOutcome::Refused("router worker panicked".into()),
                                    0,
                                    false,
                                )
                            });
                            (shard, members, outcome, busy, exhausted)
                        })
                        .collect()
                });

            for (shard, members, outcome, busy, exhausted) in round {
                busy_retries += busy;
                backoff_exhausted += u64::from(exhausted);
                match outcome {
                    GroupOutcome::Served {
                        files: results,
                        functions: f,
                        analyzed: a,
                        cached: c,
                    } => {
                        if results.len() != members.len() {
                            let reason = format!(
                                "shard {shard} answered {} results for {} files",
                                results.len(),
                                members.len()
                            );
                            for &i in &members {
                                slots[i] = Some(Err(reason.clone()));
                            }
                            continue;
                        }
                        functions += f;
                        analyzed += a;
                        cached += c;
                        for (&i, result) in members.iter().zip(results) {
                            slots[i] = Some(Ok(result));
                        }
                    }
                    GroupOutcome::Dead(reason) => {
                        // Groups form only over live shards, one group
                        // per shard, so this death is new.
                        alive[shard as usize] = false;
                        dead_shards.push(shard);
                        notes.push(format!(
                            "shard {shard} marked dead, re-routing its files: {reason}"
                        ));
                        pending.extend(members);
                    }
                    GroupOutcome::Refused(reason) => {
                        for &i in &members {
                            slots[i] = Some(Err(reason.clone()));
                        }
                    }
                }
            }
        }

        // Reassemble in input order: blocks from OK files, hashes in
        // render order, then the cold stats line over the whole batch —
        // exactly what `render_grouped` prints locally.
        let mut output = String::new();
        let mut hashes: Vec<u64> = Vec::new();
        let mut errors: Vec<FileError> = Vec::new();
        for (file, slot) in files.iter().zip(slots) {
            match slot {
                Some(Ok(result)) => {
                    if let Some(message) = result.error {
                        errors.push(FileError {
                            path: file.path.clone(),
                            message,
                        });
                    } else {
                        output.push_str(&result.output);
                        hashes.extend(result.hashes);
                    }
                }
                Some(Err(message)) => errors.push(FileError {
                    path: file.path.clone(),
                    message: format!("{}: {message}", file.path),
                }),
                None => errors.push(FileError {
                    path: file.path.clone(),
                    message: format!("{}: never routed (router bug)", file.path),
                }),
            }
        }

        // Nothing served and every failure was fleet-wide: surface that
        // as a batch error rather than N copies of the same message.
        if !files.is_empty()
            && functions == 0
            && errors.len() == files.len()
            && errors.iter().all(|e| e.message.contains("no live shard"))
        {
            return Err(format!("fleet unavailable: {}", errors[0].message));
        }

        let replay_cap = self
            .config
            .cache_cap
            .unwrap_or_else(|| biv_core::BatchOptions::default().cache_capacity);
        let stats = cold_batch_stats(&hashes, replay_cap);
        output.push_str(&stats.render());
        output.push('\n');

        Ok(FleetReport {
            output,
            functions,
            analyzed,
            cached,
            errors,
            busy_retries,
            backoff_exhausted,
            dead_shards,
            notes,
        })
    }
}

/// Probes the seed endpoints in order for a membership view; the first
/// view answer wins.
///
/// # Errors
/// When no seed answers with a view, listing why each one did not.
fn probe_members(seeds: &[String]) -> Result<View, String> {
    let mut why: Vec<String> = Vec::new();
    for seed in seeds {
        let answer = Client::connect_timeout(&Endpoint::parse(seed), PROBE_TIMEOUT)
            .and_then(|mut client| client.request(&Request::Members));
        why.push(match answer {
            Ok(Response::Members { view } | Response::Gossip { view }) => {
                match View::from_json(&view) {
                    Ok(view) if view.shard_count > 0 => return Ok(view),
                    Ok(_) => format!("{seed} answered an empty view"),
                    Err(e) => format!("{seed} answered a malformed view: {e}"),
                }
            }
            Ok(Response::Error { kind, .. }) if kind == "no-cluster" => format!(
                "{seed} runs no membership agent (start bivd with --peers; \
                 `--peers none` for the first shard)"
            ),
            Ok(other) => format!("{seed} answered out of protocol: {other:?}"),
            Err(e) => format!("{seed}: {e}"),
        });
    }
    Err(format!(
        "no seed answered with a membership view: {}",
        why.join("; ")
    ))
}

/// Sends one shard group and classifies the exchange, returning the
/// outcome, how many busy rejections backoff absorbed, and whether the
/// backoff budget ran out. Everything except busy handling maps onto a
/// [`GroupOutcome`] for the round loop to act on.
fn submit_group(
    endpoint: &str,
    shard: u32,
    shard_count: u32,
    payload: Vec<AnalyzeFile>,
    config: &FleetConfig,
) -> (GroupOutcome, u64, bool) {
    if faults::fire("fleet.shard.unreachable") {
        return (
            GroupOutcome::Dead("fault injected: shard unreachable".into()),
            0,
            false,
        );
    }
    let endpoint = Endpoint::parse(endpoint);
    let mut client = match Client::connect(&endpoint) {
        Ok(c) => c,
        Err(e) => {
            return (
                GroupOutcome::Dead(format!("cannot connect to {endpoint}: {e}")),
                0,
                false,
            )
        }
    };
    let request = Request::AnalyzeFleet {
        files: payload,
        cache_cap: config.cache_cap,
        shard_id: shard,
        shard_count,
        invariants: config.invariants,
    };
    let max_busy_retries = config.max_busy_retries;
    let mut attempt = 0u32;
    loop {
        let mut exhausted = false;
        let outcome = match client.request(&request) {
            Ok(Response::AnalyzeFleet {
                files,
                functions,
                analyzed,
                cached,
            }) => GroupOutcome::Served {
                files,
                functions,
                analyzed,
                cached,
            },
            Ok(Response::Busy { retry_after_ms }) => {
                attempt += 1;
                if attempt > max_busy_retries {
                    note_backoff_exhausted();
                    exhausted = true;
                    GroupOutcome::Refused(format!(
                        "shard {shard} saturated (busy after {max_busy_retries} retries; \
                         last hint {retry_after_ms} ms)"
                    ))
                } else {
                    std::thread::sleep(busy_backoff(retry_after_ms, attempt));
                    continue;
                }
            }
            // Draining: the shard is departing. Wrong shard: the
            // endpoint no longer hosts this shard (a restart reused
            // it). Either way the shard is gone from here.
            Ok(Response::Error { kind, message })
                if kind == "draining" || kind == "wrong-shard" =>
            {
                GroupOutcome::Dead(format!("shard {shard} answered {kind}: {message}"))
            }
            Ok(Response::Error { kind, message }) => {
                GroupOutcome::Refused(format!("shard {shard} refused ({kind}): {message}"))
            }
            Ok(other) => {
                GroupOutcome::Refused(format!("shard {shard} answered out of protocol: {other:?}"))
            }
            Err(e) => GroupOutcome::Dead(format!("shard {shard} at {endpoint}: {e}")),
        };
        return (outcome, u64::from(attempt), exhausted);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membership::{AgentConfig, ClusterAgent, Member};
    use biv_server::server::{Server, ServerConfig};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Instant;

    const SRC_A: &str = "func f(n) { j = 1 L1: for i = 1 to n { j = j + i A[j] = i } }\n";
    const SRC_B: &str = "func g(n) { L1: for i = 1 to n { B[i] = 2 * i } }\n";

    fn spawn_shard(
        shard_id: u32,
        shard_count: u32,
    ) -> (String, std::thread::JoinHandle<()>, &'static AtomicBool) {
        let mut config = ServerConfig::new(Endpoint::Tcp("127.0.0.1:0".into()));
        config.workers = 1;
        config.shard_id = shard_id;
        config.shard_count = shard_count;
        let server = Server::bind(config).expect("bind 127.0.0.1:0");
        let endpoint = server.bound_endpoint();
        let flag: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
        let handle = std::thread::spawn(move || {
            server.run(flag).expect("shard run");
        });
        (endpoint, handle, flag)
    }

    /// A shard with a membership agent attached: gossips to `seeds`,
    /// answers `members`, replicates with R=2.
    fn spawn_member_shard(
        shard_id: u32,
        shard_count: u32,
        seeds: Vec<String>,
    ) -> (String, std::thread::JoinHandle<()>, &'static AtomicBool) {
        let mut config = ServerConfig::new(Endpoint::Tcp("127.0.0.1:0".into()));
        config.workers = 1;
        config.shard_id = shard_id;
        config.shard_count = shard_count;
        let mut server = Server::bind(config).expect("bind 127.0.0.1:0");
        let endpoint = server.bound_endpoint();
        let flag: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
        let mut agent = AgentConfig::new(shard_id, shard_count, endpoint.clone())
            .with_heartbeat(std::time::Duration::from_millis(50));
        agent.seeds = seeds;
        let (hook, _threads) = ClusterAgent::spawn(agent, flag);
        server.install_cluster(hook);
        let handle = std::thread::spawn(move || {
            server.run(flag).expect("shard run");
        });
        (endpoint, handle, flag)
    }

    /// A router over `config.endpoints` as a converged view would
    /// describe them: shard `k` alive at `endpoints[k]`, replication
    /// factor `r`.
    fn member_router(config: FleetConfig, r: u32) -> Router {
        let members = config
            .endpoints
            .iter()
            .enumerate()
            .map(|(k, endpoint)| Member {
                shard_id: k as u32,
                endpoint: endpoint.clone(),
                incarnation: 1,
                state: MemberState::Alive,
            })
            .collect();
        let view = View {
            version: 1,
            shard_count: config.endpoints.len() as u32,
            replication: r,
            members,
        };
        Router::from_members(config, &view).expect("router from view")
    }

    /// What a local `bivc` batch run prints for `files` — the bytes the
    /// router must reproduce.
    fn local_output(files: &[AnalyzeFile], cap: usize) -> String {
        local_output_with(files, cap, false)
    }

    fn local_output_with(files: &[AnalyzeFile], cap: usize, invariants: bool) -> String {
        use biv_core::{analyze_batch, render_grouped_with, BatchOptions};
        let mut funcs = Vec::new();
        let mut ranges = Vec::new();
        for f in files {
            let program = biv_ir::parser::parse_program(&f.source).unwrap();
            ranges.push((f.path.clone(), program.functions.len()));
            funcs.extend(program.functions);
        }
        let opts = BatchOptions {
            cache_capacity: cap,
            invariants,
            ..BatchOptions::default()
        };
        let report = analyze_batch(&funcs, &opts);
        let hashes: Vec<u64> = report.functions.iter().map(|f| f.hash).collect();
        let cold = cold_batch_stats(&hashes, cap);
        render_grouped_with(&ranges, &report.functions, &cold, invariants)
    }

    /// A TCP endpoint that refuses connections: bind, read the port,
    /// drop the listener.
    fn refused_endpoint() -> String {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap();
        drop(l);
        format!("tcp:{addr}")
    }

    fn stop(shards: Vec<(String, std::thread::JoinHandle<()>, &'static AtomicBool)>) {
        for (_, handle, flag) in shards {
            flag.store(true, Ordering::SeqCst);
            handle.join().unwrap();
        }
    }

    #[test]
    fn three_shard_fleet_matches_local_bytes() {
        let shards: Vec<_> = (0..3).map(|k| spawn_shard(k, 3)).collect();
        let endpoints: Vec<String> = shards.iter().map(|(e, _, _)| e.clone()).collect();
        let files: Vec<AnalyzeFile> = (0..6)
            .map(|i| AnalyzeFile {
                path: format!("mem/{i}.biv"),
                source: if i % 2 == 0 { SRC_A } else { SRC_B }.to_string(),
            })
            .collect();

        let mut config = FleetConfig::new(endpoints);
        config.cache_cap = Some(4);
        let mut router = member_router(config, 2);
        assert_eq!(router.replica_scope(), Some(2), "R comes from the view");
        let report = router.analyze(files.clone()).unwrap();

        assert_eq!(report.output, local_output(&files, 4));
        assert_eq!(report.functions, 6);
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        assert!(report.dead_shards.is_empty());
        stop(shards);
    }

    #[test]
    fn three_shard_fleet_invariants_match_local_bytes_warm_and_cold() {
        // Invariant-bearing running-sum loops, spread over 3 shards,
        // rendered with the invariants flag: the reassembled bytes must
        // match a local `--invariants` run on the cold pass AND on a
        // warm repeat (shards serve the second pass from their caches,
        // so the invariant lines must round-trip through the summary).
        let shards: Vec<_> = (0..3).map(|k| spawn_shard(k, 3)).collect();
        let endpoints: Vec<String> = shards.iter().map(|(e, _, _)| e.clone()).collect();
        let files: Vec<AnalyzeFile> = (0..6)
            .map(|i| AnalyzeFile {
                path: format!("mem/{i}.biv"),
                source: format!(
                    "func sums{i}(n) {{ i = 1 s = 0 loop {{ s = s + i i = i + 1 \
                     if i > n {{ break }} }} }}\n"
                ),
            })
            .collect();

        let mut config = FleetConfig::new(endpoints);
        config.invariants = true;
        let mut router = member_router(config, 2);
        let want = local_output_with(&files, 4096, true);
        assert!(
            want.contains("invariant: "),
            "the planted loops must actually carry invariants:\n{want}"
        );

        let cold = router.analyze(files.clone()).unwrap();
        assert!(cold.errors.is_empty(), "{:?}", cold.errors);
        assert_eq!(cold.output, want, "cold fleet bytes");

        let warm = router.analyze(files.clone()).unwrap();
        assert!(warm.errors.is_empty(), "{:?}", warm.errors);
        assert_eq!(warm.output, want, "warm fleet bytes");
        assert!(warm.cached > 0, "second pass must hit shard caches");
        stop(shards);
    }

    #[test]
    fn dead_shard_fails_over_to_successors() {
        // Shard 1's endpoint refuses connections; its files must land
        // on ring successors, and the output must still match a local
        // run exactly. R=3 makes every shard a replica of every key.
        let s0 = spawn_shard(0, 3);
        let s2 = spawn_shard(2, 3);
        let endpoints = vec![s0.0.clone(), refused_endpoint(), s2.0.clone()];
        let files: Vec<AnalyzeFile> = (0..8)
            .map(|i| AnalyzeFile {
                path: format!("mem/{i}.biv"),
                source: format!("func h{i}(n) {{ L1: for i = 1 to n {{ A[i] = i + {i} }} }}\n"),
            })
            .collect();

        let mut router = member_router(FleetConfig::new(endpoints), 3);
        let report = router.analyze(files.clone()).unwrap();

        assert!(report.errors.is_empty(), "{:?}", report.errors);
        assert_eq!(report.output, local_output(&files, 4096));
        // Whether shard 1 is *observed* dead depends on whether any
        // file routed there; with 8 distinct sources it practically
        // always is, but correctness above is the real assertion.
        stop(vec![s0, s2]);
    }

    #[test]
    fn parse_errors_fail_the_file_not_the_batch() {
        let shard = spawn_shard(0, 1);
        let files = vec![
            AnalyzeFile {
                path: "good.biv".into(),
                source: SRC_A.to_string(),
            },
            AnalyzeFile {
                path: "bad.biv".into(),
                source: "func broken(".to_string(),
            },
        ];
        let mut router = member_router(FleetConfig::new(vec![shard.0.clone()]), 1);
        let report = router.analyze(files).unwrap();
        assert_eq!(report.errors.len(), 1);
        assert!(report.errors[0].message.contains("parse error"));
        assert!(report.output.contains("══ good.biv ══"));
        assert!(!report.output.contains("bad.biv"));
        stop(vec![shard]);
    }

    #[test]
    fn all_shards_dead_is_a_batch_error() {
        let mut router = member_router(FleetConfig::new(vec![refused_endpoint()]), 1);
        let err = router
            .analyze(vec![AnalyzeFile {
                path: "x.biv".into(),
                source: SRC_A.to_string(),
            }])
            .unwrap_err();
        assert!(err.contains("fleet unavailable"), "{err}");
    }

    #[test]
    fn empty_batch_renders_the_zero_stats_line() {
        let shard = spawn_shard(0, 1);
        let mut router = member_router(FleetConfig::new(vec![shard.0.clone()]), 1);
        let report = router.analyze(Vec::new()).unwrap();
        assert_eq!(
            report.output,
            "batch: 0 functions, 0 analyzed, 0 cache hits, 0 evictions\n"
        );
        stop(vec![shard]);
    }

    #[test]
    fn one_seed_bootstraps_the_whole_ring() {
        // Three membership shards; the router is told about only the
        // first. It must learn the other two endpoints from the view
        // and produce byte-identical output.
        let s0 = spawn_member_shard(0, 3, Vec::new());
        let s1 = spawn_member_shard(1, 3, vec![s0.0.clone()]);
        let s2 = spawn_member_shard(2, 3, vec![s0.0.clone()]);

        // Wait for the seed's view to converge on all three members.
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        loop {
            let view = probe_members(std::slice::from_ref(&s0.0));
            let alive = view
                .as_ref()
                .map(|v| {
                    v.members
                        .iter()
                        .filter(|m| m.state == MemberState::Alive)
                        .count()
                })
                .unwrap_or(0);
            if alive == 3 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "membership never converged: {view:?}"
            );
            std::thread::sleep(std::time::Duration::from_millis(25));
        }

        let files: Vec<AnalyzeFile> = (0..6)
            .map(|i| AnalyzeFile {
                path: format!("mem/{i}.biv"),
                source: format!("func s{i}(n) {{ L1: for i = 1 to n {{ A[i] = i + {i} }} }}\n"),
            })
            .collect();
        let mut router = Router::new(FleetConfig::new(vec![s0.0.clone()])).unwrap();
        assert_eq!(router.shard_count(), 3, "ring learned from the view");
        assert_eq!(router.replica_scope(), Some(2), "R rides in the view");
        let report = router.analyze(files.clone()).unwrap();
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        assert_eq!(report.output, local_output(&files, 4096));
        stop(vec![s0, s1, s2]);
    }

    #[test]
    fn double_failure_with_r2_fails_those_files_and_serves_the_rest() {
        // Five shards, R=2. One file's entire replica set (primary +
        // replica) is dead: that file must fail with a per-file error
        // while every other file is served byte-identically — replica
        // scoping must NOT walk past the replica set to a shard that
        // never received the key's summaries.
        let n = 5u32;
        let ring = Ring::new(n);
        let doomed = AnalyzeFile {
            path: "doomed.biv".into(),
            source: SRC_A.to_string(),
        };
        let dead = ring.successors(content_key(&doomed.source), 2);
        assert_eq!(dead.len(), 2);

        // Find a companion source whose replica set avoids both dead
        // shards — it must survive the double failure untouched.
        let mut survivor = None;
        for i in 0.. {
            let candidate = AnalyzeFile {
                path: "ok.biv".into(),
                source: format!("func ok{i}(n) {{ L1: for i = 1 to n {{ B[i] = {i} }} }}\n"),
            };
            let set = ring.successors(content_key(&candidate.source), 2);
            if !set.iter().any(|s| dead.contains(s)) {
                survivor = Some(candidate);
                break;
            }
        }
        let survivor = survivor.unwrap();

        // Live shards get real servers; the dead pair gets refusing
        // endpoints marked dead in the view.
        let mut shards = Vec::new();
        let mut members = Vec::new();
        for id in 0..n {
            if dead.contains(&id) {
                members.push(Member {
                    shard_id: id,
                    endpoint: refused_endpoint(),
                    incarnation: 1,
                    state: MemberState::Dead,
                });
            } else {
                let s = spawn_shard(id, n);
                members.push(Member {
                    shard_id: id,
                    endpoint: s.0.clone(),
                    incarnation: 1,
                    state: MemberState::Alive,
                });
                shards.push(s);
            }
        }
        let view = View {
            version: 1,
            shard_count: n,
            replication: 2,
            members,
        };
        let seeds: Vec<String> = shards.iter().map(|(e, _, _)| e.clone()).collect();
        let mut router = Router::from_members(FleetConfig::new(seeds), &view).unwrap();

        let files = vec![doomed.clone(), survivor.clone()];
        let report = router.analyze(files).unwrap();

        assert_eq!(report.errors.len(), 1, "{:?}", report.errors);
        assert!(
            report.errors[0].message.contains("no live replica"),
            "{:?}",
            report.errors
        );
        assert_eq!(report.errors[0].path, "doomed.biv");
        // The survivor's bytes are exactly a local run over it alone.
        assert_eq!(
            report.output,
            local_output(std::slice::from_ref(&survivor), 4096)
        );
        stop(shards);
    }
}
