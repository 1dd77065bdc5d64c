//! `bivd` — the resident induction-variable analysis daemon.
//!
//! ```text
//! bivd [--socket PATH | --tcp ADDR] [--workers N] [--queue-cap N]
//!      [--cache-cap N] [--cache-dir PATH] [--timeout-ms N]
//!      [--fleet shard=K/N --peers EP1,EP2,...|none] [--replicas R]
//!      [--heartbeat-ms N] [--no-auto-rebalance] [--net-threaded]
//!      [--budget SPEC] [--faults SPEC]
//! ```
//!
//! Listens on a Unix socket (default `$TMPDIR/bivd.sock`) or a TCP
//! address, serving the framed JSON protocol that `bivc --remote`
//! speaks. A fixed pool of workers shares one structural cache, so
//! repeated submissions of structurally identical functions are served
//! from cache across requests and clients — while every response stays
//! byte-identical to a local `bivc` run.
//!
//! With `--cache-dir`, summaries also persist to a durable
//! content-addressed store in that directory: the daemon preloads it on
//! startup (a warm restart), writes new summaries through to it, and
//! flushes it when the drain completes, so a `kill -9` loses at most
//! the unflushed tail — never a served answer.
//!
//! The daemon drains gracefully on SIGINT, SIGTERM, or a protocol
//! `shutdown` request: accepted work is finished and answered, new
//! frames are refused with an explicit `draining` error, and the final
//! counters are printed on exit.
//!
//! `--fleet shard=K/N --peers ...` makes this daemon shard `K` of an
//! `N`-shard fleet (see `biv-fleet`). The daemon itself behaves
//! identically — one cache, one queue — but it answers `analyze_fleet`
//! requests only when the router's believed identity matches (a
//! mismatch answers a `wrong-shard` error), and its `stats` response
//! carries the shard coordinates so the fleet aggregator can label it.
//!
//! `--peers` starts the cluster agent, which every fleet member runs:
//! the shard gossips a versioned membership view with its peers
//! (routers bootstrap the whole ring from any one live seed),
//! replicates committed summaries to its `--replicas R` ring successors
//! so a killed primary's keys are served warm, and — with
//! `--cache-dir` — hands snapshot copies to the affected shards when
//! membership changes (join/leave rebalance). The first shard of a
//! fleet has no one to dial yet: pass `--peers none`. `--fleet` without
//! `--peers` is refused.
//!
//! On Linux connection I/O runs on a readiness-driven epoll event loop;
//! `--net-threaded` selects the portable thread-per-connection
//! front-end instead. Both produce byte-identical responses.

use std::process::ExitCode;
use std::time::Duration;

use biv::fleet::{AgentConfig, ClusterAgent};
use biv::server::signal;
use biv::server::{Endpoint, NetMode, Server, ServerConfig};

const USAGE: &str = "usage: bivd [--socket PATH | --tcp ADDR] [--workers N] [--queue-cap N] [--cache-cap N] [--cache-dir PATH] [--timeout-ms N] [--fleet shard=K/N --peers EP1,EP2,...|none] [--replicas R] [--heartbeat-ms N] [--no-auto-rebalance] [--net-threaded] [--budget time=MS,nodes=N,scc=N,order=N] [--faults seed=N,profile=NAME]";

fn default_socket() -> String {
    std::env::temp_dir()
        .join("bivd.sock")
        .to_string_lossy()
        .into_owned()
}

/// Cluster-agent settings — bivd-side only, not part of [`ServerConfig`]
/// because the agent is built *after* bind (its advertised endpoint is
/// the bound one).
struct ClusterOpts {
    /// `Some` once `--peers` was given; the agent runs iff this is set.
    seeds: Option<Vec<String>>,
    replicas: Option<u32>,
    heartbeat_ms: Option<u64>,
    auto_rebalance: bool,
}

fn parse_args() -> Result<(ServerConfig, ClusterOpts), String> {
    let mut endpoint: Option<Endpoint> = None;
    let mut config = ServerConfig::new(Endpoint::Unix(default_socket().into()));
    let mut cluster = ClusterOpts {
        seeds: None,
        replicas: None,
        heartbeat_ms: None,
        auto_rebalance: true,
    };
    // A fleet member must run the agent, so `--fleet` needs `--peers`.
    let mut fleet = false;
    let mut args = std::env::args().skip(1);
    fn set_endpoint(e: Endpoint, endpoint: &mut Option<Endpoint>) -> Result<(), String> {
        if endpoint.is_some() {
            return Err("give at most one of --socket / --tcp".into());
        }
        *endpoint = Some(e);
        Ok(())
    }
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--socket" => {
                let path = value("--socket")?;
                set_endpoint(Endpoint::Unix(path.into()), &mut endpoint)?;
            }
            "--tcp" => {
                let addr = value("--tcp")?;
                set_endpoint(Endpoint::Tcp(addr), &mut endpoint)?;
            }
            "--workers" => config.workers = parse_num(&value("--workers")?, "--workers")?,
            "--queue-cap" => config.queue_cap = parse_num(&value("--queue-cap")?, "--queue-cap")?,
            "--cache-cap" => config.cache_cap = parse_num(&value("--cache-cap")?, "--cache-cap")?,
            "--cache-dir" => config.cache_dir = Some(value("--cache-dir")?.into()),
            "--timeout-ms" => {
                let ms: u64 = parse_num(&value("--timeout-ms")?, "--timeout-ms")?;
                config.request_timeout = std::time::Duration::from_millis(ms);
            }
            "--fleet" => {
                let (shard_id, shard_count) = parse_fleet(&value("--fleet")?)?;
                config.shard_id = shard_id;
                config.shard_count = shard_count;
                fleet = true;
            }
            "--peers" => {
                let list = value("--peers")?;
                cluster.seeds = Some(if list.is_empty() || list == "none" {
                    Vec::new()
                } else {
                    list.split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect()
                });
            }
            "--replicas" => {
                let r: u32 = parse_num(&value("--replicas")?, "--replicas")?;
                if r == 0 {
                    return Err("--replicas must be at least 1".into());
                }
                cluster.replicas = Some(r);
            }
            "--heartbeat-ms" => {
                let ms: u64 = parse_num(&value("--heartbeat-ms")?, "--heartbeat-ms")?;
                if ms == 0 {
                    return Err("--heartbeat-ms must be at least 1".into());
                }
                cluster.heartbeat_ms = Some(ms);
            }
            "--no-auto-rebalance" => cluster.auto_rebalance = false,
            "--net-threaded" => config.net_mode = NetMode::Threaded,
            "--budget" => {
                config.budget = biv::core_analysis::Budget::parse(&value("--budget")?)?;
            }
            "--faults" => install_faults(&value("--faults")?)?,
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    config.endpoint = endpoint.unwrap_or(Endpoint::Unix(default_socket().into()));
    if cluster.seeds.is_none()
        && (fleet
            || cluster.replicas.is_some()
            || cluster.heartbeat_ms.is_some()
            || !cluster.auto_rebalance)
    {
        return Err(
            "--fleet / --replicas / --heartbeat-ms / --no-auto-rebalance need --peers (use `--peers none` for the first shard)"
                .into(),
        );
    }
    Ok((config, cluster))
}

/// Arms deterministic fault injection for this daemon. Only meaningful
/// in builds with the `fault-injection` feature; production binaries
/// carry no injection code and refuse the flag instead of silently
/// ignoring it.
#[cfg(feature = "fault-injection")]
fn install_faults(spec: &str) -> Result<(), String> {
    biv_faults::install_from_spec(spec)
}

#[cfg(not(feature = "fault-injection"))]
fn install_faults(_spec: &str) -> Result<(), String> {
    Err("this binary was built without fault injection; rebuild with `--features fault-injection` to use --faults".into())
}

fn parse_num<T: std::str::FromStr>(value: &str, flag: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("invalid {flag} value `{value}`"))
}

/// Parses `shard=K/N` into `(K, N)`, requiring `K < N` and `N > 0`.
fn parse_fleet(spec: &str) -> Result<(u32, u32), String> {
    let bad = || format!("invalid --fleet value `{spec}` (expected shard=K/N with K < N)");
    let rest = spec.strip_prefix("shard=").ok_or_else(bad)?;
    let (k, n) = rest.split_once('/').ok_or_else(bad)?;
    let shard_id: u32 = k.parse().map_err(|_| bad())?;
    let shard_count: u32 = n.parse().map_err(|_| bad())?;
    if shard_count == 0 || shard_id >= shard_count {
        return Err(bad());
    }
    Ok((shard_id, shard_count))
}

fn main() -> ExitCode {
    let (config, cluster) = match parse_args() {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let (shard_id, shard_count) = (config.shard_id, config.shard_count);
    let cache_dir = config.cache_dir.clone();
    // Install the handler before bind: once the socket exists a
    // supervisor may SIGTERM at any moment, and the default action
    // would skip the drain.
    let shutdown = signal::install();
    let mut server = match Server::bind(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("bivd: cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    if shard_count > 1 {
        eprintln!(
            "bivd: listening on {} ({} workers, shard {shard_id}/{shard_count})",
            server.bound_endpoint(),
            server.workers()
        );
    } else {
        eprintln!(
            "bivd: listening on {} ({} workers)",
            server.bound_endpoint(),
            server.workers()
        );
    }
    let mut agent_threads = Vec::new();
    if let Some(seeds) = cluster.seeds {
        let mut agent = AgentConfig::new(shard_id, shard_count, server.bound_endpoint());
        agent.seeds = seeds;
        agent.cache_dir = cache_dir;
        agent.auto_rebalance = cluster.auto_rebalance;
        if let Some(r) = cluster.replicas {
            agent.replication = r;
        }
        if let Some(ms) = cluster.heartbeat_ms {
            agent = agent.with_heartbeat(Duration::from_millis(ms));
        }
        eprintln!(
            "bivd: cluster agent up (R={}, heartbeat {}ms, {} seed(s))",
            agent.replication,
            agent.heartbeat.as_millis(),
            agent.seeds.len()
        );
        let (hook, threads) = ClusterAgent::spawn(agent, shutdown);
        server.install_cluster(hook);
        agent_threads = threads;
    }
    let outcome = server.run(shutdown);
    for thread in agent_threads {
        let _ = thread.join();
    }
    match outcome {
        Ok(summary) => {
            eprintln!("bivd: drained: {summary}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bivd: serve error: {e}");
            ExitCode::FAILURE
        }
    }
}
