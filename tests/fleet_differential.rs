//! The fleet serving contract, differentially: a 3-shard `bivd` fleet
//! reached through `bivc --fleet` must print exactly the bytes a
//! sequential local `bivc --batch` prints — under concurrent clients,
//! under either network front-end (`--net-threaded` vs the default
//! epoll loop), and regardless of how the router fans batches out.
//! Also: the epoll front-end must keep serving with ≥10k idle
//! connections parked on it.

#![cfg(unix)]

// The fleet tests use only a slice of the shared helpers.
#[allow(dead_code)]
mod common;

use std::io::BufRead;
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use biv::server::{Client, Endpoint, Request, Response};
use common::{await_alive, bivc, bivc_stdout, scratch_dir, write_corpus_files};

/// Spawns one `bivd --tcp 127.0.0.1:0 --fleet shard=K/N --peers PEERS`
/// member process and returns the child plus the endpoint parsed from
/// its banner.
fn spawn_tcp_shard(shard: u32, shard_count: u32, peers: &str, extra: &[&str]) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_bivd"))
        .args([
            "--tcp",
            "127.0.0.1:0",
            "--fleet",
            &format!("shard={shard}/{shard_count}"),
            "--workers",
            "2",
            "--peers",
            peers,
            "--heartbeat-ms",
            "50",
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

/// Starts an N-member fleet — shard 0 seeds it, the rest join through
/// shard 0 — and waits until shard 0's view shows every member alive.
fn spawn_fleet(shard_count: u32, extra: &[&str]) -> (Vec<Child>, String) {
    let mut children = Vec::new();
    let mut endpoints: Vec<String> = Vec::new();
    for shard in 0..shard_count {
        let peers = endpoints.first().map_or("none", String::as_str);
        let (child, endpoint) = spawn_tcp_shard(shard, shard_count, peers, extra);
        children.push(child);
        endpoints.push(endpoint);
    }
    await_alive(&endpoints[0], shard_count as usize, Duration::from_secs(10));
    (children, endpoints.join(","))
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
fn three_shard_fleet_matches_local_bytes_under_concurrent_clients() {
    let dir = scratch_dir("fleet-diff");
    write_corpus_files(&dir, &[11, 12, 13, 14], 10);
    let dir_arg = dir.display().to_string();
    let reference = bivc_stdout(&["--batch", &dir_arg]);

    let (children, endpoints) = spawn_fleet(3, &[]);
    for clients in [1usize, 2, 8] {
        let outputs: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|_| {
                    let endpoints = &endpoints;
                    let dir_arg = &dir_arg;
                    scope.spawn(move || bivc(&["--fleet", endpoints, dir_arg]))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (i, out) in outputs.iter().enumerate() {
            assert!(
                out.status.success(),
                "fleet client {i}/{clients} failed:\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert_eq!(
                reference,
                String::from_utf8_lossy(&out.stdout),
                "fleet client {i} of {clients} diverged from the local run"
            );
        }
    }
    drain_fleet(children, &endpoints);
}

/// Shards running the portable thread-per-connection front-end must be
/// indistinguishable on the wire from the default epoll front-end.
#[test]
fn net_threaded_fleet_matches_local_bytes() {
    let dir = scratch_dir("fleet-threaded");
    write_corpus_files(&dir, &[21, 22], 8);
    let dir_arg = dir.display().to_string();
    let reference = bivc_stdout(&["--batch", &dir_arg]);

    let (children, endpoints) = spawn_fleet(3, &["--net-threaded"]);
    let fleet = bivc_stdout(&["--fleet", &endpoints, &dir_arg]);
    assert_eq!(reference, fleet, "--net-threaded fleet diverged");
    drain_fleet(children, &endpoints);
}

/// The epoll front-end parks idle connections without dedicating a
/// thread to each, so ten thousand of them must not impair service.
/// Skipped (with a note) if the environment's fd limit can't hold that
/// many sockets, unless BIV_REQUIRE_10K=1 insists.
#[cfg(target_os = "linux")]
#[test]
fn epoll_front_end_serves_with_ten_thousand_idle_connections() {
    let (mut child, endpoint) = spawn_tcp_shard(0, 1, "none", &[]);
    let addr = endpoint.strip_prefix("tcp:").expect("tcp endpoint");

    let mut idle: Vec<TcpStream> = Vec::with_capacity(10_050);
    let mut hit_limit = None;
    for i in 0..10_050 {
        match TcpStream::connect(addr) {
            Ok(conn) => idle.push(conn),
            Err(e) => {
                hit_limit = Some((i, e));
                break;
            }
        }
    }
    if let Some((i, e)) = hit_limit {
        let required = std::env::var("BIV_REQUIRE_10K").is_ok_and(|v| v == "1");
        assert!(
            !required,
            "BIV_REQUIRE_10K=1 but connection {i} failed: {e}"
        );
        eprintln!("note: stopping at {i} idle connections ({e}); raise ulimit -n to test 10k");
    }

    // With the idle herd parked, a real client still gets answered
    // promptly.
    let mut client = Client::connect(&Endpoint::parse(&endpoint)).expect("connect under load");
    assert_eq!(
        client.request(&Request::Ping).expect("ping under load"),
        Response::Pong
    );
    assert!(idle.len() >= 1_000, "environment too constrained to test");

    drop(client);
    drop(idle);
    // Give the event loop a beat to reap the closed herd, then drain.
    std::thread::sleep(Duration::from_millis(50));
    let mut client = Client::connect(&Endpoint::parse(&endpoint)).expect("reconnect");
    assert_eq!(
        client.request(&Request::Shutdown).expect("shutdown"),
        Response::ShutdownAck
    );
    let status = child.wait().expect("bivd exits");
    assert!(status.success(), "daemon exited uncleanly: {status}");
}
