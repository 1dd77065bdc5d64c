//! End-to-end tests of the `bivd` daemon through its real binaries:
//! round-trips over a Unix socket, remote/local byte identity, per-file
//! error propagation, cache-capacity replay, and graceful SIGTERM
//! shutdown.

#![cfg(unix)]

// These tests use only a slice of the shared helpers.
#[allow(dead_code)]
mod common;

use common::{bivc, bivc_stdout, scratch_dir, wait_for_accepted, write_corpus_files, Daemon};

#[test]
fn remote_round_trip_matches_local_bytes() {
    let dir = scratch_dir("server-roundtrip");
    write_corpus_files(&dir, &[11, 22], 8);
    let dir_arg = dir.display().to_string();

    let local = bivc_stdout(&["--batch", &dir_arg]);
    let daemon = Daemon::spawn("roundtrip", &["--workers", "2"]);
    let remote = bivc_stdout(&["--remote", &daemon.remote_arg(), &dir_arg]);
    assert_eq!(local, remote, "remote output must be byte-identical");

    // A second submission is served from the warm cache — same bytes.
    let warm = bivc_stdout(&["--remote", &daemon.remote_arg(), &dir_arg]);
    assert_eq!(local, warm, "cache warmth must not change the bytes");

    daemon.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn remote_reports_per_file_errors_and_analyzes_the_rest() {
    let dir = scratch_dir("server-errors");
    write_corpus_files(&dir, &[33], 4);
    std::fs::write(dir.join("corpus_z_bad.biv"), "func broken {\n").unwrap();
    let dir_arg = dir.display().to_string();

    let daemon = Daemon::spawn("errors", &["--workers", "1"]);
    let out = bivc(&["--remote", &daemon.remote_arg(), &dir_arg]);
    assert!(
        !out.status.success(),
        "a bad file must make the exit code nonzero"
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stdout.contains("corpus_0.biv"),
        "good file is still analyzed:\n{stdout}"
    );
    assert!(
        !stdout.contains("corpus_z_bad.biv"),
        "failed file must not get an output header:\n{stdout}"
    );
    assert!(
        stderr.contains("corpus_z_bad.biv") && stderr.contains("parse error"),
        "stderr names the failing file:\n{stderr}"
    );

    // The same inputs fail identically in local batch mode.
    let local = bivc(&["--batch", &dir_arg]);
    assert!(!local.status.success());
    assert_eq!(stdout, String::from_utf8(local.stdout).unwrap());

    daemon.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cache_cap_is_replayed_in_remote_stats_line() {
    let dir = scratch_dir("server-cachecap");
    write_corpus_files(&dir, &[44, 55], 6);
    let dir_arg = dir.display().to_string();

    let daemon = Daemon::spawn("cachecap", &["--workers", "2"]);
    for cap in ["1", "2", "4096"] {
        let local = bivc_stdout(&["--batch", "--cache-cap", cap, &dir_arg]);
        let remote = bivc_stdout(&[
            "--remote",
            &daemon.remote_arg(),
            "--cache-cap",
            cap,
            &dir_arg,
        ]);
        assert_eq!(
            local, remote,
            "--cache-cap {cap} must render identically local and remote"
        );
    }
    daemon.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sigterm_drains_in_flight_requests() {
    let dir = scratch_dir("server-drain");
    // One worker and a deliberately large, mostly-distinct corpus keep
    // the request in flight long enough for SIGTERM to land mid-work.
    write_corpus_files(&dir, &[66, 77], 48);
    let dir_arg = dir.display().to_string();
    let local = bivc_stdout(&["--batch", &dir_arg]);

    let daemon = Daemon::spawn("drain", &["--workers", "1"]);
    let remote_arg = daemon.remote_arg();
    let dir_arg_clone = dir_arg.clone();
    let client = std::thread::spawn(move || bivc(&["--remote", &remote_arg, &dir_arg_clone]));
    wait_for_accepted(&daemon, 1);
    let stderr = daemon.shutdown();

    let out = client.join().expect("client thread");
    assert!(
        out.status.success(),
        "an accepted request must be answered through drain:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        local,
        String::from_utf8(out.stdout).unwrap(),
        "drained response must still be byte-identical"
    );
    assert!(stderr.contains("1 analyzed"), "drain summary:\n{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn socket_is_unlinked_after_drain() {
    let daemon = Daemon::spawn("unlink", &[]);
    let socket = daemon.socket.clone();
    assert!(socket.exists());
    daemon.shutdown();
    assert!(
        !socket.exists(),
        "drain must remove the socket file so restarts bind cleanly"
    );
}

#[test]
fn connecting_to_a_dead_socket_fails_cleanly() {
    let out = bivc(&[
        "--remote",
        "/nonexistent/bivd.sock",
        "tests/golden/fig1.biv",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cannot connect"),
        "expected a connection error, got:\n{stderr}"
    );
}

/// A fleet member always runs the cluster agent: `--fleet` without
/// `--peers` is refused before the daemon binds anything.
#[test]
fn fleet_shard_without_peers_is_refused() {
    use std::io::Read;
    use std::time::{Duration, Instant};

    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_bivd"))
        .args(["--tcp", "127.0.0.1:0", "--fleet", "shard=0/3"])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("bivd spawns");
    // A daemon that accepted the flags would serve forever; give it a
    // bounded time to exit, then kill it and fail.
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll bivd") {
            break Some(status);
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            break None;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("stderr piped")
        .read_to_string(&mut stderr)
        .expect("stderr reads");
    let status = status.unwrap_or_else(|| panic!("bivd kept running:\n{stderr}"));
    assert_eq!(status.code(), Some(1), "stderr:\n{stderr}");
    assert!(stderr.contains("--peers none"), "hint missing:\n{stderr}");
    assert!(!stderr.contains("listening on"), "bound anyway:\n{stderr}");
}

/// A router can only bootstrap from a membership view: a seed without
/// a cluster agent fails `Router::new` with a `--peers` hint.
#[test]
fn router_refuses_a_seed_without_a_cluster_agent() {
    use std::sync::atomic::AtomicBool;

    use biv::fleet::{FleetConfig, Router};
    use biv::server::{Client, Endpoint, Request, Server, ServerConfig};

    let mut config = ServerConfig::new(Endpoint::Tcp("127.0.0.1:0".into()));
    config.workers = 1;
    let server = Server::bind(config).expect("bind 127.0.0.1:0");
    let endpoint = server.bound_endpoint();
    let flag: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
    let handle = std::thread::spawn(move || {
        server.run(flag).expect("server run");
    });

    let err = Router::new(FleetConfig::new(vec![endpoint.clone()]))
        .expect_err("an agent-less seed cannot bootstrap a router");
    assert!(err.contains("--peers"), "{err}");

    let mut client = Client::connect(&Endpoint::parse(&endpoint)).expect("connect");
    client.request(&Request::Shutdown).expect("shutdown");
    handle.join().expect("clean drain");
}
