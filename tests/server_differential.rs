//! The serving contract, differentially: N concurrent clients
//! submitting the workload corpus through a live `bivd` must each
//! receive exactly the bytes a sequential local `bivc` prints, and the
//! shared cache's accounting must stay exact under contention
//! (`hits + misses == functions submitted`).

#![cfg(unix)]

// These tests use only a slice of the shared helpers.
#[allow(dead_code)]
mod common;

use biv::server::{Client, Endpoint, Request, Response};
use common::{bivc, bivc_stdout, scratch_dir, wait_for_accepted, write_corpus_files, Daemon};

#[test]
fn concurrent_clients_match_sequential_local_output() {
    let dir = scratch_dir("differential");
    write_corpus_files(&dir, &[1, 2, 3], 12);
    let dir_arg = dir.display().to_string();
    let reference = bivc_stdout(&["--batch", &dir_arg]);

    let daemon = Daemon::spawn("differential", &["--workers", "4"]);
    let mut total_clients = 0u64;
    for clients in [1usize, 2, 8] {
        total_clients += clients as u64;
        let outputs: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|_| {
                    let remote = daemon.remote_arg();
                    let dir_arg = &dir_arg;
                    scope.spawn(move || bivc(&["--remote", &remote, dir_arg]))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (i, out) in outputs.iter().enumerate() {
            assert!(
                out.status.success(),
                "client {i}/{clients} failed:\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert_eq!(
                reference,
                String::from_utf8_lossy(&out.stdout),
                "client {i} of {clients} diverged from the local run"
            );
        }
    }

    // The shared cache's books balance under contention: every function
    // ever submitted was counted as exactly one hit or one miss.
    let endpoint = Endpoint::parse(&daemon.remote_arg());
    let mut stats_client = Client::connect(&endpoint).expect("connect for stats");
    let Response::Stats(stats) = stats_client.request(&Request::Stats).expect("stats") else {
        panic!("expected a stats response");
    };
    let get = |path: &[&str]| {
        path.iter()
            .try_fold(&stats, |node, key| node.get(key))
            .and_then(|v| v.as_i64())
            .unwrap_or_else(|| panic!("stats missing {path:?} in {}", stats.to_text()))
    };
    let hits = get(&["cache", "hits"]);
    let misses = get(&["cache", "misses"]);
    let functions = get(&["requests", "functions"]);
    assert_eq!(
        hits + misses,
        functions,
        "cache accounting drifted under contention: {} + {} != {}",
        hits,
        misses,
        functions
    );
    assert_eq!(get(&["requests", "analyze_ok"]), total_clients as i64);
    assert!(
        misses <= functions / total_clients as i64,
        "at most one cold pass of distinct structures should miss"
    );

    daemon.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sigterm_under_concurrent_load_answers_every_accepted_request() {
    let dir = scratch_dir("drain-load");
    write_corpus_files(&dir, &[7, 8], 32);
    let dir_arg = dir.display().to_string();
    let reference = bivc_stdout(&["--batch", &dir_arg]);

    let daemon = Daemon::spawn("drain-load", &["--workers", "2"]);
    let outputs: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let remote = daemon.remote_arg();
                let dir_arg = &dir_arg;
                scope.spawn(move || bivc(&["--remote", &remote, dir_arg]))
            })
            .collect();
        // Wait until every client's request is accepted (the drain
        // contract's precondition), then pull the plug mid-flight.
        wait_for_accepted(&daemon, 4);
        daemon.sigterm();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let (ok, stderr) = daemon.wait();
    assert!(ok, "bivd exited uncleanly:\n{stderr}");
    assert!(
        stderr.contains("drained"),
        "missing drain summary:\n{stderr}"
    );

    for (i, out) in outputs.iter().enumerate() {
        assert!(
            out.status.success(),
            "client {i} was dropped during drain:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            reference,
            String::from_utf8_lossy(&out.stdout),
            "client {i}'s drained response diverged"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
