//! Shared helpers for the CLI and server integration tests: running
//! `bivc`, managing a scratch `bivd` daemon, and writing corpus files.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

use biv::server::{Client, Endpoint, Json, Request, Response};

/// Runs `bivc` with the given args from the crate root.
pub fn bivc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bivc"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .env_remove("BIV_JOBS")
        .output()
        .expect("bivc runs")
}

/// Runs `bivc` and returns stdout, asserting success.
pub fn bivc_stdout(args: &[&str]) -> String {
    let out = bivc(args);
    assert!(
        out.status.success(),
        "bivc {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("bivc output is UTF-8")
}

/// A fresh scratch directory under the target-adjacent temp dir.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("biv-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Writes a workload corpus as numbered `.biv` files in `dir` and
/// returns the file paths in analysis order.
pub fn write_corpus_files(dir: &Path, seeds: &[u64], functions: usize) -> Vec<PathBuf> {
    seeds
        .iter()
        .enumerate()
        .map(|(i, &seed)| {
            let spec = biv::workload::CorpusSpec {
                functions,
                seed,
                ..Default::default()
            };
            let corpus = biv::workload::generate_corpus(&spec);
            let path = dir.join(format!("corpus_{i}.biv"));
            std::fs::write(&path, &corpus.source).expect("write corpus file");
            path
        })
        .collect()
}

/// A `bivd` child process on a scratch Unix socket, killed on drop if
/// the test didn't shut it down.
pub struct Daemon {
    child: Option<Child>,
    pub socket: PathBuf,
}

impl Daemon {
    /// Spawns `bivd --socket <scratch> <extra...>` and waits until the
    /// socket accepts connections.
    pub fn spawn(tag: &str, extra: &[&str]) -> Daemon {
        let socket =
            std::env::temp_dir().join(format!("bivd-test-{tag}-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&socket);
        let child = Command::new(env!("CARGO_BIN_EXE_bivd"))
            .arg("--socket")
            .arg(&socket)
            .args(extra)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("bivd spawns");
        let daemon = Daemon {
            child: Some(child),
            socket,
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            #[cfg(unix)]
            let up = std::os::unix::net::UnixStream::connect(&daemon.socket).is_ok();
            #[cfg(not(unix))]
            let up = true;
            if up {
                return daemon;
            }
            assert!(
                Instant::now() < deadline,
                "bivd did not start listening on {}",
                daemon.socket.display()
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// The socket path as a `--remote` argument.
    pub fn remote_arg(&self) -> String {
        self.socket.display().to_string()
    }

    /// Sends SIGTERM without waiting.
    pub fn sigterm(&self) {
        let pid = self.child.as_ref().expect("daemon is running").id();
        let status = Command::new("kill")
            .args(["-TERM", &pid.to_string()])
            .status()
            .expect("kill runs");
        assert!(status.success(), "kill -TERM {pid} failed");
    }

    /// Waits for the daemon to exit and returns (success, stderr).
    pub fn wait(mut self) -> (bool, String) {
        let child = self.child.take().expect("daemon is running");
        let out = child.wait_with_output().expect("bivd exits");
        (
            out.status.success(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    }

    /// SIGTERM, then wait; asserts a clean drain.
    pub fn shutdown(self) -> String {
        self.sigterm();
        let (ok, stderr) = self.wait();
        assert!(ok, "bivd exited uncleanly:\n{stderr}");
        assert!(
            stderr.contains("drained"),
            "bivd stderr missing drain summary:\n{stderr}"
        );
        stderr
    }
}

/// Polls the daemon's `stats` endpoint until at least `n` analyze
/// requests have been accepted into its queue — the point after which
/// the drain contract guarantees they are answered.
pub fn wait_for_accepted(daemon: &Daemon, n: i64) {
    let endpoint = Endpoint::Unix(daemon.socket.clone());
    let mut client = Client::connect(&endpoint).expect("connect for stats polling");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let Response::Stats(stats) = client.request(&Request::Stats).expect("stats") else {
            panic!("expected a stats response");
        };
        let accepted = stats
            .get("requests")
            .and_then(|r| r.get("analyze_accepted"))
            .and_then(|v| v.as_i64())
            .expect("stats carries requests.analyze_accepted");
        if accepted >= n {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "only {accepted}/{n} analyze requests were accepted"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// One integer counter out of a `stats` JSON tree, by key path.
pub fn stat(stats: &Json, path: &[&str]) -> i64 {
    path.iter()
        .try_fold(stats, |node, key| node.get(key))
        .and_then(|v| v.as_i64())
        .unwrap_or_else(|| panic!("stats missing {path:?} in {}", stats.to_text()))
}

/// One shard's membership view, if it answers within half a second.
pub fn fetch_view(endpoint: &str) -> Option<biv::fleet::View> {
    let mut client =
        Client::connect_timeout(&Endpoint::parse(endpoint), Duration::from_millis(500)).ok()?;
    match client.request(&Request::Members).ok()? {
        Response::Members { view } | Response::Gossip { view } => {
            biv::fleet::View::from_json(&view).ok()
        }
        _ => None,
    }
}

/// Polls one seed until its view shows `want` alive members (gossip
/// convergence after joins/rejoins), panicking past the deadline.
pub fn await_alive(seed: &str, want: usize, deadline: Duration) -> biv::fleet::View {
    let until = Instant::now() + deadline;
    loop {
        if let Some(view) = fetch_view(seed) {
            let alive = view
                .members
                .iter()
                .filter(|m| m.state.as_str() == "alive")
                .count();
            if alive == want {
                return view;
            }
        }
        assert!(
            Instant::now() < until,
            "membership did not converge to {want} alive member(s) via {seed} within {deadline:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Polls until the R-way write-through of the last batch has fully
/// landed: every shard's queue is empty **and** at least
/// `expect_entries` summaries were actually received by replicas
/// fleet-wide. (`replication_lag == 0` alone is not enough — a batch
/// popped from the queue can still be in flight on the sender thread.)
pub fn await_replication_settled(endpoints: &[String], expect_entries: i64, deadline: Duration) {
    let until = Instant::now() + deadline;
    loop {
        let mut lag = 0i64;
        let mut received = 0i64;
        let mut dropped = 0i64;
        let mut all_answered = true;
        for endpoint in endpoints {
            let Some(stats) =
                Client::connect_timeout(&Endpoint::parse(endpoint), Duration::from_millis(500))
                    .ok()
                    .and_then(|mut c| c.request(&Request::Stats).ok())
                    .and_then(|r| match r {
                        Response::Stats(stats) => Some(stats),
                        _ => None,
                    })
            else {
                all_answered = false;
                break;
            };
            lag += stat(&stats, &["replication", "replication_lag"]);
            received += stat(&stats, &["requests", "replica_received"]);
            dropped += stat(&stats, &["replication", "dropped"]);
        }
        if all_answered && lag == 0 && received >= expect_entries {
            assert_eq!(
                dropped, 0,
                "no replication batch may be dropped in this test"
            );
            return;
        }
        assert!(
            Instant::now() < until,
            "replication did not settle within {deadline:?} (lag {lag}, received {received} of {expect_entries})"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// What a local `bivc` batch run prints for `files` — the bytes a fleet
/// batch must reproduce regardless of faults and shard deaths.
pub fn local_reference(files: &[biv::server::AnalyzeFile]) -> String {
    use biv::core_analysis::{analyze_batch, cold_batch_stats, render_grouped, BatchOptions};
    let mut funcs = Vec::new();
    let mut ranges = Vec::new();
    for f in files {
        let program = biv::ir::parser::parse_program(&f.source).expect("corpus parses");
        ranges.push((f.path.clone(), program.functions.len()));
        funcs.extend(program.functions);
    }
    let opts = BatchOptions::default();
    let report = analyze_batch(&funcs, &opts);
    let hashes: Vec<u64> = report.functions.iter().map(|f| f.hash).collect();
    let cold = cold_batch_stats(&hashes, opts.cache_capacity);
    render_grouped(&ranges, &report.functions, &cold)
}
