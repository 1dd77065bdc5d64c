//! Malformed-frame corpus: a live server fed truncated prefixes,
//! oversize lengths, invalid UTF-8, deeply nested JSON, and binary
//! garbage must answer each with a protocol error or a clean close —
//! and must never panic or stop serving well-formed clients.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::AtomicBool;
use std::time::Duration;

// These tests use only a slice of the shared helpers.
#[allow(dead_code)]
mod common;

use biv::fleet::{AgentConfig, ClusterAgent, FleetConfig, Member, MemberState, Router, View};
use biv::server::frame::{read_frame, write_frame, MAX_FRAME_BYTES};
use biv::server::{AnalyzeFile, Client, Endpoint, Request, Response, Server, ServerConfig};
use common::local_reference;

/// An in-process server on a loopback port; returns the dial address
/// and the join handle (resolved by a `shutdown` request).
fn spawn_server() -> (String, std::thread::JoinHandle<()>) {
    let mut config = ServerConfig::new(Endpoint::Tcp("127.0.0.1:0".into()));
    config.workers = 1;
    // Small cap so the oversize probe is cheap.
    config.max_frame_bytes = 1 << 20;
    let server = Server::bind(config).expect("bind 127.0.0.1:0");
    let endpoint = server.bound_endpoint();
    let flag: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
    let handle = std::thread::spawn(move || {
        server.run(flag).expect("server run");
    });
    (endpoint, handle)
}

fn dial(endpoint: &str) -> TcpStream {
    let addr = endpoint.strip_prefix("tcp:").expect("tcp endpoint");
    let conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    conn
}

/// Expects either a framed `Response::Error` or a clean close — the two
/// legal outcomes for garbage input.
fn error_or_close(conn: &mut TcpStream, what: &str) {
    match read_frame(conn, MAX_FRAME_BYTES) {
        Ok(Some(payload)) => {
            let response = Response::decode(&payload)
                .unwrap_or_else(|e| panic!("{what}: undecodable response: {e}"));
            let Response::Error { kind, .. } = response else {
                panic!("{what}: expected an error response, got {response:?}");
            };
            assert_eq!(kind, "bad-request", "{what}");
        }
        Ok(None) => {} // clean close
        Err(e) => {
            // A reset after the server aborts the connection is as
            // acceptable as a clean FIN; a timeout (hang) is not.
            assert_ne!(
                e.kind(),
                std::io::ErrorKind::WouldBlock,
                "{what}: server hung instead of answering or closing"
            );
        }
    }
}

/// The server survived: a fresh well-formed client still gets served.
fn assert_alive(endpoint: &str) {
    let mut client = Client::connect(&Endpoint::parse(endpoint)).expect("reconnect");
    assert_eq!(
        client.request(&Request::Ping).expect("ping"),
        Response::Pong
    );
}

/// A fake shard: accepts connections and answers every frame with
/// `reply(frame_payload)` bytes written raw (so tests can send
/// well-formed responses, wrong responses, or truncated garbage).
/// Stops when the returned flag is set and the port is poked.
fn spawn_fake_shard(
    reply: fn(&[u8]) -> Vec<u8>,
) -> (
    String,
    std::sync::Arc<AtomicBool>,
    std::thread::JoinHandle<()>,
) {
    use std::sync::atomic::Ordering;
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind fake shard");
    let endpoint = format!("tcp:{}", listener.local_addr().unwrap());
    let stop = std::sync::Arc::new(AtomicBool::new(false));
    let flag = stop.clone();
    let handle = std::thread::spawn(move || {
        for conn in listener.incoming() {
            if flag.load(Ordering::SeqCst) {
                return;
            }
            let Ok(mut conn) = conn else { continue };
            // One exchange per connection, then close: a truncated
            // reply followed by a held-open socket would hang a client
            // with no read timeout, and the router treats EOF as the
            // shard's answer ending — which is exactly the failure
            // these tests inject.
            if let Ok(Some(payload)) = read_frame(&mut conn, MAX_FRAME_BYTES) {
                let _ = conn.write_all(&reply(&payload));
            }
        }
    });
    (endpoint, stop, handle)
}

/// Frames `response` exactly as a well-behaved server would.
fn framed(response: &Response) -> Vec<u8> {
    let payload = response.encode();
    let mut out = (payload.len() as u32).to_be_bytes().to_vec();
    out.extend_from_slice(&payload);
    out
}

fn stop_fake(endpoint: &str, stop: &AtomicBool, handle: std::thread::JoinHandle<()>) {
    use std::sync::atomic::Ordering;
    stop.store(true, Ordering::SeqCst);
    // Poke the accept loop awake so it observes the flag.
    let _ = TcpStream::connect(endpoint.strip_prefix("tcp:").unwrap());
    handle.join().unwrap();
}

/// A real fleet member in-process: shard `shard_id` of `shard_count`
/// with a cluster agent attached (no seeds, R=1 so it pushes nothing
/// to the fake peers these tests pair it with).
fn spawn_member_shard(shard_id: u32, shard_count: u32) -> (String, std::thread::JoinHandle<()>) {
    let mut config = ServerConfig::new(Endpoint::Tcp("127.0.0.1:0".into()));
    config.workers = 1;
    config.shard_id = shard_id;
    config.shard_count = shard_count;
    let mut server = Server::bind(config).expect("bind");
    let endpoint = server.bound_endpoint();
    let flag: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
    let mut agent = AgentConfig::new(shard_id, shard_count, endpoint.clone());
    agent.replication = 1;
    let (hook, _threads) = ClusterAgent::spawn(agent, flag);
    server.install_cluster(hook);
    let handle = std::thread::spawn(move || {
        server.run(flag).expect("server run");
    });
    (endpoint, handle)
}

/// A router over `endpoints` as a converged R=2 view describes them:
/// shard `k` alive at `endpoints[k]`. A fake shard cannot gossip, so
/// the tests hand the router the view a seed would have answered.
fn member_router(endpoints: Vec<String>) -> Router {
    let members = endpoints
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
        shard_count: endpoints.len() as u32,
        replication: 2,
        members,
    };
    Router::from_members(FleetConfig::new(endpoints), &view).expect("router")
}

/// Fleet malformed frames, case 1 — truncated stats reply: the
/// aggregator must mark that shard unreachable and still aggregate the
/// healthy one, never hang or fail the whole poll.
#[test]
fn truncated_shard_stats_reply_fails_the_shard_not_the_aggregate() {
    let (real_endpoint, real_handle) = spawn_member_shard(0, 2);
    // Promise 64 payload bytes, deliver 5, close.
    let (fake_endpoint, stop, fake_handle) = spawn_fake_shard(|_| {
        let mut out = 64u32.to_be_bytes().to_vec();
        out.extend_from_slice(b"trunc");
        out
    });

    let stats = biv::fleet::fleet_stats(&[real_endpoint.clone(), fake_endpoint.clone()])
        .expect("one healthy shard is enough to aggregate");
    let fleet = stats.get("fleet").expect("fleet section");
    assert_eq!(fleet.get("shards").unwrap().as_i64(), Some(2));
    assert_eq!(fleet.get("reachable").unwrap().as_i64(), Some(1));
    let unreachable = fleet.get("unreachable").unwrap();
    assert_eq!(unreachable.as_arr().map(<[_]>::len), Some(1));

    stop_fake(&fake_endpoint, &stop, fake_handle);
    let mut client = Client::connect(&Endpoint::parse(&real_endpoint)).expect("connect");
    client.request(&Request::Shutdown).expect("shutdown");
    real_handle.join().expect("clean drain");
}

/// Fleet malformed frames, case 2 — a shard that answers every analyze
/// with `wrong-shard` (its endpoint hosts some other shard now): the
/// router must mark it dead and re-route its files within their
/// replica set, so the healthy shard serves the whole batch with the
/// exact local bytes.
#[test]
fn wrong_shard_answer_reroutes_within_the_replica_set() {
    let (real_endpoint, real_handle) = spawn_member_shard(0, 2);
    let (fake_endpoint, stop, fake_handle) = spawn_fake_shard(|_| {
        framed(&Response::Error {
            kind: "wrong-shard".into(),
            message: "this server is shard 7/8, not 1/2".into(),
        })
    });

    let files: Vec<AnalyzeFile> = (0..12)
        .map(|i| AnalyzeFile {
            path: format!("mem/{i}.biv"),
            source: format!("func w{i}(n) {{ L1: for i = 1 to n {{ A[i] = {i} }} }}\n"),
        })
        .collect();
    let mut router = member_router(vec![real_endpoint.clone(), fake_endpoint.clone()]);
    let report = router.analyze(files.clone()).expect("batch completes");

    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert_eq!(report.functions, files.len(), "every file served");
    assert!(
        report.dead_shards.contains(&1),
        "the wrong-shard endpoint must be marked dead, saw {:?}",
        report.dead_shards
    );
    assert_eq!(report.output, local_reference(&files));

    stop_fake(&fake_endpoint, &stop, fake_handle);
    let mut client = Client::connect(&Endpoint::parse(&real_endpoint)).expect("connect");
    client.request(&Request::Shutdown).expect("shutdown");
    real_handle.join().expect("clean drain");
}

/// Fleet malformed frames, case 3 — a shard whose analyze reply is a
/// truncated frame: the router treats the broken exchange as a shard
/// death and re-routes to the healthy shard, so every file is still
/// served and the bytes stay correct.
#[test]
fn truncated_analyze_reply_reroutes_to_the_healthy_shard() {
    let (real_endpoint, real_handle) = spawn_member_shard(0, 2);
    let (fake_endpoint, stop, fake_handle) = spawn_fake_shard(|_| {
        let mut out = 1000u32.to_be_bytes().to_vec();
        out.extend_from_slice(b"{\"ok\":true,\"op\":\"analyze_fl");
        out
    });

    let files: Vec<AnalyzeFile> = (0..12)
        .map(|i| AnalyzeFile {
            path: format!("mem/{i}.biv"),
            source: format!("func t{i}(n) {{ L1: for i = 1 to n {{ A[i] = {i} }} }}\n"),
        })
        .collect();
    let mut router = member_router(vec![real_endpoint.clone(), fake_endpoint.clone()]);
    let report = router.analyze(files.clone()).expect("batch completes");

    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert_eq!(report.functions, files.len(), "every file served");
    assert!(
        report.dead_shards.contains(&1),
        "the truncating shard must be marked dead, saw {:?}",
        report.dead_shards
    );

    stop_fake(&fake_endpoint, &stop, fake_handle);
    let mut client = Client::connect(&Endpoint::parse(&real_endpoint)).expect("connect");
    client.request(&Request::Shutdown).expect("shutdown");
    real_handle.join().expect("clean drain");
}

/// Fleet malformed frames, case 4 — truncated and oversized `preload`
/// and `gossip` frames against a live server: each must end in a
/// protocol error or a clean close, and the daemon must keep serving.
#[test]
fn malformed_preload_and_gossip_frames_never_kill_the_server() {
    let (endpoint, handle) = spawn_server();

    // 1. Truncated preload: the prefix promises the whole request, the
    //    sender FINs halfway through the payload.
    {
        let mut conn = dial(&endpoint);
        let payload = Request::Preload {
            dir: "/nonexistent/snapshot".into(),
        }
        .encode();
        conn.write_all(&(payload.len() as u32).to_be_bytes())
            .unwrap();
        conn.write_all(&payload[..payload.len() / 2]).unwrap();
        drop(conn);
    }
    assert_alive(&endpoint);

    // 2. Oversized preload: a length prefix beyond the server's frame
    //    cap (1 MiB here) must close the connection before allocation.
    {
        let mut conn = dial(&endpoint);
        conn.write_all(&(8u32 << 20).to_be_bytes()).unwrap();
        conn.write_all(br#"{"op":"preload","dir":"/x"}"#).unwrap();
        let mut buf = [0u8; 16];
        let n = conn.read(&mut buf).unwrap_or(0);
        assert_eq!(n, 0, "oversize preload should close the connection");
    }
    assert_alive(&endpoint);

    // 3. Truncated gossip: FIN mid-heartbeat.
    {
        let mut conn = dial(&endpoint);
        let heartbeat = br#"{"op":"gossip","from":0,"view":{"version":1,"members":[]}}"#;
        conn.write_all(&(heartbeat.len() as u32).to_be_bytes())
            .unwrap();
        conn.write_all(&heartbeat[..heartbeat.len() / 2]).unwrap();
        drop(conn);
    }
    assert_alive(&endpoint);

    // 4. Gossip whose view is not an object at all.
    {
        let mut conn = dial(&endpoint);
        write_frame(&mut conn, br#"{"op":"gossip","view":42}"#).unwrap();
        error_or_close(&mut conn, "gossip with a non-object view");
    }
    assert_alive(&endpoint);

    // 5. Gossip without a members array inside the view.
    {
        let mut conn = dial(&endpoint);
        write_frame(&mut conn, br#"{"op":"gossip","view":{"version":9}}"#).unwrap();
        error_or_close(&mut conn, "gossip without members");
    }
    assert_alive(&endpoint);

    let mut client = Client::connect(&Endpoint::parse(&endpoint)).expect("connect");
    client.request(&Request::Shutdown).expect("shutdown");
    handle.join().expect("clean drain");
}

/// Fleet malformed frames, case 5 — well-formed gossip frames carrying
/// garbage member records against a server *with* a membership agent:
/// the agent must ignore what it cannot parse (including shard ids
/// outside the ring), answer its own well-formed view, and keep its
/// membership intact.
#[test]
fn garbage_gossip_members_cannot_poison_a_live_agent() {
    use biv::fleet::{AgentConfig, ClusterAgent, View};

    let mut config = ServerConfig::new(Endpoint::Tcp("127.0.0.1:0".into()));
    config.workers = 1;
    let mut server = Server::bind(config).expect("bind 127.0.0.1:0");
    let endpoint = server.bound_endpoint();
    let flag: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
    let agent = AgentConfig::new(0, 1, endpoint.clone());
    let (hook, _threads) = ClusterAgent::spawn(agent, flag);
    server.install_cluster(hook);
    let handle = std::thread::spawn(move || {
        server.run(flag).expect("server run");
    });

    let corpus: &[&[u8]] = &[
        // Member records of the wrong JSON type.
        br#"{"op":"gossip","view":{"version":3,"shard_count":1,"members":[1,2,3]}}"#,
        // A member record missing every required field.
        br#"{"op":"gossip","view":{"version":3,"shard_count":1,"members":[{}]}}"#,
        // A shard id far outside the ring must not grow the view.
        br#"{"op":"gossip","view":{"version":3,"shard_count":1,"members":[{"shard_id":4000000,"endpoint":"tcp:1.2.3.4:1","incarnation":9,"state":"alive"}]}}"#,
        // A claim that shard 0 (the server itself) is dead: refuted.
        br#"{"op":"gossip","view":{"version":3,"shard_count":1,"members":[{"shard_id":0,"endpoint":"tcp:1.2.3.4:1","incarnation":0,"state":"dead"}]}}"#,
    ];
    for payload in corpus {
        let mut conn = dial(&endpoint);
        write_frame(&mut conn, payload).unwrap();
        match read_frame(&mut conn, MAX_FRAME_BYTES) {
            Ok(Some(reply)) => {
                let response = Response::decode(&reply).expect("decodable reply");
                match response {
                    Response::Gossip { view } | Response::Members { view } => {
                        let view = View::from_json(&view).expect("agent answers a parsable view");
                        assert_eq!(view.members.len(), 1, "ring must not grow");
                        assert_eq!(view.members[0].shard_id, 0);
                        assert_eq!(
                            view.members[0].state.as_str(),
                            "alive",
                            "the agent must refute reports of its own death"
                        );
                    }
                    Response::Error { kind, .. } => assert_eq!(kind, "bad-request"),
                    other => panic!("unexpected reply to garbage gossip: {other:?}"),
                }
            }
            Ok(None) => {}
            Err(e) => panic!("agent hung or died on garbage gossip: {e}"),
        }
    }
    assert_alive(&endpoint);

    let mut client = Client::connect(&Endpoint::parse(&endpoint)).expect("connect");
    client.request(&Request::Shutdown).expect("shutdown");
    handle.join().expect("clean drain");
}

#[test]
fn malformed_frame_corpus_never_kills_the_server() {
    let (endpoint, handle) = spawn_server();

    // 1. Truncated length prefix: two bytes, then FIN mid-prefix.
    {
        let mut conn = dial(&endpoint);
        conn.write_all(&[0x00, 0x01]).unwrap();
        drop(conn);
    }
    assert_alive(&endpoint);

    // 2. Truncated payload: the prefix promises more than is sent.
    {
        let mut conn = dial(&endpoint);
        conn.write_all(&64u32.to_be_bytes()).unwrap();
        conn.write_all(b"only a few bytes").unwrap();
        drop(conn);
    }
    assert_alive(&endpoint);

    // 3. Oversize length prefix: must be rejected before allocation,
    //    by dropping the connection (no way to resync after it).
    {
        let mut conn = dial(&endpoint);
        conn.write_all(&u32::MAX.to_be_bytes()).unwrap();
        let mut buf = [0u8; 16];
        let n = conn.read(&mut buf).unwrap_or(0);
        assert_eq!(n, 0, "oversize frame should close the connection");
    }
    assert_alive(&endpoint);

    // 4. Invalid UTF-8 payload in a well-formed frame.
    {
        let mut conn = dial(&endpoint);
        write_frame(&mut conn, &[0xff, 0xfe, 0x80, 0x81]).unwrap();
        error_or_close(&mut conn, "invalid utf-8");
    }
    assert_alive(&endpoint);

    // 5. Deeply nested JSON: parser depth limit, not a stack overflow.
    {
        let mut conn = dial(&endpoint);
        let deep = format!("{}1{}", "[".repeat(4096), "]".repeat(4096));
        write_frame(&mut conn, deep.as_bytes()).unwrap();
        error_or_close(&mut conn, "deeply nested json");
    }
    assert_alive(&endpoint);

    // 6. Valid JSON, wrong shape.
    {
        let mut conn = dial(&endpoint);
        write_frame(&mut conn, br#"{"op":"explode","v":[1,2,3]}"#).unwrap();
        error_or_close(&mut conn, "wrong shape");
        // The same connection keeps serving after a bad request.
        write_frame(&mut conn, &Request::Ping.encode()).unwrap();
        let payload = read_frame(&mut conn, MAX_FRAME_BYTES).unwrap().unwrap();
        assert_eq!(Response::decode(&payload).unwrap(), Response::Pong);
    }

    // 7. Binary garbage payloads at assorted sizes.
    for size in [1usize, 7, 255, 4096] {
        let mut conn = dial(&endpoint);
        let garbage: Vec<u8> = (0..size).map(|i| (i * 37 + 11) as u8).collect();
        write_frame(&mut conn, &garbage).unwrap();
        error_or_close(&mut conn, "binary garbage");
    }
    assert_alive(&endpoint);

    let mut client = Client::connect(&Endpoint::parse(&endpoint)).expect("connect");
    assert_eq!(
        client.request(&Request::Shutdown).expect("shutdown"),
        Response::ShutdownAck
    );
    handle.join().expect("server thread exits cleanly");
}
