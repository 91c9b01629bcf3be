//! Live-daemon protocol tests: an in-process [`Server`] on a real Unix
//! socket, driven by raw line clients.
//!
//! Covers the robustness contract — malformed JSON, unknown ops,
//! oversized frames, bad deltas, expired deadlines — and the service
//! contract: daemon mining is bit-identical to a direct session run,
//! deltas patch warm state, eviction under a memory budget round-trips
//! through the store, and shutdown leaves no socket file behind.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use cspm_core::Miner;
use cspm_graph::dynamic::{DeltaVertex, GraphDelta};
use cspm_graph::fixtures::{labelled_path, paper_example};
use cspm_graph::{write_graph, AttributedGraph};
use cspm_serve::json::{parse, Value};
use cspm_serve::proto::delta_from_value;
use cspm_serve::server::dl_bits;
use cspm_serve::{Server, ServerConfig};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cspm-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn graph_text(g: &AttributedGraph) -> String {
    let mut buf = Vec::new();
    write_graph(g, &mut buf).unwrap();
    String::from_utf8(buf).unwrap()
}

/// One protocol client: write a request line, read a response line.
struct Client {
    reader: BufReader<UnixStream>,
}

impl Client {
    fn connect(socket: &Path) -> Client {
        // The daemon binds before spawn() returns, so no retry loop.
        let stream = UnixStream::connect(socket).expect("connect to daemon");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        Client {
            reader: BufReader::new(stream),
        }
    }

    fn send_raw(&mut self, line: &str) -> Value {
        let mut writer = self.reader.get_ref();
        writer.write_all(format!("{line}\n").as_bytes()).unwrap();
        self.read_response()
    }

    fn read_response(&mut self) -> Value {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("response line");
        assert!(line.ends_with('\n'), "daemon closed mid-response: {line:?}");
        parse(line.trim_end()).expect("response is valid JSON")
    }

    fn request(&mut self, line: &str) -> Value {
        let v = self.send_raw(line);
        assert_eq!(
            v.get("ok").and_then(Value::as_bool),
            Some(true),
            "expected ok response for {line}, got {}",
            v.to_json()
        );
        v
    }

    fn request_err(&mut self, line: &str) -> String {
        let v = self.send_raw(line);
        assert_eq!(
            v.get("ok").and_then(Value::as_bool),
            Some(false),
            "expected error response for {line}, got {}",
            v.to_json()
        );
        v.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Value::as_str)
            .expect("typed error code")
            .to_string()
    }

    fn open_with_graph(&mut self, session: &str, g: &AttributedGraph) -> Value {
        let req = Value::Obj(vec![
            ("op".into(), "open".into()),
            ("session".into(), session.into()),
            ("graph".into(), graph_text(g).into()),
        ]);
        self.request(&req.to_json())
    }

    fn mine(&mut self, session: &str) -> Value {
        self.request(&format!(r#"{{"op":"mine","session":"{session}"}}"#))
    }
}

fn one_shot_bits(g: &AttributedGraph) -> String {
    let result = Miner::new().threads(1).build().mine(g);
    dl_bits(result.final_dl)
}

#[test]
fn daemon_mining_is_bit_identical_to_one_shot() {
    let dir = temp_dir("bits");
    let server = Server::spawn(ServerConfig::new(dir.join("d.sock"))).unwrap();
    let (g, _) = paper_example();

    let mut c = Client::connect(server.socket());
    let opened = c.open_with_graph("t1", &g);
    assert_eq!(opened.get("vertices").unwrap().as_u64(), Some(5));
    assert_eq!(opened.get("warm").unwrap().as_bool(), Some(false));

    let mined = c.mine("t1");
    assert_eq!(
        mined.get("final_dl_bits").unwrap().as_str(),
        Some(one_shot_bits(&g).as_str()),
        "daemon DL must be bit-identical to a one-shot mine"
    );
    // `mine` shares `subscribe`'s path but answers in its own shape.
    assert_eq!(mined.get("op").and_then(Value::as_str), Some("mine"));
    assert!(mined.get("event").is_none(), "{}", mined.to_json());
    // Warm re-mine: same bits again.
    let again = c.mine("t1");
    assert_eq!(
        again.get("final_dl_bits").unwrap().as_str(),
        Some(one_shot_bits(&g).as_str())
    );
    server.stop().unwrap();
}

#[test]
fn deltas_patch_warm_state_bit_identically() {
    let dir = temp_dir("delta");
    let server = Server::spawn(ServerConfig::new(dir.join("d.sock"))).unwrap();
    let (g, _) = paper_example();

    let mut c = Client::connect(server.socket());
    c.open_with_graph("t1", &g);
    c.mine("t1");

    // Grow through the protocol: one new "a" vertex linked to v1 and v5.
    let resp = c.request(
        r#"{"op":"delta","session":"t1","add_vertices":[["a"]],"add_edges":[[0,{"new":0}],[{"new":0},4]]}"#,
    );
    assert!(resp.get("dirty_centers").unwrap().as_u64().unwrap() > 0);

    // Reference: the same growth applied directly.
    let mut delta = GraphDelta::new();
    let v = delta.add_vertex(["a"]);
    delta.add_edge(DeltaVertex::Existing(0), v);
    delta.add_edge(v, DeltaVertex::Existing(4));
    let grown = delta.apply(&g).unwrap().graph;

    let mined = c.mine("t1");
    assert_eq!(
        mined.get("final_dl_bits").unwrap().as_str(),
        Some(one_shot_bits(&grown).as_str()),
        "warm delta-patched mining must equal a cold mine of the grown graph"
    );
    server.stop().unwrap();
}

#[test]
fn churn_deltas_keep_a_warm_tenant_bit_identical_to_one_shot() {
    let dir = temp_dir("churn");
    let server = Server::spawn(ServerConfig::new(dir.join("d.sock"))).unwrap();
    let (g, _) = paper_example();

    let mut c = Client::connect(server.socket());
    c.open_with_graph("t1", &g);
    c.mine("t1");

    // Churn round 1: drop an edge, swap a label, grow one vertex.
    let resp = c.request(
        r#"{"op":"delta","session":"t1","remove_edges":[[0,1]],"change_labels":[[4,"b","c"]],"add_vertices":[["a"]],"add_edges":[[{"new":0},2]]}"#,
    );
    assert!(resp.get("dirty_centers").unwrap().as_u64().unwrap() > 0);
    let mut d1 = GraphDelta::new();
    d1.remove_edge(0, 1);
    d1.change_label(4, "b", "c");
    let v = d1.add_vertex(["a"]);
    d1.add_edge(v, DeltaVertex::Existing(2));
    let after1 = d1.apply(&g).unwrap().graph;
    let mined = c.mine("t1");
    assert_eq!(
        mined.get("final_dl_bits").unwrap().as_str(),
        Some(one_shot_bits(&after1).as_str()),
        "churn round 1: warm mining must equal a cold mine of the evolved graph"
    );

    // Churn round 2: detach a vertex and strip the last "b" — the
    // vanished attribute forces the session down its rebuild fallback,
    // which must be just as bit-identical.
    c.request(r#"{"op":"delta","session":"t1","remove_vertices":[1],"remove_labels":[[3,"b"]]}"#);
    let mut d2 = GraphDelta::new();
    d2.remove_vertex(1);
    d2.remove_label(3, "b");
    let after2 = d2.apply(&after1).unwrap().graph;
    let mined = c.mine("t1");
    assert_eq!(
        mined.get("final_dl_bits").unwrap().as_str(),
        Some(one_shot_bits(&after2).as_str()),
        "churn round 2: rebuild fallback must stay bit-identical"
    );
    server.stop().unwrap();
}

#[test]
fn malformed_input_gets_typed_errors_and_never_wedges_the_connection() {
    let dir = temp_dir("errors");
    let server = Server::spawn(ServerConfig::new(dir.join("d.sock"))).unwrap();
    let (g, _) = paper_example();

    let mut c = Client::connect(server.socket());
    c.open_with_graph("t1", &g);

    assert_eq!(c.request_err("this is not json"), "malformed_json");
    assert_eq!(c.request_err("[1,2,3]"), "malformed_json");
    assert_eq!(c.request_err(r#"{"op":"explode"}"#), "unknown_op");
    assert_eq!(c.request_err(r#"{"op":"mine"}"#), "missing_field");
    assert_eq!(
        c.request_err(r#"{"op":"mine","session":42}"#),
        "invalid_field"
    );
    assert_eq!(
        c.request_err(r#"{"op":"mine","session":"../etc"}"#),
        "bad_name"
    );
    assert_eq!(
        c.request_err(r#"{"op":"delta","session":"ghost","add_labels":[[0,"x"]]}"#),
        "unknown_session"
    );
    // `subscribe` refuses an unknown session exactly like `mine`: one
    // typed line, and the connection keeps serving.
    assert_eq!(
        c.request_err(r#"{"op":"subscribe","session":"ghost"}"#),
        "unknown_session"
    );
    c.request(r#"{"op":"ping"}"#);
    assert_eq!(
        c.request_err(r#"{"op":"delta","session":"t1","add_edges":[[0,{"new":9}]]}"#),
        "bad_delta"
    );
    // A delta naming a nonexistent base vertex fails at apply time —
    // still typed, and the session survives.
    assert_eq!(
        c.request_err(r#"{"op":"delta","session":"t1","add_labels":[[999,"x"]]}"#),
        "bad_delta"
    );
    // Malformed churn ops: wrong arity, wrong types, `{"new": i}`
    // where only base ids are allowed, out-of-range targets.
    assert_eq!(
        c.request_err(r#"{"op":"delta","session":"t1","remove_edges":[[0]]}"#),
        "bad_delta"
    );
    assert_eq!(
        c.request_err(r#"{"op":"delta","session":"t1","remove_edges":[[0,{"new":0}]]}"#),
        "bad_delta"
    );
    assert_eq!(
        c.request_err(r#"{"op":"delta","session":"t1","remove_labels":[[0,7]]}"#),
        "bad_delta"
    );
    assert_eq!(
        c.request_err(r#"{"op":"delta","session":"t1","remove_vertices":["v0"]}"#),
        "bad_delta"
    );
    assert_eq!(
        c.request_err(r#"{"op":"delta","session":"t1","remove_vertices":[999]}"#),
        "bad_delta"
    );
    assert_eq!(
        c.request_err(r#"{"op":"delta","session":"t1","change_labels":[[0,"a"]]}"#),
        "bad_delta"
    );
    assert_eq!(
        c.request_err(r#"{"op":"open","session":"t1","graph":"v 0 a\n"}"#),
        "session_exists"
    );
    assert_eq!(
        c.request_err(r#"{"op":"open","session":"t2","graph":"w 0 oops\n"}"#),
        "bad_graph"
    );

    // Oversized frame: drained, answered, connection stays usable.
    let huge = format!(r#"{{"op":"ping","pad":"{}"}}"#, "x".repeat(9 * 1024 * 1024));
    assert_eq!(c.request_err(&huge), "oversized_frame");
    c.request(r#"{"op":"ping"}"#);

    // The session behind all that abuse still mines correctly.
    let mined = c.mine("t1");
    assert_eq!(
        mined.get("final_dl_bits").unwrap().as_str(),
        Some(one_shot_bits(&g).as_str())
    );
    server.stop().unwrap();
}

#[test]
fn expired_deadline_cancels_cleanly_and_preserves_the_session() {
    let dir = temp_dir("deadline");
    let server = Server::spawn(ServerConfig::new(dir.join("d.sock"))).unwrap();
    // Enough structure that the merge loop runs many iterations.
    let g = labelled_path(120, 3);

    let mut c = Client::connect(server.socket());
    c.open_with_graph("t1", &g);
    assert_eq!(
        c.request_err(r#"{"op":"mine","session":"t1","deadline_ms":0}"#),
        "deadline_exceeded"
    );
    // `subscribe` hits the same deadline before sending any progress
    // event, so its whole answer is the one `deadline_exceeded` line:
    // the next line read below must be the plain mine's.
    assert_eq!(
        c.request_err(r#"{"op":"subscribe","session":"t1","deadline_ms":0}"#),
        "deadline_exceeded"
    );
    // The pristine database is untouched: a deadline-free mine still
    // produces the exact one-shot model.
    let mined = c.mine("t1");
    assert_eq!(
        mined.get("final_dl_bits").unwrap().as_str(),
        Some(one_shot_bits(&g).as_str())
    );
    server.stop().unwrap();
}

#[test]
fn concurrent_tenants_mine_independently() {
    let dir = temp_dir("tenants");
    let mut config = ServerConfig::new(dir.join("d.sock"));
    config.threads = 2;
    let server = Server::spawn(config).unwrap();

    let handles: Vec<_> = (0..3)
        .map(|i| {
            let socket = server.socket().to_path_buf();
            std::thread::spawn(move || {
                let mut replica = labelled_path(40 + 10 * i, 2 + i);
                let name = format!("tenant-{i}");
                let mut c = Client::connect(&socket);
                c.open_with_graph(&name, &replica);
                // A first mine, then three rounds of one wire delta and
                // a warm re-mine. The replica applies the same request
                // line through the daemon's own decoder, so each digest
                // must equal a cold mine of the replica.
                for round in 0..=3 {
                    if round > 0 {
                        let anchor = (7 * round + i) % replica.vertex_count();
                        let req = format!(
                            r#"{{"op":"delta","session":"{name}","add_vertices":[["l{round}"]],"add_edges":[[{anchor},{{"new":0}}]]}}"#
                        );
                        c.request(&req);
                        let delta = delta_from_value(&parse(&req).unwrap()).unwrap();
                        replica = delta.apply(&replica).unwrap().graph;
                    }
                    let mined = c.mine(&name);
                    assert_eq!(
                        mined.get("final_dl_bits").unwrap().as_str(),
                        Some(one_shot_bits(&replica).as_str()),
                        "tenant {i} DL mismatch after {round} deltas"
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    server.stop().unwrap();
}

#[test]
fn eviction_under_budget_checkpoints_and_reopens_warm() {
    let dir = temp_dir("evict");
    let mut config = ServerConfig::new(dir.join("d.sock"));
    config.store_dir = Some(dir.join("store"));
    // A budget small enough that two resident tenants always exceed it.
    config.mem_budget = Some(1);
    let server = Server::spawn(config).unwrap();
    let (g, _) = paper_example();
    let g2 = labelled_path(30, 3);

    let mut c = Client::connect(server.socket());
    let opened = c.open_with_graph("keep", &g2);
    assert_eq!(opened.get("durable").unwrap().as_bool(), Some(true));
    // Opening a second tenant trips the budget; "keep" is the LRU one.
    c.open_with_graph("fresh", &g);
    let stats = c.request(r#"{"op":"stats"}"#);
    assert_eq!(stats.get("sessions").unwrap().as_u64(), Some(1));
    assert!(
        stats
            .get("counters")
            .unwrap()
            .get("evictions")
            .unwrap()
            .as_u64()
            .unwrap()
            >= 1
    );

    // The evicted tenant is stored, not lost…
    let s = c.request(r#"{"op":"stats","session":"keep"}"#);
    assert_eq!(s.get("resident").unwrap().as_bool(), Some(false));
    assert_eq!(s.get("stored").unwrap().as_bool(), Some(true));

    // …and a graph-less open warm-restores it, mining bit-identically.
    let reopened = c.request(r#"{"op":"open","session":"keep"}"#);
    assert_eq!(reopened.get("warm").unwrap().as_bool(), Some(true));
    assert_eq!(
        reopened.get("vertices").unwrap().as_u64(),
        Some(30),
        "warm reopen must restore the checkpointed graph"
    );
    let mined = c.mine("keep");
    assert_eq!(
        mined.get("final_dl_bits").unwrap().as_str(),
        Some(one_shot_bits(&g2).as_str())
    );
    server.stop().unwrap();
}

#[test]
fn close_releases_and_durable_close_survives_reopen() {
    let dir = temp_dir("close");
    let mut config = ServerConfig::new(dir.join("d.sock"));
    config.store_dir = Some(dir.join("store"));
    let server = Server::spawn(config).unwrap();
    let (g, _) = paper_example();

    let mut c = Client::connect(server.socket());
    c.open_with_graph("t1", &g);
    let closed = c.request(r#"{"op":"close","session":"t1"}"#);
    assert_eq!(closed.get("checkpointed").unwrap().as_bool(), Some(true));
    assert_eq!(
        c.request_err(r#"{"op":"mine","session":"t1"}"#),
        "unknown_session"
    );
    let reopened = c.request(r#"{"op":"open","session":"t1"}"#);
    assert_eq!(reopened.get("warm").unwrap().as_bool(), Some(true));
    let mined = c.mine("t1");
    assert_eq!(
        mined.get("final_dl_bits").unwrap().as_str(),
        Some(one_shot_bits(&g).as_str())
    );
    server.stop().unwrap();
}

#[test]
fn shutdown_op_drains_and_removes_the_socket() {
    let dir = temp_dir("shutdown");
    let server = Server::spawn(ServerConfig::new(dir.join("d.sock"))).unwrap();
    let socket = server.socket().to_path_buf();

    let mut c = Client::connect(&socket);
    c.request(r#"{"op":"ping"}"#);
    c.request(r#"{"op":"shutdown"}"#);
    server.stop().unwrap();
    assert!(!socket.exists(), "shutdown must remove the socket file");
    assert!(UnixStream::connect(&socket).is_err());
}

#[test]
fn fresh_connections_are_answered_without_a_poll_delay() {
    let dir = temp_dir("fresh");
    let server = Server::spawn(ServerConfig::new(dir.join("d.sock"))).unwrap();
    // One connection per request, as `cspm client` does.
    let started = Instant::now();
    for _ in 0..20 {
        Client::connect(server.socket()).request(r#"{"op":"ping"}"#);
    }
    let took = started.elapsed();
    assert!(
        took < Duration::from_secs(1),
        "20 fresh-connection pings took {took:?}"
    );
    server.stop().unwrap();
}

#[test]
fn stop_ends_idle_connections_even_after_the_socket_file_is_gone() {
    let dir = temp_dir("unlinked");
    let server = Server::spawn(ServerConfig::new(dir.join("d.sock"))).unwrap();
    let mut idle = Client::connect(server.socket());
    idle.request(r#"{"op":"ping"}"#);
    // Nothing can connect to the socket path any more, so the wake-up
    // must not depend on it.
    std::fs::remove_file(server.socket()).unwrap();

    let (done, stopped) = std::sync::mpsc::channel();
    let stopper = std::thread::spawn(move || done.send(server.stop()).unwrap());
    stopped
        .recv_timeout(Duration::from_secs(10))
        .expect("stop() did not return within 10s")
        .unwrap();
    stopper.join().unwrap();
    let mut rest = String::new();
    let read = idle.reader.read_line(&mut rest).expect("idle client reads");
    assert_eq!(read, 0, "idle client must see end-of-stream, got {rest:?}");
}

#[test]
fn stale_socket_file_is_replaced_on_bind() {
    let dir = temp_dir("stale");
    let socket = dir.join("d.sock");
    // A dead daemon's leftover: a socket file nobody is accepting on.
    drop(std::os::unix::net::UnixListener::bind(&socket).unwrap());
    assert!(socket.exists());
    let server = Server::spawn(ServerConfig::new(socket.clone())).unwrap();
    let mut c = Client::connect(&socket);
    c.request(r#"{"op":"ping"}"#);
    server.stop().unwrap();
}
