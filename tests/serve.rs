//! End-to-end tests of `cspm serve` + `cspm client` as real processes:
//! a live daemon, concurrent tenants driven through the client binary,
//! DL digests asserted bit-identical to one-shot `cspm mine --json`,
//! subscribers that stall or vanish, a plain `mine` whose client
//! vanishes or half-closes, an acknowledged delta surviving
//! `kill -9`, and a clean SIGTERM shutdown (exit 0, no leaked socket
//! file).
//!
//! In-process protocol coverage (malformed frames, deadlines, eviction)
//! lives in `crates/serve/tests/protocol.rs`; this suite only exercises
//! what needs real binaries and real signals.

use std::io::{BufRead, BufReader, Write};
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::time::{Duration, Instant};

use cspm::serve::json::{self, Value};

/// Runs the binary and returns its raw exit code — the client's code
/// is part of its contract (0 ok, 1 daemon refusal, 2 transport).
fn cspm_code(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_cspm"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn cspm(args: &[&str]) -> (bool, String, String) {
    let (code, stdout, stderr) = cspm_code(args);
    (code == Some(0), stdout, stderr)
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("cspm-serve-tests").join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Parses one JSON line with the daemon's own reader and returns the
/// member at `path` (object keys, outermost first), if there is one.
fn json_at(line: &str, path: &[&str]) -> Option<Value> {
    let doc = json::parse(line).unwrap_or_else(|e| panic!("not one JSON document ({e}): {line}"));
    path.iter().try_fold(&doc, |v, key| v.get(key)).cloned()
}

/// The value of one sample (`name{labels}` as exposed) in the daemon's
/// metrics scrape, if it has that sample.
fn scrape(sock: &str, sample: &str) -> Option<f64> {
    let (ok, text, err) = cspm(&["client", "metrics", "--socket", sock]);
    assert!(ok, "metrics: {err}");
    text.lines()
        .find_map(|l| l.strip_prefix(sample)?.strip_prefix(' '))
        .map(|v| v.trim().parse().expect("a sample value is a number"))
}

/// Writes one raw request line to the daemon and returns its one-line
/// answer — for frames the client binary would never send.
fn raw_exchange(stream: &mut UnixStream, line: &[u8]) -> String {
    stream.write_all(line).unwrap();
    stream.write_all(b"\n").unwrap();
    stream.flush().unwrap();
    let mut answer = String::new();
    BufReader::new(&*stream).read_line(&mut answer).unwrap();
    answer
}

struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    /// Spawns `cspm serve` and blocks until it answers a ping.
    fn spawn(socket: &Path, extra: &[&str]) -> Daemon {
        let child = Command::new(env!("CARGO_BIN_EXE_cspm"))
            .arg("serve")
            .arg("--socket")
            .arg(socket)
            .args(extra)
            .spawn()
            .expect("daemon spawns");
        let daemon = Daemon {
            child,
            socket: socket.to_path_buf(),
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let (ok, _, _) = cspm(&["client", "ping", "--socket", daemon.socket_str()]);
            if ok {
                return daemon;
            }
            assert!(
                Instant::now() < deadline,
                "daemon did not answer ping within 20s"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    fn socket_str(&self) -> &str {
        self.socket.to_str().unwrap()
    }

    /// SIGTERM + wait; asserts exit 0 and that the socket file is gone.
    fn terminate(mut self) {
        let pid = self.child.id().to_string();
        let ok = Command::new("kill")
            .args(["-TERM", &pid])
            .status()
            .expect("kill runs")
            .success();
        assert!(ok, "kill -TERM failed");
        let status = self.child.wait().expect("daemon reaps");
        assert!(status.success(), "daemon exited {status:?} on SIGTERM");
        assert!(
            !self.socket.exists(),
            "daemon leaked its socket file {:?}",
            self.socket
        );
    }
}

/// A failed assertion must not leave the daemon running.
impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn three_concurrent_tenants_mine_bit_identically_to_one_shot() {
    let dir = temp_dir("tenants");
    let socket = dir.join("d.sock");
    let daemon = Daemon::spawn(&socket, &["--threads", "2"]);

    let handles: Vec<_> = (0..3)
        .map(|t| {
            let dir = dir.clone();
            let socket = socket.clone();
            std::thread::spawn(move || {
                let socket = socket.to_str().unwrap();
                let graph = dir.join(format!("g{t}.txt"));
                let graph_str = graph.to_str().unwrap();
                let seed = (11 + t).to_string();
                let (ok, _, err) = cspm(&[
                    "generate", "dblp", graph_str, "--scale", "tiny", "--seed", &seed,
                ]);
                assert!(ok, "generate: {err}");

                // Ground truth: one-shot CLI mining of the same file.
                let (ok, json, err) = cspm(&["mine", graph_str, "--json"]);
                assert!(ok, "one-shot mine: {err}");
                let expected =
                    json_at(&json, &["run", "final_dl_hex"]).expect("one-shot emits final_dl_hex");
                assert!(expected.as_str().is_some(), "digest is a string: {json}");

                let tenant = format!("t{t}");
                let (ok, _, err) = cspm(&[
                    "client", "open", &tenant, "--socket", socket, "--graph", graph_str,
                ]);
                assert!(ok, "open {tenant}: {err}");

                let (ok, resp, err) = cspm(&["client", "mine", &tenant, "--socket", socket]);
                assert!(ok, "mine {tenant}: {err}");
                let got = json_at(&resp, &["final_dl_bits"]).expect("daemon emits final_dl_bits");
                assert_eq!(got, expected, "{tenant}: daemon DL digest != one-shot CLI");

                // The session keeps serving after a delta re-mine.
                let delta = dir.join(format!("delta{t}.json"));
                std::fs::write(
                    &delta,
                    format!(r#"{{"add_vertices":[["extra{t}"]],"add_edges":[[0,{{"new":0}}]]}}"#),
                )
                .unwrap();
                let (ok, resp, err) = cspm(&[
                    "client",
                    "delta",
                    &tenant,
                    "--socket",
                    socket,
                    "--file",
                    delta.to_str().unwrap(),
                ]);
                assert!(ok, "delta {tenant}: {err}");
                assert!(resp.contains("\"dirty_centers\""), "delta response: {resp}");
                let (ok, resp, err) = cspm(&["client", "mine", &tenant, "--socket", socket]);
                assert!(ok, "re-mine {tenant}: {err}");
                let regrown =
                    json_at(&resp, &["final_dl_bits"]).expect("re-mine emits final_dl_bits");
                assert_ne!(regrown, expected, "delta must change the mined DL");
            })
        })
        .collect();
    for h in handles {
        h.join().expect("tenant thread");
    }

    let (ok, stats, _) = cspm(&["client", "stats", "--socket", daemon.socket_str()]);
    assert!(ok);
    assert!(stats.contains("\"sessions\":3"), "stats: {stats}");
    for t in 0..3 {
        assert!(stats.contains(&format!("\"t{t}\"")), "stats: {stats}");
    }

    daemon.terminate();
}

#[test]
fn subscribe_streams_progress_and_metrics_expose_every_layer() {
    let dir = temp_dir("observe");
    let socket = dir.join("d.sock");
    let daemon = Daemon::spawn(
        &socket,
        &["--store-dir", dir.join("store").to_str().unwrap()],
    );
    let sock = daemon.socket_str();

    let graph = dir.join("g.txt");
    let graph_str = graph.to_str().unwrap();
    let (ok, _, err) = cspm(&[
        "generate", "dblp", graph_str, "--scale", "tiny", "--seed", "7",
    ]);
    assert!(ok, "generate: {err}");
    let (ok, _, err) = cspm(&[
        "client", "open", "obs", "--socket", sock, "--graph", graph_str,
    ]);
    assert!(ok, "open: {err}");

    // Ground truth for the stream's terminal line: a plain mine.
    let (ok, resp, err) = cspm(&["client", "mine", "obs", "--socket", sock]);
    assert!(ok, "mine: {err}");
    let expected = json_at(&resp, &["final_dl_bits"]).expect("mine emits final_dl_bits");
    assert!(expected.as_str().is_some(), "digest is a string: {resp}");

    let merges = json_at(&resp, &["merges"])
        .and_then(|v| v.as_u64())
        .expect("mine emits merges");
    assert!(merges >= 1, "the tenant must merge something: {resp}");

    // Subscribe: a reader that keeps up gets one progress line per
    // merge, numbered 1..=merges, then the terminal "done" line,
    // bit-identical to the plain mine (warm ≡ warm).
    let (ok, stream, err) = cspm(&["client", "subscribe", "obs", "--socket", sock]);
    assert!(ok, "subscribe: {err}");
    let lines: Vec<&str> = stream.lines().collect();
    let done_at = lines
        .iter()
        .position(|l| l.contains("\"event\":\"done\""))
        .expect("stream ends with a done event");
    assert_eq!(done_at, lines.len() - 1, "done must be terminal: {stream}");
    let iterations: Vec<u64> = lines[..done_at]
        .iter()
        .map(|l| {
            assert!(l.contains("\"event\":\"progress\""), "stray line: {l}");
            assert!(l.contains("\"dl_after\""), "progress line shape: {l}");
            json_at(l, &["iteration"])
                .and_then(|v| v.as_u64())
                .expect("progress carries its iteration")
        })
        .collect();
    assert_eq!(iterations, (1..=merges).collect::<Vec<_>>(), "{stream}");
    let got = json_at(lines[done_at], &["final_dl_bits"]).expect("done carries final_dl_bits");
    assert_eq!(got, expected, "subscribe terminal != plain mine");

    // Close checkpoints the durable tenant — store fsync traffic.
    let (ok, _, err) = cspm(&["client", "close", "obs", "--socket", sock]);
    assert!(ok, "close: {err}");

    // One scrape shows all three instrumented layers.
    let (ok, text, err) = cspm(&["client", "metrics", "--socket", sock]);
    assert!(ok, "metrics: {err}");
    assert!(
        text.contains("# TYPE cspm_engine_runs_total counter"),
        "engine family missing: {text}"
    );
    assert!(
        text.contains("cspm_serve_requests_total{op=\"mine\"}"),
        "serve family missing: {text}"
    );
    assert!(
        text.contains("cspm_store_fsync_total"),
        "store family missing: {text}"
    );
    assert!(
        text.contains("cspm_engine_mine_seconds_bucket"),
        "histogram buckets missing: {text}"
    );
    assert!(
        text.contains("cspm_serve_requests_total{op=\"subscribe\"} 1"),
        "subscribe not counted: {text}"
    );

    daemon.terminate();
}

#[test]
fn daemon_reports_typed_errors_and_sigterm_shutdown_is_clean() {
    let dir = temp_dir("errors");
    let socket = dir.join("d.sock");
    let daemon = Daemon::spawn(
        &socket,
        &["--store-dir", dir.join("store").to_str().unwrap()],
    );
    let sock = daemon.socket_str();

    // Unknown session: typed error line on stdout, and exit code 1 —
    // the daemon answered, it just refused.
    let (code, resp, err) = cspm_code(&["client", "mine", "ghost", "--socket", sock]);
    assert_eq!(code, Some(1), "daemon refusal must exit 1: {err}");
    assert!(resp.contains("\"unknown_session\""), "stdout: {resp}");
    assert!(err.contains("unknown_session"), "stderr: {err}");

    // Two refusals the client binary cannot produce: a line one byte
    // over the 8 MiB frame cap, then an unknown op. Both are answered
    // and counted, and the connection stays usable between them.
    let mut raw = UnixStream::connect(&daemon.socket).expect("raw connect");
    raw.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let oversized = vec![b'x'; 8 * 1024 * 1024 + 1];
    let answer = raw_exchange(&mut raw, &oversized);
    assert!(answer.contains("\"oversized_frame\""), "answer: {answer}");
    let answer = raw_exchange(&mut raw, br#"{"op":"explode"}"#);
    assert!(answer.contains("\"unknown_op\""), "answer: {answer}");
    drop(raw);

    // A one-line graph naming vertex 4,000,000,000 is refused with a
    // typed error, not answered by allocating a ~96 GB vertex table
    // (which aborts the process and every tenant with it).
    let hostile = dir.join("hostile.txt");
    std::fs::write(&hostile, "e 0 4000000000\n").unwrap();
    let hostile = hostile.to_str().unwrap();
    let (code, resp, err) = cspm_code(&[
        "client", "open", "hostile", "--socket", sock, "--graph", hostile,
    ]);
    assert_eq!(code, Some(1), "hostile graph must be refused: {err}");
    assert!(resp.contains("\"bad_graph\""), "stdout: {resp}");
    let (ok, _, err) = cspm(&["client", "ping", "--socket", sock]);
    assert!(ok, "daemon must survive a hostile graph: {err}");

    // The stats counter and the scrape count the same errors.
    let (ok, stats, err) = cspm(&["client", "stats", "--socket", sock]);
    assert!(ok, "stats: {err}");
    let scraped = scrape(sock, "cspm_serve_errors_total").expect("errors are scraped");
    assert_eq!(
        json_at(&stats, &["counters", "errors"]).and_then(|v| v.as_f64()),
        Some(scraped),
        "stats: {stats}"
    );
    assert_eq!(
        scraped, 4.0,
        "ghost mine + oversized frame + unknown op + hostile graph"
    );

    // No daemon at all: exit code 2, no usage banner — a transport
    // failure is neither a usage mistake nor a server-side refusal.
    let dead = dir.join("nobody-home.sock");
    let (code, _, err) = cspm_code(&["client", "ping", "--socket", dead.to_str().unwrap()]);
    assert_eq!(code, Some(2), "transport failure must exit 2: {err}");
    assert!(err.contains("cannot connect"), "stderr: {err}");
    assert!(
        !err.contains("usage:"),
        "transport failure printed usage: {err}"
    );

    // A client-side invalid delta never even reaches the daemon.
    let bad = dir.join("bad.json");
    // `{"new":5}` refers to the 6th vertex of a delta that adds none.
    std::fs::write(&bad, "{\"add_edges\":[[0,{\"new\":5}]]}").unwrap();
    let (ok, _, err) = cspm(&[
        "client",
        "delta",
        "ghost",
        "--socket",
        sock,
        "--file",
        bad.to_str().unwrap(),
    ]);
    assert!(!ok);
    assert!(err.contains("invalid delta"), "stderr: {err}");

    // The daemon is still healthy afterwards.
    let (ok, resp, _) = cspm(&["client", "ping", "--socket", sock]);
    assert!(ok, "daemon wedged after error traffic: {resp}");

    daemon.terminate();
}

#[test]
fn a_second_daemon_on_a_live_socket_refuses_without_announcing_it() {
    let dir = temp_dir("second");
    let daemon = Daemon::spawn(&dir.join("d.sock"), &[]);
    let sock = daemon.socket_str();
    let (code, _, err) = cspm_code(&["serve", "--socket", sock]);
    assert_eq!(code, Some(1), "second daemon must refuse: {err}");
    assert!(err.contains("already serving"), "stderr: {err}");
    assert!(
        !err.contains("listening on"),
        "announced a socket it never bound: {err}"
    );
    let (ok, _, err) = cspm(&["client", "ping", "--socket", sock]);
    assert!(ok, "first daemon must keep serving: {err}");
    daemon.terminate();
}

#[test]
fn a_daemon_that_hangs_up_or_answers_garbage_is_a_transport_failure() {
    let dir = temp_dir("fake-peer");
    let socket = dir.join("fake.sock");
    let listener = UnixListener::bind(&socket).unwrap();
    // (answer after reading the request, what the client must report)
    let cases = [
        (None, "closed the connection"),
        (Some("not json"), "invalid JSON"),
    ];
    let peer = std::thread::spawn(move || {
        for (answer, _) in cases.into_iter().cycle().take(4) {
            let (stream, _) = listener.accept().unwrap();
            let mut request = String::new();
            BufReader::new(&stream).read_line(&mut request).unwrap();
            if let Some(answer) = answer {
                writeln!(&stream, "{answer}").unwrap();
            }
        }
    });
    let sock = socket.to_str().unwrap();
    for op in [&["client", "ping"][..], &["client", "subscribe", "t"]] {
        for (answer, report) in cases {
            let (code, _, err) = cspm_code(&[op, &["--socket", sock]].concat());
            assert_eq!(
                code,
                Some(2),
                "{op:?} when the peer sends {answer:?}: {err}"
            );
            assert!(err.contains(report), "{op:?}, {answer:?}: stderr {err}");
        }
    }
    peer.join().unwrap();
}

/// A subscriber that reads nothing until its mine is over still gets a
/// well-formed stream: progress lines the socket could not take were
/// dropped whole and counted, the rest keep their merge numbers, and
/// one terminal line follows. A subscriber that hangs up instead
/// cancels its mine, and the tenant keeps its warm state.
#[test]
fn a_stalled_subscriber_gets_whole_lines_and_a_vanished_one_cancels_its_mine() {
    let dir = temp_dir("stalled");
    let daemon = Daemon::spawn(&dir.join("d.sock"), &[]);
    let sock = daemon.socket_str();
    let (expected, merges) = open_paper_trend_tenant(&dir, sock);

    // Wait for the daemon to finish the mine before reading a byte.
    let wait_for_subscribes = |n: f64| {
        let deadline = Instant::now() + Duration::from_secs(120);
        while scrape(sock, "cspm_serve_request_seconds_count{op=\"subscribe\"}") != Some(n) {
            assert!(Instant::now() < deadline, "subscribe {n} did not finish");
            std::thread::sleep(Duration::from_millis(50));
        }
    };
    let request = b"{\"op\":\"subscribe\",\"session\":\"dt\"}\n";
    let mut raw = UnixStream::connect(&daemon.socket).expect("raw connect");
    raw.write_all(request).unwrap();
    // End of our requests: the daemon hangs up after its terminal line.
    raw.shutdown(Shutdown::Write).unwrap();
    wait_for_subscribes(1.0);
    raw.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let lines: Vec<String> = BufReader::new(&raw)
        .lines()
        .collect::<Result<_, _>>()
        .expect("the stream reads to its end");
    let (done, progress) = lines.split_last().expect("a terminal line");
    assert!(done.contains("\"event\":\"done\""), "terminal line: {done}");
    assert_eq!(json_at(done, &["final_dl_bits"]), Some(expected.clone()));
    let mut last = 0;
    for line in progress {
        assert!(
            line.contains("\"event\":\"progress\""),
            "stray line: {line}"
        );
        let iteration = json_at(line, &["iteration"])
            .and_then(|v| v.as_u64())
            .expect("progress carries its iteration");
        assert!(
            iteration > last && iteration <= merges,
            "iteration {iteration} after {last}, {merges} merges"
        );
        assert!(last > 0 || iteration == 1, "the first line is merge 1");
        last = iteration;
    }
    let dropped = scrape(sock, "cspm_serve_subscribe_dropped_total").expect("drops are scraped");
    assert_eq!(
        progress.len() as f64 + dropped,
        merges as f64,
        "every merge's line is either delivered or counted as dropped"
    );

    // A subscriber that hangs up before its first progress line.
    let cancelled = "cspm_engine_cancelled_total";
    assert_eq!(scrape(sock, cancelled), Some(0.0));
    let mut raw = UnixStream::connect(&daemon.socket).expect("raw connect");
    raw.write_all(request).unwrap();
    drop(raw);
    wait_for_subscribes(2.0);
    assert_eq!(scrape(sock, cancelled), Some(1.0), "the mine must stop");
    let (ok, resp, err) = cspm(&["client", "mine", "dt", "--socket", sock]);
    assert!(ok, "mine after a cancelled subscribe: {err}");
    assert_eq!(json_at(&resp, &["final_dl_bits"]), Some(expected));

    daemon.terminate();
}

/// Opens tenant `dt` on a paper-scale DBLP-Trend graph, whose mine is
/// long enough to stop midway, and mines it once through the client.
/// Returns that mine's `final_dl_bits` and merge count.
fn open_paper_trend_tenant(dir: &Path, sock: &str) -> (Value, u64) {
    let graph = dir.join("g.txt");
    let graph_str = graph.to_str().unwrap();
    let (ok, _, err) = cspm(&[
        "generate",
        "dblp-trend",
        graph_str,
        "--scale",
        "paper",
        "--seed",
        "2022",
    ]);
    assert!(ok, "generate: {err}");
    let (ok, _, err) = cspm(&[
        "client", "open", "dt", "--socket", sock, "--graph", graph_str,
    ]);
    assert!(ok, "open: {err}");
    let (ok, resp, err) = cspm(&["client", "mine", "dt", "--socket", sock]);
    assert!(ok, "mine: {err}");
    let expected = json_at(&resp, &["final_dl_bits"]).expect("mine emits final_dl_bits");
    let merges = json_at(&resp, &["merges"])
        .and_then(|v| v.as_u64())
        .expect("mine emits merges");
    (expected, merges)
}

/// A plain `mine` whose client hangs up is cancelled, where it would
/// otherwise hold a mine slot to the end for an answer nobody reads. A
/// client that only shuts down its write half after its request is
/// still answered.
#[test]
fn a_vanished_mine_client_cancels_its_mine_and_a_half_closed_one_is_answered() {
    let dir = temp_dir("vanished-mine");
    let daemon = Daemon::spawn(&dir.join("d.sock"), &[]);
    let sock = daemon.socket_str();
    let (expected, merges) = open_paper_trend_tenant(&dir, sock);
    assert_eq!(expected.as_str(), Some("41069deba983ca65"));
    assert_eq!(merges, 571);

    let wait_for_mines = |n: f64| {
        let deadline = Instant::now() + Duration::from_secs(120);
        while scrape(sock, "cspm_serve_request_seconds_count{op=\"mine\"}") != Some(n) {
            assert!(Instant::now() < deadline, "mine {n} did not finish");
            std::thread::sleep(Duration::from_millis(50));
        }
    };
    let (cancelled, merged) = ("cspm_engine_cancelled_total", "cspm_engine_merges_total");
    assert_eq!(scrape(sock, cancelled), Some(0.0));
    let merged_before = scrape(sock, merged).expect("merges are scraped");
    let request = b"{\"op\":\"mine\",\"session\":\"dt\"}\n";
    let mut raw = UnixStream::connect(&daemon.socket).expect("raw connect");
    raw.write_all(request).unwrap();
    drop(raw);
    wait_for_mines(2.0);
    assert_eq!(scrape(sock, cancelled), Some(1.0), "the mine must stop");
    let ran = scrape(sock, merged).expect("merges are scraped") - merged_before;
    assert!(
        ran < merges as f64,
        "the abandoned mine ran {ran} of {merges} merges"
    );

    let mut raw = UnixStream::connect(&daemon.socket).expect("raw connect");
    raw.write_all(request).unwrap();
    raw.shutdown(Shutdown::Write).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let mut answer = String::new();
    BufReader::new(&raw).read_line(&mut answer).unwrap();
    assert_eq!(json_at(&answer, &["final_dl_bits"]), Some(expected));
    assert_eq!(scrape(sock, cancelled), Some(1.0));

    daemon.terminate();
}

/// A delta the daemon acknowledged survives `kill -9`: a new daemon on
/// the same store warm-opens the grown graph and mines what the killed
/// one mined after the delta.
#[test]
fn an_acknowledged_delta_survives_kill_9() {
    let dir = temp_dir("kill9");
    let socket = dir.join("d.sock");
    let sock = socket.to_str().unwrap();
    let store = dir.join("store");
    let serve_args = ["--store-dir", store.to_str().unwrap()];
    let graph = dir.join("g.txt");
    let graph_str = graph.to_str().unwrap();
    let (ok, _, err) = cspm(&[
        "generate", "dblp", graph_str, "--scale", "tiny", "--seed", "7",
    ]);
    assert!(ok, "generate: {err}");

    let daemon = Daemon::spawn(&socket, &serve_args);
    let (ok, resp, err) = cspm(&[
        "client", "open", "t", "--socket", sock, "--graph", graph_str,
    ]);
    assert!(ok, "open: {err}");
    let vertices = json_at(&resp, &["vertices"])
        .and_then(|v| v.as_u64())
        .expect("open reports vertices");
    let mine = || {
        let (ok, resp, err) = cspm(&["client", "mine", "t", "--socket", sock]);
        assert!(ok, "mine: {err}");
        json_at(&resp, &["final_dl_bits"]).expect("mine emits final_dl_bits")
    };
    let d0 = mine();
    let delta = dir.join("delta.json");
    std::fs::write(
        &delta,
        r#"{"add_vertices":[["a"]],"add_edges":[[0,{"new":0}]]}"#,
    )
    .unwrap();
    let delta = delta.to_str().unwrap();
    let (ok, _, err) = cspm(&["client", "delta", "t", "--socket", sock, "--file", delta]);
    assert!(ok, "delta: {err}");
    let d1 = mine();
    assert_ne!(d1, d0, "the delta must change the mined DL");

    // `Drop` sends SIGKILL: no drain, no final checkpoint.
    drop(daemon);
    assert!(socket.exists(), "a killed daemon leaves its socket file");

    let daemon = Daemon::spawn(&socket, &serve_args);
    let (ok, resp, err) = cspm(&["client", "open", "t", "--socket", sock]);
    assert!(ok, "warm open: {err}");
    assert_eq!(json_at(&resp, &["warm"]), Some(Value::Bool(true)), "{resp}");
    assert_eq!(
        json_at(&resp, &["vertices"]).and_then(|v| v.as_u64()),
        Some(vertices + 1),
        "{resp}"
    );
    assert_eq!(
        mine(),
        d1,
        "the restarted daemon mines the acknowledged delta"
    );
    daemon.terminate();
}
