//! Load driver for the `cspm serve` daemon: N tenants hammering an
//! in-process server with a delta/mine mix, recording round-trip
//! latency percentiles and throughput into `BENCH_serve.json` (the
//! `BENCH_engine.json` shape, suite `"serve"`).
//!
//! ```text
//! bench_serve [--tenants N] [--rounds R] [--tiny|--small] [--seed N]
//!             [--threads N] [--out FILE]
//! ```
//!
//! Each tenant runs on its own OS thread with its own connection:
//! `open` (inline graph text), then R rounds of `delta` + `mine`. Every
//! tenant also evolves a local replica of its graph through the *same*
//! wire-decoded deltas and cold-mines the final shape with the engine
//! the daemon uses (single scoring thread); the daemon's last
//! `final_dl_bits` digest must match bit-for-bit — a load test that
//! silently mined garbage would be worse than none.
//!
//! Records are named `serve/<op>_p{50,99}` (client-measured round
//! trips) and `serve/daemon_<op>_p{50,99}` (daemon-side, recovered from
//! the `metrics` op's `cspm_serve_request_seconds` histogram buckets —
//! parse-to-rendered-response on the server's own clock, free of socket
//! scheduling), plus `serve/req_interval_mean` (inverse throughput, so
//! smaller is better like every other timing). `bench_compare` reports
//! `serve/…` records but never gates on them: round-trip latency on a
//! shared CI runner is dominated by scheduling jitter, not the merge
//! loop.

use std::io::{BufRead as _, BufReader, Write as _};
use std::os::unix::net::UnixStream;
use std::time::Instant;

use cspm_core::Miner;
use cspm_datasets::{dblp_like, Scale};
use cspm_graph::write_graph;
use cspm_serve::json::{parse, Value};
use cspm_serve::proto::delta_from_value;
use cspm_serve::server::dl_bits;
use cspm_serve::{Server, ServerConfig};

struct OneRequest {
    op: &'static str,
    secs: f64,
}

/// One tenant's whole conversation; returns per-request timings.
/// Panics (failing the bench) on any protocol error or digest mismatch.
fn drive_tenant(
    socket: &std::path::Path,
    tenant: usize,
    scale: Scale,
    seed: u64,
    rounds: usize,
) -> Vec<OneRequest> {
    let name = format!("tenant{tenant}");
    let mut local = dblp_like(scale, seed + tenant as u64).graph;
    let mut graph_text = Vec::new();
    write_graph(&local, &mut graph_text).expect("serialize tenant graph");
    let graph_text = String::from_utf8(graph_text).expect("graph text is UTF-8");

    let stream = UnixStream::connect(socket).expect("connect to daemon");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let mut timings = Vec::new();
    let mut round_trip = |req: String, op: &'static str| -> Value {
        let t = Instant::now();
        writer.write_all(req.as_bytes()).expect("send request");
        writer.write_all(b"\n").expect("send newline");
        let mut line = String::new();
        reader.read_line(&mut line).expect("read response");
        timings.push(OneRequest {
            op,
            secs: t.elapsed().as_secs_f64(),
        });
        let v = parse(line.trim_end()).expect("daemon speaks JSON");
        assert_eq!(
            v.get("ok").and_then(Value::as_bool),
            Some(true),
            "daemon refused {op} for {name}: {line}"
        );
        v
    };

    let open = Value::Obj(vec![
        ("op".into(), Value::Str("open".into())),
        ("session".into(), Value::Str(name.clone())),
        ("graph".into(), Value::Str(graph_text)),
    ])
    .to_json();
    round_trip(open, "open");

    let mut last_digest = String::new();
    for round in 0..rounds {
        // A small structural delta: one new vertex labelled with a
        // fresh value, wired to a deterministic existing vertex and to
        // the previous round's vertex when there is one.
        let anchor = (round * 7 + tenant) % local.vertex_count();
        let delta_req = format!(
            r#"{{"op":"delta","session":"{name}","add_vertices":[["v{tenant}_{round}"]],"add_edges":[[{anchor},{{"new":0}}]]}}"#
        );
        // Evolve the local replica through the identical wire decoding
        // path, so bench and daemon apply byte-for-byte the same delta.
        let delta = delta_from_value(&parse(&delta_req).expect("delta request is JSON"))
            .expect("delta decodes");
        local = delta.apply(&local).expect("delta applies locally").graph;
        round_trip(delta_req, "delta");

        let mine_req = format!(r#"{{"op":"mine","session":"{name}"}}"#);
        let resp = round_trip(mine_req, "mine");
        last_digest = resp
            .get("final_dl_bits")
            .and_then(Value::as_str)
            .expect("mine response carries final_dl_bits")
            .to_string();
    }

    // Bit-identity gate: cold-mining the locally evolved replica with
    // the daemon's engine configuration must land on the same DL bits.
    let expected = dl_bits(Miner::new().threads(1).build().mine(&local).final_dl);
    assert_eq!(
        last_digest, expected,
        "{name}: daemon DL digest diverged from one-shot mining"
    );

    round_trip(format!(r#"{{"op":"close","session":"{name}"}}"#), "close");
    timings
}

fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty());
    let idx = ((pct / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx]
}

/// Round-trips `{"op":"metrics"}` and returns the Prometheus text.
fn scrape_metrics(socket: &std::path::Path) -> String {
    let stream = UnixStream::connect(socket).expect("connect for metrics scrape");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    writer
        .write_all(b"{\"op\":\"metrics\"}\n")
        .expect("send metrics request");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read metrics response");
    let v = parse(line.trim_end()).expect("daemon speaks JSON");
    assert_eq!(
        v.get("ok").and_then(Value::as_bool),
        Some(true),
        "metrics scrape refused: {line}"
    );
    v.get("text")
        .and_then(Value::as_str)
        .expect("metrics response carries exposition text")
        .to_string()
}

/// Quantile estimate from cumulative histogram buckets, linearly
/// interpolated inside the containing bucket (the `histogram_quantile`
/// estimator). An observation in the `+Inf` bucket reports the last
/// finite bound — there is nothing to interpolate towards.
fn bucket_quantile(buckets: &[(f64, u64)], q: f64) -> f64 {
    let total = buckets.last().map_or(0, |b| b.1);
    let rank = ((q * total as f64).ceil()).max(1.0) as u64;
    let mut lower = 0.0;
    let mut prev_count = 0u64;
    for &(bound, count) in buckets {
        if count >= rank {
            if bound.is_infinite() {
                return lower;
            }
            let in_bucket = (count - prev_count) as f64;
            return lower + (bound - lower) * ((rank - prev_count) as f64 / in_bucket);
        }
        prev_count = count;
        lower = bound;
    }
    lower
}

/// Parses one op's `<family>_bucket{op="…",le="…"}` series out of an
/// exposition and returns `(p50, p99)`; `None` when the op never ran.
fn daemon_quantiles(exposition: &str, family: &str, op: &str) -> Option<(f64, f64)> {
    let prefix = format!("{family}_bucket{{op=\"{op}\",le=\"");
    let mut buckets: Vec<(f64, u64)> = Vec::new();
    for line in exposition.lines() {
        let Some(rest) = line.strip_prefix(prefix.as_str()) else {
            continue;
        };
        let (le, count) = rest.split_once("\"} ")?;
        let bound = if le == "+Inf" {
            f64::INFINITY
        } else {
            le.parse().ok()?
        };
        buckets.push((bound, count.parse::<f64>().ok()? as u64));
    }
    if buckets.last().is_none_or(|b| b.1 == 0) {
        return None;
    }
    Some((
        bucket_quantile(&buckets, 0.50),
        bucket_quantile(&buckets, 0.99),
    ))
}

fn main() {
    let mut tenants = 3usize;
    let mut rounds = 4usize;
    let mut scale = Scale::Tiny;
    let mut seed = 2022u64;
    let mut threads = 2usize;
    let mut out_path = "BENCH_serve.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--tenants" => {
                tenants = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--tenants N")
            }
            "--rounds" => {
                rounds = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--rounds R")
            }
            "--tiny" => scale = Scale::Tiny,
            "--small" => scale = Scale::Small,
            "--seed" => seed = args.next().and_then(|s| s.parse().ok()).expect("--seed N"),
            "--threads" => {
                threads = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--threads N")
            }
            "--out" => out_path = args.next().expect("--out FILE"),
            other => panic!("unknown argument '{other}'"),
        }
    }
    assert!(
        tenants > 0 && rounds > 0,
        "need at least one tenant and one round"
    );

    let dir = std::env::temp_dir().join(format!("cspm-bench-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let socket = dir.join("bench.sock");
    let mut config = ServerConfig::new(&socket);
    config.threads = threads;
    let server = Server::spawn(config).expect("daemon starts");

    let wall = Instant::now();
    let mut all: Vec<OneRequest> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..tenants)
            .map(|t| {
                let socket = socket.clone();
                scope.spawn(move || drive_tenant(&socket, t, scale, seed, rounds))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("tenant thread"))
            .collect()
    });
    let wall_secs = wall.elapsed().as_secs_f64();
    let exposition = scrape_metrics(&socket);
    server.stop().expect("clean daemon shutdown");
    std::fs::remove_dir_all(&dir).ok();

    all.sort_by(|a, b| a.op.cmp(b.op));
    let mut records: Vec<(String, f64)> = Vec::new();
    for op in ["open", "delta", "mine", "close"] {
        let mut secs: Vec<f64> = all.iter().filter(|r| r.op == op).map(|r| r.secs).collect();
        if secs.is_empty() {
            continue;
        }
        secs.sort_by(f64::total_cmp);
        records.push((format!("serve/{op}_p50"), percentile(&secs, 50.0)));
        records.push((format!("serve/{op}_p99"), percentile(&secs, 99.0)));
        // Same op as the daemon saw it: histogram buckets scraped over
        // the wire, so client-vs-daemon deltas isolate socket overhead.
        let (p50, p99) = daemon_quantiles(&exposition, "cspm_serve_request_seconds", op)
            .unwrap_or_else(|| panic!("daemon histogram empty for op '{op}'"));
        records.push((format!("serve/daemon_{op}_p50"), p50));
        records.push((format!("serve/daemon_{op}_p99"), p99));
    }
    let requests = all.len();
    records.push((
        "serve/req_interval_mean".to_string(),
        wall_secs / requests as f64,
    ));

    println!(
        "bench_serve: {tenants} tenants x {rounds} rounds ({requests} requests) in {wall_secs:.3}s \
         = {:.1} req/s; DL digests bit-identical to one-shot mining",
        requests as f64 / wall_secs
    );
    for (name, secs) in &records {
        println!("  {name}: {:.6}s", secs);
    }

    let mut f = std::fs::File::create(&out_path).expect("can create output file");
    writeln!(f, "{{").unwrap();
    writeln!(f, "  \"suite\": \"serve\",").unwrap();
    writeln!(f, "  \"scale\": \"{scale:?}\",").unwrap();
    writeln!(f, "  \"seed\": {seed},").unwrap();
    writeln!(f, "  \"timings_secs\": {{").unwrap();
    for (i, (name, secs)) in records.iter().enumerate() {
        let comma = if i + 1 == records.len() { "" } else { "," };
        writeln!(f, "    \"{name}\": {secs:.6}{comma}").unwrap();
    }
    writeln!(f, "  }}").unwrap();
    writeln!(f, "}}").unwrap();
    println!("wrote {out_path}");
}
