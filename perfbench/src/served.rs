//! What the two daemon workloads share: shipping a generated graph to
//! the daemon, reading its metrics scrape, and filing the per-layer
//! metrics both derive the same way.

use cspm_graph::{read_graph, write_graph, AttributedGraph};
use cspm_serve::json::Value;

use crate::churn::str_field;
use crate::replica;
use crate::stats::{self, Buckets};
use crate::trace::Tracer;
use crate::wire::{self, Conn};
use crate::Phase;

/// A generated graph as the daemon will hold it: its text form, and the
/// graph parsed back from that text. The parse fixes attribute-id
/// order, which the DL digest depends on bit for bit, so the local
/// replica starts from the parsed graph, exactly as the daemon does.
pub fn as_shipped(g: &AttributedGraph) -> (String, AttributedGraph) {
    let mut text = Vec::new();
    write_graph(g, &mut text).expect("writing to memory cannot fail");
    let parsed = read_graph(text.as_slice()).expect("a written graph parses");
    (
        String::from_utf8(text).expect("graph text is UTF-8"),
        parsed,
    )
}

/// `{"op":"open","session":name,"graph":<text>}`.
pub fn open_with_graph(name: &str, text: &str) -> String {
    Value::Obj(vec![
        str_field("op", "open"),
        str_field("session", name),
        str_field("graph", text),
    ])
    .to_json()
}

/// Graph-shape provenance for a list of named graphs.
pub fn graphs_json(graphs: &[(String, &AttributedGraph)]) -> String {
    let items: Vec<String> = graphs
        .iter()
        .map(|(name, g)| {
            format!(
                "{{\"name\":\"{name}\",\"vertices\":{},\"edges\":{},\"attribute_values\":{}}}",
                g.vertex_count(),
                g.edge_count(),
                g.attr_count()
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

/// One scrape with its round trip filed as a `telemetry.scrape` span.
pub fn timed_scrape(tr: &mut Tracer, conn: &mut Conn) -> Result<String, String> {
    let s = tr.enter("telemetry.scrape", 0);
    let text = wire::scrape(conn);
    tr.exit(s);
    text
}

/// Per op, daemon-side p50/p99 (`cspm_serve_request_seconds`) against
/// the client's own round trips; a daemon figure above the client's is
/// flagged, since the daemon's interval lies inside the client's.
pub fn agreement(phase: &mut Phase, ops: &[(&str, &[f64])], before: &str, after: &str) {
    for &(op, client_ms) in ops {
        let labels = format!("op=\"{op}\",");
        let family = "cspm_serve_request_seconds";
        let daemon =
            Buckets::parse(after, family, &labels).since(&Buckets::parse(before, family, &labels));
        if daemon.count() == 0.0 || client_ms.is_empty() {
            continue;
        }
        let (d50, d99) = (daemon.quantile(0.5) * 1e3, daemon.quantile(0.99) * 1e3);
        let (c50, c99) = (
            stats::quantile(client_ms, 0.5),
            stats::quantile(client_ms, 0.99),
        );
        let flag = if d50 > c50 || d99 > c99 {
            "  FLAG: daemon above client"
        } else {
            ""
        };
        phase.report.push(format!(
            "telemetry agreement {op}: daemon p50 {d50:.3} ms p99 {d99:.3} ms | \
             client p50 {c50:.3} ms p99 {c99:.3} ms ({} samples){flag}",
            client_ms.len()
        ));
    }
}

/// Daemon-side p50 of `op` in ms over `after - before`, or over the
/// daemon's whole life (`after` alone) when the window saw none.
pub fn daemon_p50_ms(before: &str, after: &str, op: &str) -> f64 {
    let labels = format!("op=\"{op}\",");
    let family = "cspm_serve_request_seconds";
    let whole = Buckets::parse(after, family, &labels);
    let window = whole.since(&Buckets::parse(before, family, &labels));
    let b = if window.count() > 0.0 { window } else { whole };
    b.quantile(0.5) * 1e3
}

/// Per-cycle daemon store and lock figures between two scrapes.
pub fn daemon_store_layers(phase: &mut Phase, before: &str, after: &str, cycles: f64) {
    let diff = |name: &str| stats::scalar(after, name) - stats::scalar(before, name);
    phase.layer(
        "store.fsyncs_per_cycle",
        diff("cspm_store_fsync_total") / cycles,
    );
    phase.layer(
        "store.wal_bytes_per_cycle",
        diff("cspm_store_wal_bytes_total") / cycles,
    );
    let hist =
        |family: &str| Buckets::parse(after, family, "").since(&Buckets::parse(before, family, ""));
    phase.layer(
        "store.fsync_ms_p50",
        hist("cspm_store_fsync_seconds").quantile(0.5) * 1e3,
    );
    phase.layer(
        "serve.lock_wait_ms_p90",
        hist("cspm_serve_registry_lock_wait_seconds").quantile(0.9) * 1e3,
    );
}

/// The per-layer metrics both daemon workloads derive the same way.
pub fn fill_layers(phase: &mut Phase, before: &str, end: &str) {
    let tr = &phase.tracer;
    let med = |name: &str| stats::median_or_zero(&tr.ms(name));
    // Pool queueing and rendering: the daemon's mean mine time (exact
    // from the histogram's sum and count; its doubling buckets make the
    // quantile too coarse to subtract from) minus the replica's mean run.
    let key = |part: &str| format!("cspm_serve_request_seconds_{part}{{op=\"mine\"}}");
    let diff = |part: &str| stats::scalar(end, &key(part)) - stats::scalar(before, &key(part));
    let runs = tr.ms("session.run");
    let mine_overhead = diff("sum") / diff("count").max(1.0) * 1e3
        - runs.iter().sum::<f64>() / runs.len().max(1) as f64;
    let values = [
        ("serve.mine_overhead_ms", mine_overhead),
        ("graph.read_s", med("graph.read") / 1e3),
        ("inverted.build_s", med("inverted.build") / 1e3),
        (
            "inverted.sharing_pairs_s",
            med("inverted.sharing_pairs") / 1e3,
        ),
        ("session.stage_delta_ms", med("session.stage_delta")),
        ("session.run_ms", med("session.run")),
        ("store.open_ms", med("store.open")),
        ("store.wal_append_ms", replica::wal_append_ms(tr)),
        ("serve.rtt_open_ms_p50", med("serve.rtt_open")),
        ("serve.rtt_delta_ms_p50", med("serve.rtt_delta")),
        ("serve.rtt_mine_ms_p50", med("serve.rtt_mine")),
        ("serve.rtt_close_ms_p50", med("serve.rtt_close")),
        ("serve.accept_ms", med("serve.accept")),
        ("telemetry.scrape_ms", med("telemetry.scrape")),
    ];
    for (k, v) in values {
        phase.layer(k, v);
    }
    for (op, name) in [
        ("open", "serve.daemon_open_ms_p50"),
        ("delta", "serve.daemon_delta_ms_p50"),
        ("mine", "serve.daemon_mine_ms_p50"),
        ("close", "serve.daemon_close_ms_p50"),
    ] {
        phase.layer(name, daemon_p50_ms(before, end, op));
    }
    crate::engine::engine_layers(phase);
    for key in [
        "engine.merges",
        "engine.gain_evals",
        "engine.pruned_pairs",
        "inverted.sharing_pairs",
        "session.dirty_centers",
        "session.rebuilds",
        "session.compactions",
        "session.fragmentation",
    ] {
        if let Some(&v) = phase.counts.get(key) {
            phase.layer(key, v);
        }
    }
    let evals = phase
        .counts
        .get("engine.gain_evals")
        .copied()
        .unwrap_or(0.0);
    let pruned = phase
        .counts
        .get("engine.pruned_pairs")
        .copied()
        .unwrap_or(0.0);
    phase.layer("engine.prune_ratio", pruned / evals.max(1.0));
}
