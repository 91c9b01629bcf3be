//! `client-reopen`: one client that opens a fresh connection for every
//! request, as `cspm client` does, cycling `open` (warm restore from
//! the snapshot), one windowed delta and `close` (checkpoint) on one
//! durable tenant: the first [`TENANT_VERTICES`] users a breadth-first
//! walk of the pokec-Small graph reaches. The connection accept path
//! and the store's read and full-rewrite paths do the work; the engine
//! does none inside the cycle.
//!
//! The daemon accepts a connection only every 100 ms while idle, so each
//! op costs one poll period as long as it finishes inside one. On the
//! whole pokec-Small graph `open` took about 95 ms, and on a slow
//! stretch of the host it crossed 100 ms and the cycle jumped from 300
//! to 400 ms. A third of the graph keeps every op well inside the
//! period.

use std::path::Path;
use std::time::{Duration, Instant};

use cspm_core::Miner;
use cspm_datasets::{pokec_like, Scale};
use cspm_graph::{induced_subgraph, AttributedGraph, VertexId};
use cspm_serve::json::Value;
use cspm_serve::server::dl_bits;

use crate::churn::{request, Window};
use crate::engine::{clocked_run, engine_counts};
use crate::replica::{self, Replica};
use crate::served::{
    agreement, as_shipped, daemon_store_layers, fill_layers, graphs_json, open_with_graph,
};
use crate::trace::Tracer;
use crate::wire::{self, accepted, call_once, Conn, Daemon};
use crate::{Ctx, Phase, SETUP_REPEATS};

const NAME: &str = "reopen";
/// Users in the tenant, out of pokec-Small's 30,000.
const TENANT_VERTICES: usize = 10_000;
const POOL_THREADS: usize = 2;
/// Cycles over which the traced run takes its exact counts.
const EXACT_CYCLES: u64 = 8;
/// Traced runs time a fresh-connection ping this often.
const ACCEPT_EVERY: u64 = 4;

/// The subgraph induced by the first `n` vertices a breadth-first walk
/// from vertex 0 reaches (restarting at the lowest unreached vertex if a
/// component runs out), so friends of friends stay connected.
fn neighbourhood(g: &AttributedGraph, n: usize) -> AttributedGraph {
    let mut reached = vec![false; g.vertex_count()];
    let mut order: Vec<VertexId> = Vec::with_capacity(n);
    let mut head = 0;
    let mut next_root = 0;
    while order.len() < n.min(g.vertex_count()) {
        if head == order.len() {
            while reached[next_root] {
                next_root += 1;
            }
            reached[next_root] = true;
            order.push(next_root as VertexId);
        }
        let v = order[head];
        head += 1;
        for &w in g.neighbors(v) {
            if order.len() < n && !reached[w as usize] {
                reached[w as usize] = true;
                order.push(w);
            }
        }
    }
    induced_subgraph(g, &order).graph
}

fn scrape(tr: &mut Tracer, socket: &Path) -> Result<String, String> {
    let s = tr.enter("telemetry.scrape", 0);
    let text = Conn::connect(socket).and_then(|mut c| wire::scrape(&mut c));
    tr.exit(s);
    text
}

/// One request on a fresh connection, filed as a `span` span; returns
/// the response and the round trip in ms.
fn timed_call(
    tr: &mut Tracer,
    span: &'static str,
    cycle: u64,
    socket: &Path,
    req: &str,
) -> (Result<Value, String>, f64) {
    let s = tr.enter(span, cycle);
    let t = Instant::now();
    let r = call_once(socket, req);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    tr.exit(s);
    (r, ms)
}

pub fn run(ctx: &Ctx) -> Result<Phase, String> {
    let mut phase = Phase::new(ctx.traced);
    let mut setup = None;
    for rep in 0..SETUP_REPEATS {
        let dir = ctx.work.join(format!("setup{rep}"));
        let t = Instant::now();
        let (text, graph) = as_shipped(&neighbourhood(
            &pokec_like(Scale::Small, ctx.seed).graph,
            TENANT_VERTICES,
        ));
        let daemon = Daemon::start(&dir.join("d.sock"), &dir.join("store"), POOL_THREADS)?;
        let (opened, _) = timed_call(
            &mut phase.tracer,
            "serve.rtt_open",
            0,
            &daemon.socket,
            &open_with_graph(NAME, &text),
        );
        let closed = call_once(&daemon.socket, &request("close", NAME));
        if !accepted("open", &opened) || !accepted("close", &closed) {
            return Err("set-up could not seed the tenant store".into());
        }
        phase.setup_s.push(t.elapsed().as_secs_f64());
        if rep + 1 < SETUP_REPEATS {
            daemon.stop()?;
            let _ = std::fs::remove_dir_all(&dir);
        } else {
            setup = Some((dir, daemon, text, graph));
        }
    }
    let (dir, daemon, text, mut local) = setup.expect("at least one set-up ran");
    let socket = daemon.socket.clone();
    let store_dir = dir.join("store");
    phase.provenance.extend([
        ("scale", "\"small\"".to_string()),
        (
            "graphs",
            graphs_json(&[("pokec-small-bfs".to_string(), &local)]),
        ),
        ("engine_threads", "1".to_string()),
        ("daemon_pool_threads", POOL_THREADS.to_string()),
    ]);

    let mut replica = if ctx.traced {
        replica::replay_open(&mut phase.tracer, &text)?;
        Some(Replica::new(&local, &ctx.work.join("replica"))?)
    } else {
        None
    };
    drop(text);
    let scrape_before = scrape(&mut phase.tracer, &socket)?;

    let mut window = Window::new(&local, ctx.seed ^ 0x5eed, 1);
    phase
        .provenance
        .push(("churn_batch", window.batch().to_string()));
    let (open_req, close_req) = (request("open", NAME), request("close", NAME));
    let mut per_op: [Vec<f64>; 3] = Default::default();
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let started = Instant::now();
    let mut cycle = 0u64;
    while Instant::now() < deadline || (replica.is_some() && cycle < EXACT_CYCLES) {
        cycle += 1;
        let step = window.next(&local, NAME);
        let tr = &mut phase.tracer;
        let root = tr.enter("cycle", cycle);
        let t0 = Instant::now();
        let open = timed_call(tr, "serve.rtt_open", cycle, &socket, &open_req);
        let delta = timed_call(tr, "serve.rtt_delta", cycle, &socket, &step.request);
        let close = timed_call(tr, "serve.rtt_close", cycle, &socket, &close_req);
        let cycle_ms = t0.elapsed().as_secs_f64() * 1e3;
        tr.exit(root);
        let transport_failed = [&open.0, &delta.0, &close.0].iter().any(|r| r.is_err());
        let oks = [
            accepted("open", &open.0),
            accepted("delta", &delta.0),
            accepted("close", &close.0),
        ];
        for ok in oks {
            phase.op(ok);
        }
        if oks[1] {
            step.delta
                .apply_in_place(&mut local)
                .expect("a delta the daemon accepted applies locally");
        }
        if oks.iter().all(|&ok| ok) {
            phase.cycle_ms.push(cycle_ms);
            for (samples, ms) in per_op.iter_mut().zip([open.1, delta.1, close.1]) {
                samples.push(ms);
            }
        }
        if transport_failed {
            break;
        }
        let Some(r) = replica.as_mut() else {
            continue;
        };
        let tr = &mut phase.tracer;
        if oks[1] {
            r.stage(tr, cycle, &step.delta);
        }
        r.checkpoint(tr, cycle);
        r.open_copy(tr, cycle, &store_dir, NAME);
        if cycle.is_multiple_of(ACCEPT_EVERY) {
            let s = tr.enter("serve.accept", cycle);
            let _ = call_once(&socket, r#"{"op":"ping"}"#);
            tr.exit(s);
        }
        if cycle == EXACT_CYCLES {
            let db = r.plain.pristine_db().expect("replica is loaded");
            let s = tr.enter("inverted.sharing_pairs", cycle);
            let pairs = std::hint::black_box(db.sharing_pairs()).len();
            tr.exit(s);
            phase.counts.insert("inverted.sharing_pairs", pairs as f64);
            phase.counts.extend(r.counts());
            // The engine does no work inside a reopen cycle; its layers
            // are timed on one warm replica mine of this fixed state.
            let result = clocked_run(tr, "session.run", cycle, &mut r.plain);
            phase.counts.extend(engine_counts(&result));
        }
    }
    phase.wall_s = started.elapsed().as_secs_f64();
    let scrape_after = scrape(&mut phase.tracer, &socket)?;

    // Bit-identity gate, outside the timed loop: one more open/mine/
    // close, against a cold one-shot mine of the locally evolved graph.
    let tr = &mut phase.tracer;
    let open = call_once(&socket, &open_req);
    let (mined, _) = timed_call(tr, "serve.rtt_mine", 0, &socket, &request("mine", NAME));
    let close = call_once(&socket, &close_req);
    let oks = [
        accepted("open", &open),
        accepted("mine", &mined),
        accepted("close", &close),
    ];
    for ok in oks {
        phase.op(ok);
    }
    let digest = mined.ok().and_then(|v| {
        v.get("final_dl_bits")
            .and_then(Value::as_str)
            .map(String::from)
    });
    let cold = Miner::new().threads(1).build().mine(&local);
    let want = dl_bits(cold.final_dl);
    if digest.as_deref() != Some(want.as_str()) {
        phase.mismatches.push(format!(
            "{NAME}: daemon digest {digest:?}, cold one-shot {want}"
        ));
    }
    if ctx.traced {
        // About 5 s on this tenant, so traced runs only.
        phase.check_lossless(&local, &cold.db);
    }
    drop(cold);
    let scrape_end = scrape(&mut phase.tracer, &socket)?;
    let (own_mb, daemon_mb) = (wire::peak_rss_mb("self"), daemon.peak_rss_mb());
    phase.peak_rss_mb = own_mb + daemon_mb;
    phase.report.push(format!(
        "peak RSS: benchmark process {own_mb:.1} MB + daemon {daemon_mb:.1} MB"
    ));
    agreement(
        &mut phase,
        &[
            ("open", &per_op[0]),
            ("delta", &per_op[1]),
            ("close", &per_op[2]),
        ],
        &scrape_before,
        &scrape_after,
    );

    if let Some(r) = replica {
        let cycles = phase.cycle_ms.len() as f64;
        daemon_store_layers(&mut phase, &scrape_before, &scrape_after, cycles);
        fill_layers(&mut phase, &scrape_before, &scrape_end);
        phase.layer("store.checkpoint_ms", r.checkpoint_ms());
    }
    daemon.stop()?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(phase)
}
