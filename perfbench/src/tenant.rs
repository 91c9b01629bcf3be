//! `tenant-churn`: two clients, each on one persistent connection to a
//! daemon run with `--threads 2 --store-dir`, each driving its own
//! durable DBLP paper-scale tenant through cycles of one windowed delta
//! then one `mine`. The request path, pool and registry, delta
//! patching, WAL append + fsync and auto-checkpoints (every 64 deltas)
//! do the work; every mine is small. No connection is opened while the
//! cycles run.
//!
//! One thread drives both clients in turn, so one cycle is in flight at
//! a time. Two clients in flight at once kept both of a 2-core host's
//! cores busy, and their cycle tail then measured the scheduler and the
//! host's steal time more than the daemon.

use std::path::Path;
use std::time::{Duration, Instant};

use cspm_core::Miner;
use cspm_datasets::{dblp_like, Scale};
use cspm_graph::AttributedGraph;
use cspm_serve::json::Value;
use cspm_serve::server::dl_bits;

use crate::churn::{request, Window};
use crate::engine::{clocked_run, engine_counts};
use crate::replica::{self, Replica};
use crate::served::{
    agreement, as_shipped, daemon_store_layers, fill_layers, graphs_json, open_with_graph,
    timed_scrape,
};
use crate::trace::Tracer;
use crate::wire::{self, accepted, Conn, Daemon};
use crate::{Ctx, Phase, SETUP_REPEATS};

const TENANTS: usize = 2;
const POOL_THREADS: usize = 2;
/// Cycles of tenant 0 over which the traced run takes its exact counts
/// (the 64th delta triggers one auto-checkpoint inside the window).
const EXACT_CYCLES: u64 = 64;
/// Traced runs time a store open and a fresh-connection ping this often.
const SAMPLE_EVERY: u64 = 16;

pub fn tenant_name(k: usize) -> String {
    format!("tenant{k}")
}

struct Client {
    name: String,
    mine_req: String,
    conn: Conn,
    local: AttributedGraph,
    window: Window,
    cycle: u64,
    tracer: Tracer,
    cycle_ms: Vec<f64>,
    delta_ms: Vec<f64>,
    mine_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    digest: Option<String>,
    replica: Option<Replica>,
    engine_sums: [f64; 3],
    exact: Vec<(&'static str, f64)>,
    mismatches: Vec<String>,
}

impl Client {
    fn op(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        ok
    }
}

pub fn run(ctx: &Ctx) -> Result<Phase, String> {
    let mut phase = Phase::new(ctx.traced);
    let mut setup = None;
    for rep in 0..SETUP_REPEATS {
        let dir = ctx.work.join(format!("setup{rep}"));
        let t = Instant::now();
        let shipped: Vec<(String, AttributedGraph)> = (0..TENANTS)
            .map(|k| as_shipped(&dblp_like(Scale::Paper, ctx.seed.wrapping_add(k as u64)).graph))
            .collect();
        let daemon = Daemon::start(&dir.join("d.sock"), &dir.join("store"), POOL_THREADS)?;
        let mut conns = Vec::new();
        for (k, (text, _)) in shipped.iter().enumerate() {
            let mut conn = Conn::connect(&daemon.socket)?;
            let s = phase.tracer.enter("serve.rtt_open", 0);
            let opened = conn.call(&open_with_graph(&tenant_name(k), text));
            phase.tracer.exit(s);
            if !accepted("open", &opened) {
                return Err(format!("set-up could not open {}", tenant_name(k)));
            }
            conns.push(conn);
        }
        phase.setup_s.push(t.elapsed().as_secs_f64());
        if rep + 1 < SETUP_REPEATS {
            drop(conns);
            daemon.stop()?;
            let _ = std::fs::remove_dir_all(&dir);
        } else {
            setup = Some((dir, daemon, conns, shipped));
        }
    }
    let (dir, daemon, mut conns, shipped) = setup.expect("at least one set-up ran");
    let named: Vec<(String, &AttributedGraph)> = shipped
        .iter()
        .enumerate()
        .map(|(k, (_, g))| (format!("dblp-paper-{k}"), g))
        .collect();
    phase.provenance.extend([
        ("scale", "\"paper\"".to_string()),
        ("graphs", graphs_json(&named)),
        ("engine_threads", "1".to_string()),
        ("daemon_pool_threads", POOL_THREADS.to_string()),
    ]);

    let mut replica = if ctx.traced {
        replica::replay_open(&mut phase.tracer, &shipped[0].0)?;
        Some(Replica::new(&shipped[0].1, &ctx.work.join("replica"))?)
    } else {
        None
    };
    let graphs: Vec<AttributedGraph> = shipped.into_iter().map(|(_, g)| g).collect();
    let scrape_before = timed_scrape(&mut phase.tracer, &mut conns[0])?;

    let mut clients: Vec<Client> = conns
        .drain(..)
        .zip(graphs)
        .enumerate()
        .map(|(k, (conn, local))| {
            let name = tenant_name(k);
            Client {
                mine_req: request("mine", &name),
                window: Window::new(&local, ctx.seed ^ (0x5eed << k), 10),
                name,
                conn,
                local,
                cycle: 0,
                tracer: phase.tracer.fork(k),
                cycle_ms: Vec::new(),
                delta_ms: Vec::new(),
                mine_ms: Vec::new(),
                attempted: 0,
                failed: 0,
                digest: None,
                replica: if k == 0 { replica.take() } else { None },
                engine_sums: [0.0; 3],
                exact: Vec::new(),
                mismatches: Vec::new(),
            }
        })
        .collect();
    let store_dir = dir.join("store");
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let started = Instant::now();
    'run: while Instant::now() < deadline
        || (clients[0].replica.is_some() && clients[0].cycle < EXACT_CYCLES)
    {
        for c in clients.iter_mut() {
            if !cycle(c, &daemon.socket, &store_dir) {
                break 'run;
            }
        }
    }
    phase.wall_s = started.elapsed().as_secs_f64();

    let scrape_after = timed_scrape(&mut phase.tracer, &mut clients[0].conn)?;
    let (mut delta_ms, mut mine_ms) = (Vec::new(), Vec::new());
    for (k, c) in clients.iter_mut().enumerate() {
        phase.cycle_ms.extend(&c.cycle_ms);
        delta_ms.extend(&c.delta_ms);
        mine_ms.extend(&c.mine_ms);
        phase.attempted += c.attempted;
        phase.failed += c.failed;
        phase.mismatches.append(&mut c.mismatches);
        // Bit-identity gate: the daemon's last mine against a cold
        // one-shot mine of the locally evolved replica graph.
        let cold = Miner::new().threads(1).build().mine(&c.local);
        let want = dl_bits(cold.final_dl);
        if c.digest.as_deref() != Some(want.as_str()) {
            phase.mismatches.push(format!(
                "{}: daemon digest {:?}, cold one-shot {want}",
                tenant_name(k),
                c.digest
            ));
        }
        if k == 0 {
            phase.check_lossless(&c.local, &cold.db);
        }
        let s = phase.tracer.enter("serve.rtt_close", 0);
        let closed = c.conn.call(&request("close", &tenant_name(k)));
        phase.tracer.exit(s);
        phase.op(accepted("close", &closed));
    }
    let scrape_end = timed_scrape(&mut phase.tracer, &mut clients[0].conn)?;
    let (own_mb, daemon_mb) = (wire::peak_rss_mb("self"), daemon.peak_rss_mb());
    phase.peak_rss_mb = own_mb + daemon_mb;
    phase.report.push(format!(
        "peak RSS: benchmark process {own_mb:.1} MB + daemon {daemon_mb:.1} MB"
    ));
    agreement(
        &mut phase,
        &[("delta", &delta_ms), ("mine", &mine_ms)],
        &scrape_before,
        &scrape_after,
    );

    if ctx.traced {
        let cycles = phase.cycle_ms.len() as f64;
        for c in clients.iter_mut() {
            let tracer = std::mem::replace(&mut c.tracer, phase.tracer.fork(0));
            phase.tracer.absorb(tracer);
            phase.counts.extend(c.exact.iter().copied());
        }
        daemon_store_layers(&mut phase, &scrape_before, &scrape_after, cycles);
        fill_layers(&mut phase, &scrape_before, &scrape_end);
        if let Some(r) = clients[0].replica.as_ref() {
            phase.layer("store.checkpoint_ms", r.checkpoint_ms());
        }
    }
    drop(clients);
    daemon.stop()?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(phase)
}

/// One delta + mine cycle of client `c`; false on a transport failure.
fn cycle(c: &mut Client, socket: &Path, store_dir: &Path) -> bool {
    c.cycle += 1;
    let cycle = c.cycle;
    let step = c.window.next(&c.local, &c.name);
    let root = c.tracer.enter("cycle", cycle);
    let t0 = Instant::now();
    let s = c.tracer.enter("serve.rtt_delta", cycle);
    let delta = c.conn.call(&step.request);
    c.tracer.exit(s);
    let t1 = Instant::now();
    let s = c.tracer.enter("serve.rtt_mine", cycle);
    let mined = c.conn.call(&c.mine_req);
    c.tracer.exit(s);
    let t2 = Instant::now();
    c.tracer.exit(root);
    let transport_failed = delta.is_err() || mined.is_err();
    let delta_ok = accepted("delta", &delta);
    let mine_ok = accepted("mine", &mined);
    c.op(delta_ok);
    c.op(mine_ok);
    if delta_ok {
        step.delta
            .apply_in_place(&mut c.local)
            .expect("a delta the daemon accepted applies locally");
    }
    if mine_ok {
        c.cycle_ms.push((t2 - t0).as_secs_f64() * 1e3);
        c.delta_ms.push((t1 - t0).as_secs_f64() * 1e3);
        c.mine_ms.push((t2 - t1).as_secs_f64() * 1e3);
        c.digest = mined.ok().and_then(|v| {
            v.get("final_dl_bits")
                .and_then(Value::as_str)
                .map(String::from)
        });
    }
    if transport_failed {
        return false;
    }
    let Some(r) = c.replica.as_mut() else {
        return true;
    };
    if delta_ok {
        r.stage(&mut c.tracer, cycle, &step.delta);
    }
    let result = clocked_run(&mut c.tracer, "session.run", cycle, &mut r.plain);
    let replica_digest = dl_bits(result.final_dl);
    if mine_ok && c.digest.as_deref() != Some(replica_digest.as_str()) {
        c.mismatches.push(format!(
            "{} cycle {cycle}: daemon digest {:?}, warm replica {replica_digest}",
            c.name, c.digest
        ));
    }
    if cycle <= EXACT_CYCLES {
        for (sum, (_, v)) in c.engine_sums.iter_mut().zip(engine_counts(&result)) {
            *sum += v;
        }
    }
    if cycle.is_multiple_of(SAMPLE_EVERY) {
        r.open_copy(&mut c.tracer, cycle, store_dir, &c.name);
        let s = c.tracer.enter("serve.accept", cycle);
        let _ = wire::call_once(socket, r#"{"op":"ping"}"#);
        c.tracer.exit(s);
    }
    if cycle == EXACT_CYCLES {
        let db = r.plain.pristine_db().expect("replica is loaded");
        let s = c.tracer.enter("inverted.sharing_pairs", cycle);
        let pairs = std::hint::black_box(db.sharing_pairs()).len();
        c.tracer.exit(s);
        c.exact.push(("inverted.sharing_pairs", pairs as f64));
        let names = ["engine.merges", "engine.gain_evals", "engine.pruned_pairs"];
        for (n, sum) in names.into_iter().zip(c.engine_sums) {
            c.exact.push((n, sum / EXACT_CYCLES as f64));
        }
        c.exact.extend(r.counts());
    }
    true
}
