//! Layer timing for the daemon workloads, from outside the daemon.
//!
//! The daemon runs in another process, so its session and store layers
//! are timed on in-process replicas fed the same deltas: a plain
//! [`MiningSession`] (the session layer alone) and a [`DurableSession`]
//! (session + WAL + checkpoints). For the same reason this process's
//! telemetry registry sees only the durable replica's store traffic,
//! which makes its fsync and WAL-byte counts exact.

use std::path::{Path, PathBuf};

use cspm_core::{CoresetMode, GainPolicy, InvertedDb, Miner, MiningSession};
use cspm_graph::dynamic::GraphDelta;
use cspm_graph::{read_graph, AttributedGraph};
use cspm_store::{Durable, DurableSession};

use crate::stats;
use crate::trace::Tracer;

/// Repeats the parse and database build the daemon did when the tenant
/// was opened with `text`, as `graph.read` and `inverted.build` spans.
pub fn replay_open(tr: &mut Tracer, text: &str) -> Result<(), String> {
    let s = tr.enter("graph.read", 0);
    let parsed = read_graph(text.as_bytes()).map_err(|e| e.to_string())?;
    tr.exit(s);
    let s = tr.enter("inverted.build", 0);
    std::hint::black_box(InvertedDb::build(
        &parsed,
        CoresetMode::SingleValue,
        GainPolicy::Total,
    ));
    tr.exit(s);
    Ok(())
}

/// The in-process store counters (the durable replica's traffic).
#[derive(Debug, Clone, Copy, Default)]
struct StoreCounters {
    fsyncs: f64,
    wal_bytes: f64,
    checkpoints: f64,
    checkpoint_secs: f64,
}

impl StoreCounters {
    fn now() -> StoreCounters {
        let text = cspm_telemetry::global().render();
        StoreCounters {
            fsyncs: stats::scalar(&text, "cspm_store_fsync_total"),
            wal_bytes: stats::scalar(&text, "cspm_store_wal_bytes_total"),
            checkpoints: stats::scalar(&text, "cspm_store_checkpoint_seconds_count"),
            checkpoint_secs: stats::scalar(&text, "cspm_store_checkpoint_seconds_sum"),
        }
    }

    fn add_since(&mut self, before: StoreCounters, after: StoreCounters) {
        self.fsyncs += after.fsyncs - before.fsyncs;
        self.wal_bytes += after.wal_bytes - before.wal_bytes;
        self.checkpoints += after.checkpoints - before.checkpoints;
        self.checkpoint_secs += after.checkpoint_secs - before.checkpoint_secs;
    }
}

/// A tenant's replicas plus what they have counted so far.
pub struct Replica {
    pub plain: MiningSession,
    durable: DurableSession,
    store: StoreCounters,
    dirty_centers: f64,
    rebuilds: f64,
    deltas: f64,
    scratch: PathBuf,
}

impl Replica {
    /// Loads both replicas with `g`, configured like a daemon tenant
    /// (one scoring thread, default compaction and checkpoint cadence).
    pub fn new(g: &AttributedGraph, scratch: &Path) -> Result<Replica, String> {
        std::fs::create_dir_all(scratch).map_err(|e| e.to_string())?;
        let mut plain = Miner::new().threads(1).build();
        plain.load(g);
        let path = scratch.join("replica.csps");
        let mut durable = Miner::new()
            .threads(1)
            .durable(&path)
            .map_err(|e| format!("replica store: {e}"))?;
        durable.load(g).map_err(|e| format!("replica store: {e}"))?;
        Ok(Replica {
            plain,
            durable,
            store: StoreCounters::default(),
            dirty_centers: 0.0,
            rebuilds: 0.0,
            deltas: 0.0,
            scratch: scratch.to_path_buf(),
        })
    }

    /// Stages `delta` on both replicas: `session.stage_delta` (patch,
    /// compaction) and `store.stage_delta` (the same plus WAL append,
    /// fsync and any auto-checkpoint).
    pub fn stage(&mut self, tr: &mut Tracer, cycle: u64, delta: &GraphDelta) {
        let s = tr.enter("session.stage_delta", cycle);
        let stats = self
            .plain
            .stage_delta(delta)
            .expect("a delta the daemon accepted applies to its replica");
        tr.exit(s);
        self.dirty_centers += stats.dirty_centers as f64;
        self.rebuilds += f64::from(u8::from(stats.rebuilt.is_some()));
        self.deltas += 1.0;
        let before = StoreCounters::now();
        let s = tr.enter("store.stage_delta", cycle);
        self.durable
            .stage_delta(delta)
            .expect("a delta the daemon accepted applies to its durable replica");
        tr.exit(s);
        self.store.add_since(before, StoreCounters::now());
    }

    /// An explicit checkpoint, as the daemon takes on `close`.
    pub fn checkpoint(&mut self, tr: &mut Tracer, cycle: u64) {
        let before = StoreCounters::now();
        let s = tr.enter("store.checkpoint", cycle);
        self.durable
            .checkpoint()
            .expect("replica checkpoint succeeds");
        tr.exit(s);
        self.store.add_since(before, StoreCounters::now());
    }

    /// Times `DurableSession::open` on a copy of the daemon's store for
    /// tenant `name` (copied outside the span).
    pub fn open_copy(&self, tr: &mut Tracer, cycle: u64, store_dir: &Path, name: &str) {
        let copy = self.scratch.join("copy");
        let _ = std::fs::remove_dir_all(&copy);
        if std::fs::create_dir_all(&copy).is_err() {
            return;
        }
        let stem = format!("{name}.csps");
        let Ok(entries) = std::fs::read_dir(store_dir) else {
            return;
        };
        for entry in entries.flatten() {
            let file = entry.file_name();
            if file.to_string_lossy().starts_with(&stem) {
                let _ = std::fs::copy(entry.path(), copy.join(&file));
            }
        }
        let s = tr.enter("store.open", cycle);
        let opened = DurableSession::open(Miner::new().threads(1), copy.join(&stem));
        tr.exit(s);
        drop(opened.expect("a copy of a live tenant store opens"));
        let _ = std::fs::remove_dir_all(&copy);
    }

    /// Session and store counts over every delta staged so far.
    pub fn counts(&self) -> Vec<(&'static str, f64)> {
        let per = |x: f64| x / self.deltas.max(1.0);
        vec![
            ("session.deltas", self.deltas),
            ("session.dirty_centers", per(self.dirty_centers)),
            ("session.rebuilds", self.rebuilds),
            ("session.compactions", self.plain.compactions() as f64),
            ("session.fragmentation", self.plain.fragmentation()),
            ("store.fsyncs_per_cycle", per(self.store.fsyncs)),
            ("store.wal_bytes_per_cycle", per(self.store.wal_bytes)),
        ]
    }

    /// Mean replica checkpoint wall time in ms (0 before any).
    pub fn checkpoint_ms(&self) -> f64 {
        if self.store.checkpoints > 0.0 {
            self.store.checkpoint_secs / self.store.checkpoints * 1e3
        } else {
            0.0
        }
    }
}

/// `store.wal_append_ms`: per cycle, the durable stage minus the plain
/// stage; the median over cycles.
pub fn wal_append_ms(tr: &Tracer) -> f64 {
    let durable = tr.ms("store.stage_delta");
    let plain = tr.ms("session.stage_delta");
    let diffs: Vec<f64> = durable.iter().zip(&plain).map(|(d, p)| d - p).collect();
    stats::median_or_zero(&diffs)
}
