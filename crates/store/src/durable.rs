//! A [`MiningSession`] that survives process death.
//!
//! [`DurableSession`] pairs a live session with a [`SessionStore`]:
//! opening recovers whatever the store holds (snapshot + WAL replay,
//! warm database restore when the stored rows validate), mining
//! checkpoints the result, and staged deltas are logged before the
//! call returns. The spelling is one word on the builder:
//!
//! ```no_run
//! use cspm_core::Miner;
//! use cspm_store::Durable;
//!
//! let mut session = Miner::new().durable("pokec.css")?;
//! # Ok::<(), cspm_store::StoreError>(())
//! ```
//!
//! # Consistency contract
//!
//! A crash at *any* point leaves the store recoverable to a state the
//! in-memory session actually passed through: staged deltas are
//! applied to the session first and logged second, so a crash between
//! the two recovers the pre-delta state; checkpoints are atomic
//! renames, so a crash recovers either the old or the new snapshot
//! (the WAL's generation stamp keeps a stale log from replaying onto
//! a new snapshot). The fault-injection suite in `tests/` sweeps every
//! byte of every write under kill/truncate/flip faults and asserts
//! exactly this.
//!
//! Recovery anomalies are kept queryable on the session
//! ([`DurableSession::recovery`], [`DurableSession::db_rebuilt`]).
//! Three are also reported through [`ProgressObserver::on_warning`] at
//! open: a snapshot fallback, a warm database that had to be rebuilt,
//! and a WAL record that no longer applies. A torn WAL tail shows only
//! in `recovery()`.

use std::path::Path;

use cspm_core::engine::CspmResult;
use cspm_core::{
    CspmConfig, DeltaStats, InvertedDb, Miner, MiningSession, ProgressObserver, RunToCompletion,
    SessionError,
};
use cspm_graph::dynamic::GraphDelta;
use cspm_graph::AttributedGraph;

use crate::{RecoveryOutcome, SessionStore, StoreError, StoreStats};

/// Why a durable-session call failed: the store or the session half.
#[derive(Debug)]
pub enum DurableError {
    /// The persistence layer failed (I/O, refused file). The
    /// in-memory session may be *ahead* of the store — a successful
    /// [`DurableSession::checkpoint`] resynchronises them.
    Store(StoreError),
    /// The session rejected the call ([`SessionError`] semantics,
    /// including the applied-prefix contract for delta batches).
    Session(SessionError),
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Store(e) => write!(f, "durable session store failure: {e}"),
            Self::Session(e) => write!(f, "durable session failure: {e}"),
        }
    }
}

impl std::error::Error for DurableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Store(e) => Some(e),
            Self::Session(e) => Some(e),
        }
    }
}

impl From<StoreError> for DurableError {
    fn from(e: StoreError) -> Self {
        Self::Store(e)
    }
}

impl From<SessionError> for DurableError {
    fn from(e: SessionError) -> Self {
        Self::Session(e)
    }
}

/// A [`MiningSession`] backed by a [`SessionStore`]. See the
/// [module docs](self) for the consistency contract.
#[derive(Debug)]
pub struct DurableSession {
    session: MiningSession,
    store: SessionStore,
    config: CspmConfig,
    recovery: RecoveryOutcome,
    db_rebuilt: Option<String>,
    staged_since_checkpoint: usize,
}

impl DurableSession {
    /// Deltas staged between automatic checkpoints. Every checkpoint
    /// rewrites the whole snapshot, so "every delta" would turn O(1)
    /// appends into O(graph) rewrites; a small batch keeps
    /// replay-on-open short without that.
    pub const CHECKPOINT_EVERY: usize = 64;

    /// Opens the store at `path` and builds the session from it:
    /// fresh when nothing is there, warm-restored when the snapshot's
    /// database section validates against `miner`'s configuration,
    /// cold-rebuilt from the stored graph otherwise. Valid WAL deltas
    /// are replayed on top.
    pub fn open(miner: Miner, path: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::open_with(miner, path, &mut RunToCompletion)
    }

    /// [`Self::open`], reporting recovery anomalies (snapshot
    /// fallback, cold database rebuilds, a WAL record that no longer
    /// applies) to `observer` via [`ProgressObserver::on_warning`] as
    /// they are discovered. A torn WAL tail is only in
    /// [`Self::recovery`].
    pub fn open_with(
        miner: Miner,
        path: impl AsRef<Path>,
        observer: &mut dyn ProgressObserver,
    ) -> Result<Self, StoreError> {
        let config = *miner.config();
        let mut session = miner.build();
        let (mut store, recovered) = SessionStore::open(path)?;
        let mut recovery = recovered.outcome;
        let mut db_rebuilt = None;

        if let RecoveryOutcome::SnapshotFallback { detail } = &recovery {
            observer.on_warning(&format!(
                "store snapshot unusable ({detail}); starting over — re-mine to rebuild it"
            ));
        }

        if let Some(state) = recovered.state {
            let stored_config_matches =
                state.mode == Some(config.coreset_mode) && state.gain == Some(config.gain_policy);
            let mut rebuild_reason = None;
            let warm = if !stored_config_matches {
                rebuild_reason =
                    Some("store was checkpointed under a different configuration".to_string());
                None
            } else if let Some(section) = state.db {
                match InvertedDb::from_pristine_rows(
                    &state.graph,
                    config.gain_policy,
                    section.iter(),
                ) {
                    Ok(db) => Some(db),
                    Err(e) => {
                        rebuild_reason = Some(e.to_string());
                        None
                    }
                }
            } else {
                // No section is the *expected* shape for multi-value
                // modes; it only deserves a warning when damage ate it.
                rebuild_reason = state.db_note;
                None
            };
            if let Some(reason) = &rebuild_reason {
                observer.on_warning(&format!(
                    "warm database unavailable ({reason}); rebuilding from the stored graph"
                ));
                db_rebuilt = rebuild_reason.clone();
            }
            let db = match warm {
                Some(db) => db,
                None => InvertedDb::build(&state.graph, config.coreset_mode, config.gain_policy),
            };
            session.restore(state.graph, db);

            if !state.deltas.is_empty() {
                match session.stage_deltas(&state.deltas) {
                    Ok(_) => {}
                    Err(SessionError::Delta { index, source }) => {
                        // A logged delta that no longer applies is
                        // corruption the checksums cannot see (it was
                        // *written* wrong). Same policy as a torn
                        // tail: keep the applied prefix, drop the rest.
                        let dropped = store.rewrite_wal(&state.deltas[..index])?;
                        observer.on_warning(&format!(
                            "WAL record #{index} does not apply ({source}); log truncated to the {index} records before it"
                        ));
                        let prior = match recovery {
                            RecoveryOutcome::TailTruncated { dropped_bytes, .. } => dropped_bytes,
                            _ => 0,
                        };
                        recovery = RecoveryOutcome::TailTruncated {
                            wal_records: index,
                            dropped_bytes: prior + dropped,
                        };
                    }
                    Err(e @ (SessionError::Empty | SessionError::NoGraph)) => {
                        unreachable!("session was restored just above: {e}")
                    }
                }
            }
        }

        Ok(Self {
            session,
            store,
            config,
            recovery,
            db_rebuilt,
            staged_since_checkpoint: 0,
        })
    }

    /// How the open went — `cspm stats --store` reports this verbatim.
    pub fn recovery(&self) -> &RecoveryOutcome {
        &self.recovery
    }

    /// Why the warm database restore was skipped at open (if it was):
    /// config mismatch, damaged section, or rejected rows.
    pub fn db_rebuilt(&self) -> Option<&str> {
        self.db_rebuilt.as_deref()
    }

    /// The inner session, read-only. All mutation goes through the
    /// durable entry points so the store can keep up.
    pub fn session(&self) -> &MiningSession {
        &self.session
    }

    /// The backing store (paths, generation, [`Self::stats`] source).
    pub fn store(&self) -> &SessionStore {
        &self.store
    }

    /// The backing store, mutably — for
    /// [`arm_fault`](SessionStore::arm_fault) in tests.
    pub fn store_mut(&mut self) -> &mut SessionStore {
        &mut self.store
    }

    /// File sizes, generation and WAL position.
    pub fn stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// Staged deltas since the last checkpoint (the auto-checkpoint
    /// counter, equal to the store's WAL record count in steady state).
    pub fn staged_since_checkpoint(&self) -> usize {
        self.staged_since_checkpoint
    }

    /// Snapshots the session's current graph + database and resets the
    /// WAL. No-op state-wise, durable bytes-wise.
    pub fn checkpoint(&mut self) -> Result<(), DurableError> {
        let graph = self
            .session
            .graph()
            .ok_or(DurableError::Session(SessionError::Empty))?;
        self.store.checkpoint(
            graph,
            self.session.pristine_db(),
            self.config.coreset_mode,
            self.config.gain_policy,
        )?;
        self.staged_since_checkpoint = 0;
        Ok(())
    }

    /// Cold-loads `g` and checkpoints it — durability without mining.
    /// A serving daemon opens tenants this way: the graph is on disk
    /// (and the WAL reset) immediately, while the first mine happens
    /// whenever the tenant asks for it.
    pub fn load(&mut self, g: &AttributedGraph) -> Result<(), DurableError> {
        self.session.load(g);
        self.checkpoint()
    }

    /// Compacts the retained posting arena in place (no store traffic;
    /// the next checkpoint simply snapshots the denser arena).
    pub fn compact_now(&mut self) {
        self.session.compact_now();
    }

    /// Cold-loads and checkpoints `g` ([`Self::load`]), then mines it,
    /// so the next open is warm. Equivalent to [`MiningSession::mine`]
    /// + durability.
    pub fn mine(&mut self, g: &AttributedGraph) -> Result<CspmResult, DurableError> {
        self.load(g)?;
        self.run()
    }

    /// Re-runs the merge loop on the retained (possibly
    /// delta-patched) database. Pure compute — no store traffic.
    pub fn run(&mut self) -> Result<CspmResult, DurableError> {
        self.run_with(&mut RunToCompletion)
    }

    /// [`Self::run`] with a progress observer.
    pub fn run_with(
        &mut self,
        observer: &mut dyn ProgressObserver,
    ) -> Result<CspmResult, DurableError> {
        Ok(self.session.run_with(observer)?)
    }

    /// Stages one delta durably: applied to the session, appended to
    /// the WAL, auto-checkpointed past the threshold.
    pub fn stage_delta(&mut self, delta: &GraphDelta) -> Result<DeltaStats, DurableError> {
        self.stage_deltas(std::slice::from_ref(delta))
    }

    /// Stages a batch durably. The session's applied-prefix contract
    /// carries over: on [`SessionError::Delta`] `{ index, .. }` every
    /// delta before `index` is both applied *and* logged. A
    /// [`DurableError::Store`] means the append itself failed — the
    /// session is then ahead of the log, and a successful
    /// [`Self::checkpoint`] reconverges the two.
    pub fn stage_deltas(&mut self, deltas: &[GraphDelta]) -> Result<DeltaStats, DurableError> {
        if !self.session.is_loaded() {
            return Err(SessionError::Empty.into());
        }
        if self.session.graph().is_none() {
            return Err(SessionError::NoGraph.into());
        }
        // A WAL needs a snapshot to replay onto; make generation 1
        // exist before the first logged delta.
        if self.store.generation() == 0 {
            self.checkpoint()?;
        }
        let result = self.session.stage_deltas(deltas);
        let applied = match &result {
            Ok(_) => deltas,
            Err(SessionError::Delta { index, .. }) => &deltas[..*index],
            Err(_) => &deltas[..0],
        };
        self.store.append_deltas(applied)?;
        self.staged_since_checkpoint += applied.len();
        if self.staged_since_checkpoint >= Self::CHECKPOINT_EVERY {
            self.checkpoint()?;
        }
        result.map_err(DurableError::Session)
    }
}

/// Extension trait putting the durable spelling on [`Miner`]:
/// `Miner::new().durable(path)?`.
pub trait Durable {
    /// Builds the session and binds it to the store at `path`,
    /// recovering whatever state is there. See [`DurableSession`].
    fn durable(self, path: impl AsRef<Path>) -> Result<DurableSession, StoreError>;
}

impl Durable for Miner {
    fn durable(self, path: impl AsRef<Path>) -> Result<DurableSession, StoreError> {
        DurableSession::open(self, path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{Fault, FaultTarget};
    use cspm_core::CoresetMode;
    use cspm_graph::dynamic::DeltaVertex;
    use cspm_graph::fixtures::paper_example;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_store(name: &str) -> PathBuf {
        static UNIQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join("cspm-store-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let n = UNIQ.fetch_add(1, Ordering::Relaxed);
        dir.join(format!("durable-{name}-{}-{n}.css", std::process::id()))
    }

    fn grow_delta(i: u32) -> GraphDelta {
        let mut d = GraphDelta::new();
        let v = d.add_vertex(["a", "d"]);
        d.add_edge(v, DeltaVertex::Existing(i % 4));
        d
    }

    type AstarDigest = (Vec<u32>, Vec<u32>, Vec<u32>, u64, u64);

    /// Every mined a-star flattened to comparable fields, floats as
    /// bits — the "bit-identical" claim, not a tolerance.
    fn model_digest(res: &CspmResult) -> Vec<AstarDigest> {
        res.model
            .astars()
            .iter()
            .map(|m| {
                (
                    m.astar.coreset().to_vec(),
                    m.astar.leafset().to_vec(),
                    m.positions.clone(),
                    m.frequency,
                    m.code_len.to_bits(),
                )
            })
            .collect()
    }

    #[test]
    fn mine_checkpoint_reopen_is_bit_identical() {
        let path = temp_store("warm");
        let (g, _) = paper_example();

        let mut durable = Miner::new().threads(1).durable(&path).unwrap();
        assert_eq!(*durable.recovery(), RecoveryOutcome::Fresh);
        let cold = durable.mine(&g).unwrap();
        drop(durable);

        let mut reopened = Miner::new().threads(1).durable(&path).unwrap();
        assert_eq!(
            *reopened.recovery(),
            RecoveryOutcome::Clean { wal_records: 0 }
        );
        assert!(reopened.db_rebuilt().is_none());
        assert_eq!(reopened.session().graph(), Some(&g));
        let warm = reopened.run().unwrap();
        assert_eq!(warm.final_dl.to_bits(), cold.final_dl.to_bits());
        assert_eq!(model_digest(&warm), model_digest(&cold));
    }

    /// A multi-value store keeps its coreset mode: the META frame's
    /// Krimp tag reads back as the configuration it was written under,
    /// so the reopen is clean and takes no different-configuration
    /// rebuild.
    #[test]
    fn krimp_store_reopens_under_its_own_configuration() {
        let path = temp_store("krimp");
        let (g, _) = paper_example();
        let miner = || Miner::new().threads(1).coreset_mode(CoresetMode::Krimp);
        let mut durable = miner().durable(&path).unwrap();
        let cold = durable.mine(&g).unwrap();
        drop(durable);

        let mut reopened = miner().durable(&path).unwrap();
        assert_eq!(reopened.db_rebuilt(), None);
        assert_eq!(
            *reopened.recovery(),
            RecoveryOutcome::Clean { wal_records: 0 }
        );
        let warm = reopened.run().unwrap();
        assert_eq!(warm.final_dl.to_bits(), cold.final_dl.to_bits());
    }

    #[test]
    fn staged_deltas_survive_reopen() {
        let path = temp_store("deltas");
        let (g, _) = paper_example();

        // In-memory reference: same mine + deltas, no persistence.
        let mut reference = Miner::new().threads(1).build();
        reference.mine(&g);

        let mut durable = Miner::new().threads(1).durable(&path).unwrap();
        durable.mine(&g).unwrap();
        for i in 0..3 {
            let d = grow_delta(i);
            reference.stage_delta(&d).unwrap();
            durable.stage_delta(&d).unwrap();
        }
        assert_eq!(durable.store().wal_records(), 3);
        drop(durable);

        let mut reopened = Miner::new().threads(1).durable(&path).unwrap();
        assert_eq!(
            *reopened.recovery(),
            RecoveryOutcome::Clean { wal_records: 3 }
        );
        assert_eq!(reopened.session().graph(), Some(reference.graph().unwrap()));
        let a = reopened.run().unwrap();
        let b = reference.run_with(&mut RunToCompletion).unwrap();
        assert_eq!(a.final_dl.to_bits(), b.final_dl.to_bits());
        assert_eq!(model_digest(&a), model_digest(&b));
    }

    #[test]
    fn auto_checkpoint_folds_the_log() {
        let path = temp_store("auto");
        let (g, _) = paper_example();
        let mut durable = Miner::new().threads(1).durable(&path).unwrap();
        durable.mine(&g).unwrap();
        for i in 1..DurableSession::CHECKPOINT_EVERY {
            durable.stage_delta(&grow_delta(i as u32)).unwrap();
            assert_eq!(durable.store().wal_records(), i);
        }
        assert_eq!(durable.store().generation(), 1);
        durable.stage_delta(&grow_delta(0)).unwrap();
        // Threshold hit: the log folds into generation 2 (mine = 1).
        assert_eq!(durable.store().wal_records(), 0);
        assert_eq!(durable.store().generation(), 2);
        assert_eq!(durable.staged_since_checkpoint(), 0);
    }

    #[test]
    fn config_mismatch_rebuilds_cold_but_keeps_graph() {
        let path = temp_store("config");
        let (g, _) = paper_example();
        let mut durable = Miner::new().threads(1).durable(&path).unwrap();
        let total = durable.mine(&g).unwrap();
        drop(durable);

        let mut other = Miner::new()
            .threads(1)
            .gain_policy(cspm_core::GainPolicy::DataOnly)
            .durable(&path)
            .unwrap();
        assert!(other.db_rebuilt().is_some());
        assert_eq!(other.session().graph(), Some(&g));
        let data_only = other.run().unwrap();
        // Same graph, genuinely different accounting.
        assert!(data_only.final_dl.to_bits() != total.final_dl.to_bits());
    }

    #[test]
    fn stage_on_empty_session_is_refused() {
        let path = temp_store("empty");
        let mut durable = Miner::new().durable(&path).unwrap();
        let err = durable.stage_delta(&grow_delta(0)).unwrap_err();
        assert!(matches!(err, DurableError::Session(SessionError::Empty)));
    }

    #[test]
    fn failed_append_leaves_session_ahead_and_checkpoint_heals() {
        let path = temp_store("heal");
        let (g, _) = paper_example();
        let mut durable = Miner::new().threads(1).durable(&path).unwrap();
        durable.mine(&g).unwrap();

        durable
            .store_mut()
            .arm_fault(FaultTarget::WalAppend, Fault::Kill { at: 4 });
        let err = durable.stage_delta(&grow_delta(0)).unwrap_err();
        assert!(matches!(err, DurableError::Store(StoreError::Io(_))));
        // The session absorbed the delta; the log did not.
        assert_eq!(durable.store().wal_records(), 0);
        let n = durable.session().graph().unwrap().vertex_count();

        // A checkpoint reconverges store and session.
        durable.checkpoint().unwrap();
        drop(durable);
        let reopened = Miner::new().threads(1).durable(&path).unwrap();
        assert_eq!(reopened.session().graph().unwrap().vertex_count(), n);
    }
}
