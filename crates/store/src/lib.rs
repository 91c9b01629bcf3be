//! Durable CSPM sessions: a crash-safe snapshot + delta WAL.
//!
//! A [`MiningSession`](cspm_core::MiningSession) holds its graph and
//! pristine inverted database only in memory; this crate persists that
//! state so a session survives process death. The on-disk shape (full
//! byte-level tables in `docs/FORMATS.md`) is the classic pair:
//!
//! * **snapshot** — one versioned file holding the whole session:
//!   graph (interned attribute tables included) and, for the
//!   single-value coreset mode, every database row with its posting
//!   slice written nearly verbatim from the arena. Snapshots are
//!   replaced atomically (temp file + fsync + rename), never edited.
//! * **WAL** — an append-only sidecar (`<path>.wal`) of
//!   [`GraphDelta`] records staged
//!   since the snapshot. Opening replays them; a checkpoint folds them
//!   into a fresh snapshot and resets the log.
//!
//! Every frame in both files carries a length-prefixed CRC-32 footer
//! ([`cspm_graph::codec`]), so recovery *detects* torn writes,
//! truncation, and bit-flips rather than reading garbage — and then
//! degrades deliberately instead of panicking:
//!
//! * a torn or corrupt WAL **tail** is truncated to the last valid
//!   record ([`RecoveryOutcome::TailTruncated`]);
//! * a corrupt or stale WAL **header** drops the whole log the same
//!   way (its generation ties it to exactly one snapshot — a log from
//!   another generation is a crash-window artifact, not data);
//! * a corrupt **snapshot** falls back to an empty store
//!   ([`RecoveryOutcome::SnapshotFallback`]) for the caller to rebuild
//!   cold — while a *foreign* file (wrong magic) or a *newer* format
//!   (version skew) is refused with a typed [`StoreError`] so we never
//!   silently clobber something that was not ours to manage.
//!
//! [`SessionStore`] is the file-level half: open/recover, checkpoint,
//! append. [`DurableSession`] (module [`durable`]) glues it to a live
//! `MiningSession` — `Miner::new().durable(path)?` via the [`Durable`]
//! extension trait. The [`fault`] module injects deterministic
//! kill/truncate/bit-flip faults at scripted byte offsets; the
//! crash-recovery property suite in `tests/` sweeps every injection
//! point and asserts reopening lands on the pre- or post-delta state.

pub mod durable;
pub mod fault;
mod metrics;

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use cspm_core::{CoresetMode, GainPolicy, InvertedDb};
use cspm_graph::codec::{
    put_u32, put_u64, read_frame, write_frame, DecodeError, FrameError, Reader,
};
use cspm_graph::dynamic::GraphDelta;
use cspm_graph::{decode_graph, encode_graph, AttributedGraph};

pub use durable::{Durable, DurableError, DurableSession};
pub use fault::{Fault, FaultFile, FaultTarget};

use metrics::{store_metrics, timed_fsync};

/// Snapshot file magic (`CSPS` — CSPM snapshot).
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"CSPS";
/// WAL file magic (`CSWL` — CSPM write-ahead log).
pub const WAL_MAGIC: [u8; 4] = *b"CSWL";
/// Store format version, shared by both files. Version 2 added the
/// churn WAL record (`TAG_DELTA_CHURN`) for deltas carrying
/// removals or label changes; version-1 files (additive records only)
/// still open and replay.
pub const STORE_VERSION: u16 = 2;

/// Snapshot frame: session metadata (generation, mode, gain policy).
const TAG_META: u8 = 0x01;
/// Snapshot frame: the attributed graph.
const TAG_GRAPH: u8 = 0x02;
/// Snapshot frame: the pristine database rows + posting arena.
const TAG_DB: u8 = 0x03;
/// WAL frame: the log's generation (must match the snapshot's).
const TAG_WAL_GEN: u8 = 0x10;
/// WAL frame: one serialized additive [`GraphDelta`].
const TAG_DELTA: u8 = 0x20;
/// WAL frame: one serialized [`GraphDelta`] that carries churn
/// (removals or label changes). A distinct tag so the record kind is
/// visible to tooling without decoding the payload; the payload codec
/// is self-describing either way. Introduced in store version 2 —
/// version-1 readers never see it because they refuse v2 files at the
/// header.
const TAG_DELTA_CHURN: u8 = 0x21;

/// The WAL record tag for a delta: churn-bearing deltas get their own
/// kind, purely additive ones keep the version-1 record.
fn delta_tag(d: &GraphDelta) -> u8 {
    if d.has_churn() {
        TAG_DELTA_CHURN
    } else {
        TAG_DELTA
    }
}

/// Coreset-mode tags persisted in the META frame.
const MODE_SINGLE: u8 = 0;
const MODE_KRIMP: u8 = 1;
const MODE_SLIM: u8 = 2;
/// Gain-policy tags persisted in the META frame.
const GAIN_TOTAL: u8 = 0;
const GAIN_DATA_ONLY: u8 = 1;

/// Why a store operation failed. Recoverable damage (torn WAL tail,
/// corrupt snapshot body) never surfaces here — it is reported through
/// [`RecoveryOutcome`] instead; errors are reserved for I/O and for
/// files the store must not touch.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io(io::Error),
    /// The file at `path` is not a CSPM store (wrong magic). Refused
    /// outright: overwriting it at the next checkpoint could destroy
    /// a file that was never ours.
    Magic {
        /// The offending file.
        path: PathBuf,
    },
    /// The file was written by a newer store format than this build
    /// understands (version skew). Refused rather than misread.
    Version {
        /// The offending file.
        path: PathBuf,
        /// The version the file declares.
        found: u16,
    },
    /// The WAL handle is unusable after a failed reset; the snapshot
    /// on disk is newer than the log, so appending would write records
    /// recovery must ignore. A successful [`SessionStore::checkpoint`]
    /// repairs the store.
    WalUnavailable,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "store I/O error: {e}"),
            Self::Magic { path } => {
                write!(f, "{} is not a CSPM session store", path.display())
            }
            Self::Version { path, found } => write!(
                f,
                "{} uses store format v{found}; this build reads v{STORE_VERSION}",
                path.display()
            ),
            Self::WalUnavailable => write!(
                f,
                "WAL unavailable after a failed reset; checkpoint() to repair the store"
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// What [`SessionStore::open`] found on disk and how it coped. Every
/// variant is a *successful* open; see [`StoreError`] for the refusals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryOutcome {
    /// No snapshot existed — a brand-new store.
    Fresh,
    /// Snapshot and WAL both read back intact.
    Clean {
        /// Valid WAL records replayed on top of the snapshot.
        wal_records: usize,
    },
    /// The snapshot is intact but the WAL's tail (or its whole body)
    /// was torn or corrupt; the log was physically truncated to its
    /// last valid record and the tail's bytes were dropped.
    TailTruncated {
        /// Valid records that survived ahead of the damage.
        wal_records: usize,
        /// Bytes cut from the log.
        dropped_bytes: u64,
    },
    /// The snapshot itself failed validation; the store opens empty
    /// and the caller rebuilds cold. `detail` is the typed reason
    /// (which frame, torn vs checksum).
    SnapshotFallback {
        /// Human-readable diagnosis of the damage.
        detail: String,
    },
}

impl RecoveryOutcome {
    /// Stable machine-readable label: `fresh`, `clean`,
    /// `tail-truncated` or `snapshot-fallback`.
    pub fn label(&self) -> &'static str {
        match self {
            Self::Fresh => "fresh",
            Self::Clean { .. } => "clean",
            Self::TailTruncated { .. } => "tail-truncated",
            Self::SnapshotFallback { .. } => "snapshot-fallback",
        }
    }
}

impl fmt::Display for RecoveryOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Fresh => write!(f, "fresh store"),
            Self::Clean { wal_records } => {
                write!(f, "clean open ({wal_records} WAL records replayed)")
            }
            Self::TailTruncated {
                wal_records,
                dropped_bytes,
            } => write!(
                f,
                "WAL tail truncated: kept {wal_records} records, dropped {dropped_bytes} bytes"
            ),
            Self::SnapshotFallback { detail } => {
                write!(f, "snapshot unusable ({detail}); cold rebuild required")
            }
        }
    }
}

/// The session state a successful open recovered (when any existed).
#[derive(Debug, Clone)]
pub struct RecoveredState {
    /// The snapshot's graph.
    pub graph: AttributedGraph,
    /// The snapshot's database section, if one was written *and* read
    /// back intact. `None` means the checkpointing config had no
    /// serialisable database (multi-value coreset modes) or the
    /// section was damaged — rebuild from `graph`.
    pub db: Option<DbSection>,
    /// Why `db` is `None` despite a section being present on disk
    /// (media damage after the atomic rename). The graph frame
    /// validated, so it is salvaged; only the database is rebuilt.
    pub db_note: Option<String>,
    /// Coreset mode the snapshot was checkpointed under (`None` for a
    /// tag this build does not know).
    pub mode: Option<CoresetMode>,
    /// Gain policy the snapshot was checkpointed under.
    pub gain: Option<GainPolicy>,
    /// Valid WAL deltas, in append order, to replay on the snapshot.
    pub deltas: Vec<GraphDelta>,
}

/// Everything [`SessionStore::open`] has to say.
#[derive(Debug, Clone)]
pub struct Recovered {
    /// Recovered session state; `None` when the store is fresh or the
    /// snapshot fell back.
    pub state: Option<RecoveredState>,
    /// How the open went.
    pub outcome: RecoveryOutcome,
}

/// The serialized pristine database: `(coreset, leafset)` rows over one
/// flat positions arena, exactly the shape
/// [`InvertedDb::from_pristine_rows`] restores from.
#[derive(Debug, Clone, Default)]
pub struct DbSection {
    /// Per row: coreset id, leafset id, and the row's slice bounds in
    /// `positions`.
    rows: Vec<(u32, u32, usize, usize)>,
    /// All rows' vertex positions, concatenated in row order — the
    /// posting arena, compacted.
    positions: Vec<u32>,
}

impl DbSection {
    /// Captures a pristine database's rows. Rows are written sorted by
    /// `(coreset, leafset)` so equal databases serialize bit-identically
    /// regardless of hash-map iteration order.
    pub fn capture(db: &InvertedDb) -> Self {
        let mut rows: Vec<_> = db.iter_rows().collect();
        rows.sort_unstable_by_key(|&(e, l, _)| (e, l));
        let mut section = Self::default();
        for (e, l, positions) in rows {
            let start = section.positions.len();
            section.positions.extend_from_slice(&positions);
            section.rows.push((e, l, start, section.positions.len()));
        }
        section
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Iterates rows as `(coreset, leafset, positions)` — the exact
    /// item shape [`InvertedDb::from_pristine_rows`] takes.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, &[u32])> {
        self.rows
            .iter()
            .map(move |&(e, l, start, end)| (e, l, &self.positions[start..end]))
    }

    fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.rows.len() as u32);
        for &(e, l, start, end) in &self.rows {
            put_u32(out, e);
            put_u32(out, l);
            put_u32(out, (end - start) as u32);
            for &p in &self.positions[start..end] {
                put_u32(out, p);
            }
        }
    }

    fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes);
        let row_count = r.bounded_count(12)?;
        let mut section = Self::default();
        for _ in 0..row_count {
            let e = r.u32()?;
            let l = r.u32()?;
            let len = r.bounded_count(4)?;
            let start = section.positions.len();
            section.positions.extend(r.u32s(len)?);
            section.rows.push((e, l, start, section.positions.len()));
        }
        r.finish()?;
        Ok(section)
    }
}

/// Byte sizes and log position of a store, for `cspm stats`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreStats {
    /// Snapshot file size on disk (0 when none exists yet).
    pub snapshot_bytes: u64,
    /// WAL file size on disk (0 when none exists yet).
    pub wal_bytes: u64,
    /// Checkpoint generation (0 = never checkpointed).
    pub generation: u64,
    /// WAL records appended since the last checkpoint.
    pub wal_records: usize,
}

/// The WAL append handle's lifecycle.
#[derive(Debug)]
enum WalHandle {
    /// No WAL file exists yet; the first append creates one.
    Missing,
    /// Open for appending, header generation == store generation.
    Ready(File),
    /// A reset failed after the snapshot advanced: the on-disk log (if
    /// any) belongs to an older generation, so appends are refused
    /// until a checkpoint rewrites it.
    Broken,
}

/// The file-level store: one snapshot, one WAL, atomic checkpoints.
///
/// `SessionStore` neither mines nor replays — it moves bytes and
/// recovers state; [`DurableSession`] owns the session semantics on
/// top. All mutating paths route through [`FaultFile`], so a test can
/// [arm](Self::arm_fault) one deterministic fault and observe exactly
/// what recovery makes of it.
#[derive(Debug)]
pub struct SessionStore {
    path: PathBuf,
    wal_path: PathBuf,
    generation: u64,
    wal: WalHandle,
    /// Valid WAL length in bytes, as this process believes it.
    wal_len: u64,
    wal_records: usize,
    armed: Option<(FaultTarget, Fault)>,
}

/// `base` with `.ext` appended to the full file name (`p.cs` →
/// `p.cs.wal`), keeping snapshot, WAL and temp files siblings.
fn sibling(base: &Path, ext: &str) -> PathBuf {
    let mut name = base.as_os_str().to_os_string();
    name.push(".");
    name.push(ext);
    PathBuf::from(name)
}

/// Durably writes `bytes` to `final_path` via temp file + fsync +
/// rename + directory fsync. A fault, if armed, applies to the temp
/// write — exactly the window a real crash would hit.
fn write_file_atomic(
    tmp: &Path,
    final_path: &Path,
    bytes: &[u8],
    fault: Option<Fault>,
) -> io::Result<()> {
    let write = || -> io::Result<()> {
        let mut f = FaultFile::new(File::create(tmp)?, fault);
        f.write_all(bytes)?;
        f.flush()?;
        timed_fsync(|| f.into_inner().sync_all())
    };
    if let Err(e) = write() {
        let _ = fs::remove_file(tmp);
        return Err(e);
    }
    fs::rename(tmp, final_path)?;
    // An fsync on the directory makes the rename itself durable.
    if let Some(dir) = final_path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = File::open(dir) {
            let _ = timed_fsync(|| d.sync_all());
        }
    }
    Ok(())
}

impl SessionStore {
    /// Opens (or initialises) the store at `path`, recovering whatever
    /// state survived. Hard-errors only on I/O, foreign files and
    /// version skew; every flavour of *damage* comes back as a
    /// [`RecoveryOutcome`].
    pub fn open(path: impl AsRef<Path>) -> Result<(Self, Recovered), StoreError> {
        let res = Self::open_inner(path.as_ref());
        if let Ok((_, recovered)) = &res {
            store_metrics().recovery(recovered.outcome.label()).inc();
        }
        res
    }

    fn open_inner(path: &Path) -> Result<(Self, Recovered), StoreError> {
        let path = path.to_path_buf();
        let wal_path = sibling(&path, "wal");
        // A crashed checkpoint can leave temp files behind; they were
        // never renamed, so they are dead weight.
        let _ = fs::remove_file(sibling(&path, "tmp"));
        let _ = fs::remove_file(sibling(&wal_path, "tmp"));

        let mut store = Self {
            path,
            wal_path,
            generation: 0,
            wal: WalHandle::Missing,
            wal_len: 0,
            wal_records: 0,
            armed: None,
        };

        let bytes = match fs::read(&store.path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Ok((
                    store,
                    Recovered {
                        state: None,
                        outcome: RecoveryOutcome::Fresh,
                    },
                ));
            }
            Err(e) => return Err(e.into()),
        };

        let snap = match parse_snapshot(&store.path, &bytes) {
            Ok(snap) => snap,
            Err(SnapshotError::Refuse(e)) => return Err(e),
            Err(SnapshotError::Corrupt(detail)) => {
                // The file is ours (magic matched) but damaged; the
                // next checkpoint overwrites it. Any WAL is tied to a
                // generation we cannot read, so it is dead too.
                store.wal = WalHandle::Broken;
                return Ok((
                    store,
                    Recovered {
                        state: None,
                        outcome: RecoveryOutcome::SnapshotFallback { detail },
                    },
                ));
            }
        };
        store.generation = snap.generation;

        let wal = store.read_wal()?;
        let outcome = match wal.dropped_bytes {
            0 => RecoveryOutcome::Clean {
                wal_records: wal.deltas.len(),
            },
            dropped_bytes => RecoveryOutcome::TailTruncated {
                wal_records: wal.deltas.len(),
                dropped_bytes,
            },
        };
        Ok((
            store,
            Recovered {
                state: Some(RecoveredState {
                    graph: snap.graph,
                    db: snap.db,
                    db_note: snap.db_note,
                    mode: snap.mode,
                    gain: snap.gain,
                    deltas: wal.deltas,
                }),
                outcome,
            },
        ))
    }

    /// Snapshot file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// WAL file path (`<snapshot>.wal`).
    pub fn wal_path(&self) -> &Path {
        &self.wal_path
    }

    /// Checkpoint generation currently on disk (0 = none yet).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// WAL records appended since the last checkpoint.
    pub fn wal_records(&self) -> usize {
        self.wal_records
    }

    /// File sizes and log position, for `cspm stats --store`.
    pub fn stats(&self) -> StoreStats {
        let size = |p: &Path| fs::metadata(p).map(|m| m.len()).unwrap_or(0);
        StoreStats {
            snapshot_bytes: size(&self.path),
            wal_bytes: size(&self.wal_path),
            generation: self.generation,
            wal_records: self.wal_records,
        }
    }

    /// Arms one deterministic fault; the next write matching `target`
    /// consumes it. Test harness — see the [`fault`] module.
    pub fn arm_fault(&mut self, target: FaultTarget, fault: Fault) {
        self.armed = Some((target, fault));
    }

    fn take_fault(&mut self, target: FaultTarget) -> Option<Fault> {
        match self.armed {
            Some((t, f)) if t == target => {
                self.armed = None;
                Some(f)
            }
            _ => None,
        }
    }

    /// Writes a fresh snapshot of `(graph, db)` atomically, advances
    /// the generation, and resets the WAL. `db` is serialized only for
    /// [`CoresetMode::SingleValue`] (the restorable mode — see
    /// [`InvertedDb::from_pristine_rows`]); other modes persist the
    /// graph alone and rebuild cold on open.
    ///
    /// Crash windows: before the rename, the old snapshot + WAL are
    /// untouched (recover the *pre*-checkpoint state); after the
    /// rename but before the WAL reset completes, the old log's
    /// generation no longer matches and is ignored (recover the
    /// *post*-checkpoint state). Both are consistent.
    pub fn checkpoint(
        &mut self,
        graph: &AttributedGraph,
        db: Option<&InvertedDb>,
        mode: CoresetMode,
        gain: GainPolicy,
    ) -> Result<(), StoreError> {
        let started = std::time::Instant::now();
        let next_gen = self.generation + 1;
        let bytes = encode_snapshot(graph, db, mode, gain, next_gen);
        let fault = self.take_fault(FaultTarget::Snapshot);
        write_file_atomic(&sibling(&self.path, "tmp"), &self.path, &bytes, fault)?;
        self.generation = next_gen;
        // From here the snapshot on disk is ahead of the old log; a
        // failed reset must leave the handle Broken, not Ready.
        self.reset_wal(&[])?;
        let m = store_metrics();
        m.checkpoints.inc();
        m.checkpoint_seconds
            .observe(started.elapsed().as_secs_f64());
        Ok(())
    }

    /// Rewrites the WAL in place (same generation) to exactly `deltas`
    /// — the repair path when replay rejects a record mid-log. Returns
    /// the net bytes dropped.
    pub fn rewrite_wal(&mut self, deltas: &[GraphDelta]) -> Result<u64, StoreError> {
        let before = fs::metadata(&self.wal_path).map(|m| m.len()).unwrap_or(0);
        self.reset_wal(deltas)?;
        Ok(before.saturating_sub(self.wal_len))
    }

    /// Appends `deltas` to the WAL as one batch (one fsync). On
    /// failure the log is trimmed back to its pre-batch length, so a
    /// torn batch never poisons later appends.
    pub fn append_deltas(&mut self, deltas: &[GraphDelta]) -> Result<(), StoreError> {
        if deltas.is_empty() {
            return Ok(());
        }
        if matches!(self.wal, WalHandle::Missing) {
            self.reset_wal(&[])?;
        }
        let mut buf = Vec::new();
        for d in deltas {
            write_frame(&mut buf, delta_tag(d), &d.to_bytes());
        }
        let fault = self.take_fault(FaultTarget::WalAppend);
        let WalHandle::Ready(file) = &mut self.wal else {
            return Err(StoreError::WalUnavailable);
        };
        let before = self.wal_len;
        let mut f = FaultFile::new(&mut *file, fault);
        let res = f.write_all(&buf).and_then(|()| f.flush());
        match res {
            Ok(()) => {
                timed_fsync(|| file.sync_data())?;
                store_metrics().wal_bytes.add(buf.len() as u64);
                self.wal_len += buf.len() as u64;
                self.wal_records += deltas.len();
                Ok(())
            }
            Err(e) => {
                // Trim the torn batch so the next append starts clean.
                let _ = file.set_len(before);
                let _ = file.sync_data();
                Err(e.into())
            }
        }
    }

    /// Atomically replaces the WAL with a fresh log (current
    /// generation) holding exactly `deltas`.
    fn reset_wal(&mut self, deltas: &[GraphDelta]) -> Result<(), StoreError> {
        self.wal = WalHandle::Broken;
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&WAL_MAGIC);
        bytes.extend_from_slice(&STORE_VERSION.to_le_bytes());
        let mut gen_payload = Vec::new();
        put_u64(&mut gen_payload, self.generation);
        write_frame(&mut bytes, TAG_WAL_GEN, &gen_payload);
        for d in deltas {
            write_frame(&mut bytes, delta_tag(d), &d.to_bytes());
        }
        let fault = self.take_fault(FaultTarget::WalReset);
        write_file_atomic(
            &sibling(&self.wal_path, "tmp"),
            &self.wal_path,
            &bytes,
            fault,
        )?;
        let file = OpenOptions::new().append(true).open(&self.wal_path)?;
        self.wal = WalHandle::Ready(file);
        self.wal_len = bytes.len() as u64;
        self.wal_records = deltas.len();
        Ok(())
    }

    /// Reads the WAL at open time: validates header + generation,
    /// decodes records until damage, physically truncates the damage
    /// away, and leaves an append handle at the valid end.
    fn read_wal(&mut self) -> Result<WalRead, StoreError> {
        let bytes = match fs::read(&self.wal_path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                self.wal = WalHandle::Missing;
                return Ok(WalRead::default());
            }
            Err(e) => return Err(e.into()),
        };

        // Header or generation damage invalidates the whole log: we
        // cannot tie any record to the snapshot we just validated.
        // Rewrite it empty and report everything as dropped.
        let mut pos = 6;
        let header_ok = bytes.len() >= 6
            && bytes[..4] == WAL_MAGIC
            && u16::from_le_bytes([bytes[4], bytes[5]]) <= STORE_VERSION;
        let generation = header_ok
            .then(|| read_frame(&bytes, pos).ok().flatten())
            .flatten()
            .and_then(|(tag, payload, next)| {
                pos = next;
                (tag == TAG_WAL_GEN).then(|| Reader::new(payload).u64().ok())?
            });
        match generation {
            Some(g) if g == self.generation => {}
            Some(_) => {
                // A log from another generation is the crash window
                // between a snapshot rename and its WAL reset — the
                // snapshot already contains everything it recorded.
                self.reset_wal(&[])?;
                return Ok(WalRead::default());
            }
            None => {
                self.reset_wal(&[])?;
                return Ok(WalRead {
                    deltas: Vec::new(),
                    dropped_bytes: bytes.len() as u64,
                });
            }
        }

        let mut deltas = Vec::new();
        let mut valid_end = pos;
        let mut dropped = 0u64;
        loop {
            match read_frame(&bytes, pos) {
                Ok(None) => break,
                // Both record kinds decode through the same codec; the
                // tag only distinguishes them for tooling.
                Ok(Some((TAG_DELTA | TAG_DELTA_CHURN, payload, next))) => {
                    match GraphDelta::from_bytes(payload) {
                        Ok(d) => {
                            deltas.push(d);
                            valid_end = next;
                            pos = next;
                        }
                        Err(_) => {
                            // CRC passed but the payload is not a
                            // delta: written-corrupt. Same treatment
                            // as a torn tail — nothing after it can
                            // be trusted.
                            dropped = (bytes.len() - valid_end) as u64;
                            break;
                        }
                    }
                }
                Ok(Some((_, _, next))) => {
                    // Unknown-but-intact frame: skip (same-version
                    // forward compatibility), keep it in the file.
                    valid_end = next;
                    pos = next;
                }
                Err(FrameError::Truncated { offset }) | Err(FrameError::Checksum { offset }) => {
                    dropped = (bytes.len() - offset) as u64;
                    break;
                }
            }
        }

        if dropped > 0 {
            let file = OpenOptions::new().write(true).open(&self.wal_path)?;
            file.set_len(valid_end as u64)?;
            timed_fsync(|| file.sync_all())?;
        }
        self.wal = WalHandle::Ready(OpenOptions::new().append(true).open(&self.wal_path)?);
        self.wal_len = valid_end as u64;
        self.wal_records = deltas.len();
        Ok(WalRead {
            deltas,
            dropped_bytes: dropped,
        })
    }
}

#[derive(Debug, Default)]
struct WalRead {
    deltas: Vec<GraphDelta>,
    dropped_bytes: u64,
}

/// Mode → persisted `(tag, krimp_min_support)`. The `u32` is
/// [`CoresetMode::KRIMP_MIN_SUPPORT`] for Krimp and 0 otherwise.
fn mode_to_tags(mode: CoresetMode) -> (u8, u32) {
    match mode {
        CoresetMode::SingleValue => (MODE_SINGLE, 0),
        CoresetMode::Krimp => (MODE_KRIMP, CoresetMode::KRIMP_MIN_SUPPORT),
        CoresetMode::Slim => (MODE_SLIM, 0),
    }
}

/// Persisted tags → mode. A Krimp tag with any other minimum support
/// names a configuration this build cannot mine, so it reads as `None`
/// and the open takes the different-configuration rebuild.
fn mode_from_tags(tag: u8, min_support: u32) -> Option<CoresetMode> {
    match (tag, min_support) {
        (MODE_SINGLE, _) => Some(CoresetMode::SingleValue),
        (MODE_KRIMP, CoresetMode::KRIMP_MIN_SUPPORT) => Some(CoresetMode::Krimp),
        (MODE_SLIM, _) => Some(CoresetMode::Slim),
        _ => None,
    }
}

fn gain_to_tag(gain: GainPolicy) -> u8 {
    match gain {
        GainPolicy::Total => GAIN_TOTAL,
        GainPolicy::DataOnly => GAIN_DATA_ONLY,
    }
}

fn gain_from_tag(tag: u8) -> Option<GainPolicy> {
    match tag {
        GAIN_TOTAL => Some(GainPolicy::Total),
        GAIN_DATA_ONLY => Some(GainPolicy::DataOnly),
        _ => None,
    }
}

fn encode_snapshot(
    graph: &AttributedGraph,
    db: Option<&InvertedDb>,
    mode: CoresetMode,
    gain: GainPolicy,
    generation: u64,
) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    out.extend_from_slice(&STORE_VERSION.to_le_bytes());

    let mut meta = Vec::new();
    put_u64(&mut meta, generation);
    let (mode_tag, min_support) = mode_to_tags(mode);
    meta.push(mode_tag);
    put_u32(&mut meta, min_support);
    meta.push(gain_to_tag(gain));
    write_frame(&mut out, TAG_META, &meta);

    let mut graph_bytes = Vec::new();
    encode_graph(graph, &mut graph_bytes);
    write_frame(&mut out, TAG_GRAPH, &graph_bytes);

    // Only canonical single-value databases round-trip through rows;
    // other modes rebuild from the graph on open.
    if let Some(db) = db.filter(|_| mode == CoresetMode::SingleValue) {
        let mut db_bytes = Vec::new();
        DbSection::capture(db).encode(&mut db_bytes);
        write_frame(&mut out, TAG_DB, &db_bytes);
    }
    out
}

struct ParsedSnapshot {
    generation: u64,
    mode: Option<CoresetMode>,
    gain: Option<GainPolicy>,
    graph: AttributedGraph,
    db: Option<DbSection>,
    db_note: Option<String>,
}

enum SnapshotError {
    /// Hard refusal — foreign file or version skew.
    Refuse(StoreError),
    /// Our file, damaged: fall back to a cold rebuild.
    Corrupt(String),
}

fn parse_snapshot(path: &Path, bytes: &[u8]) -> Result<ParsedSnapshot, SnapshotError> {
    if bytes.len() < 6 || bytes[..4] != SNAPSHOT_MAGIC {
        // Too short to even carry the magic: an empty or foreign file.
        // An empty file could be our own torn creation, but snapshots
        // are only ever renamed into place, so short means foreign.
        return Err(SnapshotError::Refuse(StoreError::Magic {
            path: path.to_path_buf(),
        }));
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version > STORE_VERSION {
        return Err(SnapshotError::Refuse(StoreError::Version {
            path: path.to_path_buf(),
            found: version,
        }));
    }

    let corrupt = |what: &str, detail: String| SnapshotError::Corrupt(format!("{what}: {detail}"));

    let mut pos = 6;
    // META must come first and parse.
    let meta = match read_frame(bytes, pos) {
        Ok(Some((TAG_META, payload, next))) => {
            pos = next;
            payload
        }
        Ok(_) => return Err(SnapshotError::Corrupt("missing META frame".into())),
        Err(e) => return Err(corrupt("META frame", e.to_string())),
    };
    let mut r = Reader::new(meta);
    let parsed_meta = (|| -> Result<(u64, u8, u32, u8), DecodeError> {
        Ok((r.u64()?, r.u8()?, r.u32()?, r.u8()?))
    })();
    let (generation, mode_tag, min_support, gain_tag) = match parsed_meta {
        Ok(m) => m,
        Err(e) => return Err(corrupt("META frame", e.to_string())),
    };

    // GRAPH must come next and decode.
    let graph = match read_frame(bytes, pos) {
        Ok(Some((TAG_GRAPH, payload, next))) => {
            pos = next;
            match decode_graph(payload) {
                Ok(g) => g,
                Err(e) => return Err(corrupt("GRAPH frame", e.to_string())),
            }
        }
        Ok(_) => return Err(SnapshotError::Corrupt("missing GRAPH frame".into())),
        Err(e) => return Err(corrupt("GRAPH frame", e.to_string())),
    };

    // Everything past the graph is optional: the session is already
    // recoverable, so damage here only costs the warm database.
    let mut db = None;
    let mut db_note = None;
    loop {
        match read_frame(bytes, pos) {
            Ok(None) => break,
            Ok(Some((TAG_DB, payload, next))) => {
                pos = next;
                match DbSection::decode(payload) {
                    Ok(section) => db = Some(section),
                    Err(e) => db_note = Some(format!("DB frame: {e}")),
                }
            }
            Ok(Some((_, _, next))) => pos = next,
            Err(e) => {
                db = None;
                db_note = Some(format!("trailing frames: {e}"));
                break;
            }
        }
    }

    Ok(ParsedSnapshot {
        generation,
        mode: mode_from_tags(mode_tag, min_support),
        gain: gain_from_tag(gain_tag),
        graph,
        db,
        db_note,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cspm_graph::fixtures::paper_example;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_store(name: &str) -> PathBuf {
        static UNIQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join("cspm-store-tests");
        fs::create_dir_all(&dir).unwrap();
        let n = UNIQ.fetch_add(1, Ordering::Relaxed);
        dir.join(format!("{name}-{}-{n}.css", std::process::id()))
    }

    fn one_delta(g: &AttributedGraph) -> GraphDelta {
        let mut d = GraphDelta::new();
        let v = d.add_vertex(["a", "zz"]);
        d.add_edge(v, cspm_graph::dynamic::DeltaVertex::Existing(0));
        let _ = g; // delta targets vertex 0, present in every fixture
        d
    }

    #[test]
    fn store_traffic_moves_the_metrics() {
        let m = store_metrics();
        let fsyncs = m.fsyncs.get();
        let wal_bytes = m.wal_bytes.get();
        let checkpoints = m.checkpoints.get();
        let fresh = m.recovery("fresh").get();
        let clean = m.recovery("clean").get();

        let path = temp_store("metrics");
        let (mut store, _) = SessionStore::open(&path).unwrap();
        let (g, _) = paper_example();
        store
            .checkpoint(&g, None, CoresetMode::SingleValue, GainPolicy::Total)
            .unwrap();
        let d = one_delta(&g);
        store.append_deltas(std::slice::from_ref(&d)).unwrap();
        drop(store);
        let _ = SessionStore::open(&path).unwrap();

        assert!(m.fsyncs.get() > fsyncs);
        assert!(m.fsync_seconds.count() > 0);
        assert!(m.wal_bytes.get() > wal_bytes);
        // Other tests in this binary checkpoint and reopen stores too,
        // so lower-bound rather than pin the shared counters.
        assert!(m.checkpoints.get() > checkpoints);
        assert!(m.checkpoint_seconds.count() > 0);
        assert!(m.recovery("fresh").get() > fresh);
        assert!(m.recovery("clean").get() > clean);
    }

    #[test]
    fn fresh_open_then_checkpoint_then_clean_reopen() {
        let path = temp_store("fresh");
        let (mut store, rec) = SessionStore::open(&path).unwrap();
        assert_eq!(rec.outcome, RecoveryOutcome::Fresh);
        assert!(rec.state.is_none());
        assert_eq!(store.generation(), 0);

        let (g, _) = paper_example();
        let db = InvertedDb::build(&g, CoresetMode::SingleValue, GainPolicy::Total);
        store
            .checkpoint(&g, Some(&db), CoresetMode::SingleValue, GainPolicy::Total)
            .unwrap();
        assert_eq!(store.generation(), 1);

        let (store2, rec2) = SessionStore::open(&path).unwrap();
        assert_eq!(rec2.outcome, RecoveryOutcome::Clean { wal_records: 0 });
        let state = rec2.state.unwrap();
        assert_eq!(state.graph, g);
        assert_eq!(state.mode, Some(CoresetMode::SingleValue));
        assert_eq!(state.gain, Some(GainPolicy::Total));
        let section = state.db.expect("single-value db serialized");
        let restored =
            InvertedDb::from_pristine_rows(&state.graph, GainPolicy::Total, section.iter())
                .unwrap();
        assert_eq!(restored.total_dl().to_bits(), db.total_dl().to_bits());
        assert_eq!(store2.generation(), 1);
    }

    #[test]
    fn wal_records_replay_in_order() {
        let path = temp_store("wal");
        let (mut store, _) = SessionStore::open(&path).unwrap();
        let (g, _) = paper_example();
        store
            .checkpoint(&g, None, CoresetMode::SingleValue, GainPolicy::Total)
            .unwrap();
        let d = one_delta(&g);
        store.append_deltas(&[d.clone(), d.clone()]).unwrap();
        store.append_deltas(std::slice::from_ref(&d)).unwrap();
        assert_eq!(store.wal_records(), 3);

        let (store2, rec) = SessionStore::open(&path).unwrap();
        assert_eq!(rec.outcome, RecoveryOutcome::Clean { wal_records: 3 });
        let state = rec.state.unwrap();
        assert_eq!(state.deltas.len(), 3);
        assert_eq!(state.deltas[0].to_bytes(), d.to_bytes());
        assert_eq!(store2.wal_records(), 3);
    }

    #[test]
    fn checkpoint_resets_wal() {
        let path = temp_store("reset");
        let (mut store, _) = SessionStore::open(&path).unwrap();
        let (g, _) = paper_example();
        store
            .checkpoint(&g, None, CoresetMode::SingleValue, GainPolicy::Total)
            .unwrap();
        store.append_deltas(&[one_delta(&g)]).unwrap();
        store
            .checkpoint(&g, None, CoresetMode::SingleValue, GainPolicy::Total)
            .unwrap();
        assert_eq!(store.wal_records(), 0);
        let (_, rec) = SessionStore::open(&path).unwrap();
        assert_eq!(rec.outcome, RecoveryOutcome::Clean { wal_records: 0 });
    }

    #[test]
    fn torn_wal_tail_is_truncated() {
        let path = temp_store("torn");
        let (mut store, _) = SessionStore::open(&path).unwrap();
        let (g, _) = paper_example();
        store
            .checkpoint(&g, None, CoresetMode::SingleValue, GainPolicy::Total)
            .unwrap();
        store.append_deltas(&[one_delta(&g)]).unwrap();
        let intact = fs::metadata(store.wal_path()).unwrap().len();
        store.append_deltas(&[one_delta(&g)]).unwrap();
        // Tear the second record: chop 3 bytes off the file.
        let full = fs::metadata(store.wal_path()).unwrap().len();
        let f = OpenOptions::new()
            .write(true)
            .open(store.wal_path())
            .unwrap();
        f.set_len(full - 3).unwrap();
        drop((store, f));

        let (store2, rec) = SessionStore::open(&path).unwrap();
        assert_eq!(
            rec.outcome,
            RecoveryOutcome::TailTruncated {
                wal_records: 1,
                dropped_bytes: full - 3 - intact,
            }
        );
        assert_eq!(rec.state.unwrap().deltas.len(), 1);
        // The damage is physically gone: a plain reopen is clean.
        drop(store2);
        let (_, rec2) = SessionStore::open(&path).unwrap();
        assert_eq!(rec2.outcome, RecoveryOutcome::Clean { wal_records: 1 });
    }

    #[test]
    fn stale_generation_wal_is_ignored() {
        let path = temp_store("stalegen");
        let (mut store, _) = SessionStore::open(&path).unwrap();
        let (g, _) = paper_example();
        store
            .checkpoint(&g, None, CoresetMode::SingleValue, GainPolicy::Total)
            .unwrap();
        store.append_deltas(&[one_delta(&g)]).unwrap();
        let old_wal = fs::read(store.wal_path()).unwrap();
        store
            .checkpoint(&g, None, CoresetMode::SingleValue, GainPolicy::Total)
            .unwrap();
        // Simulate the crash window: new snapshot on disk, old WAL back
        // in place (the reset "never happened").
        fs::write(store.wal_path(), &old_wal).unwrap();
        drop(store);

        let (_, rec) = SessionStore::open(&path).unwrap();
        assert_eq!(rec.outcome, RecoveryOutcome::Clean { wal_records: 0 });
        assert!(rec.state.unwrap().deltas.is_empty());
    }

    #[test]
    fn corrupt_snapshot_falls_back_and_next_checkpoint_heals() {
        let path = temp_store("corrupt");
        let (mut store, _) = SessionStore::open(&path).unwrap();
        let (g, _) = paper_example();
        store
            .checkpoint(&g, None, CoresetMode::SingleValue, GainPolicy::Total)
            .unwrap();
        drop(store);
        // Flip a byte in the GRAPH frame region.
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();

        let (mut store, rec) = SessionStore::open(&path).unwrap();
        assert!(matches!(
            rec.outcome,
            RecoveryOutcome::SnapshotFallback { .. }
        ));
        assert!(rec.state.is_none());
        // The store is usable again after one checkpoint.
        store
            .checkpoint(&g, None, CoresetMode::SingleValue, GainPolicy::Total)
            .unwrap();
        drop(store);
        let (_, rec2) = SessionStore::open(&path).unwrap();
        assert_eq!(rec2.outcome, RecoveryOutcome::Clean { wal_records: 0 });
        assert_eq!(rec2.state.unwrap().graph, g);
    }

    #[test]
    fn foreign_file_and_future_version_are_refused() {
        let path = temp_store("foreign");
        fs::write(&path, b"definitely not a store").unwrap();
        assert!(matches!(
            SessionStore::open(&path),
            Err(StoreError::Magic { .. })
        ));

        let path2 = temp_store("future");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&SNAPSHOT_MAGIC);
        bytes.extend_from_slice(&(STORE_VERSION + 1).to_le_bytes());
        fs::write(&path2, &bytes).unwrap();
        assert!(matches!(
            SessionStore::open(&path2),
            Err(StoreError::Version { found, .. }) if found == STORE_VERSION + 1
        ));
    }

    #[test]
    fn damaged_db_section_salvages_graph() {
        let path = temp_store("dbflip");
        let (mut store, _) = SessionStore::open(&path).unwrap();
        let (g, _) = paper_example();
        let db = InvertedDb::build(&g, CoresetMode::SingleValue, GainPolicy::Total);
        store
            .checkpoint(&g, Some(&db), CoresetMode::SingleValue, GainPolicy::Total)
            .unwrap();
        drop(store);
        // Flip a byte near the end of the file — inside the DB frame.
        let mut bytes = fs::read(&path).unwrap();
        let at = bytes.len() - 8;
        bytes[at] ^= 0x10;
        fs::write(&path, &bytes).unwrap();

        let (_, rec) = SessionStore::open(&path).unwrap();
        let state = rec.state.expect("graph salvaged");
        assert_eq!(state.graph, g);
        assert!(state.db.is_none());
        assert!(state.db_note.is_some());
    }

    #[test]
    fn multi_value_modes_skip_the_db_section() {
        let path = temp_store("slim");
        let (mut store, _) = SessionStore::open(&path).unwrap();
        let (g, _) = paper_example();
        let db = InvertedDb::build(&g, CoresetMode::Slim, GainPolicy::Total);
        store
            .checkpoint(&g, Some(&db), CoresetMode::Slim, GainPolicy::Total)
            .unwrap();
        drop(store);
        let (_, rec) = SessionStore::open(&path).unwrap();
        let state = rec.state.unwrap();
        assert_eq!(state.mode, Some(CoresetMode::Slim));
        assert!(state.db.is_none());
        assert!(state.db_note.is_none());
    }

    #[test]
    fn only_the_fixed_min_support_reads_back_as_krimp() {
        for mode in [
            CoresetMode::SingleValue,
            CoresetMode::Krimp,
            CoresetMode::Slim,
        ] {
            let (tag, min_support) = mode_to_tags(mode);
            assert_eq!(mode_from_tags(tag, min_support), Some(mode));
        }
        for min_support in [0, 1, 3, u32::MAX] {
            assert_eq!(
                mode_from_tags(MODE_KRIMP, min_support),
                None,
                "{min_support}"
            );
        }
    }
}
