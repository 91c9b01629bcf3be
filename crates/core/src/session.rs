//! Long-lived mining sessions: the primary API of `cspm-core`.
//!
//! The one-shot entry point [`mine`](crate::mine) builds an inverted
//! database, runs the merge loop once, and throws the warm state away.
//! The workloads the paper's dynamic application (§VI) and this repo's
//! roadmap care about look different: the graph *evolves*, and the
//! miner is asked again and again. A [`MiningSession`] keeps
//! the expensive state alive between calls:
//!
//! * the **current graph**, so evolution arrives as [`GraphDelta`]s —
//!   additions, edge/label/vertex removals and label changes alike —
//!   instead of full graphs;
//! * the **pristine inverted database** (post-build, pre-merge), which
//!   a delta *patches* instead of rebuilding: rows are re-derived for
//!   the delta's dirty centers only (retracted memberships cleared,
//!   surviving ones re-inserted), and the remaining per-delta work is
//!   a few linear refresh passes — ~8× cheaper than a rebuild on
//!   pokec-Small — see [`InvertedDb::apply_delta`];
//! * the **posting arena** backing those rows, which survives across
//!   calls and is compacted when patch traffic fragments it past the
//!   configured pressure ratio ([`Miner::compact_above`]).
//!
//! Warm re-mining is **bit-identical** to cold re-mining: a patched
//! database is indistinguishable from a freshly built one (same
//! numbering, same rows, same DL terms to the last bit), so the greedy
//! merge loop takes the same path. The only thing a session changes is
//! how fast the answer is produced.
//!
//! Sessions are configured through the [`Miner`] builder and observed
//! through [`ProgressObserver`] — per-iteration callbacks with
//! cooperative, [`ControlFlow`]-based cancellation:
//!
//! ```
//! use std::ops::ControlFlow;
//! use cspm_core::{IterationStat, Miner, ProgressObserver};
//! use cspm_graph::fixtures::paper_example;
//!
//! struct StopAfter(usize);
//! impl ProgressObserver for StopAfter {
//!     fn on_iteration(&mut self, _stat: &IterationStat) -> ControlFlow<()> {
//!         self.0 -= 1;
//!         if self.0 == 0 { ControlFlow::Break(()) } else { ControlFlow::Continue(()) }
//!     }
//! }
//!
//! let (graph, _) = paper_example();
//! let mut session = Miner::new().threads(1).build();
//! let full = session.mine(&graph);
//! // Cancel after one merge: still a valid (partial) model, and the
//! // session stays reusable.
//! let partial = session.run_with(&mut StopAfter(1)).unwrap();
//! assert!(partial.stats.cancelled && partial.merges == 1);
//! assert_eq!(session.run_with(&mut StopAfter(usize::MAX)).unwrap().final_dl, full.final_dl);
//! ```

use std::ops::ControlFlow;
use std::time::Instant;

use cspm_graph::dynamic::GraphDelta;
use cspm_graph::{AttributedGraph, GraphError, VertexId};

use crate::config::CspmConfig;
use crate::engine::{run_loop, CspmResult, ProgressObserver, RunToCompletion, Variant};
use crate::inverted::{InvertedDb, PatchError, PatchStats};
use crate::{CoresetMode, GainPolicy};

/// Builder for [`MiningSession`]s.
///
/// ```
/// use cspm_core::{Miner, Variant};
/// use cspm_graph::fixtures::paper_example;
///
/// let (graph, _) = paper_example();
/// let mut session = Miner::new().threads(4).variant(Variant::Basic).build();
/// let result = session.mine(&graph);
/// assert!(result.final_dl <= result.initial_dl);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Miner {
    config: CspmConfig,
    variant: Variant,
    compact_above: f64,
    compact_after_releases: Option<u32>,
}

impl Default for Miner {
    fn default() -> Self {
        Self::new()
    }
}

impl Miner {
    /// Default arena-pressure ratio past which a session compacts its
    /// posting store after a delta: twice as much arena as live data.
    pub const DEFAULT_COMPACT_ABOVE: f64 = 2.0;

    /// Default count of *release-heavy* deltas (deltas that released at
    /// least one posting row back to the free-list) after which a
    /// session compacts regardless of the fragmentation ratio. Removal
    /// traffic frees rows scattered across the arena: the byte ratio
    /// can stay under [`Self::DEFAULT_COMPACT_ABOVE`] for a long time
    /// while the free-list keeps the arena from ever shrinking.
    pub const DEFAULT_COMPACT_AFTER_RELEASES: u32 = 8;

    /// A builder with the paper-default configuration (the same
    /// defaults as [`CspmConfig::default`], [`Variant::Partial`]).
    pub fn new() -> Self {
        Self::from_config(CspmConfig::default())
    }

    /// A builder starting from an existing configuration.
    pub fn from_config(config: CspmConfig) -> Self {
        Self {
            config,
            variant: Variant::default(),
            compact_above: Self::DEFAULT_COMPACT_ABOVE,
            compact_after_releases: Some(Self::DEFAULT_COMPACT_AFTER_RELEASES),
        }
    }

    /// Scoring worker threads (`0` = one per core; see
    /// [`CspmConfig::threads`]).
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// CSPM variant the merge loop runs ([`Variant::Partial`] by
    /// default).
    pub fn variant(mut self, variant: Variant) -> Self {
        self.variant = variant;
        self
    }

    /// Gain accounting policy (see [`GainPolicy`]).
    pub fn gain_policy(mut self, gain_policy: GainPolicy) -> Self {
        self.config.gain_policy = gain_policy;
        self
    }

    /// Coreset formation mode. Note that only
    /// [`CoresetMode::SingleValue`] databases can absorb graph deltas
    /// in place; other modes re-build on every delta (correct, but
    /// cold).
    pub fn coreset_mode(mut self, mode: CoresetMode) -> Self {
        self.config.coreset_mode = mode;
        self
    }

    /// Optional cap on accepted merges per run.
    pub fn max_merges(mut self, cap: Option<usize>) -> Self {
        self.config.max_merges = cap;
        self
    }

    /// Record per-iteration statistics in [`RunStats`](crate::RunStats).
    pub fn collect_stats(mut self, collect: bool) -> Self {
        self.config.collect_stats = collect;
        self
    }

    /// Arena-pressure ratio (`arena_len / live_len`) past which the
    /// session compacts its posting store after absorbing a delta.
    /// Must be ≥ 1.0; pass [`f64::INFINITY`] to disable automatic
    /// compaction (manual [`MiningSession::compact_now`] still works).
    pub fn compact_above(mut self, ratio: f64) -> Self {
        assert!(ratio >= 1.0, "a pressure ratio below 1.0 is unreachable");
        self.compact_above = ratio;
        self
    }

    /// Number of release-heavy deltas (deltas that released posting
    /// rows to the free-list) after which the session compacts even if
    /// the fragmentation ratio is still below
    /// [`compact_above`](Self::compact_above). Removal-dominated
    /// streams fragment the arena without growing it, so the ratio
    /// alone reacts late; this counter bounds how long that state can
    /// persist. `None` disables the trigger; must be ≥ 1 otherwise.
    pub fn compact_after_releases(mut self, count: Option<u32>) -> Self {
        assert!(
            count != Some(0),
            "a zero release threshold would compact on every delta; use Some(1) \
             to compact after each release-heavy delta or None to disable"
        );
        self.compact_after_releases = count;
        self
    }

    /// The configuration this builder will hand its sessions.
    pub fn config(&self) -> &CspmConfig {
        &self.config
    }

    /// Builds an (unloaded) session. Feed it a graph with
    /// [`MiningSession::mine`] or [`MiningSession::load`].
    pub fn build(self) -> MiningSession {
        MiningSession {
            config: self.config,
            variant: self.variant,
            compact_above: self.compact_above,
            compact_after_releases: self.compact_after_releases,
            release_heavy_deltas: 0,
            graph: None,
            pristine: None,
            compactions: 0,
        }
    }
}

/// Why a session call could not proceed.
#[derive(Debug)]
pub enum SessionError {
    /// The session has no graph or database yet — call
    /// [`MiningSession::mine`] or [`MiningSession::load`] first.
    Empty,
    /// The session owns a database but no graph (it was
    /// [adopted](MiningSession::adopt_db)); deltas need the graph.
    NoGraph,
    /// A delta does not apply to the session's current graph. `index`
    /// is its position in the staged batch (always 0 for the
    /// single-delta entry points), so a caller can resume from
    /// `deltas[index..]` after repairing — every delta before it **is**
    /// absorbed (see [`MiningSession::stage_deltas`]).
    Delta {
        /// Position of the rejected delta within the staged batch.
        index: usize,
        /// Why that delta did not apply.
        source: GraphError,
    },
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Empty => write!(f, "session has no graph loaded"),
            Self::NoGraph => write!(f, "session adopted a bare database; deltas require a graph"),
            Self::Delta { index, source } => {
                write!(f, "delta #{index} of the batch does not apply: {source}")
            }
        }
    }
}

impl std::error::Error for SessionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Delta { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// How a [`MiningSession::stage_delta`] call updated the session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaStats {
    /// Vertices whose stars the delta changed (the only centers the
    /// patch re-derived rows for).
    pub dirty_centers: usize,
    /// Row-level patch counters (zeroed when `rebuilt`).
    pub patch: PatchStats,
    /// `Some(reason)` when the database had to be rebuilt from scratch
    /// instead of patched — multi-value coreset modes, or a base whose
    /// coreset numbering is not canonical. A session that keeps
    /// rebuilding gets no warm-path savings; the [`PatchError`] says
    /// why.
    pub rebuilt: Option<PatchError>,
    /// Whether arena pressure triggered a compaction afterwards.
    pub compacted: bool,
    /// Posting-arena fragmentation after the patch (and compaction, if
    /// one ran): `arena_len / live_len`, 1.0 = fully compact.
    pub fragmentation: f64,
}

/// A long-lived miner: owns the current graph and the pristine
/// inverted database (rows + posting arena) across calls, absorbs
/// [`GraphDelta`]s incrementally, and re-mines warm. See the
/// [module docs](self) for the full contract; built by [`Miner`].
#[derive(Debug, Clone)]
pub struct MiningSession {
    config: CspmConfig,
    variant: Variant,
    compact_above: f64,
    compact_after_releases: Option<u32>,
    /// Release-heavy deltas absorbed since the last compaction (or
    /// cold load — both leave the arena exactly packed).
    release_heavy_deltas: u32,
    graph: Option<AttributedGraph>,
    pristine: Option<InvertedDb>,
    compactions: u64,
}

impl MiningSession {
    /// Cold-loads `g`: replaces any retained state with a fresh
    /// inverted database for `g`. Does not mine.
    pub fn load(&mut self, g: &AttributedGraph) {
        self.load_owned(g.clone());
    }

    /// [`Self::load`] taking ownership — spares the graph clone when
    /// the caller has one to give away.
    pub fn load_owned(&mut self, g: AttributedGraph) {
        self.pristine = Some(InvertedDb::build(
            &g,
            self.config.coreset_mode,
            self.config.gain_policy,
        ));
        self.graph = Some(g);
        // A fresh build packs the arena exactly.
        self.release_heavy_deltas = 0;
    }

    /// Adopts a pre-built database as the session's pristine state.
    /// The session has no graph afterwards, so deltas are unavailable
    /// ([`SessionError::NoGraph`]). To time the merge loop apart from
    /// database construction, adopt a pre-built database and consume it
    /// with [`Self::run_detached`], as [`mine`](crate::mine) does.
    pub fn adopt_db(&mut self, db: InvertedDb) {
        self.pristine = Some(db);
        self.graph = None;
    }

    /// Installs previously captured warm state — a graph **and** the
    /// pristine database that corresponds to it — without rebuilding
    /// anything. This is the restore half of a durable session
    /// (`cspm-store` reads both from a snapshot file); the pair must
    /// belong together (the database built from, or patched up to,
    /// exactly this graph), which the caller asserts by construction —
    /// a mismatched pair mines the database, not the graph, and deltas
    /// will desynchronise.
    pub fn restore(&mut self, g: AttributedGraph, db: InvertedDb) {
        self.pristine = Some(db);
        self.graph = Some(g);
    }

    /// The retained pristine database, if the session is loaded — the
    /// serialisation source for durable-session checkpoints.
    pub fn pristine_db(&self) -> Option<&InvertedDb> {
        self.pristine.as_ref()
    }

    /// Whether the session holds a database to mine.
    pub fn is_loaded(&self) -> bool {
        self.pristine.is_some()
    }

    /// The session's current graph, if it owns one.
    pub fn graph(&self) -> Option<&AttributedGraph> {
        self.graph.as_ref()
    }

    /// Posting-arena pressure of the retained database:
    /// `arena_len / live_len` (1.0 when compact or unloaded).
    pub fn fragmentation(&self) -> f64 {
        self.pristine
            .as_ref()
            .map_or(1.0, |db| db.posting_store().fragmentation())
    }

    /// How many pressure-triggered (or manual) compactions this
    /// session has performed.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Compacts the retained posting arena unconditionally.
    pub fn compact_now(&mut self) {
        if let Some(db) = self.pristine.as_mut() {
            db.compact_postings();
            self.compactions += 1;
            self.release_heavy_deltas = 0;
        }
    }

    /// Release-heavy deltas (deltas that released posting rows back to
    /// the free-list) absorbed since the last compaction — the counter
    /// behind [`Miner::compact_after_releases`].
    pub fn release_heavy_deltas(&self) -> u32 {
        self.release_heavy_deltas
    }

    /// Estimated resident bytes of the retained graph + pristine
    /// database (0 when unloaded). This is what a serving daemon's
    /// memory budget counts; see [`crate::registry`].
    pub fn approx_bytes(&self) -> usize {
        self.graph.as_ref().map_or(0, AttributedGraph::approx_bytes)
            + self.pristine.as_ref().map_or(0, InvertedDb::approx_bytes)
    }

    /// Cold mine: loads `g` and runs the merge loop to convergence.
    /// Retains the warm state for later [`Self::apply_delta`] /
    /// [`Self::run_with`] calls.
    pub fn mine(&mut self, g: &AttributedGraph) -> CspmResult {
        self.mine_with(g, &mut RunToCompletion)
    }

    /// [`Self::mine`] with a progress observer.
    pub fn mine_with(
        &mut self,
        g: &AttributedGraph,
        observer: &mut dyn ProgressObserver,
    ) -> CspmResult {
        let started = Instant::now();
        self.load(g);
        let mut result = self.run_with(observer).expect("session was just loaded");
        // Like the one-shot entry points, a cold mine charges database
        // construction to the run's elapsed time.
        result.stats.elapsed_secs = started.elapsed().as_secs_f64();
        result
    }

    /// Absorbs `delta` into the retained graph and database **without
    /// mining**: patch rows for the delta's dirty centers, then compact
    /// the arena if pressure exceeds the configured ratio. Use this to
    /// batch several deltas before one [`Self::run_with`];
    /// [`Self::apply_delta`] is the stage-and-mine convenience.
    pub fn stage_delta(&mut self, delta: &GraphDelta) -> Result<DeltaStats, SessionError> {
        self.stage_deltas(std::slice::from_ref(delta))
    }

    /// Absorbs a whole batch of deltas with **one** database patch:
    /// every delta is applied to the session graph in place, the dirty
    /// sets are merged, and [`InvertedDb::apply_delta`] runs once
    /// over the final graph. The per-patch linear refresh passes
    /// (mapping table, code table, DL terms) are thus paid once per
    /// batch instead of once per delta. (When there is no warm state
    /// worth keeping at all — e.g. a one-shot replay of a whole
    /// snapshot sequence, as in [`mine_dynamic`](crate::mine_dynamic)
    /// — a cold [`Self::load_owned`] of the final graph is cheaper
    /// still; batching earns its keep when the session has already
    /// mined and the batch is small relative to the graph.)
    ///
    /// **Applied-prefix guarantee:** if delta `i` of the batch is
    /// rejected, deltas `0..i` remain absorbed — graph and database are
    /// re-synced to exactly that prefix before the error returns — and
    /// the error carries `i` as [`SessionError::Delta::index`], so the
    /// caller can repair `deltas[i]` and resume staging from
    /// `deltas[i..]` without replaying (or losing) the prefix. A
    /// rejected delta validates before mutating, so it is absorbed
    /// either wholly or not at all.
    pub fn stage_deltas(&mut self, deltas: &[GraphDelta]) -> Result<DeltaStats, SessionError> {
        if self.pristine.is_none() {
            return Err(SessionError::Empty);
        }
        let graph = self.graph.as_mut().ok_or(SessionError::NoGraph)?;
        // In place: the session owns its graph, so there is no reason
        // to clone it per delta. A rejected delta validates before
        // mutating, leaving the graph at the previous delta's state.
        let mut dirty: Vec<VertexId> = Vec::new();
        let mut error = None;
        for (index, delta) in deltas.iter().enumerate() {
            match delta.apply_in_place(graph) {
                Ok(d) => dirty.extend(d),
                Err(source) => {
                    // Re-sync the database with the successfully
                    // applied prefix before surfacing the error.
                    error = Some(SessionError::Delta { index, source });
                    break;
                }
            }
        }
        dirty.sort_unstable();
        dirty.dedup();
        if dirty.is_empty() {
            // Nothing changed (empty batch, or pure no-op deltas):
            // skip the refresh passes entirely — the database already
            // matches the graph.
            return match error {
                Some(e) => Err(e),
                None => Ok(DeltaStats {
                    dirty_centers: 0,
                    patch: PatchStats::default(),
                    rebuilt: None,
                    compacted: false,
                    fragmentation: self.fragmentation(),
                }),
            };
        }
        let stats = self.absorb_dirty(dirty);
        match error {
            Some(e) => Err(e),
            None => Ok(stats),
        }
    }

    /// Patches (or, for unpatchable coreset modes, rebuilds) the
    /// retained database for the given dirty centers of the current
    /// graph, then compacts under arena pressure.
    fn absorb_dirty(&mut self, dirty: Vec<VertexId>) -> DeltaStats {
        let graph = self.graph.as_ref().expect("caller checked");
        let db = self.pristine.as_mut().expect("caller checked");
        let mut stats = DeltaStats {
            dirty_centers: dirty.len(),
            patch: PatchStats::default(),
            rebuilt: None,
            compacted: false,
            fragmentation: 1.0,
        };
        match db.apply_delta(graph, &dirty) {
            Ok(patch) => {
                stats.patch = patch;
                if patch.rows_removed > 0 {
                    self.release_heavy_deltas += 1;
                }
            }
            Err(reason) => {
                // Multi-value coresets (or a non-canonical database):
                // fall back to a cold rebuild — identical result, no
                // warm savings. The rebuild packs the arena exactly.
                *db = InvertedDb::build(graph, self.config.coreset_mode, self.config.gain_policy);
                stats.rebuilt = Some(reason);
                self.release_heavy_deltas = 0;
            }
        }
        // Two independent pressure signals: the byte ratio (additive
        // patch traffic relocates rows, growing the arena) and the
        // release counter (removal traffic frees rows without growing
        // it — the ratio reacts late, the counter does not).
        let release_pressure = self
            .compact_after_releases
            .is_some_and(|n| self.release_heavy_deltas >= n);
        if db.posting_store().fragmentation() > self.compact_above || release_pressure {
            db.compact_postings();
            self.compactions += 1;
            self.release_heavy_deltas = 0;
            stats.compacted = true;
        }
        stats.fragmentation = db.posting_store().fragmentation();
        stats
    }

    /// Warm re-mine: absorbs `delta` (see [`Self::stage_delta`]) and
    /// runs the merge loop on the patched database. Bit-identical to a
    /// cold [`Self::mine`] of the grown graph, at a fraction of the
    /// setup cost.
    pub fn apply_delta(&mut self, delta: &GraphDelta) -> Result<CspmResult, SessionError> {
        self.apply_delta_with(delta, &mut RunToCompletion)
    }

    /// [`Self::apply_delta`] with a progress observer.
    pub fn apply_delta_with(
        &mut self,
        delta: &GraphDelta,
        observer: &mut dyn ProgressObserver,
    ) -> Result<CspmResult, SessionError> {
        let started = Instant::now();
        self.stage_delta(delta)?;
        let mut result = self.run_with(observer)?;
        result.stats.elapsed_secs = started.elapsed().as_secs_f64();
        Ok(result)
    }

    /// Runs the merge loop on (a copy of) the retained pristine
    /// database, reporting every accepted merge to `observer` and
    /// honouring its cancellation. The session keeps its state, so the
    /// call can be repeated — after a cancellation, after more deltas,
    /// or with a different observer — and a re-run from the same state
    /// returns the same result.
    pub fn run_with(
        &mut self,
        observer: &mut dyn ProgressObserver,
    ) -> Result<CspmResult, SessionError> {
        let db = self.pristine.as_ref().ok_or(SessionError::Empty)?;
        Ok(run_loop(db.clone(), self.variant, self.config, observer))
    }

    /// Runs the merge loop by **consuming** the retained database —
    /// the no-copy path for one-shot use ([`mine`](crate::mine) routes
    /// through here). The session is unloaded afterwards.
    pub fn run_detached(&mut self) -> Option<CspmResult> {
        let db = self.pristine.take()?;
        self.graph = None;
        Some(run_loop(
            db,
            self.variant,
            self.config,
            &mut RunToCompletion,
        ))
    }
}

/// A resident session is exactly what [`crate::registry`]'s budget
/// wants to manage: its bytes are graph + pristine database, pressure
/// is arena fragmentation, and compaction is the session's own exact
/// arena repack (which never changes mined output).
impl crate::registry::ResidentFootprint for MiningSession {
    fn approx_bytes(&self) -> usize {
        MiningSession::approx_bytes(self)
    }

    fn fragmentation(&self) -> f64 {
        MiningSession::fragmentation(self)
    }

    fn compact(&mut self) {
        self.compact_now();
    }
}

/// An observer driven by closures, for callers who do not want a named
/// type: `FnObserver(|stat| ControlFlow::Continue(()))`.
pub struct FnObserver<F>(pub F);

impl<F: FnMut(&crate::IterationStat) -> ControlFlow<()>> ProgressObserver for FnObserver<F> {
    fn on_iteration(&mut self, stat: &crate::IterationStat) -> ControlFlow<()> {
        (self.0)(stat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cspm_graph::dynamic::{DeltaVertex, GraphDelta};
    use cspm_graph::fixtures::paper_example;

    #[test]
    fn builder_round_trips_config() {
        let m = Miner::new()
            .threads(3)
            .gain_policy(GainPolicy::DataOnly)
            .max_merges(Some(7))
            .collect_stats(true)
            .variant(Variant::Basic)
            .compact_above(4.0)
            .compact_after_releases(Some(5));
        assert_eq!(m.config().threads, 3);
        assert_eq!(m.config().gain_policy, GainPolicy::DataOnly);
        assert_eq!(m.config().max_merges, Some(7));
        assert!(m.config().collect_stats);
        assert_eq!(m.variant, Variant::Basic);
        assert_eq!(m.compact_above, 4.0);
        assert_eq!(m.compact_after_releases, Some(5));
        assert_eq!(
            Miner::new().compact_after_releases,
            Some(Miner::DEFAULT_COMPACT_AFTER_RELEASES)
        );
    }

    #[test]
    fn unloaded_session_reports_errors() {
        let mut s = Miner::new().build();
        assert!(!s.is_loaded());
        assert_eq!(s.fragmentation(), 1.0);
        assert!(matches!(
            s.run_with(&mut RunToCompletion),
            Err(SessionError::Empty)
        ));
        assert!(matches!(
            s.stage_delta(&GraphDelta::new()),
            Err(SessionError::Empty)
        ));
        assert!(s.run_detached().is_none());
    }

    #[test]
    fn adopted_database_mines_but_rejects_deltas() {
        let (g, _) = paper_example();
        let db = InvertedDb::build(&g, CoresetMode::SingleValue, GainPolicy::Total);
        let mut s = Miner::new().build();
        s.adopt_db(db);
        assert!(s.graph().is_none());
        assert!(matches!(
            s.stage_delta(&GraphDelta::new()),
            Err(SessionError::NoGraph)
        ));
        let res = s.run_with(&mut RunToCompletion).unwrap();
        assert!(res.final_dl <= res.initial_dl);
    }

    #[test]
    fn session_mine_matches_free_function() {
        let (g, _) = paper_example();
        let mut s = Miner::new().build();
        let session = s.mine(&g);
        let free = crate::mine(&g, Variant::Partial, CspmConfig::default());
        assert_eq!(session.final_dl, free.final_dl);
        assert_eq!(session.merges, free.merges);
        assert!(s.is_loaded(), "warm state is retained");
        // Re-running from the retained pristine state reproduces the
        // result exactly.
        let again = s.run_with(&mut RunToCompletion).unwrap();
        assert_eq!(again.final_dl, session.final_dl);
        assert_eq!(again.merges, session.merges);
    }

    #[test]
    fn apply_delta_equals_cold_mine_of_grown_graph() {
        let (g, _) = paper_example();
        let mut delta = GraphDelta::new();
        let w = delta.add_vertex(["d", "a"]);
        delta.add_edge(w, DeltaVertex::Existing(1));
        delta.add_label(2, "b");
        let grown = delta.apply(&g).unwrap().graph;

        let mut warm = Miner::new().build();
        warm.mine(&g);
        let warm_res = warm.apply_delta(&delta).unwrap();
        let mut cold = Miner::new().build();
        let cold_res = cold.mine(&grown);
        assert_eq!(warm_res.final_dl, cold_res.final_dl);
        assert_eq!(warm_res.merges, cold_res.merges);
        assert_eq!(
            warm_res.stats.total_gain_evals,
            cold_res.stats.total_gain_evals
        );
        assert_eq!(warm.graph().unwrap(), &grown);
    }

    /// Batched staging (one patch for many deltas — the mine_dynamic
    /// replay path) must land on the same state as staging one by one.
    #[test]
    fn stage_deltas_batch_equals_sequential() {
        let (g, _) = paper_example();
        let mut d1 = GraphDelta::new();
        let w = d1.add_vertex(["d", "a"]);
        d1.add_edge(w, DeltaVertex::Existing(1));
        let mut d2 = GraphDelta::new();
        d2.add_label(2, "b");
        let w2 = d2.add_vertex(["e"]);
        d2.add_edge(w2, DeltaVertex::Existing(0));

        let mut batched = Miner::new().build();
        batched.mine(&g);
        let stats = batched.stage_deltas(&[d1.clone(), d2.clone()]).unwrap();
        assert!(stats.rebuilt.is_none());

        let mut sequential = Miner::new().build();
        sequential.mine(&g);
        sequential.stage_delta(&d1).unwrap();
        sequential.stage_delta(&d2).unwrap();

        assert_eq!(batched.graph(), sequential.graph());
        let b = batched.run_with(&mut RunToCompletion).unwrap();
        let s = sequential.run_with(&mut RunToCompletion).unwrap();
        assert_eq!(b.final_dl, s.final_dl);
        assert_eq!(b.merges, s.merges);
    }

    /// A rejected delta mid-batch keeps the session consistent: the
    /// applied prefix is absorbed into the database, and the session
    /// keeps mining correctly (matching a cold mine of the prefix
    /// graph).
    #[test]
    fn failed_mid_batch_leaves_session_consistent() {
        let (g, _) = paper_example();
        let mut good = GraphDelta::new();
        let w = good.add_vertex(["d", "a"]);
        good.add_edge(w, DeltaVertex::Existing(1));
        let mut bad = GraphDelta::new();
        bad.add_edge(DeltaVertex::Existing(77), DeltaVertex::Existing(0));

        let mut s = Miner::new().build();
        s.mine(&g);
        let err = s.stage_deltas(&[good.clone(), bad]).unwrap_err();
        // The error names the rejected delta's batch index, so a caller
        // can resume from `deltas[index..]` (applied-prefix guarantee).
        assert!(matches!(err, SessionError::Delta { index: 1, .. }));
        // The good prefix is absorbed; the session graph matches it
        // and mining agrees with a cold run on that graph.
        let prefix = good.apply(&g).unwrap().graph;
        assert_eq!(s.graph().unwrap(), &prefix);
        let warm = s.run_with(&mut RunToCompletion).unwrap();
        let cold = Miner::new().build().mine(&prefix);
        assert_eq!(warm.final_dl, cold.final_dl);
        assert_eq!(warm.merges, cold.merges);
    }

    /// A base graph whose interner carried an unused attribute value
    /// builds a database with non-canonical coreset numbering; the
    /// patch refuses it and the session falls back to a rebuild —
    /// staying bit-identical to a cold mine instead of silently
    /// mining a corrupted model.
    #[test]
    fn desynced_base_numbering_rebuilds_instead_of_corrupting() {
        use cspm_graph::{AttrTable, AttributedGraph};
        let mut attrs = AttrTable::new();
        let (a, _b, c) = (attrs.intern("a"), attrs.intern("b"), attrs.intern("c"));
        let labels = vec![vec![a], vec![c], vec![a, c]];
        let g = AttributedGraph::from_edge_list(labels, attrs, [(0u32, 1u32), (1, 2)]).unwrap();

        let mut s = Miner::new().build();
        s.mine(&g);
        // The delta attaches the formerly unused value "b", making the
        // grown graph look healthy — the corruption trigger.
        let mut delta = GraphDelta::new();
        delta.add_label(0, "b");
        let stats = s.stage_delta(&delta).unwrap();
        assert!(
            matches!(stats.rebuilt, Some(PatchError::NonCanonicalCoresets(_))),
            "desynced numbering must force a rebuild, got {:?}",
            stats.rebuilt
        );

        let grown = delta.apply(&g).unwrap().graph;
        let warm = s.run_with(&mut RunToCompletion).unwrap();
        let cold = Miner::new().build().mine(&grown);
        assert_eq!(warm.final_dl.to_bits(), cold.final_dl.to_bits());
        assert_eq!(warm.merges, cold.merges);
    }

    #[test]
    fn multi_value_sessions_rebuild_on_delta() {
        let (g, _) = paper_example();
        let mut s = Miner::new().coreset_mode(CoresetMode::Slim).build();
        s.mine(&g);
        let mut delta = GraphDelta::new();
        delta.add_label(2, "b");
        let stats = s.stage_delta(&delta).unwrap();
        assert!(
            matches!(stats.rebuilt, Some(PatchError::UnsupportedCoresetMode)),
            "multi-value coresets cannot be patched, got {:?}",
            stats.rebuilt
        );
        let res = s.run_with(&mut RunToCompletion).unwrap();
        let mut cold = Miner::new().coreset_mode(CoresetMode::Slim).build();
        let cold_res = cold.mine(s.graph().unwrap());
        assert_eq!(res.final_dl, cold_res.final_dl);
    }

    /// Two interleaved planted label families: enough structure for
    /// several independent merges.
    fn multi_merge_graph() -> AttributedGraph {
        let mut b = cspm_graph::GraphBuilder::new();
        let mut prev = None;
        for i in 0..12 {
            let hub = b.add_vertex([format!("core{}", i % 2)]);
            let u = b.add_vertex([format!("p{}", i % 2)]);
            let w = b.add_vertex([format!("q{}", i % 2)]);
            b.add_edge(hub, u).unwrap();
            b.add_edge(hub, w).unwrap();
            if let Some(p) = prev {
                b.add_edge(p, hub).unwrap();
            }
            prev = Some(hub);
        }
        b.build().unwrap()
    }

    #[test]
    fn cancellation_leaves_session_reusable() {
        let g = multi_merge_graph();
        let mut s = Miner::new().build();
        let full = s.mine(&g);
        assert!(full.merges >= 2, "fixture must merge more than once");
        let mut seen = 0usize;
        let cancelled = s
            .run_with(&mut FnObserver(|_stat: &crate::IterationStat| {
                seen += 1;
                ControlFlow::Break(())
            }))
            .unwrap();
        assert_eq!(seen, 1);
        assert!(cancelled.stats.cancelled);
        assert_eq!(cancelled.merges, 1);
        assert!(cancelled.final_dl <= cancelled.initial_dl);
        assert!(cancelled.final_dl >= full.final_dl);
        // The session still holds the pristine state: the next run is
        // complete and identical to the original.
        let rerun = s.run_with(&mut RunToCompletion).unwrap();
        assert!(!rerun.stats.cancelled);
        assert_eq!(rerun.final_dl, full.final_dl);
        assert_eq!(rerun.merges, full.merges);
    }

    #[test]
    fn observer_sees_monotone_dl_trace() {
        let (g, _) = paper_example();
        let mut s = Miner::new().build();
        s.load(&g);
        let mut last = f64::INFINITY;
        let res = s
            .run_with(&mut FnObserver(|stat: &crate::IterationStat| {
                assert!(stat.dl_after < last + 1e-9);
                assert!(stat.accepted_gain > 0.0);
                last = stat.dl_after;
                ControlFlow::Continue(())
            }))
            .unwrap();
        assert!(res.merges >= 1);
        assert!((last - res.final_dl).abs() < 1e-9);
    }

    #[test]
    fn pressure_triggers_compaction() {
        let (g, _) = paper_example();
        // Threshold 1.0 + ε: any fragmentation at all triggers.
        let mut s = Miner::new().compact_above(1.0 + 1e-9).build();
        s.mine(&g);
        let mut delta = GraphDelta::new();
        let w = delta.add_vertex(["a", "b", "c"]);
        delta.add_edge(w, DeltaVertex::Existing(0));
        delta.add_edge(w, DeltaVertex::Existing(4));
        let stats = s.stage_delta(&delta).unwrap();
        // Patching relocated rows inside the arena, so pressure rose
        // above 1.0 and the session compacted back to exactly 1.0.
        assert!(stats.compacted, "patch traffic must trigger compaction");
        assert_eq!(stats.fragmentation, 1.0);
        assert_eq!(s.fragmentation(), 1.0);
        assert_eq!(s.compactions(), 1);
        // Compaction must not perturb the mining result.
        let res = s.run_with(&mut RunToCompletion).unwrap();
        let cold = Miner::new().build().mine(s.graph().unwrap());
        assert_eq!(res.final_dl, cold.final_dl);
        assert_eq!(res.merges, cold.merges);
    }

    /// A backbone path labelled "a" with `k` pair gadgets hanging off
    /// it: gadget `i` is an edge between fresh vertices labelled
    /// `ga{i}` / `gb{i}`. Removing a gadget's edge empties the two
    /// posting rows that pair uniquely owns — release traffic that
    /// barely moves the arena's byte ratio.
    fn gadget_graph(k: usize) -> (AttributedGraph, Vec<(u32, u32)>) {
        let mut b = cspm_graph::GraphBuilder::new();
        let mut prev = None;
        for _ in 0..4 {
            let v = b.add_vertex(["a"]);
            if let Some(p) = prev {
                b.add_edge(p, v).unwrap();
            }
            prev = Some(v);
        }
        let spine = prev.unwrap();
        let mut gadgets = Vec::new();
        for i in 0..k {
            let u = b.add_vertex([format!("ga{i}")]);
            let w = b.add_vertex([format!("gb{i}")]);
            b.add_edge(u, w).unwrap();
            b.add_edge(u, spine).unwrap();
            gadgets.push((u, w));
        }
        (b.build().unwrap(), gadgets)
    }

    /// Satellite of the PR 9 follow-on: removal traffic that releases
    /// rows without pushing the byte ratio past `compact_above` must
    /// still compact once the configured count of release-heavy deltas
    /// accumulates.
    #[test]
    fn release_heavy_deltas_trigger_compaction() {
        let (g, gadgets) = gadget_graph(6);
        // The byte-ratio trigger is effectively disabled; only the
        // release counter can fire.
        let mut s = Miner::new()
            .compact_above(1e9)
            .compact_after_releases(Some(3))
            .build();
        s.mine(&g);
        let mut compacted_at = None;
        for (i, &(u, w)) in gadgets.iter().enumerate() {
            let mut d = GraphDelta::new();
            d.remove_edge(u, w);
            let stats = s.stage_delta(&d).unwrap();
            assert!(stats.rebuilt.is_none(), "edge removal patches in place");
            assert!(
                stats.patch.rows_removed > 0,
                "gadget removal must release its pair rows"
            );
            if stats.compacted {
                compacted_at = Some(i);
                break;
            }
        }
        // The third release-heavy delta (index 2) trips the counter.
        assert_eq!(compacted_at, Some(2));
        assert_eq!(s.release_heavy_deltas(), 0, "counter resets on compaction");
        assert_eq!(s.compactions(), 1);
        // Compaction never changes mined output: the session still
        // agrees with a cold mine of its current graph.
        let warm = s.run_with(&mut RunToCompletion).unwrap();
        let cold = Miner::new().build().mine(s.graph().unwrap());
        assert_eq!(warm.final_dl.to_bits(), cold.final_dl.to_bits());
        assert_eq!(warm.merges, cold.merges);
    }

    /// The pre-fix behaviour, pinned: with the release trigger
    /// disabled, the same removal traffic leaves the arena fragmented
    /// indefinitely (the ratio alone never fires).
    #[test]
    fn release_trigger_disabled_leaves_arena_fragmented() {
        let (g, gadgets) = gadget_graph(6);
        let mut s = Miner::new()
            .compact_above(1e9)
            .compact_after_releases(None)
            .build();
        s.mine(&g);
        let mut last = None;
        for &(u, w) in &gadgets {
            let mut d = GraphDelta::new();
            d.remove_edge(u, w);
            let stats = s.stage_delta(&d).unwrap();
            assert!(!stats.compacted);
            last = Some(stats);
        }
        assert!(s.release_heavy_deltas() >= gadgets.len() as u32);
        assert!(
            last.unwrap().fragmentation > 1.0,
            "released rows must leave dead arena bytes behind"
        );
        assert_eq!(s.compactions(), 0);
    }

    #[test]
    fn manual_compaction_counts() {
        let (g, _) = paper_example();
        let mut s = Miner::new().compact_above(f64::INFINITY).build();
        s.mine(&g);
        s.compact_now();
        assert_eq!(s.compactions(), 1);
        assert_eq!(s.fragmentation(), 1.0);
    }
}
