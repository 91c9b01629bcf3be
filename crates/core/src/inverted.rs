//! The inverted database representation (§IV-B) with exact
//! description-length bookkeeping and the merge operation (§IV-E).
//!
//! A row is a triple `(leafset SL, coreset Sc, positions)`: the vertices
//! where every value of `Sc` occurs and every value of `SL` occurs on a
//! neighbour *jointly* (for merged leafsets, positions are intersections
//! of the parents' positions, per §IV-E).
//!
//! # Description length
//!
//! The maintained total is
//!
//! ```text
//! L(M, I) = L(CTc) + Σ_rows [ ST(SL) + Lc(Sc) ] + L(I|M)
//! L(I|M)  = Σ_j c_j·log2 c_j − Σ_rows fL·log2 fL          (Eq. 8)
//! ```
//!
//! where `ST(SL)` is the standard-code-table cost of materialising the
//! leafset, `Lc(Sc)` the coreset pointer code, and `c_j = Σ fL` per
//! coreset. Following the paper's own simplification ("the cost increase
//! of the new pattern's leafset in the code table … obtained through the
//! standard code table ST"), the `Code_L` column itself is priced on the
//! data side only (its per-row length `−log2(fL/fc)` is what Eq. 8 sums),
//! not double-counted in the model.

use std::collections::HashMap;

use cspm_graph::{AttrId, AttributedGraph, VertexId};
use cspm_itemset::{krimp, slim, KrimpConfig, SlimConfig, TransactionDb};
use cspm_mdl::{xlog2x, StandardCodeTable};

use crate::config::{CoresetMode, GainPolicy};
use crate::positions::{PostingPolicy, PostingStore, PostingView, RowId};

/// Index into the coreset registry.
pub type CoresetId = u32;
/// Index into the leafset registry.
pub type LeafsetId = u32;

/// A coreset `Sc`: attribute values plus its `CT_c` entry.
#[derive(Debug, Clone)]
pub struct Coreset {
    /// Sorted attribute values.
    pub items: Vec<AttrId>,
    /// `CT_c` code length (pointer cost from `CT_L` rows).
    pub code_len: f64,
    /// Vertices where the coreset occurs (its mapping-table positions).
    pub positions: Vec<VertexId>,
}

/// Outcome of a merge operation, consumed by CSPM-Partial's update step.
#[derive(Debug, Clone)]
pub struct MergeOutcome {
    /// Id of the (possibly pre-existing) union leafset.
    pub new_leafset: LeafsetId,
    /// Whether `x` vanished from every coreset (totally merged).
    pub x_removed: bool,
    /// Whether `y` vanished from every coreset.
    pub y_removed: bool,
    /// Coresets where rows actually changed.
    pub touched_coresets: Vec<CoresetId>,
    /// Exact change of the maintained total DL (negative = improvement).
    pub dl_delta: f64,
    /// Whether any row pair was merged at all.
    pub merged_any: bool,
}

/// The inverted database `I` plus the model bookkeeping (`CT_c`, `CT_L`).
#[derive(Debug, Clone)]
pub struct InvertedDb {
    st: StandardCodeTable,
    coresets: Vec<Coreset>,
    leafsets: Vec<Vec<AttrId>>,
    leafset_index: HashMap<Vec<AttrId>, LeafsetId>,
    /// Flat arena holding every row's sorted positions.
    store: PostingStore,
    /// `rows[e]`: leafset → posting-list row, for coreset `e`.
    rows: Vec<HashMap<LeafsetId, RowId>>,
    /// Reusable intersection buffer for [`Self::merge`].
    scratch_common: Vec<VertexId>,
    /// Reverse index: coresets in which each leafset currently has a row.
    leafset_coresets: Vec<Vec<CoresetId>>,
    /// `c_j`: Σ fL over the rows of each coreset.
    coreset_freq: Vec<u64>,
    /// Number of leafsets that still have at least one row.
    live_leafsets: usize,
    /// How the coresets were formed (decides whether the database can
    /// be patched incrementally; see [`Self::apply_delta`]).
    mode: CoresetMode,
    /// Whether the database is still in its post-build state (no merge
    /// applied). Only pristine databases can absorb graph deltas.
    pristine: bool,
    // --- DL bookkeeping ---
    term1: f64,
    term2: f64,
    material_cost: f64,
    ctc_cost: f64,
    gain_policy: GainPolicy,
}

/// What [`InvertedDb::apply_delta`] did, for session diagnostics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PatchStats {
    /// Coresets created for attribute values the delta introduced.
    pub new_coresets: usize,
    /// Rows created for `(coreset, leaf)` pairs that did not co-occur
    /// before the delta.
    pub rows_added: usize,
    /// Rows whose position set emptied out and were released back to
    /// the posting free-list.
    pub rows_removed: usize,
    /// Positions inserted into rows (including the initial position of
    /// every added row, and dirty positions re-derived in place).
    pub positions_added: usize,
    /// Dirty positions cleared out of retained rows before re-derive
    /// (a re-qualified center counts once here and once above).
    pub positions_removed: usize,
}

/// Why a database could not absorb a graph delta in place. The caller
/// falls back to a full rebuild — the result is identical, just cold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatchError {
    /// A merge has already been applied; only pristine (post-build)
    /// databases can be patched.
    NotPristine,
    /// Multi-value coreset modes (Krimp/SLIM) mine their coresets from
    /// the global attribute distribution — a delta invalidates them
    /// wholesale, so there is nothing to patch.
    UnsupportedCoresetMode,
    /// The database's coreset numbering is not canonical (the build
    /// skipped a zero-frequency attribute value, so coreset ids and
    /// attribute ids diverge from this coreset on) — positions cannot
    /// be patched by attribute id.
    NonCanonicalCoresets(CoresetId),
    /// An attribute value beyond the database's coresets occurs on no
    /// vertex of the grown graph; a fresh build would skip it, so a
    /// patch appending it would desynchronise the numbering.
    EmptyAttribute(AttrId),
    /// A removal-carrying delta drove an existing attribute value's
    /// frequency to zero. A fresh build of the shrunk graph would skip
    /// its coreset and renumber everything after it — bit-identity
    /// cannot be patched cheaply, so the caller rebuilds cold.
    VanishedAttribute(AttrId),
}

impl std::fmt::Display for PatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NotPristine => write!(f, "database already has merges applied"),
            Self::UnsupportedCoresetMode => {
                write!(f, "multi-value coresets cannot be patched incrementally")
            }
            Self::NonCanonicalCoresets(e) => {
                write!(
                    f,
                    "coreset {e} is not numbered by its attribute id (the build \
                     skipped a zero-frequency attribute value)"
                )
            }
            Self::EmptyAttribute(a) => {
                write!(
                    f,
                    "attribute value {a} occurs on no vertex of the grown graph"
                )
            }
            Self::VanishedAttribute(a) => {
                write!(
                    f,
                    "attribute value {a} no longer occurs on any vertex; a fresh \
                     build would renumber the coresets after it"
                )
            }
        }
    }
}

impl std::error::Error for PatchError {}

/// Why [`InvertedDb::from_pristine_rows`] rejected a serialized row
/// set. Restoration is fed from checksummed snapshot files, so this
/// only trips on data that was mangled *before* being checksummed (or
/// written by something other than the store); callers treat it like
/// any corrupt snapshot and rebuild cold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestoreError {
    /// Which structural invariant the rows violated.
    pub message: &'static str,
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "serialized rows are not a valid database: {}",
            self.message
        )
    }
}

impl std::error::Error for RestoreError {}

impl InvertedDb {
    /// Builds the inverted database from an attributed graph (Step 1 and
    /// Step 2 of Algorithm 1), with the default adaptive posting-row
    /// representation.
    pub fn build(g: &AttributedGraph, mode: CoresetMode, gain_policy: GainPolicy) -> Self {
        Self::build_with_posting(g, mode, gain_policy, PostingPolicy::default())
    }

    /// [`Self::build`] with an explicit posting-row representation
    /// policy. [`PostingPolicy::SparseOnly`] pins the reference layout;
    /// the equivalence tests and the bench backends use it to prove the
    /// adaptive store mines bit-identically.
    pub fn build_with_posting(
        g: &AttributedGraph,
        mode: CoresetMode,
        gain_policy: GainPolicy,
        posting: PostingPolicy,
    ) -> Self {
        let mapping = g.mapping_table();
        let st = StandardCodeTable::from_counts(
            (0..g.attr_count())
                .map(|a| mapping.frequency(a as AttrId) as u64)
                .collect(),
        );
        // Step 1: determine the coresets and their occurrences.
        let coreset_occurrences: Vec<(Vec<AttrId>, f64, Vec<VertexId>)> = match mode {
            CoresetMode::SingleValue => (0..g.attr_count() as AttrId)
                .filter(|&a| mapping.frequency(a) > 0)
                .map(|a| {
                    (
                        vec![a],
                        st.code_len(a as usize),
                        mapping.positions(a).to_vec(),
                    )
                })
                .collect(),
            CoresetMode::Krimp { min_support } => {
                let db = vertex_transactions(g);
                let res = krimp(
                    &db,
                    KrimpConfig {
                        min_support,
                        prune: true,
                        closed_candidates: true,
                    },
                );
                coresets_from_code_table(&res.code_table, &db)
            }
            CoresetMode::Slim => {
                let db = vertex_transactions(g);
                let res = slim(&db, SlimConfig::default());
                coresets_from_code_table(&res.code_table, &db)
            }
        };

        let mut this = Self {
            st,
            coresets: Vec::new(),
            leafsets: Vec::new(),
            leafset_index: HashMap::new(),
            // Initial rows materialise roughly one position per
            // (edge endpoint, leaf value); the label-pair count is a
            // cheap, same-order lower bound to pre-size the arena.
            store: PostingStore::with_capacity_and_policy(g.label_pair_count(), posting),
            rows: Vec::new(),
            scratch_common: Vec::new(),
            leafset_coresets: Vec::new(),
            coreset_freq: Vec::new(),
            live_leafsets: 0,
            mode,
            pristine: true,
            term1: 0.0,
            term2: 0.0,
            material_cost: 0.0,
            ctc_cost: 0.0,
            gain_policy,
        };

        for (items, code_len, positions) in coreset_occurrences {
            this.coresets.push(Coreset {
                items,
                code_len,
                positions,
            });
            this.rows.push(HashMap::new());
            this.coreset_freq.push(0);
        }

        // Canonical leafset numbering: every attribute value gets its
        // singleton leafset id upfront, in attribute-id order, so
        // `lid(singleton {a}) == a` regardless of which coreset happens
        // to encounter the leaf first. This is what makes an
        // incrementally patched database (apply_delta) numbered
        // identically to a fresh build of the grown graph — and leafset
        // ids are tie-breakers in the candidate scheduler, so identical
        // numbering is required for bit-identical mining.
        for a in 0..g.attr_count() as AttrId {
            this.intern_leafset(vec![a]);
        }

        // Step 2: initial rows — one per (coreset occurrence, leaf value).
        // Gather, per coreset, the positions of each single leaf value.
        let mut scratch: HashMap<AttrId, Vec<VertexId>> = HashMap::new();
        for e in 0..this.coresets.len() {
            scratch.clear();
            let positions = std::mem::take(&mut this.coresets[e].positions);
            for &v in &positions {
                for &u in g.neighbors(v) {
                    for &leaf in g.labels(u) {
                        let entry = scratch.entry(leaf).or_default();
                        if entry.last() != Some(&v) {
                            entry.push(v);
                        }
                    }
                }
            }
            this.coresets[e].positions = positions;
            let mut leaves: Vec<(AttrId, Vec<VertexId>)> = scratch.drain().collect();
            leaves.sort_by_key(|(a, _)| *a);
            for (leaf, pos) in leaves {
                let lid = this.intern_leafset(vec![leaf]);
                this.add_row(e as CoresetId, lid, &pos);
            }
        }
        // Replace the per-row accumulation with one canonical pass, so
        // the pristine DL terms are a pure function of the final rows —
        // a patched database (apply_delta) recomputes them the same
        // way and lands on bit-identical floats.
        this.recompute_dl_terms();
        this
    }

    /// Recomputes the four DL bookkeeping terms from the current rows
    /// in one canonical order (coresets ascending, leafset ids
    /// ascending within each). Incremental accumulation — whether from
    /// [`Self::build`]'s row insertion or from a patch — can land on
    /// different last-ulp floats depending on operation order; routing
    /// both through this pass makes the pristine state's terms exactly
    /// reproducible.
    fn recompute_dl_terms(&mut self) {
        let (mut ctc, mut t1, mut t2, mut material) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        let mut rows: Vec<(LeafsetId, RowId)> = Vec::new();
        for (e, c) in self.coresets.iter().enumerate() {
            ctc += self.st.set_cost(c.items.iter().map(|&a| a as usize)) + c.code_len;
            t1 += xlog2x(self.coreset_freq[e] as f64);
            rows.clear();
            rows.extend(self.rows[e].iter().map(|(&lid, &row)| (lid, row)));
            rows.sort_unstable_by_key(|&(lid, _)| lid);
            for &(lid, row) in &rows {
                t2 += xlog2x(self.store.len(row) as f64);
                material += self
                    .st
                    .set_cost(self.leafsets[lid as usize].iter().map(|&a| a as usize))
                    + c.code_len;
            }
        }
        self.ctc_cost = ctc;
        self.term1 = t1;
        self.term2 = t2;
        self.material_cost = material;
    }

    /// Patches a **pristine** single-value-coreset database so it
    /// matches what [`Self::build`] would produce for `g` — without
    /// re-scanning the stars of unchanged vertices. `g` is the
    /// *evolved* graph (the base this database was built from, plus a
    /// [`cspm_graph::dynamic::GraphDelta`] — additions, removals and
    /// label changes alike), and `dirty` is the delta's sorted
    /// dirty-center set: exactly the vertices whose rows may have
    /// changed.
    ///
    /// The patch is uniform over additions and churn: every retained
    /// row first has its dirty positions cleared
    /// ([`PostingStore::difference`]), then the dirty centers that
    /// *still* qualify in the evolved graph are re-inserted
    /// ([`PostingStore::union_in_place`]). Rows that empty out are
    /// released back to the posting free-list; `(coreset, leaf)` pairs
    /// that first co-occur now get fresh rows.
    ///
    /// The patched database is logically identical to a fresh build —
    /// same coreset and leafset numbering, same row contents, same
    /// frequencies, bit-identical DL terms — so the merge loop takes
    /// the exact same greedy path afterwards. Only the posting arena's
    /// physical layout differs (patched rows relocate inside the
    /// retained arena; see
    /// [`PostingStore::fragmentation`](crate::PostingStore::fragmentation)).
    ///
    /// Cost: a star scan of the dirty centers only, plus linear
    /// refresh passes over existing state — the mapping table and
    /// standard code table (`O(|λ| + |A|)`, attribute frequencies
    /// change globally), one dirty-overlap probe per retained row, and
    /// the canonical DL-term recomputation (`O(rows)`). Still linear
    /// in the graph, but a large constant factor cheaper than
    /// [`Self::build`]'s full star scan (~8× on pokec-Small: 21 ms vs
    /// 163 ms).
    pub fn apply_delta(
        &mut self,
        g: &AttributedGraph,
        dirty: &[VertexId],
    ) -> Result<PatchStats, PatchError> {
        if !self.pristine {
            return Err(PatchError::NotPristine);
        }
        if self.mode != CoresetMode::SingleValue {
            return Err(PatchError::UnsupportedCoresetMode);
        }
        // Single-value builds skip zero-frequency attribute values, so
        // a base graph whose interner carried an unused value (possible
        // through `AttributedGraph::from_edge_list` with a hand-built
        // table) desynchronises the coreset-id ↔ attr-id numbering this
        // patch relies on. Check the *retained database* directly —
        // checking the grown graph instead would miss the case where
        // the delta itself attaches the formerly unused value.
        if let Some(e) =
            (0..self.coresets.len()).find(|&e| self.coresets[e].items.as_slice() != [e as AttrId])
        {
            return Err(PatchError::NonCanonicalCoresets(e as CoresetId));
        }
        let mapping = g.mapping_table();
        // A removal that wiped out an existing value's last occurrence
        // means a fresh build would skip its coreset and renumber the
        // rest — detect it up front and let the caller rebuild cold.
        if let Some(e) = (0..self.coresets.len() as AttrId).find(|&e| mapping.frequency(e) == 0) {
            return Err(PatchError::VanishedAttribute(e));
        }
        // Values past the existing coresets must all occur, or a fresh
        // build would skip them and number later coresets differently.
        // Delta-interned values always arrive attached to a vertex;
        // this only trips on a base interner that carried an unused
        // value *after* every used one (numbering check above can't
        // see those).
        if let Some(a) = (self.coresets.len() as AttrId..g.attr_count() as AttrId)
            .find(|&a| mapping.frequency(a) == 0)
        {
            return Err(PatchError::EmptyAttribute(a));
        }
        let mut stats = PatchStats::default();

        // Attribute frequencies changed globally, so the standard code
        // table — and with it every coreset's CT_c code — must be
        // refreshed wholesale (cheap: O(|A|)).
        self.st = StandardCodeTable::from_counts(
            (0..g.attr_count())
                .map(|a| mapping.frequency(a as AttrId) as u64)
                .collect(),
        );
        for (e, c) in self.coresets.iter_mut().enumerate() {
            c.code_len = self.st.code_len(e);
            c.positions = mapping.positions(e as AttrId).to_vec();
        }
        // New attribute values append new coresets and new singleton
        // leafsets, in attribute-id order — exactly the numbering a
        // fresh build would assign.
        for a in self.coresets.len() as AttrId..g.attr_count() as AttrId {
            self.coresets.push(Coreset {
                items: vec![a],
                code_len: self.st.code_len(a as usize),
                positions: mapping.positions(a).to_vec(),
            });
            self.rows.push(HashMap::new());
            self.coreset_freq.push(0);
            let lid = self.intern_leafset(vec![a]);
            debug_assert_eq!(lid, a, "pristine numbering must stay canonical");
            stats.new_coresets += 1;
        }

        // Re-derive the rows of every dirty center against the evolved
        // graph. `desired` holds, per (coreset, leaf) row, exactly the
        // dirty centers that belong to that row *now* — memberships a
        // removal retracted simply never show up. Batching per row
        // means one difference pass plus one union pass (and at most
        // one relocation) per touched row, where per-position edits
        // would re-copy the row k times and leave abandoned spans.
        let mut desired: HashMap<(AttrId, AttrId), Vec<VertexId>> = HashMap::new();
        let mut leaves: Vec<AttrId> = Vec::new();
        for &v in dirty {
            leaves.clear();
            for &u in g.neighbors(v) {
                leaves.extend_from_slice(g.labels(u));
            }
            leaves.sort_unstable();
            leaves.dedup();
            for &a in g.labels(v) {
                for &leaf in &leaves {
                    // `dirty` is sorted, so each row's batch stays
                    // sorted by construction.
                    desired.entry((a, leaf)).or_default().push(v);
                }
            }
        }

        // Pass 1 — retained rows: clear every dirty position, then put
        // back the ones that still qualify. A row no dirty center ever
        // touched has zero overlap and no batch, and is skipped
        // untouched. Rows that empty out go back to the free-list (a
        // fresh build would not have them).
        for e in 0..self.coresets.len() {
            let mut retained: Vec<(LeafsetId, RowId)> =
                self.rows[e].iter().map(|(&lid, &row)| (lid, row)).collect();
            retained.sort_unstable_by_key(|&(lid, _)| lid);
            for (lid, row) in retained {
                let batch = desired.remove(&(e as AttrId, lid));
                let overlap = self.store.intersect_count_slice(row, dirty);
                if overlap == 0 && batch.is_none() {
                    continue;
                }
                let old_len = self.store.len(row);
                let mut new_len = old_len;
                if overlap > 0 {
                    new_len = self.store.difference(row, dirty);
                    stats.positions_removed += overlap;
                }
                if let Some(vs) = &batch {
                    new_len = self.store.union_in_place(row, vs);
                    stats.positions_added += new_len - (old_len - overlap);
                }
                if new_len >= old_len {
                    self.coreset_freq[e] += (new_len - old_len) as u64;
                } else {
                    self.coreset_freq[e] -= (old_len - new_len) as u64;
                }
                if new_len == 0 {
                    self.rows[e].remove(&lid);
                    self.store.release(row);
                    self.unlink(lid, e as CoresetId);
                    stats.rows_removed += 1;
                }
            }
        }

        // Pass 2 — leftover batches are (coreset, leaf) pairs that
        // first co-occur in the evolved graph: fresh rows, through the
        // same insertion path as the build so patched and fresh
        // databases share one set of row invariants.
        let mut fresh: Vec<((AttrId, AttrId), Vec<VertexId>)> = desired.into_iter().collect();
        fresh.sort_unstable_by_key(|&(key, _)| key);
        for ((a, leaf), vs) in fresh {
            self.add_row(a, leaf, &vs);
            stats.rows_added += 1;
            stats.positions_added += vs.len();
        }

        self.recompute_dl_terms();
        Ok(stats)
    }

    /// Rebuilds a **pristine single-value** database from its
    /// serialized rows — the warm half of a `cspm-store` snapshot
    /// restore. The cheap metadata (mapping table, standard code table,
    /// coresets, canonical singleton leafsets) is re-derived from `g`
    /// exactly as [`Self::build`] derives it; only the expensive star
    /// scan is replaced by inserting the given `(coreset, leafset,
    /// positions)` rows verbatim. The restore ends in the same
    /// canonical `recompute_dl_terms` pass as a build, so a
    /// database restored from a fresh build's [`Self::iter_rows`]
    /// output is logically identical to that build — same numbering,
    /// same frequencies, bit-identical DL terms — and mining it takes
    /// the exact same greedy path.
    ///
    /// Rows must come from a pristine [`CoresetMode::SingleValue`]
    /// database of an equal graph (pristine single-value rows only ever
    /// reference singleton leafsets, so `leafset == attribute id`).
    /// Every structural invariant is checked — in-range ids, sorted
    /// non-empty positions, no duplicate rows — and violations return a
    /// typed [`RestoreError`], never a panic: the caller falls back to
    /// a cold [`Self::build`].
    pub fn from_pristine_rows<'a, I>(
        g: &AttributedGraph,
        gain_policy: GainPolicy,
        rows: I,
    ) -> Result<Self, RestoreError>
    where
        I: IntoIterator<Item = (CoresetId, LeafsetId, &'a [VertexId])>,
    {
        let mapping = g.mapping_table();
        let st = StandardCodeTable::from_counts(
            (0..g.attr_count())
                .map(|a| mapping.frequency(a as AttrId) as u64)
                .collect(),
        );
        let mut this = Self {
            st,
            coresets: Vec::new(),
            leafsets: Vec::new(),
            leafset_index: HashMap::new(),
            store: PostingStore::with_capacity(g.label_pair_count()),
            rows: Vec::new(),
            scratch_common: Vec::new(),
            leafset_coresets: Vec::new(),
            coreset_freq: Vec::new(),
            live_leafsets: 0,
            mode: CoresetMode::SingleValue,
            pristine: true,
            term1: 0.0,
            term2: 0.0,
            material_cost: 0.0,
            ctc_cost: 0.0,
            gain_policy,
        };
        for a in (0..g.attr_count() as AttrId).filter(|&a| mapping.frequency(a) > 0) {
            this.coresets.push(Coreset {
                items: vec![a],
                code_len: this.st.code_len(a as usize),
                positions: mapping.positions(a).to_vec(),
            });
            this.rows.push(HashMap::new());
            this.coreset_freq.push(0);
        }
        for a in 0..g.attr_count() as AttrId {
            this.intern_leafset(vec![a]);
        }
        let n = g.vertex_count() as VertexId;
        for (e, lid, positions) in rows {
            if e as usize >= this.coresets.len() {
                return Err(RestoreError {
                    message: "row references unknown coreset",
                });
            }
            if (lid as usize) >= this.leafsets.len() {
                return Err(RestoreError {
                    message: "row references a non-singleton leafset",
                });
            }
            if positions.is_empty() {
                return Err(RestoreError {
                    message: "row has no positions",
                });
            }
            if positions.windows(2).any(|w| w[0] >= w[1]) {
                return Err(RestoreError {
                    message: "row positions are not strictly sorted",
                });
            }
            if *positions.last().expect("non-empty") >= n {
                return Err(RestoreError {
                    message: "row position beyond the graph",
                });
            }
            if this.rows[e as usize].contains_key(&lid) {
                return Err(RestoreError {
                    message: "duplicate row",
                });
            }
            this.add_row(e, lid, positions);
        }
        this.recompute_dl_terms();
        Ok(this)
    }

    /// Whether no merge has been applied since the build (or last
    /// patch) — the state graph deltas can be absorbed into.
    pub fn is_pristine(&self) -> bool {
        self.pristine
    }

    /// Compacts the posting arena in place (see
    /// [`PostingStore::compact`]); row handles and mining state are
    /// unaffected.
    pub fn compact_postings(&mut self) {
        self.store.compact();
    }

    fn intern_leafset(&mut self, items: Vec<AttrId>) -> LeafsetId {
        if let Some(&id) = self.leafset_index.get(&items) {
            return id;
        }
        let id = self.leafsets.len() as LeafsetId;
        self.leafsets.push(items.clone());
        self.leafset_index.insert(items, id);
        self.leafset_coresets.push(Vec::new());
        id
    }

    /// Inserts a brand-new row, updating frequencies and links — but
    /// *not* the DL terms: build-time callers finish with
    /// [`Self::recompute_dl_terms`], the single source of truth for the
    /// pristine terms. Positions must be sorted and non-empty, and the
    /// row must not already exist.
    fn add_row(&mut self, e: CoresetId, lid: LeafsetId, positions: &[VertexId]) {
        debug_assert!(!positions.is_empty());
        debug_assert!(positions.windows(2).all(|w| w[0] < w[1]));
        self.coreset_freq[e as usize] += positions.len() as u64;
        let row = self.store.insert(positions);
        let existed = self.rows[e as usize].insert(lid, row).is_some();
        debug_assert!(!existed, "add_row on existing row");
        let cs = &mut self.leafset_coresets[lid as usize];
        if cs.is_empty() {
            self.live_leafsets += 1;
        }
        // Kept sorted so shared-coreset iteration (the inner loop of
        // every gain and bound evaluation) is a two-pointer merge
        // rather than a quadratic `contains` scan.
        match cs.binary_search(&e) {
            Ok(_) => debug_assert!(false, "coreset already linked"),
            Err(pos) => cs.insert(pos, e),
        }
    }

    fn leafset_st_cost(&self, lid: LeafsetId) -> f64 {
        self.st
            .set_cost(self.leafsets[lid as usize].iter().map(|&a| a as usize))
    }

    /// `L(I|M)` per Eq. 8, in bits.
    pub fn data_cost(&self) -> f64 {
        self.term1 - self.term2
    }

    /// Model cost: `L(CTc)` plus materialisation of all `CT_L` rows.
    pub fn model_cost(&self) -> f64 {
        self.ctc_cost + self.material_cost
    }

    /// Maintained total `L(M, I)`.
    pub fn total_dl(&self) -> f64 {
        self.data_cost() + self.model_cost()
    }

    /// Conditional entropy `H(Y|X)` of the current table (Eq. 7):
    /// `L(I|M) / s` with `s` the total row frequency.
    pub fn conditional_entropy(&self) -> f64 {
        let s: u64 = self.coreset_freq.iter().sum();
        if s == 0 {
            0.0
        } else {
            self.data_cost() / s as f64
        }
    }

    /// The standard code table over attribute values.
    pub fn st(&self) -> &StandardCodeTable {
        &self.st
    }

    /// All coresets (the `CT_c` side).
    pub fn coresets(&self) -> &[Coreset] {
        &self.coresets
    }

    /// Number of coresets `|Sc^M|` (Table II statistic).
    pub fn coreset_count(&self) -> usize {
        self.coresets.len()
    }

    /// Attribute values of a leafset.
    pub fn leafset_items(&self, lid: LeafsetId) -> &[AttrId] {
        &self.leafsets[lid as usize]
    }

    /// Coresets in which `lid` currently has rows.
    pub fn leafset_coresets(&self, lid: LeafsetId) -> &[CoresetId] {
        &self.leafset_coresets[lid as usize]
    }

    /// Whether the leafset still has at least one row.
    pub fn is_live(&self, lid: LeafsetId) -> bool {
        !self.leafset_coresets[lid as usize].is_empty()
    }

    /// Number of live leafsets.
    pub fn live_leafset_count(&self) -> usize {
        self.live_leafsets
    }

    /// Ids of all live leafsets.
    pub fn live_leafsets(&self) -> Vec<LeafsetId> {
        (0..self.leafsets.len() as LeafsetId)
            .filter(|&l| self.is_live(l))
            .collect()
    }

    /// Total number of rows.
    pub fn row_count(&self) -> usize {
        self.rows.iter().map(HashMap::len).sum()
    }

    /// Positions of row `(e, lid)` as owned sorted ids, if present
    /// (bitmap rows decode, so a borrowed slice cannot be returned).
    pub fn row_positions(&self, e: CoresetId, lid: LeafsetId) -> Option<Vec<VertexId>> {
        self.rows[e as usize]
            .get(&lid)
            .map(|&r| self.store.positions(r).into_owned())
    }

    /// The flat posting-list arena backing all rows.
    pub fn posting_store(&self) -> &PostingStore {
        &self.store
    }

    /// Estimated resident bytes of the database: the posting arena plus
    /// the structures that scale with coresets/leafsets (row maps,
    /// coreset position lists, the reverse leafset index). Constant-size
    /// bookkeeping is ignored — this feeds a daemon's eviction budget,
    /// where only graph-proportional terms matter.
    pub fn approx_bytes(&self) -> usize {
        const MAP_ENTRY: usize = 48; // HashMap control + (key, value) slot, amortised
        let coresets: usize = self
            .coresets
            .iter()
            .map(|c| {
                std::mem::size_of_val(c.items.as_slice())
                    + std::mem::size_of_val(c.positions.as_slice())
            })
            .sum();
        let leafsets: usize = self
            .leafsets
            .iter()
            .map(|l| std::mem::size_of_val(l.as_slice()))
            .sum();
        let rows: usize = self.rows.iter().map(|m| m.len() * MAP_ENTRY).sum();
        let index: usize = self
            .leafset_index
            .keys()
            .map(|k| MAP_ENTRY + std::mem::size_of_val(k.as_slice()))
            .sum();
        let reverse: usize = self
            .leafset_coresets
            .iter()
            .map(|v| std::mem::size_of_val(v.as_slice()))
            .sum();
        self.store.approx_bytes() + coresets + leafsets + rows + index + reverse
    }

    /// `c_j` of a coreset: Σ fL of its rows.
    pub fn coreset_freq(&self, e: CoresetId) -> u64 {
        self.coreset_freq[e as usize]
    }

    /// Iterates all rows as `(coreset, leafset, positions)`. Positions
    /// are always **canonical sorted ids**: sparse rows borrow from the
    /// arena, bitmap rows decode on the fly — so snapshots and every
    /// other consumer see one representation-independent format.
    pub fn iter_rows(
        &self,
    ) -> impl Iterator<Item = (CoresetId, LeafsetId, std::borrow::Cow<'_, [VertexId]>)> {
        self.rows.iter().enumerate().flat_map(move |(e, m)| {
            m.iter()
                .map(move |(&l, &r)| (e as CoresetId, l, self.store.positions(r)))
        })
    }

    /// Whether one leafset's values are a subset of the other's. Such
    /// pairs are never merge candidates: their union *is* the superset,
    /// so no new pattern would be created.
    pub fn is_nested_pair(&self, x: LeafsetId, y: LeafsetId) -> bool {
        let (a, b) = (&self.leafsets[x as usize], &self.leafsets[y as usize]);
        let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
        small.iter().all(|i| large.binary_search(i).is_ok())
    }

    /// A read-only scoring handle borrowing this database; see
    /// [`GainView`]. Cheap (two borrows), `Copy`, and safe to hand to
    /// any number of scoped worker threads.
    pub(crate) fn gain_view(&self) -> GainView<'_> {
        GainView {
            db: self,
            store: self.store.view(),
        }
    }

    /// Gain `ΔL` of merging leafsets `x` and `y` (Eq. 9 with the case
    /// analysis of Eq. 10–15, all cases unified by the `0·log 0 = 0`
    /// convention), minus the model-cost delta under
    /// [`GainPolicy::Total`]. Positive gain = merging reduces the DL.
    ///
    /// The paper's formulas assume the union leafset produces a *new*
    /// row; when a row for `x ∪ y` already exists under a shared coreset
    /// (possible after earlier merges) the common positions fold into it
    /// instead, and this function computes the exact delta for that case
    /// too — so the returned gain always equals the true DL reduction
    /// and accepted merges are guaranteed to decrease the DL.
    ///
    /// Returns 0 for nested pairs and for pairs that never co-occur.
    /// The engine scores candidates through this same function, so it
    /// agrees to the bit with every mined gain.
    pub fn pair_gain(&self, x: LeafsetId, y: LeafsetId) -> f64 {
        self.gain_view().pair_gain(x, y)
    }

    /// Merges leafsets `x` and `y` (§IV-E): at every shared coreset the
    /// common positions move to a row for `x ∪ y`; empty parents are
    /// dropped. All DL bookkeeping is updated **exactly** (including the
    /// rare case where the union row already exists).
    pub fn merge(&mut self, x: LeafsetId, y: LeafsetId) -> MergeOutcome {
        assert_ne!(x, y, "cannot merge a leafset with itself");
        self.pristine = false;
        let dl_before = self.total_dl();
        let n = self.intern_leafset(union_items(
            &self.leafsets[x as usize],
            &self.leafsets[y as usize],
        ));
        let mut touched = Vec::new();
        let shared: Vec<CoresetId> = shared_sorted(
            &self.leafset_coresets[x as usize],
            &self.leafset_coresets[y as usize],
        );
        // Reusable intersection buffer: steady-state merging allocates
        // nothing — parents shrink in place, unions grow in place while
        // their spans have slack, dead spans are recycled.
        let mut common = std::mem::take(&mut self.scratch_common);
        for e in shared {
            {
                let rx = self.rows[e as usize][&x];
                let ry = self.rows[e as usize][&y];
                self.store.intersect_into(rx, ry, &mut common);
            }
            if common.is_empty() {
                continue;
            }
            touched.push(e);
            let mut fe = self.coreset_freq[e as usize];
            self.term1 -= xlog2x(fe as f64);
            // Shrink (or drop) the parents. Nested unions (n == x or
            // n == y) never reach here: `pair_gain` filters them and the
            // algorithms skip zero-gain pairs, but guard anyway.
            for parent in [x, y] {
                if parent == n {
                    continue;
                }
                let row = *self.rows[e as usize].get(&parent).expect("shared row");
                let old = self.store.len(row) as u64;
                self.term2 -= xlog2x(old as f64);
                let new = self.store.difference(row, &common) as u64;
                fe = fe - old + new;
                if new == 0 {
                    self.rows[e as usize].remove(&parent);
                    self.store.release(row);
                    self.material_cost -=
                        self.leafset_st_cost(parent) + self.coresets[e as usize].code_len;
                    self.unlink(parent, e);
                } else {
                    self.term2 += xlog2x(new as f64);
                }
            }
            // Grow (or create) the union row.
            match self.rows[e as usize].get(&n).copied() {
                Some(row) => {
                    let old = self.store.len(row) as u64;
                    self.term2 -= xlog2x(old as f64);
                    let new = self.store.union_in_place(row, &common) as u64;
                    fe = fe - old + new;
                    self.term2 += xlog2x(new as f64);
                }
                None => {
                    let fl = common.len() as u64;
                    self.term2 += xlog2x(fl as f64);
                    self.material_cost +=
                        self.leafset_st_cost(n) + self.coresets[e as usize].code_len;
                    let row = self.store.insert(&common);
                    self.rows[e as usize].insert(n, row);
                    fe += fl;
                    let cs = &mut self.leafset_coresets[n as usize];
                    if cs.is_empty() {
                        self.live_leafsets += 1;
                    }
                    if let Err(pos) = cs.binary_search(&e) {
                        cs.insert(pos, e);
                    }
                }
            }
            self.term1 += xlog2x(fe as f64);
            self.coreset_freq[e as usize] = fe;
        }
        self.scratch_common = common;
        MergeOutcome {
            new_leafset: n,
            x_removed: !self.is_live(x),
            y_removed: !self.is_live(y),
            merged_any: !touched.is_empty(),
            touched_coresets: touched,
            dl_delta: self.total_dl() - dl_before,
        }
    }

    fn unlink(&mut self, lid: LeafsetId, e: CoresetId) {
        let cs = &mut self.leafset_coresets[lid as usize];
        if let Ok(pos) = cs.binary_search(&e) {
            cs.remove(pos); // ordered remove keeps the list sorted
        }
        if cs.is_empty() {
            self.live_leafsets -= 1;
        }
    }

    /// All unordered candidate pairs of live leafsets sharing at least
    /// one coreset (the only pairs that can have non-zero gain, §V).
    pub fn sharing_pairs(&self) -> Vec<(LeafsetId, LeafsetId)> {
        let mut pairs = std::collections::BTreeSet::new();
        for m in &self.rows {
            let mut ls: Vec<LeafsetId> = m.keys().copied().collect();
            ls.sort_unstable();
            for i in 0..ls.len() {
                for j in i + 1..ls.len() {
                    pairs.insert((ls[i], ls[j]));
                }
            }
        }
        pairs.into_iter().collect()
    }
}

/// Read-only gain scorer over an [`InvertedDb`].
///
/// Candidate scoring is pure: it reads rows, frequencies and code-table
/// costs but never mutates the database. This type makes that contract
/// explicit — it borrows the database immutably (rows through a
/// [`PostingView`] over the shared arena, nothing cloned) and is
/// `Copy + Send + Sync`, so the engine's fan-out can give every worker
/// thread its own view of one immutable database between merges.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GainView<'a> {
    db: &'a InvertedDb,
    store: PostingView<'a>,
}

impl GainView<'_> {
    /// The exact gain; see [`InvertedDb::pair_gain`] for the contract.
    /// This is the only gain function: the sequential and the parallel
    /// scoring paths both call it, so gains are bit-identical at any
    /// thread count.
    pub(crate) fn pair_gain(&self, x: LeafsetId, y: LeafsetId) -> f64 {
        let db = self.db;
        if x == y || db.is_nested_pair(x, y) {
            return 0.0;
        }
        let items = union_items(&db.leafsets[x as usize], &db.leafsets[y as usize]);
        let union_id = db.leafset_index.get(&items).copied();
        let total = db.gain_policy == GainPolicy::Total;
        // Model-side costs are priced only under Total.
        let (union_st_cost, st_x, st_y) = if total {
            (
                db.st.set_cost(items.iter().map(|&a| a as usize)),
                db.leafset_st_cost(x),
                db.leafset_st_cost(y),
            )
        } else {
            (0.0, 0.0, 0.0)
        };
        let (mut p1, mut p2) = (0.0f64, 0.0f64);
        let mut model_delta = 0.0f64;
        let mut merged_any = false;
        for e in shared_iter(
            &db.leafset_coresets[x as usize],
            &db.leafset_coresets[y as usize],
        ) {
            let rows = &db.rows[e as usize];
            let rx = rows[&x];
            let Some(&ry) = rows.get(&y) else {
                continue;
            };
            let rn = union_id.and_then(|n| rows.get(&n)).copied();
            let (xy, grown) = match rn {
                // Collision path: need the union row's actual growth.
                Some(r) => {
                    let common = self.store.intersect(rx, ry);
                    if common.is_empty() {
                        continue;
                    }
                    let pn_len = self.store.len(r);
                    let merged_len =
                        pn_len + common.len() - self.store.intersect_count_slice(r, &common);
                    // Union-row term2 change replaces the fresh-row term.
                    p2 += xlog2x(pn_len as f64) - xlog2x(merged_len as f64)
                        + xlog2x(common.len() as f64);
                    (common.len() as f64, (merged_len - pn_len) as f64)
                }
                None => {
                    let xy = self.store.intersect_count(rx, ry) as f64;
                    if xy == 0.0 {
                        continue;
                    }
                    (xy, xy)
                }
            };
            merged_any = true;
            let (xe, ye) = (self.store.len(rx) as f64, self.store.len(ry) as f64);
            let fe = db.coreset_freq[e as usize] as f64;
            // Eq. 10 (with the exact post-merge coreset frequency).
            p1 += xlog2x(fe) - xlog2x(fe - 2.0 * xy + grown);
            // Eq. 12–15 unified: vanished rows contribute xlog2x(0) = 0.
            p2 += xlog2x(xe) + xlog2x(ye) - (xlog2x(xe - xy) + xlog2x(ye - xy) + xlog2x(xy));
            if total {
                let code_e = db.coresets[e as usize].code_len;
                if rn.is_none() {
                    model_delta += union_st_cost + code_e;
                }
                if xy == xe {
                    model_delta -= st_x + code_e;
                }
                if xy == ye {
                    model_delta -= st_y + code_e;
                }
            }
        }
        if !merged_any {
            return 0.0;
        }
        let data_gain = p1 - p2;
        match db.gain_policy {
            GainPolicy::DataOnly => data_gain,
            GainPolicy::Total => data_gain - model_delta,
        }
    }
}

/// Two-pointer intersection of two sorted coreset-id lists.
fn shared_sorted(a: &[CoresetId], b: &[CoresetId]) -> Vec<CoresetId> {
    shared_iter(a, b).collect()
}

/// Allocation-free two-pointer walk over the coresets two (sorted)
/// membership lists have in common — the inner loop of every gain
/// evaluation, linear where a `contains` filter is quadratic.
fn shared_iter<'a>(a: &'a [CoresetId], b: &'a [CoresetId]) -> impl Iterator<Item = CoresetId> + 'a {
    let (mut i, mut j) = (0usize, 0usize);
    std::iter::from_fn(move || {
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let e = a[i];
                    i += 1;
                    j += 1;
                    return Some(e);
                }
            }
        }
        None
    })
}

fn union_items(a: &[AttrId], b: &[AttrId]) -> Vec<AttrId> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    out.extend_from_slice(a);
    out.extend_from_slice(b);
    out.sort_unstable();
    out.dedup();
    out
}

/// The vertex→attribute transaction table used for multi-value coresets.
fn vertex_transactions(g: &AttributedGraph) -> TransactionDb {
    TransactionDb::with_item_universe(
        g.vertices().map(|v| g.labels(v).to_vec()).collect(),
        g.attr_count(),
    )
}

/// Converts a Krimp/SLIM code table into coreset occurrences: each
/// pattern used in the cover of a vertex's attribute set becomes a
/// coreset occurrence at that vertex; its `CT_c` code length is the
/// Shannon code of its usage.
fn coresets_from_code_table(
    ct: &cspm_itemset::CodeTable,
    db: &TransactionDb,
) -> Vec<(Vec<AttrId>, f64, Vec<VertexId>)> {
    let cover = ct.cover(db);
    let mut positions: Vec<Vec<VertexId>> = vec![Vec::new(); ct.len()];
    for (v, used) in cover.covers.iter().enumerate() {
        for &p in used {
            positions[p as usize].push(v as VertexId);
        }
    }
    let s = cover.total_usage as f64;
    let mut out = Vec::new();
    for (i, p) in ct.patterns().iter().enumerate() {
        if cover.usages[i] == 0 {
            continue;
        }
        let code = -((cover.usages[i] as f64 / s).log2());
        out.push((p.items().to_vec(), code, std::mem::take(&mut positions[i])));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cspm_graph::fixtures::paper_example;

    fn build_paper_db() -> (InvertedDb, cspm_graph::fixtures::PaperAttrs) {
        let (g, a) = paper_example();
        (
            InvertedDb::build(&g, CoresetMode::SingleValue, GainPolicy::DataOnly),
            a,
        )
    }

    /// Finds the leafset id of a singleton leaf value.
    fn lid(db: &InvertedDb, a: AttrId) -> LeafsetId {
        db.live_leafsets()
            .into_iter()
            .find(|&l| db.leafset_items(l) == [a])
            .expect("singleton leafset exists")
    }

    fn cid(db: &InvertedDb, a: AttrId) -> CoresetId {
        db.coresets()
            .iter()
            .position(|c| c.items == [a])
            .expect("coreset exists") as CoresetId
    }

    #[test]
    fn initial_rows_match_fig2b() {
        // From Fig. 2(b): the record ({a}, {c}, {v2, v3}) exists, etc.
        let (db, at) = build_paper_db();
        assert_eq!(db.coreset_count(), 3);
        let (ca, cb, cc) = (cid(&db, at.a), cid(&db, at.b), cid(&db, at.c));
        let (la, lb, lc) = (lid(&db, at.a), lid(&db, at.b), lid(&db, at.c));
        // Coreset {c} has leaf {a} at v2, v3 (blue record of Fig. 2(b)).
        assert_eq!(db.row_positions(cc, la).as_deref(), Some(&[1u32, 2][..]));
        // Coreset {a}: leaf {a} at v1 (nbr v2), v2 (nbr v1), v5 — wait v5's
        // nbrs are v3{c}, v4{b}: no a. v1 nbrs v2{a,c}: yes. v2 nbr v1{a}.
        assert_eq!(db.row_positions(ca, la).as_deref(), Some(&[0u32, 1][..]));
        // Coreset {a}: leaf {b} at v1 (nbr v4) and v5 (nbr v4).
        assert_eq!(db.row_positions(ca, lb).as_deref(), Some(&[0u32, 4][..]));
        // Coreset {a}: leaf {c} at v1 (nbr v2/v3) and v5 (nbr v3).
        assert_eq!(db.row_positions(ca, lc).as_deref(), Some(&[0u32, 4][..]));
        // Coreset {b}: leaf {b} at v4 (nbr v5{a,b}) and v5 (nbr v4{b}).
        assert_eq!(db.row_positions(cb, lb).as_deref(), Some(&[3u32, 4][..]));
        // Coreset {b}: leaf {c} at v5 only (nbr v3{c}).
        assert_eq!(db.row_positions(cb, lc).as_deref(), Some(&[4u32][..]));
    }

    #[test]
    fn coreset_freq_is_row_sum() {
        let (db, at) = build_paper_db();
        for e in 0..db.coreset_count() as CoresetId {
            let sum: u64 = db
                .iter_rows()
                .filter(|&(c, _, _)| c == e)
                .map(|(_, _, p)| p.len() as u64)
                .sum();
            assert_eq!(db.coreset_freq(e), sum);
        }
        let _ = at;
    }

    #[test]
    fn paper_merge_bc_fig4() {
        // §IV-E worked example: merging leafsets {b} and {c}.
        let (mut db, at) = build_paper_db();
        let (lb, lc) = (lid(&db, at.b), lid(&db, at.c));
        let (ca, cb) = (cid(&db, at.a), cid(&db, at.b));
        let gain = db.pair_gain(lb, lc);
        let data_before = db.data_cost();
        let outcome = db.merge(lb, lc);
        // Coreset {a}: both rows were {v1, v5} — totally merged (case 2).
        let n = outcome.new_leafset;
        assert_eq!(db.row_positions(ca, n).as_deref(), Some(&[0u32, 4][..]));
        assert_eq!(db.row_positions(ca, lb), None);
        assert_eq!(db.row_positions(ca, lc), None);
        // Coreset {b}: common position {v5}; ({b},{c}) disappears, the
        // row for leafset {b} keeps {v4} (case 3) — Fig. 4.
        assert_eq!(db.row_positions(cb, n).as_deref(), Some(&[4u32][..]));
        assert_eq!(db.row_positions(cb, lb).as_deref(), Some(&[3u32][..]));
        assert_eq!(db.row_positions(cb, lc), None);
        // {c} no longer appears under any coreset; {b} survives at {b}
        // and at {c} (v3's neighbour v5 carries b).
        assert!(outcome.y_removed || outcome.x_removed);
        assert!(db.is_live(n));
        // The data-only gain equals the exact L(I|M) reduction (Eq. 9).
        let data_delta = db.data_cost() - data_before;
        assert!(
            (gain + data_delta).abs() < 1e-9,
            "gain {gain} vs data delta {data_delta}"
        );
    }

    #[test]
    fn data_only_gain_matches_exact_data_delta() {
        let (db, _) = build_paper_db();
        for &(x, y) in db.sharing_pairs().iter() {
            if db.is_nested_pair(x, y) {
                continue;
            }
            let gain = db.pair_gain(x, y);
            let mut clone = db.clone();
            let out = clone.merge(x, y);
            if out.merged_any {
                let delta = clone.data_cost() - db.data_cost();
                assert!(
                    (gain + delta).abs() < 1e-9,
                    "pair ({x},{y}): gain {gain} but data delta {delta}"
                );
            } else {
                assert_eq!(gain, 0.0);
            }
        }
    }

    #[test]
    fn total_gain_matches_exact_total_delta() {
        let (g, _) = paper_example();
        let db = InvertedDb::build(&g, CoresetMode::SingleValue, GainPolicy::Total);
        for &(x, y) in db.sharing_pairs().iter() {
            if db.is_nested_pair(x, y) {
                continue;
            }
            let gain = db.pair_gain(x, y);
            let mut clone = db.clone();
            let out = clone.merge(x, y);
            if out.merged_any {
                assert!(
                    (gain + out.dl_delta).abs() < 1e-9,
                    "pair ({x},{y}): total gain {gain} but dl_delta {}",
                    out.dl_delta
                );
            } else {
                assert_eq!(gain, 0.0);
            }
        }
    }

    #[test]
    fn data_cost_matches_eq8_direct() {
        let (db, _) = build_paper_db();
        // Direct evaluation of Eq. 8 from the rows.
        let mut direct = 0.0;
        for e in 0..db.coreset_count() as CoresetId {
            let cj = db.coreset_freq(e) as f64;
            direct += xlog2x(cj);
        }
        for (_, _, p) in db.iter_rows() {
            direct -= xlog2x(p.len() as f64);
        }
        assert!((db.data_cost() - direct).abs() < 1e-9);
        // And it equals s · H(Y|X) (Eq. 8's first line).
        let s: f64 = (0..db.coreset_count() as CoresetId)
            .map(|e| db.coreset_freq(e) as f64)
            .sum();
        assert!((db.data_cost() - s * db.conditional_entropy()).abs() < 1e-9);
    }

    #[test]
    fn nested_pairs_are_never_candidates() {
        let (mut db, at) = build_paper_db();
        let (lb, lc) = (lid(&db, at.b), lid(&db, at.c));
        let out = db.merge(lb, lc);
        let n = out.new_leafset;
        // {b} ⊂ {b, c}: nested, gain must be 0.
        assert!(db.is_nested_pair(lb, n));
        assert_eq!(db.pair_gain(lb, n), 0.0);
    }

    #[test]
    fn live_leafset_count_tracks_rows() {
        let (mut db, at) = build_paper_db();
        let before = db.live_leafset_count();
        assert_eq!(before, 3); // {a}, {b}, {c}
        let out = db.merge(lid(&db, at.b), lid(&db, at.c));
        // {c} died, {b,c} was born, {b} survived: still 3 live.
        assert!(out.y_removed ^ out.x_removed);
        assert_eq!(db.live_leafset_count(), 3);
        assert_eq!(db.live_leafsets().len(), 3);
    }

    #[test]
    fn sharing_pairs_on_paper_example() {
        let (db, _) = build_paper_db();
        // All three singleton leafsets co-reside under coreset {a}.
        let pairs = db.sharing_pairs();
        assert_eq!(pairs.len(), 3);
    }

    /// Views are `Copy` and usable from worker threads: a pair scored
    /// on its own thread matches the database's own scoring.
    #[test]
    fn gain_view_matches_database_scoring() {
        let (db, _) = build_paper_db();
        let pairs = db.sharing_pairs();
        let expected: Vec<f64> = pairs.iter().map(|&(x, y)| db.pair_gain(x, y)).collect();
        std::thread::scope(|s| {
            let handles: Vec<_> = pairs
                .iter()
                .map(|&(x, y)| {
                    let v = db.gain_view();
                    s.spawn(move || v.pair_gain(x, y))
                })
                .collect();
            for (h, want) in handles.into_iter().zip(&expected) {
                assert_eq!(h.join().unwrap(), *want);
            }
        });
    }

    /// A database's full logical state through public accessors: rows
    /// (sorted), per-coreset frequencies, data cost, model cost.
    type DbDigest = (
        Vec<(CoresetId, LeafsetId, Vec<VertexId>)>,
        Vec<u64>,
        f64,
        f64,
    );

    fn digest(db: &InvertedDb) -> DbDigest {
        let mut rows: Vec<_> = db.iter_rows().map(|(e, l, p)| (e, l, p.to_vec())).collect();
        rows.sort();
        let freqs = (0..db.coreset_count() as CoresetId)
            .map(|e| db.coreset_freq(e))
            .collect();
        (rows, freqs, db.data_cost(), db.model_cost())
    }

    /// `from_pristine_rows` fed a fresh build's own rows must land on a
    /// database bit-identical to that build (floats included) — the
    /// invariant warm snapshot restores rest on.
    #[test]
    fn restored_database_matches_fresh_build() {
        let (g, _) = paper_example();
        for policy in [GainPolicy::Total, GainPolicy::DataOnly] {
            let fresh = InvertedDb::build(&g, CoresetMode::SingleValue, policy);
            let mut rows: Vec<(CoresetId, LeafsetId, Vec<VertexId>)> = fresh
                .iter_rows()
                .map(|(e, l, p)| (e, l, p.to_vec()))
                .collect();
            rows.sort();
            let restored = InvertedDb::from_pristine_rows(
                &g,
                policy,
                rows.iter().map(|(e, l, p)| (*e, *l, p.as_slice())),
            )
            .unwrap();
            assert!(restored.is_pristine());
            assert_eq!(digest(&restored), digest(&fresh));
            assert_eq!(restored.total_dl().to_bits(), fresh.total_dl().to_bits());
            assert_eq!(
                restored.conditional_entropy().to_bits(),
                fresh.conditional_entropy().to_bits()
            );
        }
    }

    /// Every structural violation in serialized rows is a typed
    /// [`RestoreError`], never a panic.
    #[test]
    fn restore_rejects_mangled_rows() {
        let (g, _) = paper_example();
        type Rows = Vec<(CoresetId, LeafsetId, Vec<VertexId>)>;
        let build = |rows: Rows| {
            InvertedDb::from_pristine_rows(
                &g,
                GainPolicy::Total,
                rows.iter().map(|(e, l, p)| (*e, *l, p.as_slice())),
            )
        };
        let cases: Vec<(Rows, &str)> = vec![
            (vec![(99, 0, vec![0])], "unknown coreset"),
            (vec![(0, 99, vec![0])], "non-singleton leafset"),
            (vec![(0, 0, vec![])], "no positions"),
            (vec![(0, 0, vec![1, 0])], "not strictly sorted"),
            (vec![(0, 0, vec![0, 0])], "not strictly sorted"),
            (vec![(0, 0, vec![0, 99])], "beyond the graph"),
            (vec![(0, 0, vec![0]), (0, 0, vec![1])], "duplicate row"),
        ];
        for (rows, needle) in cases {
            let err = build(rows).unwrap_err();
            assert!(
                err.message.contains(needle),
                "expected '{needle}', got '{}'",
                err.message
            );
        }
    }

    /// `apply_delta` must land on a database *bit-identical* (in
    /// every observable respect, floats included) to a fresh build of
    /// the grown graph — the invariant warm session re-mining rests on.
    #[test]
    fn patched_database_matches_fresh_build() {
        use cspm_graph::dynamic::{DeltaVertex, GraphDelta};
        let (g, _) = paper_example();
        for policy in [GainPolicy::Total, GainPolicy::DataOnly] {
            let mut db = InvertedDb::build(&g, CoresetMode::SingleValue, policy);
            assert!(db.is_pristine());

            let mut delta = GraphDelta::new();
            let w = delta.add_vertex(["d", "a"]); // "d" is a brand-new value
            delta.add_edge(w, DeltaVertex::Existing(1));
            delta.add_edge(w, DeltaVertex::Existing(4));
            delta.add_label(2, "b");
            let applied = delta.apply(&g).unwrap();

            let stats = db
                .apply_delta(&applied.graph, &applied.dirty_centers)
                .unwrap();
            assert_eq!(stats.new_coresets, 1, "value 'd' creates one coreset");
            assert!(stats.positions_added > 0);

            let fresh = InvertedDb::build(&applied.graph, CoresetMode::SingleValue, policy);
            assert_eq!(digest(&db), digest(&fresh));
            assert_eq!(db.total_dl(), fresh.total_dl(), "DL must match to the bit");
            assert_eq!(db.live_leafset_count(), fresh.live_leafset_count());
            assert_eq!(db.sharing_pairs(), fresh.sharing_pairs());
            // Every candidate pair scores identically on both.
            for &(x, y) in fresh.sharing_pairs().iter() {
                assert_eq!(db.pair_gain(x, y), fresh.pair_gain(x, y));
            }
        }
    }

    /// Churn patching: removals and label changes must also land bit-
    /// identical to a fresh build of the evolved graph, including rows
    /// that shrink, rows that empty out and are released, and rows
    /// whose dirty centers re-qualify with different leaves.
    #[test]
    fn churn_patched_database_matches_fresh_build() {
        use cspm_graph::dynamic::GraphDelta;
        let (g, _) = paper_example();
        let deltas: Vec<GraphDelta> = vec![
            {
                let mut d = GraphDelta::new();
                d.remove_edge(0, 1);
                d
            },
            {
                // Value "c" keeps occurring elsewhere, so the patch path
                // stays open while rows referencing v4's c-leaf shrink.
                let mut d = GraphDelta::new();
                d.remove_label(2, "c");
                d
            },
            {
                let mut d = GraphDelta::new();
                d.change_label(3, "b", "a");
                d
            },
            {
                let mut d = GraphDelta::new();
                d.remove_vertex(1);
                d
            },
        ];
        for policy in [GainPolicy::Total, GainPolicy::DataOnly] {
            for delta in &deltas {
                let mut db = InvertedDb::build(&g, CoresetMode::SingleValue, policy);
                let applied = delta.apply(&g).unwrap();
                let stats = match db.apply_delta(&applied.graph, &applied.dirty_centers) {
                    Ok(stats) => stats,
                    Err(PatchError::VanishedAttribute(_)) => continue, // legit fallback
                    Err(e) => panic!("unexpected patch error: {e}"),
                };
                assert!(stats.positions_removed > 0, "churn must clear positions");
                let fresh = InvertedDb::build(&applied.graph, CoresetMode::SingleValue, policy);
                assert_eq!(digest(&db), digest(&fresh), "delta {delta:?}");
                assert_eq!(db.total_dl().to_bits(), fresh.total_dl().to_bits());
                assert_eq!(db.live_leafset_count(), fresh.live_leafset_count());
                assert_eq!(db.sharing_pairs(), fresh.sharing_pairs());
                for &(x, y) in fresh.sharing_pairs().iter() {
                    assert_eq!(db.pair_gain(x, y), fresh.pair_gain(x, y));
                }
            }
        }
    }

    /// A removal that wipes out an attribute value's last occurrence
    /// must be refused (a fresh build would renumber), never silently
    /// patched into a desynced database.
    #[test]
    fn vanished_attribute_is_rejected_not_corrupted() {
        use cspm_graph::dynamic::GraphDelta;
        use cspm_graph::AttrTable;
        // attrs: a=0 on both vertices, b=1 only on vertex 1.
        let mut attrs = AttrTable::new();
        let (a, b) = (attrs.intern("a"), attrs.intern("b"));
        let g = AttributedGraph::from_edge_list(vec![vec![a], vec![a, b]], attrs, [(0u32, 1u32)])
            .unwrap();
        let mut db = InvertedDb::build(&g, CoresetMode::SingleValue, GainPolicy::Total);
        assert_eq!(db.coreset_count(), 2);
        let before = digest(&db);
        let mut delta = GraphDelta::new();
        delta.remove_label(1, "b");
        let applied = delta.apply(&g).unwrap();
        assert_eq!(
            db.apply_delta(&applied.graph, &applied.dirty_centers),
            Err(PatchError::VanishedAttribute(b))
        );
        assert_eq!(digest(&db), before, "refused patch must not mutate");
    }

    #[test]
    fn patch_preconditions_are_enforced() {
        let (g, _) = paper_example();
        let mut db = InvertedDb::build(&g, CoresetMode::SingleValue, GainPolicy::Total);
        let (x, y) = db.sharing_pairs()[0];
        db.merge(x, y);
        assert!(!db.is_pristine());
        assert_eq!(db.apply_delta(&g, &[]), Err(PatchError::NotPristine));

        let mut db = InvertedDb::build(&g, CoresetMode::Slim, GainPolicy::Total);
        assert_eq!(
            db.apply_delta(&g, &[]),
            Err(PatchError::UnsupportedCoresetMode)
        );
    }

    /// Regression: a base interner carrying an unused value desyncs
    /// coreset ids from attr ids at build time. The patch must detect
    /// that on the *database* — a delta attaching the formerly unused
    /// value makes the grown graph look perfectly healthy, which is
    /// exactly how the original grown-graph check was fooled into
    /// silently corrupting the patch.
    #[test]
    fn desynced_numbering_is_rejected_not_corrupted() {
        use cspm_graph::dynamic::GraphDelta;
        use cspm_graph::AttrTable;
        // attrs: a=0, b=1 (unused!), c=2.
        let mut attrs = AttrTable::new();
        let (a, b, c) = (attrs.intern("a"), attrs.intern("b"), attrs.intern("c"));
        assert_eq!((a, b, c), (0, 1, 2));
        let labels = vec![vec![a], vec![c], vec![a, c]];
        let g = AttributedGraph::from_edge_list(labels, attrs, [(0u32, 1u32), (1, 2)]).unwrap();
        let mut db = InvertedDb::build(&g, CoresetMode::SingleValue, GainPolicy::Total);
        // Build skipped b: coreset 1 is {c}, not {b} — desynced.
        assert_eq!(db.coreset_count(), 2);

        // Mid-table desync: rejected whether or not the delta attaches
        // the unused value.
        let mut delta = GraphDelta::new();
        delta.add_label(0, "b");
        let applied = delta.apply(&g).unwrap();
        assert_eq!(
            db.apply_delta(&applied.graph, &applied.dirty_centers),
            Err(PatchError::NonCanonicalCoresets(1))
        );

        // Tail desync: unused value at the END of the table passes the
        // numbering check (coresets 0..n are canonical) but a fresh
        // build of the unchanged-frequency graph would still skip it.
        let mut attrs = AttrTable::new();
        let (a, z) = (attrs.intern("a"), attrs.intern("z"));
        assert_eq!((a, z), (0, 1));
        let g2 =
            AttributedGraph::from_edge_list(vec![vec![a], vec![a]], attrs, [(0u32, 1u32)]).unwrap();
        let mut db2 = InvertedDb::build(&g2, CoresetMode::SingleValue, GainPolicy::Total);
        assert_eq!(db2.coreset_count(), 1);
        let mut delta = GraphDelta::new();
        delta.add_edge(
            cspm_graph::dynamic::DeltaVertex::Existing(0),
            cspm_graph::dynamic::DeltaVertex::Existing(1),
        ); // duplicate edge: z stays unattached
        let applied = delta.apply(&g2).unwrap();
        assert_eq!(
            db2.apply_delta(&applied.graph, &applied.dirty_centers),
            Err(PatchError::EmptyAttribute(1))
        );
    }

    #[test]
    fn empty_patch_is_identity() {
        let (g, _) = paper_example();
        let mut db = InvertedDb::build(&g, CoresetMode::SingleValue, GainPolicy::Total);
        let before = digest(&db);
        let stats = db.apply_delta(&g, &[]).unwrap();
        assert_eq!(stats, PatchStats::default());
        assert_eq!(digest(&db), before);
        assert!(db.is_pristine());
    }

    #[test]
    fn multi_value_coresets_via_slim() {
        let (g, _) = paper_example();
        let db = InvertedDb::build(&g, CoresetMode::Slim, GainPolicy::Total);
        // Every vertex's attributes are covered, so coresets exist and
        // every coreset has rows.
        assert!(db.coreset_count() >= 3);
        assert!(db.row_count() > 0);
        for e in 0..db.coreset_count() as CoresetId {
            let has_rows = db.iter_rows().any(|(c, _, _)| c == e);
            // Coresets at leaf-less vertices may have no rows; tolerated.
            let _ = has_rows;
        }
    }
}
