//! CSPM — Compressing Star Pattern Miner.
//!
//! The paper's primary contribution (Liu et al., ICDE 2022): a
//! parameter-free algorithm that mines *attribute-stars* from an
//! attributed graph by greedily merging leafsets in an inverted database
//! so as to minimise the description length under a conditional-entropy
//! code (§IV), with the partial-update optimization of §V.
//!
//! # Architecture
//!
//! Inputs arrive as [`cspm_graph::AttributedGraph`]s — built in code
//! via `cspm_graph::GraphBuilder`, generated by `cspm-datasets`, or
//! streamed from real dataset dumps by its `ingest` module (feature
//! `real-data`; formats in `docs/FORMATS.md`). From there everything
//! dispatches through one [`engine`] (the full repo-level data flow is
//! mapped in `ARCHITECTURE.md`):
//!
//! | Layer | Module | Role |
//! |---|---|---|
//! | storage | [`positions`] | sorted-slice set algebra + the flat [`PostingStore`] arena backing every row (read through `&self`, so scoring threads share it; `compact()` repacks a fragmented arena) |
//! | database | [`InvertedDb`] | §IV-B rows over the arena, exact DL bookkeeping, the §IV-E merge, in-place graph-delta patching; [`InvertedDb::pair_gain`] is the exact, read-only score of any candidate, and two counted paths reach the same bits: [`InvertedDb::seed_gains`] scores a pristine database's whole initial sweep, and [`InvertedDb::anchor_gains`] one leafset against many partners through a [`CenterIndex`] that the merge keeps current |
//! | engine | [`engine`] | the greedy merge loop + [`CandidateScheduler`]; Algorithm 1 and Algorithm 3 are its two [`Variant`]s; Algorithm 4's update batches are scored in anchor groups, counted once large enough, and Basic's sweeps across a scoped worker pool, deterministically at every thread count; a [`ProgressObserver`] rides along for per-merge callbacks and cancellation |
//! | **sessions** | [`session`] | the primary API: a [`Miner`]-built [`MiningSession`] owns the database + arena across calls, absorbs [`GraphDelta`](cspm_graph::dynamic::GraphDelta)s incrementally, re-mines warm (bit-identically), and alone decides when to compact the arena, at two fixed triggers ([`MiningSession::COMPACT_ABOVE`], [`MiningSession::COMPACT_AFTER_RELEASES`]) |
//! | one-shot | [`mine`] / [`mine_dynamic`] | single runs that retain no state |
//!
//! Scheduling is tuned by one [`CspmConfig`] knob, `threads` (worker
//! count of Basic's sweeps, `0` = auto). It changes only how fast the
//! model is found, never which model; see the [`engine`] docs for the
//! determinism guarantees.
//!
//! # Quick example
//!
//! A long-lived session mines a graph, then absorbs an evolution step
//! and re-mines warm — bit-identical to a cold run on the grown graph:
//!
//! ```
//! use cspm_core::Miner;
//! use cspm_graph::dynamic::{DeltaVertex, GraphDelta};
//! use cspm_graph::fixtures::paper_example;
//!
//! let (graph, _) = paper_example();
//! let mut session = Miner::new().threads(1).build();
//!
//! let cold = session.mine(&graph);
//! assert!(cold.final_dl <= cold.initial_dl);
//! for pattern in cold.model.astars().iter().take(3) {
//!     println!("{} ({:.2} bits)", pattern.astar.display(graph.attrs()), pattern.code_len);
//! }
//!
//! // The graph evolves: one new vertex, wired to an existing one.
//! let mut delta = GraphDelta::new();
//! let v = delta.add_vertex(["a", "c"]);
//! delta.add_edge(v, DeltaVertex::Existing(0));
//! let warm = session.apply_delta(&delta).unwrap();
//! assert!(warm.final_dl <= warm.initial_dl);
//! ```
//!
//! A single run needs no session: [`mine`] builds the database, runs
//! the merge loop on it and keeps nothing.

mod config;
mod decode;
mod dynamic;
pub mod engine;
mod inverted;
mod metrics;
mod model;
pub mod positions;
pub mod registry;
pub mod session;
mod stats;

pub use config::{CoresetMode, CspmConfig, GainPolicy, IterationStat, RunStats};
pub use decode::{decode_neighborhood, true_neighborhood, verify_lossless, LossError};
pub use dynamic::{mine_dynamic, DynamicResult, TemporalOccurrences};
pub use engine::{CandidateScheduler, CspmResult, ProgressObserver, RunToCompletion, Variant};
pub use inverted::{
    CenterIndex, Coreset, CoresetId, InvertedDb, LeafsetId, MergeOutcome, PatchError, PatchStats,
    RestoreError,
};
pub use model::{MinedAStar, MinedModel};
pub use positions::{PostingPolicy, PostingReprStats, PostingStore, RowId};
pub use registry::{PressureOutcome, ResidentFootprint, SessionRegistry};
pub use session::{DeltaStats, FnObserver, Miner, MiningSession, SessionError};
pub use stats::ModelSummary;

use cspm_graph::AttributedGraph;

/// Mines `g` once with the given variant and retains nothing: builds
/// the inverted database and hands it to a session that consumes it
/// ([`MiningSession::run_detached`], so nothing is cloned).
/// `stats.elapsed_secs` times the merge loop alone, as on every other
/// entry point. Keep a [`MiningSession`] of your own (via [`Miner`])
/// when the graph evolves or you want progress callbacks and
/// cancellation.
pub fn mine(g: &AttributedGraph, variant: Variant, config: CspmConfig) -> CspmResult {
    let mut session = Miner::from_config(config).variant(variant).build();
    session.adopt_db(InvertedDb::build(
        g,
        config.coreset_mode,
        config.gain_policy,
    ));
    session.run_detached().expect("session was just loaded")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cspm_graph::fixtures::paper_example;

    #[test]
    fn mine_dispatches_both_variants() {
        let (g, _) = paper_example();
        let b = mine(&g, Variant::Basic, CspmConfig::default());
        let p = mine(&g, Variant::Partial, CspmConfig::default());
        assert!(b.final_dl <= b.initial_dl);
        assert!(p.final_dl <= p.initial_dl);
        assert_eq!(Variant::default(), Variant::Partial);
    }
}
