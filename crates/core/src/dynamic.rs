//! Mining dynamic attributed graphs (future-work item (2) of the
//! paper): a-stars over a sequence of snapshots.
//!
//! [`mine_dynamic`] mines [`SnapshotSequence::union_graph`] with the
//! one-shot [`mine`](crate::mine), so it shares its engine, its
//! scheduling knob (`threads`, bit-identical at any count) and its
//! timing convention (`elapsed_secs` is the merge loop), then maps every
//! mined a-star's positions back to `(snapshot, vertex)` coordinates.
//! Callers who keep mining as snapshots *arrive* should hold a
//! [`MiningSession`](crate::MiningSession) of their own and feed it
//! each snapshot as a [`GraphDelta`](cspm_graph::dynamic::GraphDelta)
//! ([`SnapshotSequence::replay`],
//! [`MiningSession::apply_delta`](crate::MiningSession::apply_delta));
//! that warm path mines bit-identically to this one.

use cspm_graph::dynamic::SnapshotSequence;
use cspm_graph::VertexId;

use crate::config::CspmConfig;
use crate::engine::CspmResult;
use crate::Variant;

/// A mined a-star with its occurrences resolved to `(snapshot, vertex)`
/// coordinates.
#[derive(Debug, Clone)]
pub struct TemporalOccurrences {
    /// Index into the result model's a-star list.
    pub astar_index: usize,
    /// `(snapshot, local vertex)` occurrence coordinates.
    pub occurrences: Vec<(usize, VertexId)>,
    /// Number of distinct snapshots the pattern occurs in.
    pub snapshot_support: usize,
}

/// Result of mining a snapshot sequence.
#[derive(Debug, Clone)]
pub struct DynamicResult {
    /// The ordinary mining result over the union graph.
    pub result: CspmResult,
    /// Per-pattern temporal occurrence records, aligned with
    /// `result.model.astars()`.
    pub temporal: Vec<TemporalOccurrences>,
}

/// Mines the union of a snapshot sequence, then maps the positions of
/// every mined a-star back to `(snapshot, vertex)` coordinates.
pub fn mine_dynamic(seq: &SnapshotSequence, variant: Variant, config: CspmConfig) -> DynamicResult {
    let result = crate::mine(&seq.union_graph(), variant, config);
    let temporal = result
        .model
        .astars()
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let occurrences: Vec<(usize, VertexId)> =
                m.positions.iter().filter_map(|&v| seq.locate(v)).collect();
            let mut snapshots: Vec<usize> = occurrences.iter().map(|&(s, _)| s).collect();
            snapshots.sort_unstable();
            snapshots.dedup();
            TemporalOccurrences {
                astar_index: i,
                snapshot_support: snapshots.len(),
                occurrences,
            }
        })
        .collect();
    DynamicResult { result, temporal }
}

impl DynamicResult {
    /// Patterns recurring in at least `min_snapshots` distinct snapshots
    /// — persistent temporal structure rather than one-off events.
    pub fn persistent(&self, min_snapshots: usize) -> impl Iterator<Item = &TemporalOccurrences> {
        self.temporal
            .iter()
            .filter(move |t| t.snapshot_support >= min_snapshots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cspm_graph::GraphBuilder;

    /// Three snapshots, each containing the hub pattern core->{p,q}.
    fn recurring_sequence() -> SnapshotSequence {
        (0..3)
            .map(|_| {
                let mut b = GraphBuilder::new();
                for _ in 0..6 {
                    let hub = b.add_vertex(["core"]);
                    let u = b.add_vertex(["p"]);
                    let w = b.add_vertex(["q"]);
                    b.add_edge(hub, u).unwrap();
                    b.add_edge(hub, w).unwrap();
                }
                // chain hubs for connectivity
                for h in 1..6 {
                    b.add_edge((h - 1) * 3, h * 3).unwrap();
                }
                b.build().unwrap()
            })
            .collect()
    }

    #[test]
    fn recurring_pattern_has_full_snapshot_support() {
        let seq = recurring_sequence();
        let dyn_res = mine_dynamic(&seq, Variant::Partial, CspmConfig::default());
        assert!(dyn_res.result.merges >= 1);
        // The merged {p,q} pattern must recur in all 3 snapshots.
        let model = &dyn_res.result.model;
        let idx = model
            .astars()
            .iter()
            .position(|m| m.astar.leafset().len() >= 2)
            .expect("merged pattern exists");
        let t = &dyn_res.temporal[idx];
        assert_eq!(t.snapshot_support, 3);
        assert_eq!(t.occurrences.len(), model.astars()[idx].positions.len());
        assert!(dyn_res.persistent(3).count() >= 1);
    }

    #[test]
    fn dynamic_mining_is_deterministic_across_thread_counts() {
        let seq = recurring_sequence();
        let base = mine_dynamic(
            &seq,
            Variant::Partial,
            CspmConfig::default().with_threads(1),
        );
        for threads in [2, 8] {
            let run = mine_dynamic(
                &seq,
                Variant::Partial,
                CspmConfig::default().with_threads(threads),
            );
            assert_eq!(base.result.final_dl, run.result.final_dl);
            assert_eq!(base.result.merges, run.result.merges);
            assert_eq!(base.temporal.len(), run.temporal.len());
        }
    }

    /// Dynamic mining must be indistinguishable from mining the union
    /// graph in one shot — same DL, same merges, same evaluation counts.
    #[test]
    fn delta_replay_matches_union_graph_mining() {
        let seq = recurring_sequence();
        for variant in [Variant::Basic, Variant::Partial] {
            let replayed = mine_dynamic(&seq, variant, CspmConfig::default());
            let direct = crate::mine(&seq.union_graph(), variant, CspmConfig::default());
            assert_eq!(replayed.result.final_dl, direct.final_dl);
            assert_eq!(replayed.result.merges, direct.merges);
            assert_eq!(
                replayed.result.stats.total_gain_evals,
                direct.stats.total_gain_evals
            );
        }
    }

    #[test]
    fn empty_sequence_mines_empty_model() {
        let seq = SnapshotSequence::new();
        let res = mine_dynamic(&seq, Variant::Partial, CspmConfig::default());
        assert_eq!(res.result.merges, 0);
        assert!(res.temporal.is_empty());
    }

    #[test]
    fn occurrences_map_back_to_local_vertices() {
        let seq = recurring_sequence();
        let dyn_res = mine_dynamic(&seq, Variant::Basic, CspmConfig::default());
        for t in &dyn_res.temporal {
            for &(s, v) in &t.occurrences {
                assert!(s < seq.len());
                assert!((v as usize) < seq.snapshots()[s].vertex_count());
            }
        }
    }
}
