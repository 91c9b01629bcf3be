//! Lossless decoding of the inverted database.
//!
//! The paper's problem statement requires compressing "the original
//! information of the attributed graph G **losslessly**" (§IV-A). The
//! information the inverted database carries is, for every coreset
//! occurrence `(vertex v, coreset Sc)`, the set of attribute values
//! appearing on `v`'s neighbours. Merging moves positions between rows
//! but never drops them, so decoding — uniting the leafsets of all rows
//! whose position sets contain `v` — must reproduce that neighbourhood
//! information exactly. [`verify_lossless`] checks this against the
//! original graph; it is used by integration and property tests and is
//! exposed for downstream users who want end-to-end assurance.

use std::collections::BTreeSet;

use cspm_graph::{AttrId, AttributedGraph, VertexId};

use crate::inverted::{CoresetId, InvertedDb};

/// A decoding failure: the reconstructed neighbourhood of one coreset
/// occurrence differs from the graph's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LossError {
    /// The vertex whose neighbourhood decoded incorrectly.
    pub vertex: VertexId,
    /// The coreset at that vertex.
    pub coreset: CoresetId,
    /// Leaf values present in the graph but missing from the decode.
    pub missing: Vec<AttrId>,
    /// Leaf values produced by the decode but absent from the graph.
    pub spurious: Vec<AttrId>,
}

/// Decodes the neighbourhood attribute set of vertex `v` under coreset
/// `e`: the union of the leafsets of all rows of `e` whose positions
/// contain `v`.
pub fn decode_neighborhood(db: &InvertedDb, e: CoresetId, v: VertexId) -> BTreeSet<AttrId> {
    let mut out = BTreeSet::new();
    for (row_e, lid, positions) in db.iter_rows() {
        if row_e == e && positions.binary_search(&v).is_ok() {
            out.extend(db.leafset_items(lid).iter().copied());
        }
    }
    out
}

/// The ground truth: attribute values on the neighbours of `v`.
pub fn true_neighborhood(g: &AttributedGraph, v: VertexId) -> BTreeSet<AttrId> {
    g.neighbors(v)
        .iter()
        .flat_map(|&u| g.labels(u).iter().copied())
        .collect()
}

/// Verifies that the (possibly heavily merged) inverted database still
/// describes the graph losslessly. Returns every violation found
/// (empty = lossless).
pub fn verify_lossless(g: &AttributedGraph, db: &InvertedDb) -> Vec<LossError> {
    let mut errors = Vec::new();
    for (e, coreset) in db.coresets().iter().enumerate() {
        let e = e as CoresetId;
        for &v in &coreset.positions {
            if g.neighbors(v).is_empty() {
                continue; // isolated occurrences produce no rows
            }
            let decoded = decode_neighborhood(db, e, v);
            let truth = true_neighborhood(g, v);
            if decoded != truth {
                errors.push(LossError {
                    vertex: v,
                    coreset: e,
                    missing: truth.difference(&decoded).copied().collect(),
                    spurious: decoded.difference(&truth).copied().collect(),
                });
            }
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CoresetMode, CspmConfig, GainPolicy};
    use crate::{mine, Variant};
    use cspm_graph::fixtures::{labelled_path, paper_example};

    #[test]
    fn initial_db_is_lossless() {
        let (g, _) = paper_example();
        let db = InvertedDb::build(&g, CoresetMode::SingleValue, GainPolicy::Total);
        assert!(verify_lossless(&g, &db).is_empty());
    }

    #[test]
    fn converged_db_is_lossless_both_variants() {
        let (g, _) = paper_example();
        for result in [
            mine(&g, Variant::Basic, CspmConfig::default()),
            mine(&g, Variant::Partial, CspmConfig::default()),
        ] {
            let errors = verify_lossless(&g, &result.db);
            assert!(errors.is_empty(), "loss after mining: {errors:?}");
        }
    }

    #[test]
    fn lossless_on_path_fixture() {
        let g = labelled_path(12, 3);
        let result = mine(&g, Variant::Partial, CspmConfig::default());
        assert!(verify_lossless(&g, &result.db).is_empty());
    }

    #[test]
    fn decode_matches_manual_expectation() {
        // v1 of the paper example under coreset {a}: neighbours v2{a,c},
        // v3{c}, v4{b} -> {a, b, c}.
        let (g, at) = paper_example();
        let db = InvertedDb::build(&g, CoresetMode::SingleValue, GainPolicy::Total);
        let e = db
            .coresets()
            .iter()
            .position(|c| c.items == [at.a])
            .unwrap() as CoresetId;
        let decoded = decode_neighborhood(&db, e, 0);
        let expected: BTreeSet<AttrId> = [at.a, at.b, at.c].into_iter().collect();
        assert_eq!(decoded, expected);
        assert_eq!(true_neighborhood(&g, 0), expected);
    }

    #[test]
    fn corrupted_db_is_detected() {
        // Removing a merge's worth of information must be caught: build,
        // merge, then compare against a *different* graph.
        let (g, _) = paper_example();
        let g2 = labelled_path(5, 2);
        let db = InvertedDb::build(&g, CoresetMode::SingleValue, GainPolicy::Total);
        assert!(!verify_lossless(&g2, &db).is_empty());
    }
}
