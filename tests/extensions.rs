//! Integration tests of the extension layers (paper §VII future work):
//! dynamic attributed graphs and graph classification.

use cspm::classify::{labeled_graph_collection, train_classifier, CollectionConfig};
use cspm::core::{mine, mine_dynamic, verify_lossless, CspmConfig, Variant};
use cspm::datasets::{usflight_like, Scale};
use cspm::graph::dynamic::SnapshotSequence;
use cspm::nn::NetConfig;

#[test]
fn dynamic_mining_finds_persistent_patterns() {
    // Four seasons of a flight network: the planted departure/delay
    // correlation recurs in every snapshot.
    let seq: SnapshotSequence = (0..4)
        .map(|season| usflight_like(Scale::Tiny, 50 + season).graph)
        .collect();
    let result = mine_dynamic(&seq, Variant::Partial, CspmConfig::default());
    assert!(result.result.merges >= 1);
    let persistent: Vec<_> = result.persistent(3).collect();
    assert!(
        !persistent.is_empty(),
        "a recurring planted pattern must persist across snapshots"
    );
    // Temporal bookkeeping is complete: every occurrence is mapped.
    for t in &result.temporal {
        let m = &result.result.model.astars()[t.astar_index];
        assert_eq!(t.occurrences.len(), m.positions.len());
        assert!(t.snapshot_support <= seq.len());
    }
}

#[test]
fn dynamic_union_mining_is_lossless() {
    let seq: SnapshotSequence = (0..3)
        .map(|s| usflight_like(Scale::Tiny, 60 + s).graph)
        .collect();
    let union = seq.union_graph();
    let result = mine_dynamic(&seq, Variant::Partial, CspmConfig::default());
    let errors = verify_lossless(&union, &result.result.db);
    assert!(
        errors.is_empty(),
        "union mining lost information: {errors:?}"
    );
}

#[test]
fn classification_end_to_end() {
    let data = labeled_graph_collection(
        2,
        CollectionConfig {
            graphs_per_class: 16,
            ..Default::default()
        },
    );
    let cfg = NetConfig {
        hidden: 16,
        epochs: 200,
        ..Default::default()
    };
    let report = train_classifier(&data, 0.3, 16, &cfg, 11);
    // Structural classes: a-star features must clearly beat both chance
    // and the structure-blind histogram baseline.
    assert!(
        report.astar_accuracy >= 0.8,
        "accuracy {}",
        report.astar_accuracy
    );
    assert!(
        report.astar_accuracy > report.histogram_accuracy + 0.2,
        "a-star {} vs histogram {}",
        report.astar_accuracy,
        report.histogram_accuracy
    );
}

#[test]
fn lossless_verification_on_every_benchmark() {
    // The §IV-A losslessness claim, end to end, on all four (tiny)
    // benchmark generators.
    for d in cspm::datasets::benchmark_suite(Scale::Tiny, 1234) {
        let result = mine(&d.graph, Variant::Partial, CspmConfig::default());
        let errors = verify_lossless(&d.graph, &result.db);
        assert!(
            errors.is_empty(),
            "{}: {} decode errors",
            d.name,
            errors.len()
        );
    }
}
