//! Cross-crate baseline integration: SLIM applied to attributed graphs
//! (the Table III protocol) and multi-value coresets via Krimp/SLIM
//! (§IV-F Step 1).

use cspm::core::{mine, CoresetMode, CspmConfig, GainPolicy, InvertedDb, Variant};
use cspm::datasets::{dblp_like, Scale};
use cspm::graph::AttributedGraph;
use cspm::itemset::{slim, TransactionDb};

/// Table III protocol: "treating coresets in each adjacency list tuple
/// as items" — one transaction per vertex containing its own and its
/// neighbours' attribute values.
fn graph_to_transactions(g: &AttributedGraph) -> TransactionDb {
    let rows = g
        .vertices()
        .map(|v| {
            let mut t: Vec<u32> = g.labels(v).to_vec();
            for &u in g.neighbors(v) {
                t.extend_from_slice(g.labels(u));
            }
            t
        })
        .collect();
    TransactionDb::with_item_universe(rows, g.attr_count())
}

#[test]
fn slim_on_graph_compresses_dblp_like() {
    let d = dblp_like(Scale::Tiny, 3);
    let db = graph_to_transactions(&d.graph);
    let res = slim(&db);
    assert!(
        res.compression_ratio() < 1.0,
        "ratio {}",
        res.compression_ratio()
    );
    assert!(res.accepted > 0);
}

#[test]
fn cspm_and_slim_find_related_structure() {
    // Both compressors should agree that the data is compressible; CSPM
    // additionally localises the correlations into (core, leaf) roles.
    let d = dblp_like(Scale::Tiny, 3);
    let slim_res = slim(&graph_to_transactions(&d.graph));
    let cspm_res = mine(&d.graph, Variant::Partial, CspmConfig::default());
    assert!(slim_res.compression_ratio() < 1.0);
    assert!(cspm_res.compression_ratio() < 1.0);
    assert!(cspm_res.model.non_trivial(2).count() > 0);
}

#[test]
fn multi_value_coresets_via_krimp_and_slim() {
    // A graph whose vertices strongly co-carry {x, y}: the compressing
    // pre-pass must materialise the pair as one coreset (§IV-F Step 1).
    let mut b = cspm::graph::GraphBuilder::new();
    for i in 0..24u32 {
        if i % 4 == 0 {
            b.add_vertex(["x", "y", "z"]);
        } else {
            b.add_vertex(["x", "y"]);
        }
        if i > 0 {
            b.add_edge(i - 1, i).unwrap();
        }
    }
    let g = b.build().unwrap();
    for mode in [CoresetMode::Krimp, CoresetMode::Slim] {
        let db = InvertedDb::build(&g, mode, GainPolicy::Total);
        assert!(db.coreset_count() > 0, "{mode:?}");
        let has_multi = db.coresets().iter().any(|c| c.items.len() >= 2);
        assert!(has_multi, "{mode:?} produced only singleton coresets");
        let cfg = CspmConfig {
            coreset_mode: mode,
            ..Default::default()
        };
        let res = mine(&g, Variant::Partial, cfg);
        assert!(res.final_dl <= res.initial_dl + 1e-9);
    }
    // The sparse DBLP-like graph still mines end to end in both modes
    // even when the pre-pass keeps only singletons.
    let d = dblp_like(Scale::Tiny, 3);
    for mode in [CoresetMode::Krimp, CoresetMode::Slim] {
        let cfg = CspmConfig {
            coreset_mode: mode,
            ..Default::default()
        };
        let res = mine(&d.graph, Variant::Partial, cfg);
        assert!(res.final_dl <= res.initial_dl + 1e-9, "{mode:?}");
    }
}
