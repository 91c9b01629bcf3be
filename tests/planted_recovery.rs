//! Pattern-recovery integration tests: CSPM must rediscover planted
//! a-stars and rank them highly (the qualitative claim behind Fig. 6).

use cspm::core::{mine, CspmConfig, Variant};
use cspm::datasets::{planted_astars, pokec_like, usflight_like, PlantedConfig, Scale};

#[test]
fn planted_astars_are_rediscovered_and_ranked_high() {
    let patterns: &[(&[&str], &[&str])] = &[
        (&["fault"], &["timeout", "retry"]),
        (&["vip"], &["premium"]),
    ];
    let (g, truth) = planted_astars(
        patterns,
        PlantedConfig {
            occurrences_per_pattern: 40,
            ..Default::default()
        },
    );
    let result = mine(&g, Variant::Partial, CspmConfig::default());

    // Every planted correlation appears in some mined leafset under the
    // right coreset.
    let recall = truth.recall(|planted| {
        result.model.astars().iter().any(|m| {
            planted
                .coreset()
                .iter()
                .all(|c| m.astar.coreset().contains(c))
                && planted
                    .leafset()
                    .iter()
                    .all(|l| m.astar.leafset().contains(l))
        })
    });
    assert!(recall >= 1.0 - 1e-9, "recall {recall}");

    // The multi-leaf planted pattern ranks in the top decile.
    let rank = result
        .model
        .astars()
        .iter()
        .position(|m| m.astar.leafset().len() >= 2)
        .expect("a merged pattern exists");
    assert!(
        rank * 10 <= result.model.len(),
        "rank {rank} of {}",
        result.model.len()
    );
}

#[test]
fn pokec_music_pattern_shape() {
    // §VI-B(3): the young-taste cluster must be summarised by a-stars
    // whose leafsets bundle several of the young genres together.
    let d = pokec_like(Scale::Tiny, 77);
    let g = &d.graph;
    let result = mine(g, Variant::Partial, CspmConfig::default());
    let young: Vec<u32> = ["rap", "rock", "metal", "pop", "sladaky"]
        .iter()
        .filter_map(|s| g.attrs().get(s))
        .collect();
    let best_bundle = result
        .model
        .non_trivial(2)
        .map(|m| {
            m.astar
                .leafset()
                .iter()
                .filter(|a| young.contains(a))
                .count()
        })
        .max()
        .unwrap_or(0);
    assert!(
        best_bundle >= 3,
        "largest young-genre bundle only {best_bundle}"
    );
}

#[test]
fn usflight_trend_pattern_is_found() {
    // §VI-B(2): ({NbDepart-}, {NbDepart+, DelayArriv-}).
    let d = usflight_like(Scale::Paper, 5);
    let g = &d.graph;
    let result = mine(g, Variant::Partial, CspmConfig::default());
    let dm = g.attrs().get("NbDepart-").unwrap();
    let dp = g.attrs().get("NbDepart+").unwrap();
    let da = g.attrs().get("DelayArriv-").unwrap();
    let found = result.model.astars().iter().any(|m| {
        m.astar.coreset().contains(&dm)
            && m.astar.leafset().contains(&dp)
            && m.astar.leafset().contains(&da)
    });
    assert!(found, "planted flight-trend pattern not recovered");
}

#[test]
fn unique_labels_yield_no_frequent_patterns() {
    // A path with a unique attribute value per vertex: merges can still
    // happen (summarising each vertex's two neighbours into one row is
    // DL-optimal — Eq. 9 gives P1 = 2, P2 = 0), but no *frequent*
    // pattern may be fabricated: every mined a-star occurs exactly once.
    let mut b = cspm::graph::GraphBuilder::new();
    for i in 0..20 {
        b.add_vertex([format!("u{i}")]);
    }
    for i in 1..20 {
        b.add_edge(i - 1, i).unwrap();
    }
    let g = b.build().unwrap();
    let result = mine(&g, Variant::Partial, CspmConfig::default());
    assert!(result.final_dl <= result.initial_dl);
    for m in result.model.astars() {
        assert_eq!(
            m.frequency, 1,
            "uncorrelated data cannot contain a repeated a-star: {:?}",
            m.astar
        );
    }
}

/// Hub vertices labelled "core" whose leaves carry l0 and l1 together:
/// CSPM-Basic must merge {l0} and {l1} and rank the merged pattern high.
#[test]
fn basic_discovers_planted_leafset() {
    let mut b = cspm::graph::GraphBuilder::new();
    let mut prev_hub = None;
    for _ in 0..12 {
        let hub = b.add_vertex(["core"]);
        let u = b.add_vertex(["l0"]);
        let w = b.add_vertex(["l1"]);
        b.add_edge(hub, u).unwrap();
        b.add_edge(hub, w).unwrap();
        if let Some(p) = prev_hub {
            b.add_edge(p, hub).unwrap();
        }
        prev_hub = Some(hub);
    }
    let g = b.build().unwrap();
    let res = mine(&g, Variant::Basic, CspmConfig::default());
    assert!(res.merges >= 1);
    let l0 = g.attrs().get("l0").unwrap();
    let l1 = g.attrs().get("l1").unwrap();
    // The planted correlation must surface: some mined leafset carries
    // l0 and l1 together (further merges may grow it, e.g. adding the
    // hub's own "core" value seen through hub–hub edges).
    let planted = res
        .model
        .astars()
        .iter()
        .find(|m| m.astar.leafset().contains(&l0) && m.astar.leafset().contains(&l1));
    assert!(planted.is_some(), "planted {{l0,l1}} correlation not found");
    // A merged (multi-leaf) pattern should rank among the most
    // informative entries of the model.
    let rank = res
        .model
        .astars()
        .iter()
        .position(|m| m.astar.leafset().len() >= 2)
        .unwrap();
    assert!(rank < 10, "planted pattern ranked too low: {rank}");
}
