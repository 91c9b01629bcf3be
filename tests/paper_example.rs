//! End-to-end reproduction of the paper's running example (Fig. 1–4)
//! through the public facade API.

use cspm::core::{mine, CoresetMode, CspmConfig, CspmResult, GainPolicy, InvertedDb, Variant};
use cspm::graph::fixtures::paper_example;
use cspm::graph::AStar;

#[test]
fn fig1_astar_semantics() {
    let (g, at) = paper_example();
    // Fig. 1(c): S = ({a}, {b, c}) matches the extended star of Fig. 1(b).
    let s = AStar::new(vec![at.a], vec![at.b, at.c]);
    assert!(s.matches_at(&g, 0));
    assert_eq!(s.support(&g), 2);
}

#[test]
fn fig2_mapping_table_and_inverted_database() {
    let (g, at) = paper_example();
    let mt = g.mapping_table();
    assert_eq!(mt.positions(at.a), &[0, 1, 4]);
    assert_eq!(mt.positions(at.b), &[3, 4]);
    assert_eq!(mt.positions(at.c), &[1, 2]);

    let db = InvertedDb::build(&g, CoresetMode::SingleValue, GainPolicy::Total);
    // The blue record of Fig. 2(b): ({a}, {c}, {v2, v3}).
    let cc = db
        .coresets()
        .iter()
        .position(|c| c.items == [at.c])
        .unwrap() as u32;
    let la = db
        .live_leafsets()
        .into_iter()
        .find(|&l| db.leafset_items(l) == [at.a])
        .unwrap();
    assert_eq!(db.row_positions(cc, la).as_deref(), Some(&[1u32, 2][..]));
}

#[test]
fn fig4_merge_appears_in_final_model() {
    let (g, at) = paper_example();
    // Both variants merge {b} and {c} under coreset {a} (§IV-E).
    for result in [
        mine(&g, Variant::Basic, CspmConfig::default()),
        mine(&g, Variant::Partial, CspmConfig::default()),
    ] {
        assert!(result.merges >= 1);
        assert!(result.final_dl < result.initial_dl);
        let bc = result.model.astars().iter().find(|m| {
            m.astar.coreset() == [at.a] && m.astar.leafset() == [at.b.min(at.c), at.b.max(at.c)]
        });
        let bc = bc.expect("({a},{b,c}) must be mined");
        assert_eq!(bc.frequency, 2); // positions {v1, v5}
        assert_eq!(bc.positions, vec![0, 4]);
    }
}

#[test]
fn output_is_ranked_by_code_length() {
    let (g, _) = paper_example();
    let result = mine(&g, Variant::Partial, CspmConfig::default());
    let lens: Vec<f64> = result.model.astars().iter().map(|m| m.code_len).collect();
    assert!(lens.windows(2).all(|w| w[0] <= w[1] + 1e-12));
}

#[test]
fn conditional_entropy_drops_with_merging() {
    let (g, _) = paper_example();
    let before =
        InvertedDb::build(&g, CoresetMode::SingleValue, GainPolicy::DataOnly).conditional_entropy();
    let after = mine(
        &g,
        Variant::Basic,
        CspmConfig {
            gain_policy: GainPolicy::DataOnly,
            ..Default::default()
        },
    )
    .db
    .conditional_entropy();
    assert!(
        after <= before + 1e-9,
        "H(Y|X) should not increase: {before} -> {after}"
    );
}

#[test]
fn basic_converges_on_paper_example() {
    let (g, at) = paper_example();
    let res = mine(
        &g,
        Variant::Basic,
        CspmConfig {
            gain_policy: GainPolicy::DataOnly,
            ..CspmConfig::default()
        },
    );
    assert!(res.final_dl <= res.initial_dl + 1e-9);
    // §IV-E: merging {b} and {c} compresses the example database, so
    // at least one merge happens and a {b,c} leafset pattern exists.
    assert!(res.merges >= 1);
    let has_bc = res
        .model
        .astars()
        .iter()
        .any(|m| m.astar.leafset() == [at.b.min(at.c), at.b.max(at.c)]);
    assert!(has_bc, "expected a ({{a}},{{b,c}})-style pattern");
}

/// Walks a run's per-merge trace: every accepted merge gains, the DL
/// never increases, and the trace ends at the reported final DL.
fn assert_monotone_trace(res: &CspmResult) {
    let mut prev = res.initial_dl;
    for it in &res.stats.iterations {
        assert!(it.dl_after < prev + 1e-9, "DL must never increase");
        assert!(it.accepted_gain > 0.0);
        prev = it.dl_after;
    }
    assert!((prev - res.final_dl).abs() < 1e-9);
}

#[test]
fn basic_dl_trace_is_monotone_decreasing() {
    let (g, _) = paper_example();
    let res = mine(&g, Variant::Basic, CspmConfig::default());
    assert_monotone_trace(&res);
    for it in &res.stats.iterations {
        assert!(it.update_ratio() <= 1.0);
    }
}

#[test]
fn partial_dl_is_monotone() {
    let (g, _) = paper_example();
    assert_monotone_trace(&mine(&g, Variant::Partial, CspmConfig::default()));
}

#[test]
fn partial_update_ratio_stays_below_one_after_warmup() {
    let (g, _) = paper_example();
    let res = mine(&g, Variant::Partial, CspmConfig::default());
    for it in &res.stats.iterations {
        assert!(it.update_ratio() <= 1.0);
    }
}
