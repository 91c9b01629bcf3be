//! Equivalence tests for the unified mining engine: CSPM-Basic and
//! CSPM-Partial are two variants of the same merge loop, and the flat
//! posting-list store must behave exactly like the reference
//! sorted-slice algebra.

use cspm::core::positions::{difference_inplace, intersect, intersect_count, union};
use cspm::core::{
    mine, verify_lossless, CoresetMode, CspmConfig, CspmResult, GainPolicy, InvertedDb, Miner,
    PostingPolicy, PostingStore, Variant,
};
use cspm::datasets::{dblp_trend_like, planted_astars, PlantedConfig, Scale};
use cspm::graph::fixtures::paper_example;
use cspm::graph::GraphBuilder;
use proptest::prelude::*;

/// Data-only pricing: the setting under which both variants provably
/// take the same greedy path (under `Total`, Algorithm 3's candidate
/// restriction may legitimately stop earlier; see `engine` docs).
fn equiv_config() -> CspmConfig {
    CspmConfig {
        gain_policy: GainPolicy::DataOnly,
        ..Default::default()
    }
}

/// The one-shot `mine` and a `Miner`-built session run the same
/// engine: per variant they agree to the bit, and the variant is
/// honoured (Basic re-scores far more pairs than Partial).
#[test]
fn variants_dispatch_through_the_shared_engine() {
    let (g, _) = paper_example();
    let mut evals = Vec::new();
    for variant in [Variant::Basic, Variant::Partial] {
        let one_shot = mine(&g, variant, equiv_config());
        let session = Miner::from_config(equiv_config())
            .variant(variant)
            .build()
            .mine(&g);
        assert_eq!(one_shot.final_dl.to_bits(), session.final_dl.to_bits());
        assert_eq!(one_shot.merges, session.merges);
        assert_eq!(
            one_shot.stats.total_gain_evals,
            session.stats.total_gain_evals
        );
        evals.push(one_shot.stats.total_gain_evals);
    }
    assert!(evals[0] > evals[1], "Basic must re-sweep: {evals:?}");
}

#[test]
fn engine_policies_reach_identical_dl_on_paper_example() {
    let (g, _) = paper_example();
    let basic = mine(&g, Variant::Basic, equiv_config());
    let partial = mine(&g, Variant::Partial, equiv_config());
    assert!(
        (basic.final_dl - partial.final_dl).abs() < 1e-9,
        "basic {} vs partial {}",
        basic.final_dl,
        partial.final_dl
    );
    assert_eq!(basic.merges, partial.merges);
    // Both converged databases still decode the graph losslessly.
    assert!(verify_lossless(&g, &basic.db).is_empty());
    assert!(verify_lossless(&g, &partial.db).is_empty());
}

/// On the paper example CSPM-Partial takes CSPM-Basic's greedy path
/// merge for merge, so both mine the same a-stars with the same
/// occurrences.
#[test]
fn partial_matches_basic_on_paper_example() {
    let (g, _) = paper_example();
    let basic = mine(&g, Variant::Basic, equiv_config());
    let partial = mine(&g, Variant::Partial, equiv_config());
    assert_eq!(basic.merges, partial.merges);
    assert!((basic.final_dl - partial.final_dl).abs() < 1e-6);
    let patterns = |r: &CspmResult| {
        r.model
            .astars()
            .iter()
            .map(|m| (m.astar.clone(), m.positions.clone()))
            .collect::<Vec<_>>()
    };
    assert_eq!(patterns(&basic), patterns(&partial));
}

#[test]
fn engine_policies_reach_identical_dl_on_planted_patterns() {
    // Seeded, noise-free planted instance on which the two variants'
    // greedy paths coincide exactly (verified over a seed sweep; under
    // attribute noise the paths may legitimately diverge by a fraction
    // of a percent — see `both_variants_compress` in tests/properties.rs
    // and the §V discussion in the engine docs).
    let (g, _) = planted_astars(
        &[
            (&["doctor"], &["flu", "fever"]),
            (&["airport"], &["delay", "storm"]),
        ],
        PlantedConfig {
            occurrences_per_pattern: 20,
            background_vertices: 30,
            background_attrs: 6,
            noise_labels_per_vertex: 0.0,
            seed: 3,
        },
    );
    let basic = mine(&g, Variant::Basic, equiv_config());
    let partial = mine(&g, Variant::Partial, equiv_config());
    assert!(
        (basic.final_dl - partial.final_dl).abs() < 1e-6,
        "basic {} vs partial {}",
        basic.final_dl,
        partial.final_dl
    );
    assert_eq!(basic.merges, partial.merges);
    assert!(
        basic.merges >= 30,
        "planted patterns should trigger many merges"
    );
    assert!(verify_lossless(&g, &basic.db).is_empty());
    assert!(verify_lossless(&g, &partial.db).is_empty());
}

/// Parallel incremental scoring must be exact, not approximately
/// deterministic: at threads ∈ {1, 2, 8} both variants produce
/// bit-identical final description lengths, merge counts, and
/// evaluation totals on a planted instance large enough to fan out.
#[test]
fn mining_is_bit_identical_at_threads_1_2_8() {
    let (g, _) = planted_astars(
        &[
            (&["doctor"], &["flu", "fever"]),
            (&["airport"], &["delay", "storm"]),
            (&["server"], &["alarm", "restart"]),
        ],
        PlantedConfig {
            occurrences_per_pattern: 25,
            background_vertices: 60,
            background_attrs: 12,
            noise_labels_per_vertex: 0.5,
            seed: 11,
        },
    );
    for policy in [GainPolicy::Total, GainPolicy::DataOnly] {
        for variant in [Variant::Basic, Variant::Partial] {
            let config = |threads| {
                CspmConfig {
                    gain_policy: policy,
                    ..Default::default()
                }
                .with_threads(threads)
            };
            let base = mine(&g, variant, config(1));
            for threads in [2usize, 8] {
                let run = mine(&g, variant, config(threads));
                assert_eq!(
                    base.final_dl, run.final_dl,
                    "{variant:?}/{policy:?} diverged at {threads} threads"
                );
                assert_eq!(base.merges, run.merges);
                assert_eq!(base.stats.total_gain_evals, run.stats.total_gain_evals);
            }
        }
    }
}

/// `Variant::Basic` is Algorithm 1 at every scale: after each merge it
/// re-scores every sharing pair, however many there are. Two merges
/// therefore cost exactly two sweeps — the initial pairs plus the pairs
/// left after the first merge — on a graph with well over 10,000
/// initial pairs. Sweeps that large also cross Basic's 8,192-pair
/// fan-out floor, so the same two merges at 4 threads must pick the
/// same pairs to the bit.
#[test]
fn basic_sweeps_every_pair_on_large_graphs() {
    let g = dblp_trend_like(Scale::Paper, 2023).graph;
    let capped = |merges, threads| {
        CspmConfig {
            max_merges: Some(merges),
            ..Default::default()
        }
        .with_threads(threads)
    };
    let initial = InvertedDb::build(&g, CoresetMode::SingleValue, GainPolicy::Total)
        .sharing_pairs()
        .len() as u64;
    assert!(initial > 10_000, "fixture has only {initial} pairs");
    let after_first = mine(&g, Variant::Basic, capped(1, 1))
        .db
        .sharing_pairs()
        .len() as u64;
    let two = mine(&g, Variant::Basic, capped(2, 1));
    assert_eq!(two.merges, 2);
    assert_eq!(two.stats.total_gain_evals, initial + after_first);
    let fanned = mine(&g, Variant::Basic, capped(2, 4));
    let digest = |r: &CspmResult| (r.final_dl.to_bits(), r.merges, r.stats.total_gain_evals);
    assert_eq!(digest(&fanned), digest(&two), "Basic diverged at 4 threads");
}

/// The bit-identity contract pinned across commits. Every other
/// differential test compares two paths within one build, so a change
/// that moved every path the same way would pass them all; these are
/// absolute digests (`final_dl` bits, merges, gain evaluations) of the
/// in-memory bench generators at seed 2022, so a drift in a single
/// gain shows here.
///
/// Pokec is left out: mining `pokec_like(Small, 2022)` in memory gives
/// `4153206f098a2f74` (208 merges, 56,014 evals), not the
/// `4153207949202dc0` (207 merges, 56,011 evals) of the same graph saved
/// to a file and read back, which is the digest the repository
/// benchmark gates. DBLP-Trend Basic is left out for its debug-build
/// run time.
#[test]
fn bench_datasets_keep_their_digests() {
    use cspm::datasets::{dblp_like as dblp, dblp_trend_like as trend, usflight_like as flight};
    use Scale::{Paper, Small};
    use Variant::{Basic, Partial};
    let cases = [
        (dblp(Small, 2022), Partial, "40c8c2b4fe55272c", 37, 1_098),
        (dblp(Small, 2022), Basic, "40c7fe52f37cd648", 74, 97_704),
        (flight(Small, 2022), Partial, "40bfc7fd61e2b280", 27, 616),
        (flight(Small, 2022), Basic, "40bdc70255028d61", 75, 52_996),
        (trend(Small, 2022), Partial, "40d85a78dbbc3481", 171, 4_498),
        (dblp(Paper, 2022), Partial, "40f4ef11d02d217c", 91, 7_236),
    ];
    for (d, variant, dl_hex, merges, evals) in cases {
        let run = mine(&d.graph, variant, CspmConfig::default());
        let got = (
            format!("{:016x}", run.final_dl.to_bits()),
            run.merges,
            run.stats.total_gain_evals,
        );
        let n = d.graph.vertex_count();
        assert_eq!(
            got,
            (dl_hex.to_owned(), merges, evals),
            "{} ({n} vertices) {variant:?}",
            d.name
        );
    }
}

/// CSPM-Partial's rdict updates spend fewer gain evaluations than
/// CSPM-Basic's full regeneration on a graph with several independent
/// planted patterns, and both reach equally good models.
#[test]
fn partial_spends_fewer_gain_evals_than_basic() {
    let mut b = GraphBuilder::new();
    let mut prev = None;
    for i in 0..30 {
        let hub = b.add_vertex([format!("core{}", i % 3)]);
        let u = b.add_vertex([format!("p{}", i % 3)]);
        let w = b.add_vertex([format!("q{}", i % 3)]);
        b.add_edge(hub, u).unwrap();
        b.add_edge(hub, w).unwrap();
        if let Some(p) = prev {
            b.add_edge(p, hub).unwrap();
        }
        prev = Some(hub);
    }
    let g = b.build().unwrap();
    let basic = mine(&g, Variant::Basic, CspmConfig::instrumented());
    let partial = mine(&g, Variant::Partial, CspmConfig::instrumented());
    assert!(
        basic.merges >= 2,
        "expected several merges, got {}",
        basic.merges
    );
    assert!(
        partial.stats.total_gain_evals < basic.stats.total_gain_evals,
        "partial {} evals vs basic {}",
        partial.stats.total_gain_evals,
        basic.stats.total_gain_evals
    );
    assert!((basic.final_dl - partial.final_dl).abs() / basic.final_dl < 0.05);
}

/// Strategy: a sorted, duplicate-free position list.
fn arb_positions() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0u32..300, 0..48).prop_map(|mut v| {
        v.sort_unstable();
        v.dedup();
        v
    })
}

/// Strategy: a sorted, duplicate-free row whose shape straddles the
/// adaptive store's representation thresholds. Three regimes:
/// short sparse rows (empty / singleton included), long-but-diffuse
/// rows below the 1/8 flip-in density, and tight dense rows that the
/// store lays out as bitmaps. Lengths cross `BITMAP_MIN_LEN` (128) in
/// every regime, so cases land on both sides of the flip.
fn arb_mixed_row() -> impl Strategy<Value = Vec<u32>> {
    (
        0u32..3,
        0u32..3,
        proptest::collection::vec(0u32..600, 0..400),
    )
        .prop_map(|(kind, base_block, mut v)| {
            match kind {
                // Sparse by length: at most a handful of ids.
                0 => v.truncate(5),
                // Sparse by density: spread the ids far apart.
                1 => v.iter_mut().for_each(|x| *x *= 64),
                // Dense: ids stay packed in 0..600 — past ~128 elements
                // this crosses the flip-in threshold.
                _ => {}
            }
            // Vary the block base so bitmap windows do not all start
            // at word 0 (exercises base-relative word addressing).
            v.iter_mut().for_each(|x| *x += base_block * 512);
            v.sort_unstable();
            v.dedup();
            v
        })
}

/// A planted instance whose initial rows are long and tightly packed
/// (pattern occurrences get consecutive vertex ids), so the adaptive
/// store lays some of them out as bitmaps from the first insert.
fn dense_planted() -> cspm::graph::AttributedGraph {
    let (g, _) = planted_astars(
        &[
            (&["doctor"], &["flu", "fever"]),
            (&["airport"], &["delay", "storm"]),
        ],
        PlantedConfig {
            occurrences_per_pattern: 150,
            background_vertices: 60,
            background_attrs: 10,
            noise_labels_per_vertex: 0.3,
            seed: 19,
        },
    );
    g
}

/// The adaptive posting layout is a pure representation change: mining
/// on a `SparseOnly` store and on the default `Adaptive` store must be
/// bit-identical — same merges, same final DL, same evaluation counts —
/// at every thread count and under both variants.
#[test]
fn adaptive_and_sparse_only_stores_mine_bit_identically() {
    let g = dense_planted();
    // The fixture must actually exercise the bitmap kernels, not just
    // trivially agree sparse-vs-sparse.
    let probe = InvertedDb::build_with_posting(
        &g,
        CoresetMode::SingleValue,
        GainPolicy::Total,
        PostingPolicy::Adaptive,
    );
    assert!(
        probe.posting_store().repr_stats().bitmap_rows > 0,
        "fixture too diffuse: no bitmap rows in the initial database"
    );
    for variant in [Variant::Basic, Variant::Partial] {
        for gain_policy in [GainPolicy::Total, GainPolicy::DataOnly] {
            for threads in [1usize, 4] {
                let config = CspmConfig {
                    gain_policy,
                    ..Default::default()
                }
                .with_threads(threads);
                let run = |posting| {
                    let mut session = Miner::from_config(config).variant(variant).build();
                    session.adopt_db(InvertedDb::build_with_posting(
                        &g,
                        config.coreset_mode,
                        config.gain_policy,
                        posting,
                    ));
                    session.run_detached().expect("adopted database mines")
                };
                let sparse = run(PostingPolicy::SparseOnly);
                let adaptive = run(PostingPolicy::Adaptive);
                assert_eq!(
                    sparse.final_dl, adaptive.final_dl,
                    "{variant:?}/{gain_policy:?} DL diverged at {threads} threads"
                );
                assert_eq!(sparse.merges, adaptive.merges);
                assert_eq!(
                    sparse.stats.total_gain_evals,
                    adaptive.stats.total_gain_evals
                );
                assert_eq!(sparse.stats.posting.bitmap_rows, 0);
                assert_eq!(sparse.stats.posting.flips_to_bitmap, 0);
                assert!(verify_lossless(&g, &adaptive.db).is_empty());
            }
        }
    }
}

proptest! {
    /// `PostingStore` intersection agrees with the reference slice
    /// algebra of `positions.rs`.
    #[test]
    fn store_intersection_matches_reference(a in arb_positions(), b in arb_positions()) {
        let mut store = PostingStore::new();
        let ra = store.insert(&a);
        let rb = store.insert(&b);
        let mut out = Vec::new();
        store.intersect_into(ra, rb, &mut out);
        prop_assert_eq!(&out, &intersect(&a, &b));
        prop_assert_eq!(store.intersect_count(ra, rb), intersect_count(&a, &b));
    }

    /// In-place difference over a span agrees with the reference.
    #[test]
    fn store_difference_matches_reference(a in arb_positions(), b in arb_positions()) {
        let mut store = PostingStore::new();
        let ra = store.insert(&a);
        let mut reference = a.clone();
        difference_inplace(&mut reference, &b);
        let new_len = store.difference(ra, &b);
        prop_assert_eq!(store.get(ra), reference.as_slice());
        prop_assert_eq!(new_len, reference.len());
    }

    /// In-place union over a span agrees with the reference, both when
    /// it fits the span's capacity and when the row must relocate.
    #[test]
    fn store_union_matches_reference(
        a in arb_positions(),
        b in arb_positions(),
        shrink in arb_positions(),
    ) {
        let mut store = PostingStore::new();
        let ra = store.insert(&a);
        // Randomly shrink first so some cases exercise the in-place
        // (slack-capacity) path and others the relocation path.
        let mut reference = a.clone();
        difference_inplace(&mut reference, &shrink);
        store.difference(ra, &shrink);
        let expected = union(&reference, &b);
        let new_len = store.union_in_place(ra, &b);
        prop_assert_eq!(store.get(ra), expected.as_slice());
        prop_assert_eq!(new_len, expected.len());
        prop_assert!(store.live_len() >= expected.len());
    }

    /// Rows keep their identity and content under interleaved shrink /
    /// grow / release traffic on a shared arena.
    #[test]
    fn store_rows_are_isolated(
        a in arb_positions(),
        b in arb_positions(),
        c in arb_positions(),
        cut in arb_positions(),
    ) {
        let mut store = PostingStore::new();
        let ra = store.insert(&a);
        let rb = store.insert(&b);
        let rc = store.insert(&c);
        // Mutate b heavily; a and c must be unaffected.
        store.difference(rb, &cut);
        store.union_in_place(rb, &cut);
        prop_assert_eq!(store.get(ra), a.as_slice());
        prop_assert_eq!(store.get(rc), c.as_slice());
        let expected_b = union(&{ let mut t = b.clone(); difference_inplace(&mut t, &cut); t }, &cut);
        prop_assert_eq!(store.get(rb), expected_b.as_slice());
        // Releasing a row recycles its span without disturbing others.
        store.release(ra);
        let rd = store.insert(&cut);
        prop_assert_eq!(store.get(rd), cut.as_slice());
        prop_assert_eq!(store.get(rc), c.as_slice());
    }

    /// Every adaptive kernel pairing — sparse×sparse (galloping and
    /// two-pointer), sparse×bitmap on either side, bitmap×bitmap —
    /// agrees with the reference sorted-slice algebra. Rows come from
    /// [`arb_mixed_row`], which straddles the flip thresholds and
    /// includes empty rows and singletons; read-only probes run first,
    /// then the mutating ops (difference may demote a bitmap, union may
    /// flip a sparse row in or regrow a bitmap window).
    #[test]
    fn adaptive_kernels_match_reference_algebra(
        a in arb_mixed_row(),
        b in arb_mixed_row(),
        c in arb_mixed_row(),
    ) {
        let mut store = PostingStore::new();
        let ra = store.insert(&a);
        let rb = store.insert(&b);
        // Read-only kernels against pristine rows.
        let mut out = Vec::new();
        store.intersect_into(ra, rb, &mut out);
        prop_assert_eq!(&out, &intersect(&a, &b));
        prop_assert_eq!(store.intersect_count(ra, rb), intersect_count(&a, &b));
        prop_assert_eq!(store.intersect(ra, rb), intersect(&a, &b));
        prop_assert_eq!(store.intersect_count_slice(ra, &b), intersect_count(&a, &b));
        let got_a = store.positions(ra).into_owned();
        prop_assert_eq!(&got_a, &a);
        let absent: Vec<u32> =
            c.iter().copied().filter(|x| a.binary_search(x).is_err()).collect();
        prop_assert_eq!(store.filter_missing(ra, &c), absent);
        // Mutating kernels: difference on a, union on b, both vs c.
        let mut ref_a = a.clone();
        difference_inplace(&mut ref_a, &c);
        prop_assert_eq!(store.difference(ra, &c), ref_a.len());
        let shrunk_a = store.positions(ra).into_owned();
        prop_assert_eq!(&shrunk_a, &ref_a);
        let ref_b = union(&b, &c);
        prop_assert_eq!(store.union_in_place(rb, &c), ref_b.len());
        let grown_b = store.positions(rb).into_owned();
        prop_assert_eq!(&grown_b, &ref_b);
        prop_assert_eq!(store.live_len(), ref_a.len() + ref_b.len());
    }

    /// The same traffic on a `SparseOnly` store yields identical
    /// contents — the policy changes layout, never results — and never
    /// allocates a bitmap row.
    #[test]
    fn sparse_only_policy_matches_adaptive_contents(
        a in arb_mixed_row(),
        b in arb_mixed_row(),
    ) {
        let mut adaptive = PostingStore::new();
        let mut sparse = PostingStore::with_capacity_and_policy(2, PostingPolicy::SparseOnly);
        let (aa, ab) = (adaptive.insert(&a), adaptive.insert(&b));
        let (sa, sb) = (sparse.insert(&a), sparse.insert(&b));
        prop_assert_eq!(adaptive.union_in_place(aa, &b), sparse.union_in_place(sa, &b));
        prop_assert_eq!(adaptive.difference(ab, &a), sparse.difference(sb, &a));
        let (ua, ub) = (adaptive.positions(aa).into_owned(), adaptive.positions(ab).into_owned());
        prop_assert_eq!(ua.as_slice(), sparse.get(sa));
        prop_assert_eq!(ub.as_slice(), sparse.get(sb));
        let stats = sparse.repr_stats();
        prop_assert_eq!(stats.bitmap_rows, 0);
        prop_assert_eq!(stats.flips_to_bitmap, 0);
    }

    /// Per-variant engine guarantees on small random graphs: runs are
    /// deterministic (bit-identical DL when repeated), CSPM-Basic truly
    /// converges (no positive-gain pair survives in its final
    /// database), and both variants compress. Cross-variant *equality*
    /// is deliberately not asserted here — the greedy paths may differ
    /// on noisy inputs (§V).
    #[test]
    fn engine_guarantees_on_random_graphs(n in 4usize..16, k in 2usize..5, seed in 0u64..5000) {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut b = GraphBuilder::new();
        for _ in 0..n {
            b.add_vertex([format!("a{}", next() as usize % k)]);
        }
        for v in 1..n {
            b.add_edge(v as u32 - 1, v as u32).unwrap();
        }
        for _ in 0..n {
            let (u, w) = (next() as usize % n, next() as usize % n);
            if u != w {
                let _ = b.add_edge(u as u32, w as u32);
            }
        }
        let g = b.build().unwrap();
        let basic = mine(&g, Variant::Basic, equiv_config());
        let partial = mine(&g, Variant::Partial, equiv_config());
        prop_assert_eq!(mine(&g, Variant::Basic, equiv_config()).final_dl, basic.final_dl);
        prop_assert_eq!(mine(&g, Variant::Partial, equiv_config()).final_dl, partial.final_dl);
        // (Total-DL compression under GainPolicy::Total is asserted in
        // tests/properties.rs; under DataOnly only the data cost is
        // monotone, so no compression claim is made here.)
        // CSPM-Basic converged: no remaining positive pair.
        for &(x, y) in basic.db.sharing_pairs().iter() {
            prop_assert!(
                basic.db.pair_gain(x, y) <= 1e-9,
                "unconverged pair ({}, {}) with gain {}",
                x, y, basic.db.pair_gain(x, y)
            );
        }
    }
}
