//! Property-based tests of the core invariants, on random attributed
//! graphs and random transaction databases.

use cspm::core::{mine, CoresetMode, CspmConfig, GainPolicy, InvertedDb, Miner, Variant};
use cspm::graph::dynamic::{DeltaVertex, GraphDelta};
use cspm::graph::{AttributedGraph, GraphBuilder};
use cspm::itemset::{eclat, krimp, slim, KrimpConfig, SlimConfig, TransactionDb};
use cspm::store::Durable;
use proptest::prelude::*;

/// Strategy: a connected attributed graph with `n` vertices, `k`
/// attribute values, 1–2 values per vertex, and a chain backbone plus
/// random extra edges.
fn arb_graph() -> impl Strategy<Value = AttributedGraph> {
    (4usize..24, 2usize..6, any::<u64>()).prop_map(|(n, k, seed)| {
        // Deterministic pseudo-random construction from the seed.
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut b = GraphBuilder::new();
        for _ in 0..n {
            let a1 = (next() as usize) % k;
            b.add_vertex([format!("a{a1}")]);
        }
        for v in 0..n {
            if next() % 2 == 0 {
                b.add_label(v as u32, &format!("a{}", (next() as usize) % k))
                    .unwrap();
            }
        }
        for v in 1..n {
            b.add_edge(v as u32 - 1, v as u32).unwrap();
        }
        for _ in 0..n / 2 {
            let u = (next() as usize) % n;
            let w = (next() as usize) % n;
            if u != w {
                let _ = b.add_edge(u as u32, w as u32);
            }
        }
        b.build().expect("chain backbone keeps the graph connected")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every accepted merge strictly decreases the policy's objective:
    /// total DL under `Total`, the Eq. 8 data cost under `DataOnly` —
    /// in both algorithm variants.
    #[test]
    fn dl_decreases_monotonically(g in arb_graph(), data_only in any::<bool>()) {
        let policy = if data_only { GainPolicy::DataOnly } else { GainPolicy::Total };
        for result in [
            mine(&g, Variant::Basic, CspmConfig { gain_policy: policy, ..CspmConfig::default() }),
            mine(&g, Variant::Partial, CspmConfig { gain_policy: policy, ..CspmConfig::default() }),
        ] {
            let mut prev = result.initial_dl;
            let mut prev_data = f64::INFINITY;
            for it in &result.stats.iterations {
                match policy {
                    GainPolicy::Total => {
                        prop_assert!(it.dl_after < prev + 1e-9,
                            "total DL increased: {} -> {}", prev, it.dl_after);
                        prev = it.dl_after;
                    }
                    GainPolicy::DataOnly => {
                        prop_assert!(it.data_dl_after < prev_data + 1e-9,
                            "data DL increased: {} -> {}", prev_data, it.data_dl_after);
                        prev_data = it.data_dl_after;
                    }
                }
                prop_assert!(it.accepted_gain > 0.0);
                prop_assert!(it.update_ratio() >= 0.0 && it.update_ratio() <= 1.0);
            }
            if policy == GainPolicy::Total {
                prop_assert!(result.final_dl <= result.initial_dl + 1e-9);
            }
        }
    }

    /// Under the DataOnly policy the analytic gain (Eq. 9) equals the
    /// exact Eq. 8 delta for every candidate pair of the initial
    /// database (no union-collision cases there).
    #[test]
    fn gain_formula_is_exact(g in arb_graph()) {
        let db = InvertedDb::build(&g, CoresetMode::SingleValue, GainPolicy::DataOnly);
        for &(x, y) in db.sharing_pairs().iter().take(64) {
            if db.is_nested_pair(x, y) {
                continue;
            }
            let gain = db.pair_gain(x, y);
            let mut clone = db.clone();
            let before = clone.data_cost();
            let out = clone.merge(x, y);
            if out.merged_any {
                let delta = clone.data_cost() - before;
                prop_assert!((gain + delta).abs() < 1e-6,
                    "gain {} vs delta {}", gain, delta);
            } else {
                prop_assert_eq!(gain, 0.0);
            }
        }
    }

    /// Coreset frequencies always equal the sum of their row frequencies
    /// (Eq. 8's Σ l_ij = c_j), before and after mining.
    #[test]
    fn coreset_frequency_conservation(g in arb_graph()) {
        let result = mine(&g, Variant::Partial, CspmConfig::default());
        let db = &result.db;
        for e in 0..db.coreset_count() as u32 {
            let sum: u64 = db
                .iter_rows()
                .filter(|&(c, _, _)| c == e)
                .map(|(_, _, p)| p.len() as u64)
                .sum();
            prop_assert_eq!(db.coreset_freq(e), sum);
        }
    }

    /// Every mined a-star really occurs at every recorded position — the
    /// losslessness of the inverted representation.
    #[test]
    fn mined_patterns_occur_at_positions(g in arb_graph()) {
        let result = mine(&g, Variant::Basic, CspmConfig::default());
        for m in result.model.astars() {
            for &v in &m.positions {
                prop_assert!(m.astar.matches_at(&g, v),
                    "pattern {:?} does not match at {}", m.astar, v);
            }
            prop_assert!(m.frequency <= m.coreset_freq);
            prop_assert!(m.code_len >= 0.0);
        }
    }

    /// Both variants converge and compress (or at worst leave the DL
    /// unchanged). The two greedy paths may genuinely differ — Partial
    /// skips candidates outside `rdict[x] ∩ rdict[y]` (§V) — so no
    /// cross-variant dominance is asserted, only soundness of each.
    #[test]
    fn both_variants_compress(g in arb_graph()) {
        let basic = mine(&g, Variant::Basic, CspmConfig::default());
        let partial = mine(&g, Variant::Partial, CspmConfig::default());
        prop_assert!(basic.final_dl <= basic.initial_dl + 1e-9);
        prop_assert!(partial.final_dl <= partial.initial_dl + 1e-9);
        prop_assert!(basic.compression_ratio() <= 1.0 + 1e-12);
        prop_assert!(partial.compression_ratio() <= 1.0 + 1e-12);
    }

    /// Eclat agrees with brute-force subset enumeration.
    #[test]
    fn eclat_matches_bruteforce(
        rows in proptest::collection::vec(proptest::collection::vec(0u32..6, 1..5), 1..12),
        min_support in 1u32..4,
    ) {
        let db = TransactionDb::from_rows(rows);
        let mined = eclat(&db, min_support);
        // Brute force over the ≤ 2^6 itemsets.
        let n = db.n_items();
        let mut expected = 0usize;
        for mask in 1u32..(1 << n) {
            let items: Vec<u32> = (0..n as u32).filter(|i| mask & (1 << i) != 0).collect();
            let support = db
                .iter()
                .filter(|t| items.iter().all(|i| t.binary_search(i).is_ok()))
                .count() as u32;
            if support >= min_support {
                expected += 1;
                let found = mined.iter().find(|f| f.items == items);
                prop_assert!(found.is_some(), "missing itemset {:?}", items);
                prop_assert_eq!(found.unwrap().support, support);
            }
        }
        prop_assert_eq!(mined.len(), expected);
    }

    /// Krimp and SLIM never produce a worse description than the
    /// singleton baseline, and their covers stay lossless.
    #[test]
    fn compressors_never_hurt(
        rows in proptest::collection::vec(proptest::collection::vec(0u32..8, 1..6), 2..16),
    ) {
        let db = TransactionDb::from_rows(rows);
        let k = krimp(&db, KrimpConfig::default());
        prop_assert!(k.dl.total() <= k.baseline.total() + 1e-9);
        let s = slim(&db, SlimConfig::default());
        prop_assert!(s.dl.total() <= s.baseline.total() + 1e-9);
        for (t, used) in db.iter().zip(&s.cover.covers) {
            let mut rebuilt: Vec<u32> = used
                .iter()
                .flat_map(|&i| s.code_table.patterns()[i as usize].items().iter().copied())
                .collect();
            rebuilt.sort_unstable();
            prop_assert_eq!(rebuilt, t.to_vec());
        }
    }
}

/// In-memory footprint estimate vs. ground-truth serialized size for
/// one durable session state: `(approx_bytes, snapshot_bytes)` right
/// after a checkpoint, so the snapshot reflects exactly the resident
/// graph + pristine database that `approx_bytes` counts.
fn footprint_vs_snapshot(s: &cspm::store::DurableSession) -> (usize, u64) {
    (s.session().approx_bytes(), s.stats().snapshot_bytes)
}

proptest! {
    // File-backed cases (each checkpoints 4×); fewer cases than the
    // pure-compute block keeps the suite's wall time flat.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The eviction budget's currency, `ResidentFootprint::approx_bytes`,
    /// stays within a constant factor of the measured serialized size
    /// (the checkpoint snapshot) as a session is grown, churned, and
    /// compacted. The estimate need not be exact — it skips fixed-size
    /// headers by design — but if it drifted more than a constant factor
    /// from reality, `--mem-budget` enforcement would be meaningless.
    #[test]
    fn approx_bytes_tracks_serialized_size(g in arb_graph(), seed in any::<u64>()) {
        use std::sync::atomic::{AtomicU64, Ordering};
        static CASE: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join("cspm-prop-footprint");
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join(format!(
            "{}-{}.cspm",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed),
        ));

        // The estimate counts heap payloads that scale with the graph;
        // the snapshot adds small fixed headers and saves on dense
        // encodings (observed band: estimate 2.7–9.4× the snapshot).
        // "Constant factor" with a small additive floor so 4-vertex
        // graphs don't fail on header noise alone.
        const FACTOR: f64 = 16.0;
        const FLOOR: f64 = 512.0;
        let in_band = |state: &str, s: &cspm::store::DurableSession| {
            let (approx, ser) = footprint_vs_snapshot(s);
            let (approx, ser) = (approx as f64, ser as f64);
            assert!(approx > 0.0 && ser > 0.0, "{state}: empty measurement");
            assert!(
                approx <= FACTOR * ser + FLOOR,
                "{state}: approx_bytes {approx} >> serialized {ser}"
            );
            assert!(
                ser <= FACTOR * approx + FLOOR,
                "{state}: serialized {ser} >> approx_bytes {approx}"
            );
        };

        let mut s = Miner::new().threads(1).durable(&snap).unwrap();
        s.mine(&g).unwrap();
        in_band("mined", &s);

        // Grow: new vertices wired to the existing chain, plus labels.
        let n = g.vertex_count() as u32;
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut grow = GraphDelta::new();
        for i in 0..n.div_ceil(2) {
            let v = grow.add_vertex([format!("a{}", next() % 4)]);
            grow.add_edge(v, DeltaVertex::Existing(next() as u32 % n));
            if i % 2 == 0 {
                grow.add_label(next() as u32 % n, format!("a{}", next() % 4));
            }
        }
        s.stage_delta(&grow).unwrap();
        s.run().unwrap();
        s.checkpoint().unwrap();
        in_band("grown", &s);

        // Churn: detach vertices and strip edges/labels — the arena
        // now carries release slack, the snapshot does not.
        let mut churn = GraphDelta::new();
        for i in 0..n / 3 {
            churn.remove_vertex(next() as u32 % n);
            let (u, v) = (i % n, (i + 1) % n);
            churn.remove_edge(u, v);
        }
        s.stage_delta(&churn).unwrap();
        s.run().unwrap();
        s.checkpoint().unwrap();
        in_band("churned", &s);

        // Compaction densifies the arena in place; the estimate must
        // follow the reclaim, not remember the slack.
        s.compact_now();
        s.checkpoint().unwrap();
        in_band("compacted", &s);

        std::fs::remove_file(&snap).ok();
        let mut wal = snap.into_os_string();
        wal.push(".wal");
        std::fs::remove_file(wal).ok();
    }
}
