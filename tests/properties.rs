//! Property-based tests of the core invariants, on random attributed
//! graphs and random transaction databases, and of the parsers that
//! read untrusted input: wire JSON, request lines with their deltas,
//! graph text and, with the `real-data` feature, the three dump formats.

use cspm::core::{
    mine, CenterIndex, CoresetMode, CspmConfig, GainPolicy, InvertedDb, LeafsetId, Miner, Variant,
};
use cspm::graph::dynamic::{DeltaVertex, GraphDelta};
use cspm::graph::{read_graph, AttributedGraph, GraphBuilder};
use cspm::itemset::{eclat, krimp, slim, KrimpConfig, TransactionDb};
use cspm::serve::{json, proto, ErrorCode, Value};
use cspm::store::Durable;
use proptest::prelude::*;

/// A deterministic xorshift stream: the generators below draw every
/// choice from one seed.
struct Stream(u64);

impl Stream {
    fn new(seed: u64) -> Self {
        Self(seed | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// Strategy: a connected attributed graph with `n` vertices, `k`
/// attribute values, 1–2 values per vertex, and a chain backbone plus
/// random extra edges.
fn arb_graph() -> impl Strategy<Value = AttributedGraph> {
    (4usize..24, 2usize..6, any::<u64>()).prop_map(|(n, k, seed)| {
        let mut s = Stream::new(seed);
        let mut next = || s.next();
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

/// The counted seed's oracle: it lists exactly `sharing_pairs` and
/// scores every pair to the bit as `pair_gain` does.
fn assert_counted_seed_is_exact(db: &InvertedDb, what: &str) {
    let seed = db.seed_gains().expect("a pristine database is counted");
    let pairs: Vec<_> = seed.iter().map(|&(x, y, _)| (x, y)).collect();
    assert_eq!(pairs, db.sharing_pairs(), "{what}: pair list");
    for (x, y, gain) in seed {
        let oracle = db.pair_gain(x, y);
        assert_eq!(
            gain.to_bits(),
            oracle.to_bits(),
            "{what}: pair ({x}, {y}) counted {gain}, pair_gain {oracle}"
        );
    }
}

/// Merges greedily, as CSPM-Basic does: the pair with the highest
/// positive `pair_gain`, ties going to the smallest. After every merge
/// the center index must equal one rebuilt from the rows, and the new
/// leafset and both parents, each as an anchor against every other
/// live leafset, must score every pair by counting as `pair_gain` does,
/// in both operand orders.
fn assert_counted_groups_are_exact(mut db: InvertedDb, what: &str) {
    db.index_centers();
    for merge in 1.. {
        let best = db
            .sharing_pairs()
            .into_iter()
            .map(|(x, y)| (db.pair_gain(x, y), x, y))
            .filter(|&(gain, _, _)| gain > 1e-9)
            .fold(
                None,
                |best: Option<(f64, LeafsetId, LeafsetId)>, c| match best {
                    Some(b) if b.0 >= c.0 => Some(b),
                    _ => Some(c),
                },
            );
        let Some((_, x, y)) = best else { break };
        let n = db.merge(x, y).new_leafset;
        assert!(
            db.center_index() == Some(&CenterIndex::build(&db)),
            "{what}: merge {merge} left the index out of date"
        );
        for anchor in [n, x, y].into_iter().filter(|&l| db.is_live(l)) {
            let partners: Vec<LeafsetId> = db
                .live_leafsets()
                .into_iter()
                .filter(|&l| l != anchor)
                .collect();
            for anchor_first in [true, false] {
                let gains = db.anchor_gains(anchor, &partners, anchor_first);
                for (&p, gain) in partners.iter().zip(gains) {
                    let (a, b) = if anchor_first {
                        (anchor, p)
                    } else {
                        (p, anchor)
                    };
                    let oracle = db.pair_gain(a, b);
                    assert_eq!(
                        gain.to_bits(),
                        oracle.to_bits(),
                        "{what}: merge {merge}, ({a}, {b}) counted {gain}, pair_gain {oracle}"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Algorithm 4's counted anchor groups agree with `pair_gain` to the
    /// bit after every merge of a run on random graphs, under both gain
    /// policies and all three coreset modes, and the index that `merge`
    /// keeps current equals a rebuild.
    #[test]
    fn counted_groups_match_pair_gain(g in arb_graph()) {
        for policy in [GainPolicy::Total, GainPolicy::DataOnly] {
            for mode in [CoresetMode::SingleValue, CoresetMode::Krimp, CoresetMode::Slim] {
                let db = InvertedDb::build(&g, mode, policy);
                assert_counted_groups_are_exact(db, &format!("{mode:?} {policy:?}"));
            }
        }
    }

    /// The counted seed agrees with `pair_gain` to the bit on random
    /// graphs, under both gain policies and all three coreset modes,
    /// and on a database patched by a churning delta.
    #[test]
    fn counted_seed_matches_pair_gain(g in arb_graph(), seed in any::<u64>()) {
        let n = g.vertex_count();
        let mut s = Stream::new(seed);
        let mut churn = GraphDelta::new();
        let v = churn.add_vertex([format!("a{}", s.below(6))]);
        churn.add_edge(v, DeltaVertex::Existing(s.below(n) as u32));
        churn.add_label(s.below(n) as u32, format!("a{}", s.below(6)));
        churn.remove_edge(s.below(n) as u32, s.below(n) as u32);
        churn.remove_label(s.below(n) as u32, format!("a{}", s.below(6)));
        churn.remove_vertex(s.below(n) as u32);
        let churned = churn.apply(&g).ok();
        for policy in [GainPolicy::Total, GainPolicy::DataOnly] {
            for mode in [CoresetMode::SingleValue, CoresetMode::Krimp, CoresetMode::Slim] {
                let db = InvertedDb::build(&g, mode, policy);
                assert_counted_seed_is_exact(&db, &format!("{mode:?} {policy:?}"));
            }
            let Some(applied) = &churned else { continue };
            let mut db = InvertedDb::build(&g, CoresetMode::SingleValue, policy);
            if db.apply_delta(&applied.graph, &applied.dirty_centers).is_ok() {
                assert_counted_seed_is_exact(&db, &format!("patched {policy:?}"));
            }
        }
    }

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
        let s = slim(&db);
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
        let mut rng = Stream::new(seed);
        let mut next = || rng.next();
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

/// A string mixing what JSON must escape (quotes, backslashes, every
/// control character) with plain, multi-byte and astral characters.
fn arb_string(s: &mut Stream) -> String {
    const SPECIAL: [char; 9] = ['"', '\\', '/', '\n', '\r', '\t', '\u{7f}', 'é', '😀'];
    (0..s.below(8))
        .map(|_| match s.below(4) {
            0 => char::from_u32(s.below(0x20) as u32).unwrap(),
            1 => *s.pick(&SPECIAL),
            _ => char::from(b'a' + s.below(26) as u8),
        })
        .collect()
}

/// A JSON value nested at most `depth` levels, far below the parser's
/// 64-level cap. Numbers are integers of magnitude below 2^53 or
/// arbitrary finite floats.
fn arb_json(s: &mut Stream, depth: usize) -> Value {
    match s.below(if depth == 0 { 5 } else { 7 }) {
        0 => Value::Null,
        1 => Value::Bool(s.next() & 1 == 1),
        2 => Value::Str(arb_string(s)),
        3 => {
            let magnitude = (s.next() % (1 << 53)) as f64;
            Value::Num(if s.next() & 1 == 0 {
                magnitude
            } else {
                -magnitude
            })
        }
        4 => loop {
            let f = f64::from_bits(s.next());
            if f.is_finite() {
                break Value::Num(f);
            }
        },
        5 => Value::Arr((0..s.below(4)).map(|_| arb_json(s, depth - 1)).collect()),
        _ => Value::Obj(
            (0..s.below(4))
                .map(|_| (arb_string(s), arb_json(s, depth - 1)))
                .collect(),
        ),
    }
}

/// `bytes` with a few random edits: overwrites, insertions and
/// deletions, some of them bytes that are not valid UTF-8 alone.
fn mutate(s: &mut Stream, mut bytes: Vec<u8>) -> Vec<u8> {
    const BYTES: &[u8] = b"{}[]\":,\\u0123456789-+.eE tfn\x00\x1f\x80\xc3\xff";
    for _ in 0..s.below(4) {
        let at = s.below(bytes.len() + 1);
        let b = *s.pick(BYTES);
        match s.below(3) {
            0 if at < bytes.len() => bytes[at] = b,
            1 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => bytes.insert(at, b),
        }
    }
    bytes
}

/// One item of a wire-delta entry of kind `i` (a base vertex id), `e`
/// (an id or a `{"new": i}` reference) or `s` (a label). One in eight
/// is something else: an out-of-range, negative or fractional number,
/// or any JSON value.
fn arb_item(s: &mut Stream, kind: char) -> Value {
    const BAD_IDS: [f64; 4] = [4_294_967_296.0, -1.0, 0.5, 9e15];
    match (kind, s.below(16)) {
        (_, 0) => Value::Num(*s.pick(&BAD_IDS)),
        (_, 1) => arb_json(s, 1),
        ('e', 2..=3) => Value::Obj(vec![("new".into(), Value::Num(s.below(3) as f64))]),
        ('s', _) => Value::Str(arb_string(s)),
        _ => Value::Num(s.below(4) as f64),
    }
}

/// A wire-delta field whose entries have the item kinds of `shape`
/// (`"ee"` is an edge, `"iss"` a label change; one kind is a bare
/// id). Entries are sometimes cut short or overlong, and the field
/// sometimes is not an array at all.
fn arb_delta_field(s: &mut Stream, shape: &str) -> Value {
    if s.below(16) == 0 {
        return arb_json(s, 2);
    }
    let entry = |s: &mut Stream| {
        let mut items: Vec<Value> = shape.chars().map(|k| arb_item(s, k)).collect();
        match s.below(8) {
            0 => items.truncate(s.below(items.len())),
            1 => items.push(arb_item(s, 'i')),
            _ if items.len() == 1 => return items.pop().unwrap(),
            _ => {}
        }
        Value::Arr(items)
    };
    Value::Arr((0..s.below(4)).map(|_| entry(s)).collect())
}

/// A request-shaped object, mostly a `delta` for a valid session name
/// so that the wire-delta grammar sees most cases, with any of the
/// optional fields present.
fn arb_request(s: &mut Stream) -> Value {
    const OPS: [&str; 10] = [
        "ping",
        "open",
        "mine",
        "subscribe",
        "stats",
        "metrics",
        "close",
        "shutdown",
        "",
        "DELTA",
    ];
    const BAD_NAMES: [&str; 3] = ["..", "bad/name", ""];
    const DELTA_FIELDS: [(&str, &str); 7] = [
        ("add_vertices", "ss"),
        ("add_edges", "ee"),
        ("add_labels", "is"),
        ("remove_edges", "ii"),
        ("remove_labels", "is"),
        ("remove_vertices", "i"),
        ("change_labels", "iss"),
    ];
    let op = if s.below(4) > 0 {
        "delta"
    } else {
        *s.pick(&OPS)
    };
    let session = if s.below(4) > 0 {
        "t1"
    } else {
        *s.pick(&BAD_NAMES)
    };
    let mut members = vec![("op".into(), op.into()), ("session".into(), session.into())];
    if s.below(16) == 0 {
        members.remove(s.below(2));
    }
    for field in ["graph", "deadline_ms", "top"] {
        if s.below(4) == 0 {
            let kind = if field == "graph" { 's' } else { 'i' };
            members.push((field.into(), arb_item(s, kind)));
        }
    }
    for (field, shape) in DELTA_FIELDS {
        if s.below(3) == 0 {
            members.push((field.into(), arb_delta_field(s, shape)));
        }
    }
    Value::Obj(members)
}

/// Graph text: either the format's tokens and their near misses, or
/// records that mostly parse, with what the reader must take in its
/// stride (CRLF line ends, a vertex's `v` records repeated, its values
/// repeated and reordered, edges reversed and repeated, whitespace that
/// is not ASCII) and what it must refuse (a self-loop after valid
/// edges, an id past what the records can name), with an occasional
/// byte that is not valid UTF-8.
fn arb_graph_text(s: &mut Stream) -> Vec<u8> {
    const TAGS: [&str; 6] = ["v", "e", "#", "x", "", "V"];
    const TOKENS: [&str; 12] = [
        "0",
        "1",
        "2",
        "7",
        "-1",
        "4294967295",
        "4294967296",
        "1e3",
        "a",
        "b",
        "\u{a0}",
        "\u{3000}",
    ];
    const VALUES: [&str; 6] = ["a", "b", "c", "ä", "b", "z9"];
    const SPACES: [&str; 5] = [" ", " ", "\t", "\u{3000}", "  "];
    let mut text = Vec::new();
    let crlf = s.below(3) == 0;
    let soup = s.below(2) == 0;
    let bad_byte = if soup { 16 } else { 128 };
    let end_line = |s: &mut Stream, text: &mut Vec<u8>| {
        if s.below(bad_byte) == 0 {
            text.push(0xff);
        }
        text.extend_from_slice(if crlf || s.below(8) == 0 {
            b"\r\n"
        } else {
            b"\n"
        });
    };
    if soup {
        for _ in 0..s.below(10) {
            text.extend_from_slice(s.pick(&TAGS).as_bytes());
            for _ in 0..s.below(4) {
                text.push(if s.below(8) == 0 { b'\t' } else { b' ' });
                text.extend_from_slice(s.pick(&TOKENS).as_bytes());
            }
            end_line(s, &mut text);
        }
        return text;
    }
    let n = 1 + s.below(8);
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for _ in 0..s.below(24) {
        let mut line = String::new();
        match s.below(8) {
            0..=2 => {
                line += &format!("v{}{}", s.pick(&SPACES), s.below(n));
                for _ in 0..s.below(4) {
                    line += *s.pick(&SPACES);
                    line += *s.pick(&VALUES);
                }
            }
            3..=5 => {
                let (u, v) = match edges.len() {
                    0 => (s.below(n), s.below(n)),
                    k => {
                        let (u, v) = edges[s.below(k)];
                        if s.below(2) == 0 {
                            (v, u)
                        } else {
                            (u, v)
                        }
                    }
                };
                let (u, v) = if u == v && s.below(4) != 0 {
                    (u, (u + 1) % (n + 1))
                } else {
                    (u, v)
                };
                if s.below(3) == 0 || edges.is_empty() {
                    edges.push((u, v));
                }
                line += &format!("e{}{u}{}{v}", s.pick(&SPACES), s.pick(&SPACES));
            }
            6 => line += if s.below(2) == 0 { "# note" } else { "" },
            _ => {
                // A bare id, now and then past the nameable bound.
                let id = if s.below(8) == 0 { 3 * n + 40 } else { n };
                line += &format!("{}{}{id}", s.pick(&["v", "e 0"]), s.pick(&SPACES));
            }
        }
        text.extend_from_slice(line.as_bytes());
        end_line(s, &mut text);
    }
    text
}

/// The reader `read_graph` replaced, kept as its oracle: every line an
/// owned `String`, every value an owned `String`, and the graph
/// assembled through `GraphBuilder`'s ordered sets once the nameable-id
/// check has passed.
fn read_graph_via_builder(bytes: &[u8]) -> Result<AttributedGraph, cspm::graph::GraphError> {
    use cspm::graph::GraphError;
    use std::io::{BufRead, ErrorKind};
    let mut vertices: Vec<(u32, Vec<String>)> = Vec::new();
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut max_id: Option<(u32, usize)> = None;
    let mut see = |id: u32, line: usize| {
        if max_id.is_none_or(|(m, _)| id > m) {
            max_id = Some((id, line));
        }
    };
    for (lineno, line) in bytes.lines().enumerate() {
        let lineno = lineno + 1;
        let line = line.map_err(|e| match e.kind() {
            ErrorKind::InvalidData => GraphError::Parse {
                line: lineno,
                message: "line is not valid UTF-8".into(),
            },
            _ => GraphError::Io(e),
        })?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let tag = parts.next().unwrap();
        let parse_id = |tok: Option<&str>| -> Result<u32, GraphError> {
            tok.ok_or_else(|| GraphError::Parse {
                line: lineno,
                message: "missing vertex id".into(),
            })?
            .parse()
            .map_err(|_| GraphError::Parse {
                line: lineno,
                message: "vertex id is not an integer".into(),
            })
        };
        match tag {
            "v" => {
                let id = parse_id(parts.next())?;
                see(id, lineno);
                vertices.push((id, parts.map(str::to_owned).collect()));
            }
            "e" => {
                let u = parse_id(parts.next())?;
                let v = parse_id(parts.next())?;
                see(u.max(v), lineno);
                edges.push((u, v));
            }
            other => {
                return Err(GraphError::Parse {
                    line: lineno,
                    message: format!("unknown record tag '{other}'"),
                })
            }
        }
    }
    let nameable = vertices.len() + 2 * edges.len();
    if let Some((id, line)) = max_id.filter(|&(id, _)| id as usize >= nameable) {
        return Err(GraphError::Parse {
            line,
            message: format!(
                "vertex id {id} exceeds the {nameable} ids the file's records can name"
            ),
        });
    }
    let n = max_id.map_or(0, |(m, _)| m as usize + 1);
    let mut b = GraphBuilder::with_capacity(n);
    b.add_vertices(n);
    for (id, values) in vertices {
        for value in values {
            b.add_label(id, &value)?;
        }
    }
    for (u, v) in edges {
        b.add_edge(u, v)?;
    }
    Ok(b.build_unchecked())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The wire parser answers arbitrary bytes — random, or a valid
    /// document after a few edits, or nesting past its cap — with a
    /// value or a typed error, never a panic.
    #[test]
    fn json_parse_never_panics(
        seed in any::<u64>(),
        raw in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut s = Stream::new(seed);
        let doc = arb_json(&mut s, 3).to_json().into_bytes();
        let depth = 60 + s.below(10);
        let inputs = [raw, mutate(&mut s, doc), "[".repeat(depth).into_bytes()];
        for bytes in inputs {
            let _ = json::parse(&String::from_utf8_lossy(&bytes));
        }
    }

    /// Every document the writer produces parses back to an equal value.
    #[test]
    fn json_documents_round_trip(seed in any::<u64>()) {
        let v = arb_json(&mut Stream::new(seed), 4);
        prop_assert_eq!(json::parse(&v.to_json()), Ok(v));
    }

    /// Request lines, wire deltas included, decode to a request or a
    /// typed error. A line that is a JSON object is never reported as
    /// malformed JSON, and mutated lines never panic.
    #[test]
    fn parse_request_never_panics(seed in any::<u64>()) {
        let mut s = Stream::new(seed);
        let line = arb_request(&mut s).to_json();
        if let Err(e) = proto::parse_request(&line) {
            prop_assert_ne!(e.code, ErrorCode::MalformedJson, "{}: {}", line, e);
        }
        let mutated = mutate(&mut s, line.into_bytes());
        let _ = proto::parse_request(&String::from_utf8_lossy(&mutated));
    }

    /// The graph text reader returns a graph or a typed error on any
    /// input, and a graph it returns has no more vertices than its
    /// records can name.
    #[test]
    fn read_graph_never_panics(seed in any::<u64>()) {
        let text = arb_graph_text(&mut Stream::new(seed));
        if let Ok(g) = read_graph(text.as_slice()) {
            let records = text.split(|&b| b == b'\n').count();
            prop_assert!(g.vertex_count() <= 2 * records);
        }
    }

    /// The one-pass reader returns what the `GraphBuilder` reader
    /// returned: an equal graph, attribute numbering included, or an
    /// error with the same text.
    #[test]
    fn read_graph_matches_the_builder_reader(seed in any::<u64>()) {
        let text = arb_graph_text(&mut Stream::new(seed));
        match (read_graph(text.as_slice()), read_graph_via_builder(&text)) {
            (Ok(got), Ok(want)) => prop_assert_eq!(got, want),
            (Err(got), Err(want)) => prop_assert_eq!(got.to_string(), want.to_string()),
            (got, want) => prop_assert!(
                false,
                "{:?}: read_graph {:?}, builder reader {:?}",
                String::from_utf8_lossy(&text),
                got.map(|g| g.vertex_count()),
                want.map(|g| g.vertex_count())
            ),
        }
    }
}

/// The dump parsers behind `cspm mine --input` read files from outside
/// the program. Each fixture under `tests/fixtures/`, sidecar included,
/// is copied with seeded edits, and `ingest` must answer every copy
/// with a graph or an `IngestError`, never a panic.
#[cfg(feature = "real-data")]
mod dumps {
    use super::Stream;
    use cspm::datasets::ingest::{ingest, Format};
    use proptest::prelude::*;
    use std::path::PathBuf;

    /// Each format's files: the dump `ingest` is given, then its sidecar.
    const FIXTURES: [(Format, &[&str]); 3] = [
        (
            Format::Pokec,
            &["pokec_small.txt", "pokec_small.profiles.txt"],
        ),
        (Format::Dblp, &["dblp_small.csv"]),
        (
            Format::UsFlight,
            &["usflight_small.csv", "usflight_small.airports.csv"],
        ),
    ];

    /// `bytes` after one to six edits: a flipped bit, a deleted run, an
    /// inserted delimiter, digit or non-UTF-8 byte, a truncation, or a
    /// duplicated line. One time in eight the file is arbitrary bytes.
    fn mutate_dump(s: &mut Stream, mut bytes: Vec<u8>) -> Vec<u8> {
        const BYTES: &[u8] = b"\t,;\"\n\r -+0123456789#\x00\x80\xc3\xff";
        if s.below(8) == 0 {
            return (0..s.below(512)).map(|_| s.next() as u8).collect();
        }
        for _ in 0..=s.below(6) {
            let at = s.below(bytes.len() + 1);
            match s.below(5) {
                0 if at < bytes.len() => bytes[at] ^= 1 << s.below(8),
                1 => {
                    let end = (at + 1 + s.below(16)).min(bytes.len());
                    bytes.drain(at..end);
                }
                2 => bytes.insert(at, *s.pick(BYTES)),
                3 => bytes.truncate(at),
                _ => {
                    let start = bytes[..at]
                        .iter()
                        .rposition(|&b| b == b'\n')
                        .map_or(0, |i| i + 1);
                    let end = bytes[at..]
                        .iter()
                        .position(|&b| b == b'\n')
                        .map_or(bytes.len(), |i| at + i + 1);
                    let line = bytes[start..end].to_vec();
                    bytes.splice(end..end, line);
                }
            }
        }
        bytes
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(100))]

        #[test]
        fn dump_parsers_never_panic(seed in any::<u64>()) {
            let mut s = Stream::new(seed);
            let fixtures = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
            let dir = std::env::temp_dir().join("cspm-dump-properties");
            std::fs::create_dir_all(&dir).unwrap();
            for (format, files) in FIXTURES {
                // Edit one file, or all of them when `edit` is past the end.
                let edit = s.below(files.len() + 1);
                for (i, name) in files.iter().enumerate() {
                    let bytes = std::fs::read(fixtures.join(name)).unwrap();
                    let bytes = if edit == i || edit == files.len() {
                        mutate_dump(&mut s, bytes)
                    } else {
                        bytes
                    };
                    std::fs::write(dir.join(name), bytes).unwrap();
                }
                let _ = ingest(&dir.join(files[0]), Some(format));
            }
        }
    }
}
