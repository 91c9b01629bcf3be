//! Differential churn property suite: random graphs × random
//! add/remove/change delta sequences. A warm, patched session must be
//! bit-identical to a cold mine of the resulting graph — same model
//! digest, same `final_dl` bits — at threads {1, 4} and under both
//! [`PostingPolicy`] values. The fixtures derive from
//! `CSPM_CHURN_SEED` (CI pins a seed matrix); a fixed seed reproduces
//! the exact sweep.

use cspm::core::engine::CspmResult;
use cspm::core::{
    CoresetMode, CspmConfig, GainPolicy, InvertedDb, Miner, MiningSession, PostingPolicy,
    ProgressObserver,
};
use cspm::graph::dynamic::{DeltaVertex, GraphDelta};
use cspm::graph::{AttributedGraph, GraphBuilder};

fn seed() -> u64 {
    std::env::var("CSPM_CHURN_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC4A9)
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

const POOL: [&str; 6] = ["a", "b", "c", "d", "e", "f"];

/// Seed-derived base graph: a ring (connectivity) plus random chords,
/// 1–2 attribute values per vertex from a small pool so stars repeat.
fn random_graph(state: &mut u64) -> AttributedGraph {
    let n = 12 + (xorshift(state) % 8) as u32;
    let mut b = GraphBuilder::new();
    for _ in 0..n {
        let first = POOL[(xorshift(state) % 6) as usize];
        let second = POOL[(xorshift(state) % 6) as usize];
        if first == second {
            b.add_vertex([first]);
        } else {
            b.add_vertex([first, second]);
        }
    }
    for v in 0..n {
        b.add_edge(v, (v + 1) % n).unwrap();
    }
    for _ in 0..n {
        let u = (xorshift(state) % n as u64) as u32;
        let v = (xorshift(state) % n as u64) as u32;
        if u != v {
            let _ = b.add_edge(u, v);
        }
    }
    b.build().unwrap()
}

/// Seed-derived churn delta over `base`: new wired vertices, label
/// attachment, and always at least one removal (a ring edge of the
/// *original* base survives often enough to make removals real work,
/// and absent targets are apply-time no-ops). Every delta stages
/// cleanly: added edges only wire new vertices to base ids, label
/// changes skip `old == new`.
fn random_churn_delta(state: &mut u64, base: &AttributedGraph) -> GraphDelta {
    let base_n = base.vertex_count() as u32;
    let mut d = GraphDelta::new();
    for _ in 0..xorshift(state) % 3 {
        let attr = POOL[(xorshift(state) % 6) as usize];
        let v = d.add_vertex([attr]);
        d.add_edge(
            v,
            DeltaVertex::Existing((xorshift(state) % base_n as u64) as u32),
        );
    }
    for _ in 0..=xorshift(state) % 2 {
        let u = (xorshift(state) % base_n as u64) as u32;
        d.remove_edge(u, (u + 1) % base_n);
    }
    if xorshift(state).is_multiple_of(2) {
        d.remove_label(
            (xorshift(state) % base_n as u64) as u32,
            POOL[(xorshift(state) % 6) as usize],
        );
    }
    if xorshift(state).is_multiple_of(2) {
        let old = POOL[(xorshift(state) % 6) as usize];
        let new = POOL[(xorshift(state) % 6) as usize];
        if old != new {
            d.change_label((xorshift(state) % base_n as u64) as u32, old, new);
        }
    }
    if xorshift(state).is_multiple_of(4) {
        d.remove_vertex((xorshift(state) % base_n as u64) as u32);
    }
    d
}

/// Mined-model digest with floats as bits: the bit-identity yardstick.
type AstarDigest = (Vec<u32>, Vec<u32>, Vec<u32>, u64, u64);

fn digest(res: &CspmResult) -> Vec<AstarDigest> {
    res.model
        .astars()
        .iter()
        .map(|m| {
            (
                m.astar.coreset().to_vec(),
                m.astar.leafset().to_vec(),
                m.positions.clone(),
                m.frequency,
                m.code_len.to_bits(),
            )
        })
        .collect()
}

struct RunToEnd;
impl ProgressObserver for RunToEnd {
    fn on_iteration(&mut self, _: &cspm::core::IterationStat) -> std::ops::ControlFlow<()> {
        std::ops::ControlFlow::Continue(())
    }
}

fn assert_bit_identical(warm: &CspmResult, cold: &CspmResult, label: &str) {
    assert_eq!(
        warm.final_dl.to_bits(),
        cold.final_dl.to_bits(),
        "{label}: final DL diverged (warm {} vs cold {})",
        warm.final_dl,
        cold.final_dl
    );
    assert_eq!(digest(warm), digest(cold), "{label}: mined model diverged");
}

/// Session-level property: a warm session fed a random churn sequence
/// mines bit-identically to a cold mine of the final graph, at 1 and
/// 4 threads. The sequence is staged delta by delta, so every stage
/// takes either the patch path or the rebuild fallback — both must
/// land on the same bits.
#[test]
fn churned_sessions_mine_bit_identically_to_cold_at_threads_1_and_4() {
    let mut churn_was_patched = false;
    for round in 0..6u64 {
        let mut state = seed().wrapping_add(round.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let graph = random_graph(&mut state);
        let mut deltas = Vec::new();
        let mut rolling = graph.clone();
        for _ in 0..4 {
            let d = random_churn_delta(&mut state, &rolling);
            assert!(d.has_churn(), "fixture must exercise churn");
            rolling = d.apply(&rolling).expect("fixture delta applies").graph;
            deltas.push(d);
        }
        for threads in [1usize, 4] {
            let mut warm = Miner::new().threads(threads).build();
            warm.mine(&graph);
            for d in &deltas {
                let stats = warm.stage_delta(d).expect("staged churn delta");
                if stats.rebuilt.is_none() && stats.patch.positions_removed > 0 {
                    churn_was_patched = true;
                }
            }
            let warm_res = warm.run_with(&mut RunToEnd).unwrap();
            let cold_res = Miner::new().threads(threads).build().mine(&rolling);
            assert_bit_identical(
                &warm_res,
                &cold_res,
                &format!("round {round}, {threads} threads"),
            );
        }
    }
    assert!(
        churn_was_patched,
        "no round took the patch path for removals — fixture too degenerate"
    );
}

/// Database-level property: the patched [`InvertedDb`] mines
/// bit-identically to a fresh build of the evolved graph under both
/// posting policies × both gain policies × 1 and 4 threads. A
/// [`PatchError`] (e.g. a vanished attribute) is the documented
/// rebuild signal, not a failure — those rounds are skipped here and
/// covered by the session-level test above.
#[test]
fn patched_databases_mine_bit_identically_under_both_posting_policies() {
    let mut patched_rounds = 0;
    for round in 0..6u64 {
        let mut state = seed() ^ round.wrapping_mul(0xA24B_AED4_963E_E407);
        let graph = random_graph(&mut state);
        let mut rolling = graph.clone();
        let mut dirty_log = Vec::new();
        for _ in 0..3 {
            let d = random_churn_delta(&mut state, &rolling);
            let applied = d.apply(&rolling).expect("fixture delta applies");
            rolling = applied.graph;
            dirty_log.push(applied.dirty_centers);
        }
        for posting in [PostingPolicy::SparseOnly, PostingPolicy::Adaptive] {
            for gain_policy in [GainPolicy::Total, GainPolicy::DataOnly] {
                // Replay the dirty sets against a db built on the base
                // graph; each step patches toward the next graph state.
                let mut db = InvertedDb::build_with_posting(
                    &graph,
                    CoresetMode::SingleValue,
                    gain_policy,
                    posting,
                );
                // Re-derive the per-step graphs (the patch needs the
                // evolved graph at each step, not just the final one).
                let mut step_graph = graph.clone();
                let mut step_state = seed() ^ round.wrapping_mul(0xA24B_AED4_963E_E407);
                // Skip the graph-construction draws so the delta draws
                // replay identically.
                let _ = random_graph(&mut step_state);
                let mut ok = true;
                for dirty in &dirty_log {
                    let d = random_churn_delta(&mut step_state, &step_graph);
                    step_graph = d.apply(&step_graph).unwrap().graph;
                    match db.apply_delta(&step_graph, dirty) {
                        Ok(_) => {}
                        Err(_) => {
                            ok = false;
                            break;
                        }
                    }
                }
                if !ok {
                    continue;
                }
                patched_rounds += 1;
                assert_eq!(step_graph, rolling, "fixture replay drifted");
                for threads in [1usize, 4] {
                    let config = CspmConfig {
                        gain_policy,
                        ..Default::default()
                    }
                    .with_threads(threads);
                    let run = |db| {
                        let mut session = Miner::from_config(config).build();
                        session.adopt_db(db);
                        session.run_detached().expect("adopted database mines")
                    };
                    let warm = run(db.clone());
                    let cold = run(InvertedDb::build_with_posting(
                        &rolling,
                        CoresetMode::SingleValue,
                        gain_policy,
                        posting,
                    ));
                    assert_bit_identical(
                        &warm,
                        &cold,
                        &format!("round {round}, {posting:?}/{gain_policy:?}, {threads} threads"),
                    );
                }
            }
        }
    }
    assert!(
        patched_rounds > 0,
        "every round hit the rebuild fallback — fixture too degenerate"
    );
}

/// Sustained churn through a session with an aggressive compaction
/// threshold: fragmentation stays bounded, compactions actually fire,
/// and the session still mines bit-identically to cold at the end.
#[test]
fn sustained_session_churn_stays_compact_and_bit_identical() {
    let mut state = seed().wrapping_mul(0x2545_F491_4F6C_DD1D) | 1;
    let graph = random_graph(&mut state);
    let mut session: MiningSession = Miner::new().threads(1).compact_above(1.2).build();
    session.mine(&graph);
    let mut rolling = graph;
    for _ in 0..12 {
        let d = random_churn_delta(&mut state, &rolling);
        rolling = d.apply(&rolling).expect("fixture delta applies").graph;
        let stats = session.stage_delta(&d).expect("staged churn delta");
        assert!(
            stats.fragmentation <= 1.2 || stats.fragmentation.is_infinite(),
            "fragmentation {} above the compaction threshold",
            stats.fragmentation
        );
    }
    let warm = session.run_with(&mut RunToEnd).unwrap();
    let cold = Miner::new().threads(1).build().mine(&rolling);
    assert_bit_identical(&warm, &cold, "sustained churn");
}
