//! Property tests for `CandidateScheduler` lazy revalidation: a stale
//! queue entry whose gain changed sign must never be applied — under
//! both CSPM variants and under the parallel scorer.
//!
//! The observable invariant is the monotone-DL guarantee: every
//! *applied* merge carries a strictly positive gain validated against
//! the database state at application time. Under `Partial` that is
//! enforced by revalidating each popped entry (stale sign-flips are
//! dropped on pop — see `engine::pop_next_positive` and its unit test);
//! under `Basic` by rebuilding the queue from exact gains after every
//! merge. If either mechanism let one stale entry through,
//! the accepted gain would disagree with the realised DL delta and the
//! per-iteration DL trace would rise.

use cspm::core::{mine, CspmConfig, GainPolicy, Variant};
use cspm::graph::GraphBuilder;
use proptest::prelude::*;

/// Builds a connected random graph with `n` chained vertices over `k`
/// label families plus xorshift chords/noise — dense enough in shared
/// coresets that merges keep invalidating queued candidates.
fn random_graph(n: usize, k: usize, seed: u64) -> cspm::graph::AttributedGraph {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut b = GraphBuilder::new();
    for _ in 0..n {
        let primary = format!("a{}", next() as usize % k);
        if next() % 3 == 0 {
            b.add_vertex([primary, format!("b{}", next() as usize % k)]);
        } else {
            b.add_vertex([primary]);
        }
    }
    for v in 1..n {
        b.add_edge(v as u32 - 1, v as u32).unwrap();
    }
    for _ in 0..2 * n {
        let (u, w) = (next() as usize % n, next() as usize % n);
        if u != w {
            let _ = b.add_edge(u as u32, w as u32);
        }
    }
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Both variants, both pricing models, threads ∈ {1, 4}: every
    /// accepted merge has positive validated gain, the total DL under
    /// `Total` pricing is strictly monotone (the direct consequence of
    /// "no stale sign-flipped entry is ever applied"), and the parallel
    /// scorer changes nothing about the trace.
    #[test]
    fn stale_sign_flips_are_never_applied(
        n in 12usize..28,
        k in 3usize..6,
        seed in 0u64..2000,
    ) {
        let g = random_graph(n, k, seed);
        for variant in [Variant::Basic, Variant::Partial] {
            for gain_policy in [GainPolicy::Total, GainPolicy::DataOnly] {
                let mut traces = Vec::new();
                for threads in [1usize, 4] {
                    let config = CspmConfig {
                        gain_policy,
                        ..CspmConfig::instrumented()
                    }
                    .with_threads(threads);
                    let res = mine(&g, variant, config);
                    // Every applied merge was validated positive.
                    for it in &res.stats.iterations {
                        prop_assert!(
                            it.accepted_gain > 0.0,
                            "{variant:?}/{gain_policy:?}: applied a non-positive gain"
                        );
                    }
                    // Under Total pricing the accepted gain is the exact
                    // DL delta, so the trace must fall strictly.
                    if gain_policy == GainPolicy::Total {
                        let mut prev = res.initial_dl;
                        for it in &res.stats.iterations {
                            prop_assert!(
                                it.dl_after < prev + 1e-9,
                                "DL rose: a stale entry must have been applied"
                            );
                            prev = it.dl_after;
                        }
                    }
                    traces.push((res.final_dl, res.merges, res.stats.total_gain_evals));
                }
                // The parallel scorer is bit-identical to sequential.
                prop_assert_eq!(traces[0], traces[1]);
            }
        }
    }
}
