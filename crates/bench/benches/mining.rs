//! Criterion micro-benchmarks for the mining core: inverted-database
//! construction, pair-gain evaluation, merging, and the two CSPM
//! variants end to end.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use cspm_core::{mine, CoresetMode, CspmConfig, GainPolicy, InvertedDb, Variant};
use cspm_datasets::{dblp_like, usflight_like, Scale};

fn bench_inverted_db(c: &mut Criterion) {
    let mut g = c.benchmark_group("inverted_db_build");
    for (name, d) in [
        ("dblp_tiny", dblp_like(Scale::Tiny, 1)),
        ("dblp_small", dblp_like(Scale::Small, 1)),
        ("usflight_paper", usflight_like(Scale::Paper, 1)),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                InvertedDb::build(
                    black_box(&d.graph),
                    CoresetMode::SingleValue,
                    GainPolicy::Total,
                )
            })
        });
    }
    g.finish();
}

fn bench_gain_and_merge(c: &mut Criterion) {
    let d = dblp_like(Scale::Small, 1);
    let db = InvertedDb::build(&d.graph, CoresetMode::SingleValue, GainPolicy::Total);
    let pairs = db.sharing_pairs();
    c.bench_function("pair_gain_sweep", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &(x, y) in pairs.iter().take(256) {
                acc += db.pair_gain(black_box(x), black_box(y));
            }
            acc
        })
    });
    // Merge the best pair, starting from a fresh clone each iteration.
    let best = pairs
        .iter()
        .copied()
        .max_by(|&(a, b), &(x, y)| db.pair_gain(a, b).partial_cmp(&db.pair_gain(x, y)).unwrap())
        .expect("non-empty candidate set");
    c.bench_function("merge_best_pair", |b| {
        b.iter_batched(
            || db.clone(),
            |mut fresh| fresh.merge(black_box(best.0), black_box(best.1)),
            BatchSize::SmallInput,
        )
    });
}

fn bench_cspm_variants(c: &mut Criterion) {
    let mut g = c.benchmark_group("cspm_end_to_end");
    g.sample_size(10);
    let tiny = dblp_like(Scale::Tiny, 1);
    g.bench_function("basic_dblp_tiny", |b| {
        b.iter(|| {
            mine(
                black_box(&tiny.graph),
                Variant::Basic,
                CspmConfig::default(),
            )
        })
    });
    g.bench_function("partial_dblp_tiny", |b| {
        b.iter(|| {
            mine(
                black_box(&tiny.graph),
                Variant::Partial,
                CspmConfig::default(),
            )
        })
    });
    let small = dblp_like(Scale::Small, 1);
    g.bench_function("partial_dblp_small", |b| {
        b.iter(|| {
            mine(
                black_box(&small.graph),
                Variant::Partial,
                CspmConfig::default(),
            )
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_inverted_db,
    bench_gain_and_merge,
    bench_cspm_variants
);
criterion_main!(benches);
