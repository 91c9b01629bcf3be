//! Regenerates `BENCH_core.json`: end-to-end mining runs per dataset ×
//! algorithm × posting backend, proving the adaptive posting layout is
//! a pure speedup — every backend pair must report bit-identical merge
//! counts and description lengths.
//!
//! ```text
//! bench_core [--tiny|--paper] [--seed N] [--threads N] [--out FILE]
//! ```
//!
//! Backends are the two [`PostingPolicy`] values: `sparse` forces
//! sorted id slices everywhere (the pre-adaptive layout), `adaptive`
//! lets dense rows flip to chunked bitmaps. Algorithms are the paper's
//! two variants, each mined from a pre-built database. The headline
//! records the adaptive-over-sparse speedup on the largest dataset's
//! merge-heavy run plus the cross-backend identity checks that gate it.

use std::io::Write as _;
use std::time::Instant;

use cspm_bench::fmt_secs;
use cspm_core::{CoresetMode, CspmConfig, CspmResult, InvertedDb, Miner, PostingPolicy, Variant};
use cspm_datasets::{dblp_like, pokec_like, usflight_like, Dataset, Scale};

struct Run {
    dataset: String,
    algorithm: &'static str,
    backend: &'static str,
    wall_secs: f64,
    mine_secs: f64,
    result: CspmResult,
}

fn main() {
    let mut scale = Scale::Small;
    let mut seed = 2022u64;
    let mut threads = 1usize;
    let mut out_path = "BENCH_core.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--paper" => scale = Scale::Paper,
            "--tiny" => scale = Scale::Tiny,
            "--seed" => seed = args.next().and_then(|s| s.parse().ok()).expect("--seed N"),
            "--threads" => {
                threads = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--threads N")
            }
            "--out" => out_path = args.next().expect("--out FILE"),
            other => panic!("unknown argument '{other}'"),
        }
    }

    let datasets: Vec<Dataset> = vec![
        pokec_like(
            if scale == Scale::Paper {
                Scale::Small
            } else {
                scale
            },
            seed,
        ),
        dblp_like(scale, seed),
        usflight_like(scale, seed),
    ];
    let config = CspmConfig::default().with_threads(threads);

    let mut runs: Vec<Run> = Vec::new();
    for d in &datasets {
        let (n, m, a) = d.statistics();
        println!("== {} ({n} vertices, {m} edges, {a} attrs) ==", d.name);
        for (algorithm, variant) in [("basic", Variant::Basic), ("partial", Variant::Partial)] {
            for (backend, posting) in [
                ("sparse", PostingPolicy::SparseOnly),
                ("adaptive", PostingPolicy::Adaptive),
            ] {
                let wall = Instant::now();
                let db = InvertedDb::build_with_posting(
                    &d.graph,
                    CoresetMode::SingleValue,
                    config.gain_policy,
                    posting,
                );
                let mine = Instant::now();
                let mut session = Miner::from_config(config).variant(variant).build();
                session.adopt_db(db);
                let result = session.run_detached().expect("adopted database mines");
                let mine_secs = mine.elapsed().as_secs_f64();
                let wall_secs = wall.elapsed().as_secs_f64();
                let p = result.stats.posting;
                println!(
                    "  {algorithm}/{backend}: {} ({} merges, {} bitmap rows live)",
                    fmt_secs(mine_secs),
                    result.merges,
                    p.bitmap_rows,
                );
                runs.push(Run {
                    dataset: d.name.to_string(),
                    algorithm,
                    backend,
                    wall_secs,
                    mine_secs,
                    result,
                });
            }
        }
    }

    // The backends must be indistinguishable in everything but time.
    let mut identical = true;
    for pair in runs.chunks(2) {
        let (s, a) = (&pair[0], &pair[1]);
        assert_eq!(
            (s.dataset.as_str(), s.algorithm),
            (a.dataset.as_str(), a.algorithm)
        );
        identical &= s.result.merges == a.result.merges
            && s.result.final_dl.to_bits() == a.result.final_dl.to_bits()
            && s.result.stats.total_gain_evals == a.result.stats.total_gain_evals
            && s.result.model.len() == a.result.model.len();
    }
    assert!(identical, "adaptive backend changed the mined model");

    // Headline: adaptive-over-sparse on the largest dataset's basic
    // (merge-heavy) run; the first four runs are Pokec basic/partial.
    let speedup = runs[0].mine_secs / runs[1].mine_secs;
    println!(
        "headline: adaptive {:.3}x over sparse on {} basic",
        speedup, runs[0].dataset
    );

    let mut f = std::fs::File::create(&out_path).expect("can create output file");
    writeln!(f, "{{").unwrap();
    writeln!(
        f,
        "  \"meta\": {{\"bench\": \"bench_core\", \"scale\": \"{}\", \"seed\": {seed}, \"threads\": {threads}}},",
        format!("{scale:?}").to_lowercase()
    )
    .unwrap();
    writeln!(
        f,
        "  \"headline\": {{\"dataset\": \"{}\", \"algorithm\": \"basic\", \"speedup_adaptive_over_sparse\": {:.4}, \"identical_final_dl\": {identical}, \"identical_merges\": {identical}}},",
        runs[0].dataset, speedup
    )
    .unwrap();
    writeln!(f, "  \"runs\": [").unwrap();
    for (i, r) in runs.iter().enumerate() {
        let comma = if i + 1 == runs.len() { "" } else { "," };
        let p = r.result.stats.posting;
        writeln!(
            f,
            "    {{\"dataset\": \"{}\", \"algorithm\": \"{}\", \"backend\": \"{}\", \"wall_secs\": {:.6}, \"mine_secs\": {:.6}, \"gain_evals\": {}, \"merges\": {}, \"initial_dl\": {:.6}, \"final_dl\": {:.6}, \"astars\": {}, \"bitmap_rows\": {}, \"flips_to_bitmap\": {}}}{comma}",
            r.dataset,
            r.algorithm,
            r.backend,
            r.wall_secs,
            r.mine_secs,
            r.result.stats.total_gain_evals,
            r.result.merges,
            r.result.initial_dl,
            r.result.final_dl,
            r.result.model.len(),
            p.bitmap_rows,
            p.flips_to_bitmap,
        )
        .unwrap();
    }
    writeln!(f, "  ]").unwrap();
    writeln!(f, "}}").unwrap();
    println!("wrote {out_path}");
}
