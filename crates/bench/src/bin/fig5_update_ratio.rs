//! Fig. 5: gain update ratio per iteration, CSPM-Basic vs CSPM-Partial,
//! on the four benchmark datasets.
//!
//! The shape to reproduce: CSPM-Partial's ratio sits at or below
//! CSPM-Basic's in (almost) every iteration, which is why it is faster.
//!
//! ```text
//! cargo run --release -p cspm-bench --bin fig5_update_ratio [--paper]
//! ```

use cspm_bench::{hr, parse_args};
use cspm_core::{mine, CspmConfig, RunStats, Variant};
use cspm_datasets::benchmark_suite;

/// Summarises a ratio series at up to `points` evenly spaced iterations.
fn series(stats: &RunStats, points: usize) -> Vec<(usize, f64)> {
    let n = stats.iterations.len();
    if n == 0 {
        return Vec::new();
    }
    let step = (n / points).max(1);
    (0..n)
        .step_by(step)
        .map(|i| (i + 1, stats.iterations[i].update_ratio()))
        .collect()
}

fn main() {
    let args = parse_args();
    println!(
        "Fig. 5: gain update ratio per iteration (scale {:?}, seed {})\n",
        args.scale, args.seed
    );
    const BASIC_VERTEX_CAP: usize = 10_000;

    for d in benchmark_suite(args.scale, args.seed) {
        println!("== {} ==", d.name);
        let partial = mine(&d.graph, Variant::Partial, CspmConfig::instrumented());
        let basic = (d.graph.vertex_count() <= BASIC_VERTEX_CAP)
            .then(|| mine(&d.graph, Variant::Basic, CspmConfig::instrumented()));

        println!("{:>10} {:>14} {:>14}", "iteration", "Basic", "Partial");
        hr(42);
        let ps = series(&partial.stats, 12);
        let bs = basic
            .as_ref()
            .map(|b| series(&b.stats, 12))
            .unwrap_or_default();
        let rows = ps.len().max(bs.len());
        for i in 0..rows {
            let iteration = ps
                .get(i)
                .map(|&(it, _)| it)
                .or_else(|| bs.get(i).map(|&(it, _)| it))
                .unwrap_or(0);
            let b = bs
                .get(i)
                .map(|&(_, r)| format!("{r:.4}"))
                .unwrap_or_else(|| "-".into());
            let p = ps
                .get(i)
                .map(|&(_, r)| format!("{r:.4}"))
                .unwrap_or_else(|| "-".into());
            println!("{iteration:>10} {b:>14} {p:>14}");
        }
        let mean = |s: &RunStats| {
            if s.iterations.is_empty() {
                0.0
            } else {
                s.iterations.iter().map(|i| i.update_ratio()).sum::<f64>()
                    / s.iterations.len() as f64
            }
        };
        match &basic {
            Some(b) => println!(
                "mean ratio: Basic {:.4} vs Partial {:.4}; total gain evals {} vs {}\n",
                mean(&b.stats),
                mean(&partial.stats),
                b.stats.total_gain_evals,
                partial.stats.total_gain_evals
            ),
            None => println!(
                "mean ratio: Basic skipped (too large) vs Partial {:.4}; Partial evals {}\n",
                mean(&partial.stats),
                partial.stats.total_gain_evals
            ),
        }
    }
    println!("expected shape (paper Fig. 5): Partial's ratio <= Basic's nearly everywhere.");
}
