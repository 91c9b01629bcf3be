//! Ablation A2 (DESIGN.md §4): what the rdict partial-update heuristic
//! costs and buys.
//!
//! CSPM-Partial re-evaluates only rdict-derived pairs after each merge
//! (§V); this binary quantifies (a) the saved gain evaluations, (b) the
//! wall-clock speedup, and (c) the quality gap (final DL and merge count
//! vs CSPM-Basic's exhaustive regeneration).
//!
//! ```text
//! cargo run --release -p cspm-bench --bin ablation_partial_updates
//! ```

use cspm_bench::{fmt_secs, hr, parse_args};
use cspm_core::{mine, CspmConfig, Variant};
use cspm_datasets::benchmark_suite;

fn main() {
    let args = parse_args();
    println!(
        "Ablation: partial updates (Basic vs Partial), scale {:?}, seed {}\n",
        args.scale, args.seed
    );
    println!(
        "{:<22} {:>9} {:>8} {:>13} {:>12} {:>10} {:>9}",
        "Dataset", "variant", "merges", "gain evals", "final DL", "time", "DL gap%"
    );
    hr(92);
    for d in benchmark_suite(args.scale, args.seed) {
        // CSPM-Basic is quadratic in candidates per iteration; on the
        // Pokec-scale graph it is reported as "-" in the paper too.
        if d.graph.vertex_count() > 10_000 {
            continue;
        }
        let t = std::time::Instant::now();
        let basic = mine(&d.graph, Variant::Basic, CspmConfig::instrumented());
        let tb = t.elapsed().as_secs_f64();
        let t = std::time::Instant::now();
        let partial = mine(&d.graph, Variant::Partial, CspmConfig::instrumented());
        let tp = t.elapsed().as_secs_f64();
        let gap = (partial.final_dl / basic.final_dl - 1.0) * 100.0;
        println!(
            "{:<22} {:>9} {:>8} {:>13} {:>12.1} {:>10} {:>9}",
            d.name,
            "Basic",
            basic.merges,
            basic.stats.total_gain_evals,
            basic.final_dl,
            fmt_secs(tb),
            "0.00"
        );
        println!(
            "{:<22} {:>9} {:>8} {:>13} {:>12.1} {:>10} {:>9.2}",
            d.name,
            "Partial",
            partial.merges,
            partial.stats.total_gain_evals,
            partial.final_dl,
            fmt_secs(tp),
            gap
        );
    }
    println!("\nreading: Partial trades a small DL gap (rdict misses some late");
    println!("candidates) for far fewer gain evaluations — the §V optimization.");
}
