//! Ablation A1 (DESIGN.md §3.3): gain accounting policy.
//!
//! `GainPolicy::Total` (paper default: data gain minus the model-cost
//! delta) vs `GainPolicy::DataOnly` (raw Eq. 9). DataOnly accepts more
//! merges and shrinks `L(I|M)` further, but grows the code tables; Total
//! is the better *total* description.
//!
//! ```text
//! cargo run --release -p cspm-bench --bin ablation_gain_policy
//! ```

use cspm_bench::{fmt_secs, hr, parse_args};
use cspm_core::{mine, CspmConfig, GainPolicy, Variant};
use cspm_datasets::benchmark_suite;

fn main() {
    let args = parse_args();
    println!(
        "Ablation: gain policy (Total vs DataOnly), scale {:?}, seed {}\n",
        args.scale, args.seed
    );
    println!(
        "{:<22} {:>9} {:>8} {:>12} {:>12} {:>12} {:>10}",
        "Dataset", "policy", "merges", "L(I|M)", "L(M)", "total DL", "time"
    );
    hr(92);
    for d in benchmark_suite(args.scale, args.seed) {
        if d.graph.vertex_count() > 10_000 {
            // keep the ablation affordable: DataOnly accepts many more
            // merges and is slow on the Pokec-scale graph
            continue;
        }
        for policy in [GainPolicy::Total, GainPolicy::DataOnly] {
            let cfg = CspmConfig {
                gain_policy: policy,
                ..Default::default()
            };
            let t = std::time::Instant::now();
            let res = mine(&d.graph, Variant::Partial, cfg);
            let time = t.elapsed().as_secs_f64();
            println!(
                "{:<22} {:>9} {:>8} {:>12.1} {:>12.1} {:>12.1} {:>10}",
                d.name,
                format!("{policy:?}"),
                res.merges,
                res.db.data_cost(),
                res.db.model_cost(),
                res.final_dl,
                fmt_secs(time)
            );
        }
    }
    println!("\nreading: DataOnly minimises column L(I|M); Total minimises column total DL.");
}
