//! Table III: runtime comparison — SLIM vs CSPM-Basic vs CSPM-Partial on
//! the four benchmark datasets.
//!
//! The paper's shape to reproduce: CSPM-Basic ≈ 10× slower than SLIM;
//! CSPM-Partial much faster than CSPM-Basic (orders of magnitude on the
//! largest dataset, where Basic did not even terminate within 48h — we
//! likewise cap Basic with a merge budget on Pokec-scale input and
//! report `-`).
//!
//! ```text
//! cargo run --release -p cspm-bench --bin table3_runtime [--paper]
//! ```

use std::time::Instant;

use cspm_bench::{fmt_secs, hr, parse_args};
use cspm_core::{mine, CspmConfig, Variant};
use cspm_datasets::benchmark_suite;
use cspm_graph::AttributedGraph;
use cspm_itemset::{slim, SlimConfig, TransactionDb};

/// The paper's SLIM-on-graphs protocol: one transaction per adjacency
/// tuple, containing the vertex's and its neighbours' attribute values.
fn graph_transactions(g: &AttributedGraph) -> TransactionDb {
    let rows = g
        .vertices()
        .map(|v| {
            let mut t: Vec<u32> = g.labels(v).to_vec();
            for &u in g.neighbors(v) {
                t.extend_from_slice(g.labels(u));
            }
            t
        })
        .collect();
    TransactionDb::with_item_universe(rows, g.attr_count())
}

fn main() {
    let args = parse_args();
    println!(
        "Table III: Runtime comparison (scale {:?}, seed {})\n",
        args.scale, args.seed
    );
    println!(
        "{:<22} {:>12} {:>14} {:>14} {:>9} {:>9}",
        "Dataset", "SLIM", "CSPM-Basic", "CSPM-Partial", "merges-B", "merges-P"
    );
    hr(86);

    // Beyond these sizes the quadratic algorithms are reported as "-",
    // mirroring the paper's own "-" for CSPM-Basic on Pokec (it did not
    // terminate within 48 h; SLIM needed 46 h there). CSPM-Partial runs
    // everywhere — that asymmetry *is* the Table III result.
    const BASIC_VERTEX_CAP: usize = 10_000;
    const SLIM_VERTEX_CAP: usize = 10_000;

    for d in benchmark_suite(args.scale, args.seed) {
        let g = &d.graph;

        let slim_cell = if g.vertex_count() <= SLIM_VERTEX_CAP {
            let t = Instant::now();
            let s = slim(&graph_transactions(g), SlimConfig::default());
            let _ = s;
            fmt_secs(t.elapsed().as_secs_f64())
        } else {
            "-".to_owned()
        };

        let (basic_cell, merges_b) = if g.vertex_count() <= BASIC_VERTEX_CAP {
            let t = Instant::now();
            let b = mine(g, Variant::Basic, CspmConfig::default());
            (fmt_secs(t.elapsed().as_secs_f64()), b.merges.to_string())
        } else {
            ("-".to_owned(), "-".to_owned())
        };

        let t = Instant::now();
        let p = mine(g, Variant::Partial, CspmConfig::default());
        let partial_time = t.elapsed().as_secs_f64();

        println!(
            "{:<22} {:>12} {:>14} {:>14} {:>9} {:>9}",
            d.name,
            slim_cell,
            basic_cell,
            fmt_secs(partial_time),
            merges_b,
            p.merges
        );
    }
    println!();
    println!("paper reference (Table III, seconds): DBLP 4.69/43.13/0.98;");
    println!("DBLP-Trend 48.69/956.61/25.46; USFlight 1.25/10.16/1.43;");
    println!("Pokec 166,678.3/-/1,403.21");
}
