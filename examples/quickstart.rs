//! Quickstart: mine a-stars from the paper's running example (Fig. 1).
//!
//! ```text
//! cargo run --example quickstart
//! ```

use cspm::core::{mine, CspmConfig, Variant};
use cspm::graph::fixtures::paper_example;

fn main() {
    // The Fig. 1 graph: five vertices, attribute values {a, b, c}.
    let (graph, _) = paper_example();
    println!(
        "input graph: {} vertices, {} edges, {} attribute values\n",
        graph.vertex_count(),
        graph.edge_count(),
        graph.attr_count()
    );

    // CSPM is parameter-free: the default config reproduces the paper.
    let result = mine(&graph, Variant::Partial, CspmConfig::default());
    println!(
        "CSPM-Partial: DL {:.2} -> {:.2} bits ({} merges, ratio {:.3})",
        result.initial_dl,
        result.final_dl,
        result.merges,
        result.compression_ratio()
    );
    println!("\nmined a-stars (most informative first):");
    print!("{}", result.model.format_top(graph.attrs(), 10));

    // The Basic variant regenerates all candidates each iteration; it can
    // squeeze out a few extra merges that Partial's rdict heuristic skips
    // (§V), at a much higher cost on large graphs.
    let basic = mine(&graph, Variant::Basic, CspmConfig::default());
    println!(
        "\nCSPM-Basic final DL: {:.2} bits in {} merges (default variant: {:?})",
        basic.final_dl,
        basic.merges,
        Variant::default()
    );
}
