//! Social-network pattern analysis (the paper's Pokec scenario,
//! §VI-B(3)): discover music-taste a-stars such as
//! `({rap}, {rock, metal, pop, sladaky})` from friendship data.
//!
//! ```text
//! cargo run --release --example social_network
//! ```

use cspm::core::{mine, CspmConfig, Variant};
use cspm::datasets::{pokec_like, Scale};

fn main() {
    let dataset = pokec_like(Scale::Tiny, 2022);
    let g = &dataset.graph;
    println!(
        "{}: {} users, {} friendships, {} genres",
        dataset.name,
        g.vertex_count(),
        g.edge_count(),
        g.attr_count()
    );

    let result = mine(g, Variant::Partial, CspmConfig::default());
    println!(
        "mined {} a-stars ({} merges), DL {:.0} -> {:.0} bits\n",
        result.model.len(),
        result.merges,
        result.initial_dl,
        result.final_dl
    );

    // Show the summarising patterns (merged leafsets) first — these are
    // the taste communities.
    println!("top taste patterns (leafsets with >= 2 genres):");
    for m in result.model.non_trivial(2).take(8) {
        println!(
            "  {}  fL={} L={:.2} bits",
            m.astar.display(g.attrs()),
            m.frequency,
            m.code_len
        );
    }

    // Check that the planted young-listener cluster was rediscovered.
    let rap = g.attrs().get("rap").expect("genre exists");
    let found = result
        .model
        .non_trivial(2)
        .any(|m| m.astar.coreset().contains(&rap) || m.astar.leafset().contains(&rap));
    println!(
        "\nplanted 'rap' taste cluster rediscovered: {}",
        if found { "yes" } else { "no" }
    );
}
