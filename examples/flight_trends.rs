//! Flight-network trend analysis (the paper's USFlight scenario,
//! §VI-B(2)): rediscover the planted a-star
//! `({NbDepart-}, {NbDepart+, DelayArriv-})` — when an airport reduces
//! departures, connected airports absorb the traffic and their arrival
//! delays drop.
//!
//! ```text
//! cargo run --release --example flight_trends
//! ```

use cspm::core::{mine, CspmConfig, Variant};
use cspm::datasets::{usflight_like, Scale};

fn main() {
    let dataset = usflight_like(Scale::Paper, 5);
    let g = &dataset.graph;
    println!(
        "{}: {} airports, {} routes, {} trend indicators",
        dataset.name,
        g.vertex_count(),
        g.edge_count(),
        g.attr_count()
    );

    let result = mine(g, Variant::Partial, CspmConfig::default());
    println!(
        "DL {:.0} -> {:.0} bits in {} merges; {} a-stars\n",
        result.initial_dl,
        result.final_dl,
        result.merges,
        result.model.len()
    );

    println!("top trend patterns:");
    for m in result.model.non_trivial(2).take(6) {
        println!(
            "  {}  fL={} L={:.2}",
            m.astar.display(g.attrs()),
            m.frequency,
            m.code_len
        );
    }

    // Look for the planted correlation among the mined patterns.
    let dep_minus = g.attrs().get("NbDepart-");
    let dep_plus = g.attrs().get("NbDepart+");
    let delay_minus = g.attrs().get("DelayArriv-");
    if let (Some(dm), Some(dp), Some(da)) = (dep_minus, dep_plus, delay_minus) {
        let hit = result.model.astars().iter().find(|m| {
            m.astar.coreset().contains(&dm)
                && m.astar.leafset().contains(&dp)
                && m.astar.leafset().contains(&da)
        });
        match hit {
            Some(m) => println!(
                "\nplanted pattern found: {}  (L = {:.2} bits)",
                m.astar.display(g.attrs()),
                m.code_len
            ),
            None => println!("\nplanted pattern not merged into one a-star on this seed"),
        }
    }
}
