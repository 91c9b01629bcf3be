//! Fig. 6 + §VI-B: example a-stars mined from DBLP, DBLP-Trend, USFlight
//! and Pokec — the pattern-analysis experiment.
//!
//! The shape to reproduce: venue patterns cluster by research area
//! (Fig. 6(a)–(b)), flight patterns pair `NbDepart-` cores with
//! `NbDepart+`/`DelayArriv-` leaves (§VI-B(2)), and music patterns bundle
//! the young/old taste communities (Fig. 6(c)).
//!
//! ```text
//! cargo run --release -p cspm-bench --bin fig6_patterns [--paper]
//! ```

use cspm_bench::parse_args;
use cspm_core::{mine, CspmConfig, Variant};
use cspm_datasets::benchmark_suite;

fn main() {
    let args = parse_args();
    println!(
        "Fig. 6: example a-stars (scale {:?}, seed {})\n",
        args.scale, args.seed
    );
    for d in benchmark_suite(args.scale, args.seed) {
        let g = &d.graph;
        let result = mine(g, Variant::Partial, CspmConfig::default());
        println!(
            "== {} == ({} a-stars, {} merges, ratio {:.3})",
            d.name,
            result.model.len(),
            result.merges,
            result.compression_ratio()
        );
        for m in result.model.non_trivial(2).take(6) {
            println!(
                "  {}  fL={} L={:.2} bits",
                m.astar.display(g.attrs()),
                m.frequency,
                m.code_len
            );
        }
        println!();
    }
    println!("paper reference: ({{ICDM,EDBT}},{{PODS,ICDM,EDBT}}) on DBLP;");
    println!("({{NbDepart-}},{{NbDepart+,DelayArriv-}}) on USFlight;");
    println!("({{rap}},{{rock,metal,pop,sladaky}}) and ({{disko}},{{oldies,disko}}) on Pokec.");
}
