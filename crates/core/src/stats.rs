//! Model summaries for reporting (experiment harness, examples).

use crate::inverted::InvertedDb;
use crate::model::MinedModel;

/// A digest of a converged model, used by the experiment binaries.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSummary {
    /// Number of a-stars (rows) in the model.
    pub n_astars: usize,
    /// Number of coresets `|Sc^M|`.
    pub n_coresets: usize,
    /// Number of distinct live leafsets.
    pub n_leafsets: usize,
    /// Mean leafset size over rows.
    pub mean_leafset_size: f64,
    /// Largest leafset size.
    pub max_leafset_size: usize,
    /// Rows whose leafset has ≥ 2 values (merged patterns).
    pub merged_rows: usize,
    /// `L(I|M)` in bits.
    pub data_bits: f64,
    /// `L(M)` in bits.
    pub model_bits: f64,
    /// Conditional entropy `H(Y|X)` in bits.
    pub conditional_entropy: f64,
}

impl ModelSummary {
    /// Builds the digest from a converged database and its model.
    pub fn new(db: &InvertedDb, model: &MinedModel) -> Self {
        let sizes: Vec<usize> = model
            .astars()
            .iter()
            .map(|m| m.astar.leafset().len())
            .collect();
        let n = sizes.len().max(1);
        Self {
            n_astars: model.len(),
            n_coresets: db.coreset_count(),
            n_leafsets: db.live_leafset_count(),
            mean_leafset_size: sizes.iter().sum::<usize>() as f64 / n as f64,
            max_leafset_size: sizes.iter().copied().max().unwrap_or(0),
            merged_rows: sizes.iter().filter(|&&s| s >= 2).count(),
            data_bits: db.data_cost(),
            model_bits: db.model_cost(),
            conditional_entropy: db.conditional_entropy(),
        }
    }

    /// Total description length.
    pub fn total_bits(&self) -> f64 {
        self.data_bits + self.model_bits
    }
}

impl std::fmt::Display for ModelSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "a-stars: {} ({} merged), coresets: {}, leafsets: {}",
            self.n_astars, self.merged_rows, self.n_coresets, self.n_leafsets
        )?;
        writeln!(
            f,
            "leafset size: mean {:.2}, max {}",
            self.mean_leafset_size, self.max_leafset_size
        )?;
        write!(
            f,
            "L(I|M) = {:.1} bits, L(M) = {:.1} bits, H(Y|X) = {:.3} bits",
            self.data_bits, self.model_bits, self.conditional_entropy
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{mine, CspmConfig, Variant};
    use cspm_graph::fixtures::paper_example;

    #[test]
    fn summary_of_paper_example() {
        let (g, _) = paper_example();
        let res = mine(&g, Variant::Partial, CspmConfig::default());
        let s = ModelSummary::new(&res.db, &res.model);
        assert_eq!(s.n_astars, res.model.len());
        assert_eq!(s.n_coresets, 3);
        assert!(s.merged_rows >= 1);
        assert!(s.max_leafset_size >= 2);
        assert!((s.total_bits() - res.final_dl).abs() < 1e-9);
        assert!(s.conditional_entropy >= 0.0);
        let text = s.to_string();
        assert!(text.contains("a-stars") && text.contains("bits"));
    }

    #[test]
    fn mean_size_of_unmerged_model_is_one() {
        let (g, _) = paper_example();
        let res = mine(
            &g,
            Variant::Partial,
            CspmConfig {
                max_merges: Some(0),
                ..Default::default()
            },
        );
        let s = ModelSummary::new(&res.db, &res.model);
        assert!((s.mean_leafset_size - 1.0).abs() < 1e-12);
        assert_eq!(s.merged_rows, 0);
    }
}
