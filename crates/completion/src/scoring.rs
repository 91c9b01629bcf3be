//! The CSPM scoring module (Algorithm 5) and score fusion (Fig. 7).

use cspm_core::{mine, CspmConfig, MinedModel, Variant};
use cspm_nn::Matrix;

use crate::data::CompletionTask;

/// Scores attribute values for attribute-missing nodes from the mined
/// a-star model (Algorithm 5).
///
/// For each a-star `S = (Sc, SL)` matching a node's neighbourhood, the
/// candidate core values `Sc` receive the score `cl = −w · L(Scode)`
/// where `w ∈ [1, 2]` grows as the leafset diverges from the observed
/// neighbour attributes (`w = 2 − |SL ∩ N| / |SL|`); each value keeps its
/// maximum score over all a-stars.
#[derive(Debug, Clone)]
pub struct CspmScorer {
    model: MinedModel,
    n_attrs: usize,
}

impl CspmScorer {
    /// Mines the a-star model on the *observed* graph of the task (test
    /// attributes are hidden from the miner — no leakage).
    pub fn fit(task: &CompletionTask) -> Self {
        let observed = task.observed_graph();
        let result = mine(&observed, Variant::Partial, CspmConfig::default());
        Self {
            model: result.model,
            n_attrs: task.graph.attr_count(),
        }
    }

    /// Builds a scorer from an already-mined model.
    pub fn from_model(model: MinedModel, n_attrs: usize) -> Self {
        Self { model, n_attrs }
    }

    /// The underlying mined model.
    pub fn model(&self) -> &MinedModel {
        &self.model
    }

    /// Algorithm 5: scores for all possible attribute values of node `v`.
    /// Values with no supporting a-star keep `-∞`.
    pub fn score_node(&self, task: &CompletionTask, v: cspm_graph::VertexId) -> Vec<f64> {
        let neighbors = task.neighbor_attributes(v);
        let mut scores = vec![f64::NEG_INFINITY; self.n_attrs];
        for mined in self.model.astars() {
            let leafset = mined.astar.leafset();
            let overlap = leafset
                .iter()
                .filter(|a| neighbors.binary_search(a).is_ok())
                .count();
            // Algorithm 5 weighs *every* a-star: zero overlap yields the
            // maximal weight w = 2 (most dissimilar), not a skip, so any
            // core value of any pattern gets at least a frequency-prior
            // score −2·L(Scode).
            let similarity = overlap as f64 / leafset.len() as f64;
            let w = 2.0 - similarity;
            let cl = -w * mined.code_len;
            for &core in mined.astar.coreset() {
                let slot = &mut scores[core as usize];
                if cl > *slot {
                    *slot = cl;
                }
            }
        }
        scores
    }

    /// Score matrix over all nodes (rows for observed nodes are computed
    /// the same way; only test rows are normally consumed).
    pub fn score_all(&self, task: &CompletionTask) -> Matrix {
        let n = task.graph.vertex_count();
        let mut out = Matrix::zeros(n, self.n_attrs);
        for v in 0..n {
            let row = self.score_node(task, v as u32);
            out.row_mut(v).copy_from_slice(&row);
        }
        out
    }
}

/// Fig. 7 fusion: min-max normalise the model probabilities and the CSPM
/// scores per node, then multiply elementwise.
///
/// `-∞` CSPM entries (no pattern evidence) map to a small floor rather
/// than zero so the fusion modulates the model's ranking instead of
/// annihilating it where pattern coverage is incomplete.
pub fn fuse_scores(model_scores: &Matrix, cspm_scores: &Matrix) -> Matrix {
    assert_eq!(model_scores.rows(), cspm_scores.rows());
    assert_eq!(model_scores.cols(), cspm_scores.cols());
    const FLOOR: f64 = 0.05;
    let mut out = Matrix::zeros(model_scores.rows(), model_scores.cols());
    for r in 0..model_scores.rows() {
        let m = normalize_row(model_scores.row(r), 0.0);
        let c = normalize_row(cspm_scores.row(r), FLOOR);
        let dst = out.row_mut(r);
        for i in 0..m.len() {
            dst[i] = m[i] * c[i];
        }
    }
    out
}

/// Min-max normalisation over the finite entries of `row`; non-finite
/// entries map to `floor`. A constant row maps to all-ones (no signal).
fn normalize_row(row: &[f64], floor: f64) -> Vec<f64> {
    let finite: Vec<f64> = row.iter().copied().filter(|x| x.is_finite()).collect();
    if finite.is_empty() {
        return vec![1.0; row.len()];
    }
    let min = finite.iter().copied().fold(f64::INFINITY, f64::min);
    let max = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if (max - min).abs() < 1e-15 {
        return vec![1.0; row.len()];
    }
    row.iter()
        .map(|&x| {
            if x.is_finite() {
                floor + (1.0 - floor) * (x - min) / (max - min)
            } else {
                floor
            }
        })
        .collect()
}

/// Convenience: `normalize(model) ⊙ normalize(cspm)` restricted to one
/// node row.
pub fn fuse_row(model_row: &[f64], cspm_row: &[f64]) -> Vec<f64> {
    let m = normalize_row(model_row, 0.0);
    let c = normalize_row(cspm_row, 0.05);
    m.iter().zip(&c).map(|(&a, &b)| a * b).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::recall_at_k;
    use cspm_datasets::{citation_completion, CompletionKind, Scale};

    fn task() -> CompletionTask {
        let d = citation_completion(CompletionKind::Cora, Scale::Tiny, 3);
        CompletionTask::split(&d.graph, 0.4, 9)
    }

    #[test]
    fn scorer_produces_useful_rankings() {
        let t = task();
        let scorer = CspmScorer::fit(&t);
        assert!(!scorer.model().is_empty());
        // The CSPM scores alone should beat random ranking on average.
        let mut cspm_recall = 0.0;
        let mut random_recall = 0.0;
        let k = 10;
        for &v in &t.test_nodes {
            let row = scorer.score_node(&t, v);
            cspm_recall += recall_at_k(&row, t.truth(v), k);
            random_recall += k as f64 / t.graph.attr_count() as f64; // expected random
        }
        assert!(
            cspm_recall > random_recall,
            "cspm {cspm_recall} vs random {random_recall}"
        );
    }

    #[test]
    fn normalize_row_handles_edge_cases() {
        assert_eq!(normalize_row(&[], 0.0), Vec::<f64>::new());
        assert_eq!(normalize_row(&[2.0, 2.0], 0.0), vec![1.0, 1.0]);
        let n = normalize_row(&[0.0, 1.0, f64::NEG_INFINITY], 0.05);
        assert!((n[0] - 0.05).abs() < 1e-12);
        assert!((n[1] - 1.0).abs() < 1e-12);
        assert!((n[2] - 0.05).abs() < 1e-12);
    }

    #[test]
    fn fusion_shape_and_bounds() {
        let a = Matrix::from_vec(2, 3, vec![0.1, 0.9, 0.5, 0.2, 0.4, 0.6]);
        let b = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        let f = fuse_scores(&a, &b);
        assert_eq!(f.rows(), 2);
        assert!(f.data().iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn fusion_preserves_agreeing_top_item() {
        // When both rankings agree on the best item, fusion keeps it.
        let m = [0.9, 0.5, 0.1];
        let c = [10.0, 1.0, 0.0];
        let f = fuse_row(&m, &c);
        assert!(f[0] > f[1] && f[1] > f[2]);
    }
}
