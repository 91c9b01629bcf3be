//! Feature extraction: a-star occurrence counts vs attribute histograms.

use cspm_core::{mine, CspmConfig, MinedModel, Variant};
use cspm_graph::dynamic::SnapshotSequence;
use cspm_graph::{AStar, AttrTable, AttributedGraph};
use cspm_nn::Matrix;

/// Featurizes graphs by the occurrence counts of mined a-stars.
///
/// The featurizer is *fitted* on training graphs only: CSPM runs on
/// their disjoint union, and the `top_k` most informative a-stars
/// (shortest codes) become feature dimensions. Applying it to a graph
/// counts each pattern's matching vertices, normalised by vertex count.
#[derive(Debug, Clone)]
pub struct AStarFeaturizer {
    patterns: Vec<AStar>,
    attrs: AttrTable,
}

impl AStarFeaturizer {
    /// Mines the union of `train` graphs and keeps the `top_k` patterns.
    pub fn fit(train: &[AttributedGraph], top_k: usize) -> Self {
        let seq: SnapshotSequence = train.iter().cloned().collect();
        let union = seq.union_graph();
        let result = mine(&union, Variant::Partial, CspmConfig::default());
        Self::from_model(&result.model, union.attrs().clone(), top_k)
    }

    /// Builds the featurizer from an existing model.
    pub fn from_model(model: &MinedModel, attrs: AttrTable, top_k: usize) -> Self {
        let patterns = model
            .astars()
            .iter()
            .take(top_k)
            .map(|m| m.astar.clone())
            .collect();
        Self { patterns, attrs }
    }

    /// Number of feature dimensions.
    pub fn dim(&self) -> usize {
        self.patterns.len()
    }

    /// The patterns serving as features.
    pub fn patterns(&self) -> &[AStar] {
        &self.patterns
    }

    /// Featurizes one graph. The graph's attribute values are reconciled
    /// with the training attribute table **by name**; unseen values
    /// simply never match.
    pub fn transform_one(&self, g: &AttributedGraph) -> Vec<f64> {
        // Remap pattern attr ids into g's id space (by name).
        let remap: Vec<Option<u32>> = (0..self.attrs.len() as u32)
            .map(|a| self.attrs.name(a).and_then(|n| g.attrs().get(n)))
            .collect();
        let n = g.vertex_count().max(1) as f64;
        self.patterns
            .iter()
            .map(|p| {
                let core: Option<Vec<u32>> =
                    p.coreset().iter().map(|&a| remap[a as usize]).collect();
                let leaf: Option<Vec<u32>> =
                    p.leafset().iter().map(|&a| remap[a as usize]).collect();
                match (core, leaf) {
                    (Some(c), Some(l)) => AStar::new(c, l).support(g) as f64 / n,
                    _ => 0.0, // pattern uses a value absent from this graph
                }
            })
            .collect()
    }

    /// Featurizes a collection into a matrix (one row per graph).
    pub fn transform(&self, graphs: &[AttributedGraph]) -> Matrix {
        let mut out = Matrix::zeros(graphs.len(), self.dim());
        for (i, g) in graphs.iter().enumerate() {
            out.row_mut(i).copy_from_slice(&self.transform_one(g));
        }
        out
    }
}

/// Structure-blind baseline: per-graph attribute-value frequency
/// histogram over a shared vocabulary (by name), normalised by vertex
/// count.
pub fn histogram_features(graphs: &[AttributedGraph], vocab: &AttrTable) -> Matrix {
    let mut out = Matrix::zeros(graphs.len(), vocab.len());
    for (i, g) in graphs.iter().enumerate() {
        let n = g.vertex_count().max(1) as f64;
        let row = out.row_mut(i);
        for v in g.vertices() {
            for &a in g.labels(v) {
                if let Some(id) = g.attrs().name(a).and_then(|nm| vocab.get(nm)) {
                    row[id as usize] += 1.0 / n;
                }
            }
        }
    }
    out
}

/// Builds a shared vocabulary over a collection (by name).
pub fn shared_vocabulary(graphs: &[AttributedGraph]) -> AttrTable {
    let mut vocab = AttrTable::new();
    for g in graphs {
        for (_, name) in g.attrs().iter() {
            vocab.intern(name);
        }
    }
    vocab
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{labeled_graph_collection, CollectionConfig};

    #[test]
    fn featurizer_produces_meaningful_counts() {
        let c = labeled_graph_collection(2, CollectionConfig::default());
        let f = AStarFeaturizer::fit(&c.graphs[..10], 16);
        assert!(f.dim() > 0 && f.dim() <= 16);
        let x = f.transform(&c.graphs);
        assert_eq!(x.rows(), c.graphs.len());
        // Features are normalised occurrence rates.
        assert!(x.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
        // At least one feature separates the classes in the mean.
        let mean = |class: usize, dim: usize| {
            let rows: Vec<usize> = (0..c.graphs.len())
                .filter(|&i| c.labels[i] == class)
                .collect();
            rows.iter().map(|&r| x.get(r, dim)).sum::<f64>() / rows.len() as f64
        };
        let separated = (0..f.dim()).any(|d| (mean(0, d) - mean(1, d)).abs() > 0.02);
        assert!(separated, "no a-star feature separates the classes");
    }

    #[test]
    fn histogram_features_are_structure_blind() {
        let c = labeled_graph_collection(2, CollectionConfig::default());
        let vocab = shared_vocabulary(&c.graphs);
        let h = histogram_features(&c.graphs, &vocab);
        assert_eq!(h.cols(), vocab.len());
        assert!(h.data().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn unseen_attribute_values_yield_zero() {
        let c = labeled_graph_collection(2, CollectionConfig::default());
        let f = AStarFeaturizer::fit(&c.graphs[..4], 8);
        // A graph with a disjoint vocabulary matches nothing.
        let mut b = cspm_graph::GraphBuilder::new();
        let u = b.add_vertex(["zzz"]);
        let v = b.add_vertex(["yyy"]);
        b.add_edge(u, v).unwrap();
        let g = b.build().unwrap();
        assert!(f.transform_one(&g).iter().all(|&x| x == 0.0));
    }
}
