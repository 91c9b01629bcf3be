//! The six completion baselines of Table IV.
//!
//! All models output an `n × |A|` score matrix; higher = more likely the
//! node carries the attribute value. The neural models are faithful
//! simplifications on the [`cspm_nn`] substrate:
//!
//! * **NeighAggre** — parameterless neighbourhood aggregation
//!   (Şimşek & Jensen, PNAS 2008): mean of observed neighbour rows.
//! * **VAE** — autoencoder on observed rows; attribute-missing rows
//!   decode from a zero input, so it mainly learns attribute priors
//!   (hence its weak Table IV showing).
//! * **GCN** — two propagation layers over `D⁻¹(A+I)`.
//! * **GAT** — propagation with feature-similarity attention weights
//!   (attention computed from observed features, fixed during training —
//!   a linearised single-head approximation).
//! * **GraphSage** — mean aggregator with an explicit self channel
//!   (`½ self + ½ neighbour-mean`).
//! * **SAT** — structure-attribute joint model: the input is the
//!   concatenation `[X ‖ ÂX]` so attribute-missing nodes still carry a
//!   structure-derived encoding, the published core idea of SAT.

use cspm_nn::{Matrix, NetConfig, SparseMatrix, TwoLayerNet};

use crate::data::CompletionTask;

/// A node attribute completion model.
pub trait CompletionModel {
    /// Display name used in Table IV.
    fn name(&self) -> &'static str;
    /// Scores every `(node, attribute)` pair; higher = more likely.
    fn predict(&self, task: &CompletionTask) -> Matrix;
}

fn neighbor_lists(task: &CompletionTask) -> Vec<Vec<u32>> {
    task.graph
        .vertices()
        .map(|v| task.graph.neighbors(v).to_vec())
        .collect()
}

/// Parameterless neighbour aggregation.
#[derive(Debug, Default, Clone, Copy)]
pub struct NeighAggre;

impl CompletionModel for NeighAggre {
    fn name(&self) -> &'static str {
        "NeighAggre"
    }

    fn predict(&self, task: &CompletionTask) -> Matrix {
        let p = SparseMatrix::normalized_adjacency(&neighbor_lists(task), 0.0);
        p.spmm(&task.x_observed)
    }
}

/// Autoencoder (VAE simplified to its deterministic reconstruction core).
#[derive(Debug, Clone, Copy)]
pub struct Vae(pub NetConfig);

impl CompletionModel for Vae {
    fn name(&self) -> &'static str {
        "VAE"
    }

    fn predict(&self, task: &CompletionTask) -> Matrix {
        let mut net = TwoLayerNet::new(
            task.x_observed.cols(),
            self.0.hidden,
            task.x_observed.cols(),
            self.0.seed,
        );
        net.fit(
            &task.x_observed,
            &task.targets,
            &task.train_mask,
            None,
            None,
            &self.0,
        );
        net.forward(&task.x_observed, None, None)
    }
}

/// Two-layer GCN.
#[derive(Debug, Clone, Copy)]
pub struct Gcn(pub NetConfig);

impl CompletionModel for Gcn {
    fn name(&self) -> &'static str {
        "GCN"
    }

    fn predict(&self, task: &CompletionTask) -> Matrix {
        let p = SparseMatrix::normalized_adjacency(&neighbor_lists(task), 1.0);
        let mut net = TwoLayerNet::new(
            task.x_observed.cols(),
            self.0.hidden,
            task.x_observed.cols(),
            self.0.seed,
        );
        net.fit(
            &task.x_observed,
            &task.targets,
            &task.train_mask,
            Some(&p),
            Some(&p),
            &self.0,
        );
        net.forward(&task.x_observed, Some(&p), Some(&p))
    }
}

/// Graph attention (linearised single head).
#[derive(Debug, Clone, Copy)]
pub struct Gat(pub NetConfig);

impl Gat {
    /// Attention operator: softmax over neighbours of the dot-product
    /// similarity between observed attribute rows, with a self loop.
    fn attention(task: &CompletionTask) -> SparseMatrix {
        let g = &task.graph;
        let x = &task.x_observed;
        let rows: Vec<Vec<(u32, f64)>> = g
            .vertices()
            .map(|v| {
                let mut entries: Vec<(u32, f64)> = Vec::with_capacity(g.degree(v) + 1);
                let sim = |u: u32| -> f64 {
                    x.row(v as usize)
                        .iter()
                        .zip(x.row(u as usize))
                        .map(|(&a, &b)| a * b)
                        .sum::<f64>()
                };
                entries.push((v, 1.0)); // self attention logit exp(0)=1
                for &u in g.neighbors(v) {
                    // LeakyReLU(sim) then exp; sim >= 0 for binary rows.
                    entries.push((u, (sim(u).min(8.0)).exp()));
                }
                let z: f64 = entries.iter().map(|(_, w)| w).sum();
                entries.iter().map(|&(u, w)| (u, w / z)).collect()
            })
            .collect();
        SparseMatrix::from_rows(g.vertex_count(), &rows)
    }
}

impl CompletionModel for Gat {
    fn name(&self) -> &'static str {
        "GAT"
    }

    fn predict(&self, task: &CompletionTask) -> Matrix {
        let p = Self::attention(task);
        let mut net = TwoLayerNet::new(
            task.x_observed.cols(),
            self.0.hidden,
            task.x_observed.cols(),
            self.0.seed,
        );
        net.fit(
            &task.x_observed,
            &task.targets,
            &task.train_mask,
            Some(&p),
            Some(&p),
            &self.0,
        );
        net.forward(&task.x_observed, Some(&p), Some(&p))
    }
}

/// GraphSage with a mean aggregator.
#[derive(Debug, Clone, Copy)]
pub struct GraphSage(pub NetConfig);

impl GraphSage {
    /// `½·self + ½·neighbour-mean` aggregation.
    fn aggregator(task: &CompletionTask) -> SparseMatrix {
        let g = &task.graph;
        let rows: Vec<Vec<(u32, f64)>> = g
            .vertices()
            .map(|v| {
                let deg = g.degree(v);
                let mut row = vec![(v, if deg == 0 { 1.0 } else { 0.5 })];
                row.extend(g.neighbors(v).iter().map(|&u| (u, 0.5 / deg as f64)));
                row
            })
            .collect();
        SparseMatrix::from_rows(g.vertex_count(), &rows)
    }
}

impl CompletionModel for GraphSage {
    fn name(&self) -> &'static str {
        "GraphSage"
    }

    fn predict(&self, task: &CompletionTask) -> Matrix {
        let p = Self::aggregator(task);
        let mut net = TwoLayerNet::new(
            task.x_observed.cols(),
            self.0.hidden,
            task.x_observed.cols(),
            self.0.seed,
        );
        net.fit(
            &task.x_observed,
            &task.targets,
            &task.train_mask,
            Some(&p),
            Some(&p),
            &self.0,
        );
        net.forward(&task.x_observed, Some(&p), Some(&p))
    }
}

/// SAT-style structure-attribute model.
#[derive(Debug, Clone, Copy)]
pub struct Sat(pub NetConfig);

impl Sat {
    fn augmented_input(task: &CompletionTask, p: &SparseMatrix) -> Matrix {
        let prop = p.spmm(&task.x_observed);
        let n = task.x_observed.rows();
        let a = task.x_observed.cols();
        let mut out = Matrix::zeros(n, 2 * a);
        for r in 0..n {
            out.row_mut(r)[..a].copy_from_slice(task.x_observed.row(r));
            out.row_mut(r)[a..].copy_from_slice(prop.row(r));
        }
        out
    }
}

impl CompletionModel for Sat {
    fn name(&self) -> &'static str {
        "SAT"
    }

    fn predict(&self, task: &CompletionTask) -> Matrix {
        let p = SparseMatrix::normalized_adjacency(&neighbor_lists(task), 1.0);
        let x = Self::augmented_input(task, &p);
        let mut net = TwoLayerNet::new(x.cols(), self.0.hidden, task.targets.cols(), self.0.seed);
        net.fit(
            &x,
            &task.targets,
            &task.train_mask,
            Some(&p),
            Some(&p),
            &self.0,
        );
        net.forward(&x, Some(&p), Some(&p))
    }
}

/// All six baselines, in the paper's Table IV order.
pub fn all_models(cfg: NetConfig) -> Vec<Box<dyn CompletionModel>> {
    vec![
        Box::new(NeighAggre),
        Box::new(Vae(cfg)),
        Box::new(Gcn(cfg)),
        Box::new(Gat(cfg)),
        Box::new(GraphSage(cfg)),
        Box::new(Sat(cfg)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use cspm_datasets::{citation_completion, CompletionKind, Scale};

    fn task() -> CompletionTask {
        let d = citation_completion(CompletionKind::Cora, Scale::Tiny, 3);
        CompletionTask::split(&d.graph, 0.4, 9)
    }

    fn quick_cfg() -> NetConfig {
        NetConfig {
            hidden: 24,
            epochs: 150,
            ..Default::default()
        }
    }

    #[test]
    fn neighaggre_averages_observed_neighbours() {
        let t = task();
        let scores = NeighAggre.predict(&t);
        assert_eq!(scores.rows(), t.graph.vertex_count());
        assert_eq!(scores.cols(), t.graph.attr_count());
        // Scores are convex combinations of 0/1 rows.
        assert!(scores
            .data()
            .iter()
            .all(|&s| (0.0..=1.0 + 1e-9).contains(&s)));
    }

    #[test]
    fn all_models_produce_full_score_matrices() {
        let t = task();
        for model in all_models(quick_cfg()) {
            let s = model.predict(&t);
            assert_eq!(s.rows(), t.graph.vertex_count(), "{}", model.name());
            assert_eq!(s.cols(), t.graph.attr_count(), "{}", model.name());
            assert!(s.data().iter().all(|v| v.is_finite()), "{}", model.name());
        }
    }

    #[test]
    fn gat_attention_rows_are_distributions() {
        let t = task();
        let p = Gat::attention(&t);
        for r in 0..p.n_rows() {
            let sum: f64 = p.row(r).map(|(_, v)| v).sum();
            assert!((sum - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn gcn_beats_vae_on_homophilous_data() {
        // Structural sanity: with hidden test rows, propagation models see
        // neighbour evidence while the autoencoder sees zeros.
        use crate::metrics::recall_at_k;
        let t = task();
        let gcn = Gcn(quick_cfg()).predict(&t);
        let vae = Vae(quick_cfg()).predict(&t);
        let eval = |scores: &Matrix| {
            let mut total = 0.0;
            for &v in &t.test_nodes {
                total += recall_at_k(scores.row(v as usize), t.truth(v), 10);
            }
            total / t.test_nodes.len() as f64
        };
        assert!(
            eval(&gcn) > eval(&vae),
            "gcn {} should beat vae {}",
            eval(&gcn),
            eval(&vae)
        );
    }
}
