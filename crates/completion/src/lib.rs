//! Node attribute completion (§VI-C, Table IV).
//!
//! Implements the completion task end to end:
//!
//! * [`CompletionTask`]: attribute-missing split of an attributed graph;
//! * six baseline models (NeighAggre, VAE, GCN, GAT, GraphSage, SAT) on
//!   the [`cspm_nn`] substrate, each a simplification of the original
//!   PyTorch implementation that its rustdoc names (e.g. [`Vae`],
//!   [`Gat`]);
//! * the CSPM scoring module (Algorithm 5) and the score-fusion pipeline
//!   of Fig. 7 (normalise both vectors, multiply);
//! * Recall@K and NDCG@K metrics.

mod data;
mod experiment;
mod metrics;
mod models;
mod scoring;

pub use data::CompletionTask;
pub use experiment::{run_completion, CompletionOutcome, ExperimentConfig};
pub use metrics::{ndcg_at_k, rank_top_k, recall_at_k};
pub use models::{all_models, CompletionModel, Gat, Gcn, GraphSage, NeighAggre, Sat, Vae};
pub use scoring::{fuse_row, fuse_scores, CspmScorer};
