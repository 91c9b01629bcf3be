//! Benchmark datasets for the CSPM reproduction: seeded synthetic
//! generators, and (behind the `real-data` feature) streaming loaders
//! for the paper's real dataset dumps.
//!
//! The paper evaluates on DBLP, DBLP-Trend, USFlight and Pokec (Table II)
//! plus Cora/Citeseer/DBLP for node attribute completion (Table IV). We
//! do not ship those datasets; instead each generator produces a graph
//! with the same *scale* (vertices, edges, attribute universe) and the
//! same *structural property the experiments rely on*: attribute values
//! of neighbouring vertices are correlated through planted a-star-style
//! rules, layered with noise. All generators are deterministic given a
//! seed.
//!
//! To mine the *actual* dumps, enable `real-data` and use the `ingest`
//! module: it streams SNAP-style Pokec, DBLP co-authorship CSV and
//! USFlight route/attribute tables into the graph builder
//! (`docs/FORMATS.md` specifies the inputs).
//!
//! # Example
//!
//! ```
//! use cspm_datasets::{dblp_like, Scale};
//! let d = dblp_like(Scale::Small, 7);
//! assert!(d.graph.is_connected());
//! assert!(d.graph.vertex_count() > 100);
//! ```

mod citation;
mod completion_nets;
mod flight;
#[cfg(feature = "real-data")]
pub mod ingest;
mod io;
mod planted;
mod social;
mod util;

pub use citation::{dblp_like, dblp_trend_like};
pub use completion_nets::{citation_completion, CompletionDataset, CompletionKind};
pub use flight::usflight_like;
pub use io::save_dataset;
pub use planted::{planted_astars, PlantedConfig, PlantedTruth};
pub use social::pokec_like;

use cspm_graph::AttributedGraph;

/// Generation scale. `Paper` matches Table II's node/edge counts;
/// `Small` is a fast CI-friendly reduction with the same structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Scale used in the paper's Table II.
    Paper,
    /// ~10× smaller, same generative structure.
    Small,
    /// Tiny graphs for unit tests.
    Tiny,
}

/// A generated benchmark dataset.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Human-readable name (e.g. `"DBLP(synthetic)"`).
    pub name: &'static str,
    /// Category column of Table II.
    pub category: &'static str,
    /// The attributed graph.
    pub graph: AttributedGraph,
}

impl Dataset {
    /// Table II statistics: `(#nodes, #edges, |A|)`.
    pub fn statistics(&self) -> (usize, usize, usize) {
        (
            self.graph.vertex_count(),
            self.graph.edge_count(),
            self.graph.attr_count(),
        )
    }
}

/// The four Table II benchmark datasets at the requested scale.
/// Pokec at `Scale::Paper` is very large (1.6M vertices); prefer
/// `Scale::Small` unless reproducing the full runtime table.
pub fn benchmark_suite(scale: Scale, seed: u64) -> Vec<Dataset> {
    vec![
        dblp_like(scale, seed),
        dblp_trend_like(scale, seed.wrapping_add(1)),
        usflight_like(scale, seed.wrapping_add(2)),
        pokec_like(scale, seed.wrapping_add(3)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_four_connected_datasets() {
        let suite = benchmark_suite(Scale::Tiny, 42);
        assert_eq!(suite.len(), 4);
        for d in &suite {
            assert!(d.graph.is_connected(), "{} must be connected", d.name);
            assert!(d.graph.attr_count() > 0);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = dblp_like(Scale::Tiny, 9);
        let b = dblp_like(Scale::Tiny, 9);
        assert_eq!(a.graph, b.graph);
        let c = dblp_like(Scale::Tiny, 10);
        assert_ne!(a.graph, c.graph);
    }
}
