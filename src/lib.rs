//! # CSPM — Compressing Star Pattern Miner
//!
//! A complete Rust reproduction of *"Discovering Representative
//! Attribute-stars via Minimum Description Length"* (Liu, Zhou,
//! Fournier-Viger, Yang, Pan, Nouioua — ICDE 2022).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`graph`] | `cspm-graph` | attributed graphs, stars, a-stars, I/O |
//! | [`mdl`] | `cspm-mdl` | code tables, entropy, universal codes |
//! | [`itemset`] | `cspm-itemset` | transactions, Eclat, Krimp, SLIM |
//! | [`core`] | `cspm-core` | the CSPM mining engine: flat posting store, candidate scheduler, Basic/Partial variants |
//! | [`datasets`] | `cspm-datasets` | seeded benchmark generators |
//! | [`nn`] | `cspm-nn` | minimal neural-network substrate |
//! | [`completion`] | `cspm-completion` | node attribute completion (Table IV) |
//! | [`alarm`] | `cspm-alarm` | telecom alarm correlation (Fig. 8) + compression |
//! | [`classify`] | `cspm-classify` | graph classification with a-star features (future work §VII) |
//! | [`serve`] | `cspm-serve` | multi-tenant mining daemon: line-JSON protocol, registry, eviction |
//! | [`store`] | `cspm-store` | durable sessions: snapshot + delta WAL, fault injection |
//! | [`telemetry`] | `cspm-telemetry` | lock-free metrics registry + Prometheus exposition |
//!
//! ## Quickstart
//!
//! ```
//! use cspm::core::{mine, CspmConfig, Variant};
//! use cspm::graph::GraphBuilder;
//!
//! // A toy social network: smokers' friends tend to smoke.
//! let mut b = GraphBuilder::new();
//! let mut prev = None;
//! for _ in 0..8 {
//!     let hub = b.add_vertex(["smoker"]);
//!     let friend = b.add_vertex(["smoker", "runner"]);
//!     b.add_edge(hub, friend).unwrap();
//!     if let Some(p) = prev {
//!         b.add_edge(p, hub).unwrap();
//!     }
//!     prev = Some(hub);
//! }
//! let g = b.build().unwrap();
//!
//! // Parameter-free mining: the model is the set of a-stars that best
//! // compress the graph.
//! let result = mine(&g, Variant::Partial, CspmConfig::default());
//! assert!(result.final_dl <= result.initial_dl);
//! for pattern in result.model.astars().iter().take(5) {
//!     println!("{}  ({:.2} bits)", pattern.astar.display(g.attrs()), pattern.code_len);
//! }
//! ```

pub use cspm_alarm as alarm;
pub use cspm_classify as classify;
pub use cspm_completion as completion;
pub use cspm_core as core;
pub use cspm_datasets as datasets;
pub use cspm_graph as graph;
pub use cspm_itemset as itemset;
pub use cspm_mdl as mdl;
pub use cspm_nn as nn;
pub use cspm_serve as serve;
pub use cspm_store as store;
pub use cspm_telemetry as telemetry;
