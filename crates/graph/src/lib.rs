//! Attributed-graph substrate for the CSPM reproduction.
//!
//! This crate implements the preliminaries of the paper (§III): undirected
//! attributed graphs with nominal attribute values, vertex-adjacency-list
//! representation, stars, extended stars, attribute-stars (a-stars) and
//! their matching/appearance semantics, plus plain-text I/O.
//!
//! The design follows the paper's data model exactly:
//!
//! * a graph `G = (A, λ, V, E)` is a set of vertices, undirected edges, a
//!   set of nominal attribute values `A`, and a relation `λ : V ↦ A`
//!   mapping vertices to (possibly several) attribute values;
//! * graphs are connected and contain no self-loops (checked by
//!   [`AttributedGraph::validate`]);
//! * every tuple of the adjacency list is a [`Star`] whose core is the
//!   vertex and whose leaves are its neighbours.
//!
//! # Quick example
//!
//! ```
//! use cspm_graph::GraphBuilder;
//!
//! let mut b = GraphBuilder::new();
//! let v1 = b.add_vertex(["a"]);
//! let v2 = b.add_vertex(["a", "c"]);
//! b.add_edge(v1, v2).unwrap();
//! let g = b.build().unwrap();
//! assert_eq!(g.vertex_count(), 2);
//! assert_eq!(g.neighbors(v1), &[v2]);
//! ```

mod astar;
mod attrs;
mod builder;
pub mod codec;
pub mod dynamic;
mod error;
pub mod fixtures;
mod graph;
mod io;
pub mod metrics;
mod star;
mod subgraph;

pub use astar::AStar;
pub use attrs::{AttrId, AttrTable};
pub use builder::GraphBuilder;
pub use codec::DecodeError;
pub use error::GraphError;
pub use graph::{AttributedGraph, MappingTable, VertexId};
pub use io::{decode_graph, encode_graph, read_graph, write_graph};
pub use star::{ExtendedStar, Star};
pub use subgraph::{ego_network, induced_subgraph, Subgraph};
