//! The attributed graph itself.

use crate::attrs::{AttrId, AttrTable};
use crate::error::GraphError;
use crate::star::Star;

/// Dense vertex identifier.
pub type VertexId = u32;

/// An undirected attributed graph `G = (A, λ, V, E)` (§III).
///
/// Construction goes through [`crate::GraphBuilder`] or
/// [`Self::from_edge_list`]; the built graph is immutable, with sorted,
/// deduplicated neighbour lists and sorted attribute-value lists per
/// vertex.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttributedGraph {
    pub(crate) adjacency: Vec<Vec<VertexId>>,
    pub(crate) labels: Vec<Vec<AttrId>>,
    pub(crate) attrs: AttrTable,
    pub(crate) edge_count: usize,
}

impl AttributedGraph {
    /// Bulk constructor: takes per-vertex attribute lists, the interner
    /// that produced them, and an edge list. Labels and edges are
    /// deduplicated (an edge may come as `(u, v)`, `(v, u)` or both);
    /// the first self-loop or out-of-range endpoint in iteration order
    /// is the error. [`crate::read_graph`], the generators, the binary
    /// codec and the subgraph helpers build through it; it sorts each
    /// list once where [`crate::GraphBuilder`] keeps ordered sets.
    pub fn from_edge_list(
        labels: Vec<Vec<AttrId>>,
        attrs: AttrTable,
        edges: impl IntoIterator<Item = (VertexId, VertexId)>,
    ) -> Result<Self, GraphError> {
        let n = labels.len();
        let mut adjacency: Vec<Vec<VertexId>> = vec![Vec::new(); n];
        for (u, v) in edges {
            if u == v {
                return Err(GraphError::SelfLoop(u));
            }
            if u as usize >= n {
                return Err(GraphError::UnknownVertex(u));
            }
            if v as usize >= n {
                return Err(GraphError::UnknownVertex(v));
            }
            adjacency[u as usize].push(v);
            adjacency[v as usize].push(u);
        }
        let mut edge_count = 0usize;
        for list in &mut adjacency {
            list.sort_unstable();
            list.dedup();
            edge_count += list.len();
        }
        let labels = labels
            .into_iter()
            .map(|mut l| {
                l.sort_unstable();
                l.dedup();
                l
            })
            .collect();
        Ok(Self {
            adjacency,
            labels,
            attrs,
            edge_count: edge_count / 2,
        })
    }

    /// Number of vertices `|V|`.
    pub fn vertex_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of undirected edges `|E|`.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Number of distinct attribute values `|A|`.
    pub fn attr_count(&self) -> usize {
        self.attrs.len()
    }

    /// The attribute-value interner.
    pub fn attrs(&self) -> &AttrTable {
        &self.attrs
    }

    /// Estimated resident bytes: adjacency + label payloads (with their
    /// per-vertex `Vec` headers) and the interned attribute names. Feeds
    /// a serving daemon's memory budget, so it tracks what scales with
    /// the graph rather than exact allocator truth.
    pub fn approx_bytes(&self) -> usize {
        const VEC_HEADER: usize = std::mem::size_of::<Vec<u32>>();
        let adjacency: usize = self
            .adjacency
            .iter()
            .map(|n| VEC_HEADER + n.capacity() * std::mem::size_of::<VertexId>())
            .sum();
        let labels: usize = self
            .labels
            .iter()
            .map(|l| VEC_HEADER + l.capacity() * std::mem::size_of::<AttrId>())
            .sum();
        // Interner: each name is stored once plus ~two index entries.
        let attrs: usize = self
            .attrs
            .iter()
            .map(|(_, name)| name.len() + 2 * VEC_HEADER)
            .sum();
        adjacency + labels + attrs
    }

    /// Sorted neighbours of `v`.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.adjacency[v as usize]
    }

    /// Degree of `v`.
    pub fn degree(&self, v: VertexId) -> usize {
        self.adjacency[v as usize].len()
    }

    /// Sorted attribute values `λ(v)`.
    pub fn labels(&self, v: VertexId) -> &[AttrId] {
        &self.labels[v as usize]
    }

    /// Whether `(v, a) ∈ λ`.
    pub fn has_label(&self, v: VertexId, a: AttrId) -> bool {
        self.labels[v as usize].binary_search(&a).is_ok()
    }

    /// Whether `{u, v} ∈ E`.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.adjacency[u as usize].binary_search(&v).is_ok()
    }

    /// Iterates over all vertices.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.vertex_count() as VertexId
    }

    /// Iterates over each undirected edge once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// The adjacency-list tuple of `v`, viewed as a [`Star`] (§III: "each
    /// tuple in the adjacency list can be viewed as a star").
    ///
    /// Returns `None` for isolated vertices (a star needs ≥1 leaf).
    pub fn star_of(&self, v: VertexId) -> Option<Star> {
        let leaves = self.neighbors(v);
        if leaves.is_empty() {
            None
        } else {
            Some(Star::new(v, leaves.to_vec()))
        }
    }

    /// Builds the mapping table: attribute value → vertices where it
    /// appears (Fig. 2(a) of the paper).
    pub fn mapping_table(&self) -> MappingTable {
        let mut positions = vec![Vec::new(); self.attr_count()];
        for v in self.vertices() {
            for &a in self.labels(v) {
                positions[a as usize].push(v);
            }
        }
        MappingTable { positions }
    }

    /// Counts connected components.
    pub fn component_count(&self) -> usize {
        let n = self.vertex_count();
        let mut seen = vec![false; n];
        let mut components = 0;
        let mut stack = Vec::new();
        for s in 0..n {
            if seen[s] {
                continue;
            }
            components += 1;
            seen[s] = true;
            stack.push(s as VertexId);
            while let Some(v) = stack.pop() {
                for &u in self.neighbors(v) {
                    if !seen[u as usize] {
                        seen[u as usize] = true;
                        stack.push(u);
                    }
                }
            }
        }
        components
    }

    /// Whether the graph is connected (and non-empty).
    pub fn is_connected(&self) -> bool {
        self.vertex_count() > 0 && self.component_count() == 1
    }

    /// Validates the paper's input requirements: non-empty and connected.
    /// (Self-loops are already rejected at build time.)
    pub fn validate(&self) -> Result<(), GraphError> {
        if self.vertex_count() == 0 {
            return Err(GraphError::Empty);
        }
        let components = self.component_count();
        if components != 1 {
            return Err(GraphError::Disconnected { components });
        }
        Ok(())
    }

    /// Total number of `(vertex, attribute-value)` pairs `|λ|`.
    pub fn label_pair_count(&self) -> usize {
        self.labels.iter().map(Vec::len).sum()
    }

    /// Average number of attribute values per vertex.
    pub fn mean_labels_per_vertex(&self) -> f64 {
        if self.vertex_count() == 0 {
            0.0
        } else {
            self.label_pair_count() as f64 / self.vertex_count() as f64
        }
    }
}

/// Positions of every attribute value: `positions[a] = sorted vertices v
/// with (v, a) ∈ λ` (the mapping table of Fig. 2(a)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MappingTable {
    positions: Vec<Vec<VertexId>>,
}

impl MappingTable {
    /// Vertices carrying attribute value `a`.
    pub fn positions(&self, a: AttrId) -> &[VertexId] {
        &self.positions[a as usize]
    }

    /// Occurrence frequency of `a` (number of vertices carrying it).
    pub fn frequency(&self, a: AttrId) -> usize {
        self.positions[a as usize].len()
    }

    /// Number of attribute values covered.
    pub fn attr_count(&self) -> usize {
        self.positions.len()
    }

    /// Iterates `(attr, positions)` in attribute-id order.
    pub fn iter(&self) -> impl Iterator<Item = (AttrId, &[VertexId])> {
        self.positions
            .iter()
            .enumerate()
            .map(|(a, p)| (a as AttrId, p.as_slice()))
    }

    /// Total number of `(vertex, attribute)` pairs.
    pub fn total_pairs(&self) -> usize {
        self.positions.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::paper_example;
    use crate::GraphBuilder;

    #[test]
    fn paper_example_shape() {
        let (g, a) = paper_example();
        assert_eq!(g.vertex_count(), 5);
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.attr_count(), 3);
        // Adjacency list from §III: (v1,{v2,v3,v4}), (v2,{v1}), (v3,{v1,v5}),
        // (v4,{v1,v5}), (v5,{v3,v4}).
        assert_eq!(g.neighbors(0), &[1, 2, 3]);
        assert_eq!(g.neighbors(1), &[0]);
        assert_eq!(g.neighbors(2), &[0, 4]);
        assert_eq!(g.neighbors(3), &[0, 4]);
        assert_eq!(g.neighbors(4), &[2, 3]);
        assert!(g.has_label(1, a.a) && g.has_label(1, a.c));
        assert!(g.is_connected());
        g.validate().unwrap();
    }

    #[test]
    fn mapping_table_matches_fig2a() {
        let (g, a) = paper_example();
        let mt = g.mapping_table();
        // Fig. 2(a): a → {v1, v2, v5}, b → {v4, v5}, c → {v2, v3}.
        assert_eq!(mt.positions(a.a), &[0, 1, 4]);
        assert_eq!(mt.positions(a.b), &[3, 4]);
        assert_eq!(mt.positions(a.c), &[1, 2]);
        assert_eq!(mt.frequency(a.a), 3);
        assert_eq!(mt.total_pairs(), 7);
    }

    #[test]
    fn edges_iterate_once() {
        let (g, _) = paper_example();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), g.edge_count());
        assert!(edges.contains(&(0, 1)));
        assert!(!edges.iter().any(|&(u, v)| u >= v));
    }

    #[test]
    fn star_of_returns_adjacency_tuple() {
        let (g, _) = paper_example();
        let s = g.star_of(0).unwrap();
        assert_eq!(s.core(), 0);
        assert_eq!(s.leaves(), &[1, 2, 3]);
    }

    #[test]
    fn star_of_isolated_vertex_is_none() {
        let mut b = GraphBuilder::new();
        let v0 = b.add_vertex(["x"]);
        let v1 = b.add_vertex(["y"]);
        b.add_edge(v0, v1).unwrap();
        let _lone = b.add_vertex(["z"]);
        let g = b.build_unchecked();
        assert!(g.star_of(2).is_none());
    }

    #[test]
    fn disconnected_graph_fails_validation() {
        let mut b = GraphBuilder::new();
        let v0 = b.add_vertex(["x"]);
        let v1 = b.add_vertex(["y"]);
        b.add_edge(v0, v1).unwrap();
        b.add_vertex(["z"]);
        let g = b.build_unchecked();
        assert_eq!(g.component_count(), 2);
        assert!(matches!(
            g.validate(),
            Err(GraphError::Disconnected { components: 2 })
        ));
    }

    #[test]
    fn empty_graph_fails_validation() {
        let g = GraphBuilder::new().build_unchecked();
        assert!(matches!(g.validate(), Err(GraphError::Empty)));
        assert!(!g.is_connected());
    }

    #[test]
    fn label_statistics() {
        let (g, _) = paper_example();
        assert_eq!(g.label_pair_count(), 7);
        assert!((g.mean_labels_per_vertex() - 1.4).abs() < 1e-12);
    }

    #[test]
    fn from_edge_list_matches_builder() {
        let (g, _) = paper_example();
        let labels: Vec<Vec<AttrId>> = g.vertices().map(|v| g.labels(v).to_vec()).collect();
        let rebuilt = AttributedGraph::from_edge_list(
            labels,
            g.attrs().clone(),
            g.edges().chain(g.edges()), // duplicates must collapse
        )
        .unwrap();
        assert_eq!(rebuilt, g);
    }

    #[test]
    fn from_edge_list_rejects_bad_edges() {
        let err = AttributedGraph::from_edge_list(vec![vec![], vec![]], AttrTable::new(), [(0, 0)]);
        assert!(matches!(err, Err(GraphError::SelfLoop(0))));
        let err = AttributedGraph::from_edge_list(vec![vec![], vec![]], AttrTable::new(), [(0, 5)]);
        assert!(matches!(err, Err(GraphError::UnknownVertex(5))));
    }
}
