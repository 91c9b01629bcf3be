//! Stars and extended stars (§III of the paper).

use std::collections::BTreeMap;

use crate::attrs::AttrId;
use crate::graph::{AttributedGraph, VertexId};

/// A star: a core vertex adjacent to every leaf, with no leaf–leaf edges
/// in the pattern itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Star {
    core: VertexId,
    leaves: Vec<VertexId>,
}

impl Star {
    /// Creates a star. `leaves` must be non-empty and not contain `core`.
    ///
    /// # Panics
    /// Panics if `leaves` is empty or contains the core.
    pub fn new(core: VertexId, leaves: Vec<VertexId>) -> Self {
        assert!(!leaves.is_empty(), "a star needs at least one leaf");
        assert!(!leaves.contains(&core), "core cannot be a leaf");
        Self { core, leaves }
    }

    /// The core vertex.
    pub fn core(&self) -> VertexId {
        self.core
    }

    /// The leaf vertices.
    pub fn leaves(&self) -> &[VertexId] {
        &self.leaves
    }
}

/// An extended star: a [`Star`] whose vertices carry attribute values.
///
/// Used to define *appearance* in an attributed graph: an extended star
/// appears at vertex `w` if there is a bijective mapping of its vertices
/// onto `w` and distinct neighbours of `w` that preserves both edges and
/// attribute-value pairs (§III).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtendedStar {
    /// Attribute values required on the core.
    core_labels: Vec<AttrId>,
    /// Attribute values required on each leaf, one entry per leaf.
    leaf_labels: Vec<Vec<AttrId>>,
}

impl ExtendedStar {
    /// Creates an extended star from per-vertex attribute requirements.
    /// Label slices are sorted and deduplicated internally.
    ///
    /// # Panics
    /// Panics if there are no leaves.
    pub fn new(core_labels: Vec<AttrId>, leaf_labels: Vec<Vec<AttrId>>) -> Self {
        assert!(
            !leaf_labels.is_empty(),
            "an extended star needs at least one leaf"
        );
        let mut core_labels = core_labels;
        core_labels.sort_unstable();
        core_labels.dedup();
        let leaf_labels = leaf_labels
            .into_iter()
            .map(|mut l| {
                l.sort_unstable();
                l.dedup();
                l
            })
            .collect();
        Self {
            core_labels,
            leaf_labels,
        }
    }

    /// Attribute values required on the core.
    pub fn core_labels(&self) -> &[AttrId] {
        &self.core_labels
    }

    /// Attribute values required per leaf.
    pub fn leaf_labels(&self) -> &[Vec<AttrId>] {
        &self.leaf_labels
    }

    /// Whether this extended star appears in `g` with its core mapped to
    /// `v` (the bijective-mapping condition of §III).
    ///
    /// Each pattern leaf must map to a *distinct* neighbour of `v` whose
    /// label set contains the leaf's required values; this is a bipartite
    /// matching problem, solved with Kuhn's augmenting-path algorithm.
    pub fn appears_at(&self, g: &AttributedGraph, v: VertexId) -> bool {
        if !contains_all(g.labels(v), &self.core_labels) {
            return false;
        }
        let neighbors = g.neighbors(v);
        if neighbors.len() < self.leaf_labels.len() {
            return false;
        }
        // candidates[i] = indices into `neighbors` usable for pattern leaf i.
        let candidates: Vec<Vec<usize>> = self
            .leaf_labels
            .iter()
            .map(|req| {
                neighbors
                    .iter()
                    .enumerate()
                    .filter(|(_, &u)| contains_all(g.labels(u), req))
                    .map(|(idx, _)| idx)
                    .collect()
            })
            .collect();
        if candidates.iter().any(Vec::is_empty) {
            return false;
        }
        // Kuhn's algorithm: match every pattern leaf to a distinct neighbour.
        let mut matched: BTreeMap<usize, usize> = BTreeMap::new(); // neighbour idx -> leaf
        for leaf in 0..candidates.len() {
            let mut visited = vec![false; neighbors.len()];
            if !augment(leaf, &candidates, &mut matched, &mut visited) {
                return false;
            }
        }
        true
    }

    /// All vertices of `g` at which this extended star appears.
    pub fn occurrences(&self, g: &AttributedGraph) -> Vec<VertexId> {
        g.vertices().filter(|&v| self.appears_at(g, v)).collect()
    }
}

/// Whether sorted slice `haystack` contains every element of sorted
/// `needles`.
pub(crate) fn contains_all(haystack: &[AttrId], needles: &[AttrId]) -> bool {
    needles.iter().all(|n| haystack.binary_search(n).is_ok())
}

fn augment(
    leaf: usize,
    candidates: &[Vec<usize>],
    matched: &mut BTreeMap<usize, usize>,
    visited: &mut [bool],
) -> bool {
    for &n in &candidates[leaf] {
        if visited[n] {
            continue;
        }
        visited[n] = true;
        let prev = matched.get(&n).copied();
        if prev.is_none() || augment(prev.unwrap(), candidates, matched, visited) {
            matched.insert(n, leaf);
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::paper_example;

    #[test]
    #[should_panic(expected = "at least one leaf")]
    fn star_requires_leaves() {
        let _ = Star::new(0, vec![]);
    }

    #[test]
    #[should_panic(expected = "core cannot be a leaf")]
    fn star_rejects_core_as_leaf() {
        let _ = Star::new(0, vec![0, 1]);
    }

    #[test]
    fn extended_star_from_fig1b_appears_at_v1() {
        // Fig. 1(b): core labelled {a}, leaves labelled {c} and {b}; it is an
        // occurrence of the a-star ({a},{b,c}) rooted at v1.
        let (g, a) = paper_example();
        let x = ExtendedStar::new(vec![a.a], vec![vec![a.c], vec![a.b]]);
        assert!(x.appears_at(&g, 0)); // v1: neighbours v2{a,c}, v3{c}, v4{b}
        assert!(!x.appears_at(&g, 1)); // v2: single neighbour cannot host both leaves
        assert_eq!(x.occurrences(&g), vec![0, 4]); // v5: neighbours v3{c}, v4{b}
    }

    #[test]
    fn appearance_requires_distinct_leaf_images() {
        // Two leaves both requiring {c}: v1 has only one {c}-neighbour pair
        // (v2 and v3 both carry c, so it *does* appear); v5 has only v3 with c.
        let (g, a) = paper_example();
        let x = ExtendedStar::new(vec![a.a], vec![vec![a.c], vec![a.c]]);
        assert!(x.appears_at(&g, 0));
        assert!(!x.appears_at(&g, 4));
    }

    #[test]
    fn appearance_checks_core_labels() {
        let (g, a) = paper_example();
        let x = ExtendedStar::new(vec![a.b], vec![vec![a.a]]);
        // b appears at v4 and v5, but only v4 has an a-neighbour (v1);
        // v5's neighbours are v3{c} and v4{b}.
        assert_eq!(x.occurrences(&g), vec![3]);
    }

    #[test]
    fn matching_needs_augmenting_paths() {
        // A case where greedy assignment fails but augmenting succeeds:
        // leaf0 can use {n0, n1}, leaf1 only {n0}.
        let mut b = crate::GraphBuilder::new();
        let core = b.add_vertex(["x"]);
        let n0 = b.add_vertex(["p", "q"]);
        let n1 = b.add_vertex(["p"]);
        b.add_edge(core, n0).unwrap();
        b.add_edge(core, n1).unwrap();
        let g = b.build().unwrap();
        let p = g.attrs().get("p").unwrap();
        let q = g.attrs().get("q").unwrap();
        let x = ExtendedStar::new(vec![], vec![vec![p], vec![q]]);
        assert!(x.appears_at(&g, core));
    }
}
