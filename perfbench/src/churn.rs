//! Seeded windowed churn that keeps a tenant's graph level: each step
//! detaches the oldest ~1% of the vertices (all labels and edges go)
//! and inserts as many new ones, each cloning the labels of a live
//! anchor.
//!
//! A detached vertex keeps its id slot, so a window that only appended
//! vertices would grow the slot count (and with it the cost of every
//! mine and checkpoint) for the whole run. Instead each step recycles
//! the slots it detaches, oldest first in round-robin order: the
//! newcomer takes the slot over in the same delta, with the slot's old
//! edges and the labels the anchor — a random neighbour — carried in
//! the starting graph. Edge count and degree mix therefore never move,
//! and label statistics stay those of the starting graph; only which
//! vertex carries which labels churns, so every mine sees a new graph
//! of the same size.

use cspm_graph::dynamic::GraphDelta;
use cspm_graph::AttributedGraph;
use cspm_serve::json::{parse, Value};
use cspm_serve::proto::delta_from_value;

/// splitmix64: a tiny, fully specified generator, so a seed names the
/// same inputs on every platform and toolchain.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

pub fn str_field(key: &str, value: &str) -> (String, Value) {
    (key.to_string(), Value::Str(value.to_string()))
}

/// `{"op": op, "session": session}` as a request line.
pub fn request(op: &str, session: &str) -> String {
    Value::Obj(vec![str_field("op", op), str_field("session", session)]).to_json()
}

pub struct Window {
    /// Label names of every vertex in the starting graph.
    start_labels: Vec<Vec<String>>,
    next: usize,
    batch: usize,
    rng: Rng,
}

/// One churn step: the wire request and the delta the daemon decodes
/// from it (decoded here through the daemon's own parser).
pub struct Step {
    pub request: String,
    pub delta: GraphDelta,
}

impl Window {
    /// A window over `g` turning over `per_mille` of its vertices a step.
    pub fn new(g: &AttributedGraph, seed: u64, per_mille: usize) -> Self {
        let start_labels = g
            .vertices()
            .map(|v| {
                g.labels(v)
                    .iter()
                    .filter_map(|&a| g.attrs().name(a))
                    .map(str::to_string)
                    .collect()
            })
            .collect();
        Window {
            start_labels,
            next: 0,
            batch: (g.vertex_count() * per_mille / 1000).max(4),
            rng: Rng::new(seed),
        }
    }

    pub fn batch(&self) -> usize {
        self.batch
    }

    /// The next step for `session`, given its current graph `g`.
    pub fn next(&mut self, g: &AttributedGraph, session: &str) -> Step {
        let n = self.start_labels.len();
        let id = |v: u32| Value::Num(f64::from(v));
        let pair = |a: Value, b: Value| Value::Arr(vec![a, b]);
        let (mut leaving, mut labels, mut edges) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..self.batch {
            let v = self.next as u32;
            self.next = (self.next + 1) % n;
            let neighbours = g.neighbors(v);
            let anchor = match neighbours.len() {
                0 => v,
                len => neighbours[self.rng.below(len)],
            };
            leaving.push(id(v));
            for name in &self.start_labels[anchor as usize] {
                labels.push(pair(id(v), Value::Str(name.clone())));
            }
            for &w in neighbours {
                edges.push(pair(id(v), id(w)));
            }
        }
        let request = Value::Obj(vec![
            str_field("op", "delta"),
            str_field("session", session),
            ("remove_vertices".into(), Value::Arr(leaving)),
            ("add_labels".into(), Value::Arr(labels)),
            ("add_edges".into(), Value::Arr(edges)),
        ])
        .to_json();
        let delta = delta_from_value(&parse(&request).expect("generated request is JSON"))
            .expect("generated delta decodes");
        Step { request, delta }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cspm_datasets::{dblp_like, Scale};

    #[test]
    fn churn_keeps_the_graph_level_and_is_seeded() {
        let mut g = dblp_like(Scale::Small, 3).graph;
        let (vertices, edges) = (g.vertex_count(), g.edge_count());
        let mut w = Window::new(&g, 9, 10);
        let mut again = Window::new(&g, 9, 10);
        let mut relabelled = 0;
        for _ in 0..150 {
            let before = g.clone();
            let step = w.next(&g, "t");
            assert_eq!(step.request, again.next(&g, "t").request);
            step.delta.apply_in_place(&mut g).expect("step applies");
            relabelled += g
                .vertices()
                .filter(|&v| g.labels(v) != before.labels(v))
                .count();
        }
        assert_eq!((g.vertex_count(), g.edge_count()), (vertices, edges));
        assert!(
            relabelled > 0,
            "churn must change which vertex carries which labels"
        );
    }
}
