//! Saving generated datasets.
//!
//! Generators are deterministic, but persisting the generated graphs
//! lets experiments pin exact inputs across machines and toolchain
//! versions. The file is a plain graph file, read back by
//! [`cspm_graph::read_graph`].

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use cspm_graph::{write_graph, GraphError};

use crate::Dataset;

/// Saves a dataset as a graph file plus a small metadata header
/// (encoded as comments, so the file stays a valid plain graph file).
pub fn save_dataset(d: &Dataset, path: &Path) -> Result<(), GraphError> {
    let mut w = BufWriter::new(File::create(path)?);
    writeln!(w, "#! name: {}", d.name)?;
    writeln!(w, "#! category: {}", d.category)?;
    let mut buf = Vec::new();
    write_graph(&d.graph, &mut buf)?;
    w.write_all(&buf)?;
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dblp_like, Scale};
    use cspm_graph::read_graph;

    #[test]
    fn roundtrip_preserves_graph_and_metadata() {
        let d = dblp_like(Scale::Tiny, 4);
        let dir = std::env::temp_dir().join("cspm-datasets-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dblp_tiny.graph");
        save_dataset(&d, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let mut header = text.lines();
        assert_eq!(header.next(), Some("#! name: DBLP(synthetic)"));
        assert_eq!(header.next(), Some("#! category: Citation"));
        // The metadata lines are comments: the file reads as a graph.
        let loaded = read_graph(text.as_bytes()).unwrap();
        assert_eq!(loaded.vertex_count(), d.graph.vertex_count());
        assert_eq!(loaded.edge_count(), d.graph.edge_count());
        // Attribute values survive by name.
        for v in d.graph.vertices() {
            let names = |g: &cspm_graph::AttributedGraph| -> Vec<String> {
                g.labels(v)
                    .iter()
                    .map(|&a| g.attrs().name(a).unwrap().to_owned())
                    .collect()
            };
            let (mut a, mut b) = (names(&d.graph), names(&loaded));
            a.sort();
            b.sort();
            assert_eq!(a, b);
        }
        std::fs::remove_file(path).unwrap();
    }
}
