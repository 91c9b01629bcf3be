//! Plain-text graph (de)serialisation.
//!
//! The format is line oriented:
//!
//! ```text
//! # comments and blank lines are ignored
//! v 0 a c        # vertex 0 with attribute values "a" and "c"
//! v 1 b
//! e 0 1          # undirected edge {0, 1}
//! ```
//!
//! Vertex ids must be dense (`0..n`), but `v` lines may appear in any
//! order, and a vertex may have several. Attribute values may not
//! contain whitespace (Unicode whitespace included); they are numbered
//! in the order the file first names them, and repeated values and
//! edges collapse. Lines may end in `\n` or `\r\n`. A file may not
//! name more ids than its records can: the largest id must be below
//! the number of `v` records plus twice the number of `e` records, so
//! the vertex table is bounded by the input's size.
//!
//! A binary codec ([`encode_graph`] / [`decode_graph`]) backs the
//! `cspm-store` session snapshot; unlike the text format it preserves
//! the attribute table exactly (interning order and vertex-unused
//! values included), so a decoded graph compares equal to the original.

use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Read, Write};

use crate::attrs::{AttrId, AttrTable};
use crate::codec::{put_str, put_u32, DecodeError, Reader};
use crate::error::GraphError;
use crate::graph::{AttributedGraph, VertexId};

/// Reads a graph from the text format. Does not enforce connectivity
/// (call [`AttributedGraph::validate`] if the paper's input requirements
/// must hold). A largest id that the file's records cannot account for
/// is a [`GraphError::Parse`] naming its line, never an allocation of
/// that many vertices.
///
/// One pass over the input: each line is read into one reused buffer,
/// attribute values are interned in file order as they are met (so the
/// [`AttrTable`] numbers them by first appearance), and the labels and
/// edges are collected as flat `(vertex, value)` and `(u, v)` lists
/// that [`AttributedGraph::from_edge_list`] turns into the graph. Parse
/// errors name the first bad line; after them come the nameable-id
/// check, then the first self-loop in file order.
pub fn read_graph<R: Read>(reader: R) -> Result<AttributedGraph, GraphError> {
    let mut reader = BufReader::new(reader);
    let mut attrs = AttrTable::new();
    let mut labels: Vec<(VertexId, AttrId)> = Vec::new();
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    let mut v_records = 0usize;
    // Largest id seen so far and the first line that named it.
    let mut max_id: Option<(u32, usize)> = None;
    let mut see = |id: u32, line: usize| {
        if max_id.is_none_or(|(m, _)| id > m) {
            max_id = Some((id, line));
        }
    };

    let mut buf = Vec::new();
    let mut lineno = 0;
    loop {
        buf.clear();
        lineno += 1;
        let not_utf8 = || GraphError::Parse {
            line: lineno,
            message: "line is not valid UTF-8".into(),
        };
        match reader.read_until(b'\n', &mut buf) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::InvalidData => return Err(not_utf8()),
            Err(e) => return Err(GraphError::Io(e)),
        }
        let line = std::str::from_utf8(&buf).map_err(|_| not_utf8())?.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let tag = parts.next().unwrap();
        let parse_id = |tok: Option<&str>| -> Result<u32, GraphError> {
            tok.ok_or_else(|| GraphError::Parse {
                line: lineno,
                message: "missing vertex id".into(),
            })?
            .parse()
            .map_err(|_| GraphError::Parse {
                line: lineno,
                message: "vertex id is not an integer".into(),
            })
        };
        match tag {
            "v" => {
                let id = parse_id(parts.next())?;
                see(id, lineno);
                v_records += 1;
                labels.extend(parts.map(|value| (id, attrs.intern(value))));
            }
            "e" => {
                let u = parse_id(parts.next())?;
                let v = parse_id(parts.next())?;
                see(u.max(v), lineno);
                edges.push((u, v));
            }
            other => {
                return Err(GraphError::Parse {
                    line: lineno,
                    message: format!("unknown record tag '{other}'"),
                })
            }
        }
    }

    // Each `v` record names at most one vertex and each `e` record two.
    // A larger id asks for table slots that no record fills, and would
    // let a few bytes of input demand gigabytes of them.
    let nameable = v_records + 2 * edges.len();
    if let Some((id, line)) = max_id.filter(|&(id, _)| id as usize >= nameable) {
        return Err(GraphError::Parse {
            line,
            message: format!(
                "vertex id {id} exceeds the {nameable} ids the file's records can name"
            ),
        });
    }
    let n = max_id.map_or(0, |(m, _)| m as usize + 1);
    let mut count = vec![0usize; n];
    for &(v, _) in &labels {
        count[v as usize] += 1;
    }
    let mut lists: Vec<Vec<AttrId>> = count.into_iter().map(Vec::with_capacity).collect();
    for (v, a) in labels {
        lists[v as usize].push(a);
    }
    AttributedGraph::from_edge_list(lists, attrs, edges)
}

/// Writes a graph in the text format (inverse of [`read_graph`]).
pub fn write_graph<W: Write>(g: &AttributedGraph, writer: W) -> Result<(), GraphError> {
    let mut w = BufWriter::new(writer);
    writeln!(
        w,
        "# cspm attributed graph: {} vertices, {} edges",
        g.vertex_count(),
        g.edge_count()
    )?;
    for v in g.vertices() {
        write!(w, "v {v}")?;
        for &a in g.labels(v) {
            let name = g.attrs().name(a).expect("label ids are always interned");
            write!(w, " {name}")?;
        }
        writeln!(w)?;
    }
    for (u, v) in g.edges() {
        writeln!(w, "e {u} {v}")?;
    }
    w.flush()?;
    Ok(())
}

/// Serialises `g` into `out` as a little-endian byte section (the
/// snapshot wire format of `cspm-store`; layout in `docs/FORMATS.md`).
/// [`decode_graph`] inverts it to a graph that compares **equal** to
/// `g`: the attribute table keeps its interning order (vertex-unused
/// values included), labels and adjacency are already sorted, and each
/// edge is written once as `(u, v)` with `u < v`.
pub fn encode_graph(g: &AttributedGraph, out: &mut Vec<u8>) {
    put_u32(out, g.vertex_count() as u32);
    put_u32(out, g.edge_count() as u32);
    put_u32(out, g.attr_count() as u32);
    for (_, name) in g.attrs().iter() {
        put_str(out, name);
    }
    for v in g.vertices() {
        put_u32(out, g.labels(v).len() as u32);
        for &a in g.labels(v) {
            put_u32(out, a);
        }
    }
    for (u, v) in g.edges() {
        put_u32(out, u);
        put_u32(out, v);
    }
}

/// Decodes an [`encode_graph`] section. Malformed input — truncation,
/// out-of-range attribute or vertex ids, duplicate attribute names
/// (which would silently renumber every label), trailing bytes — is a
/// typed [`DecodeError`], never a panic.
pub fn decode_graph(bytes: &[u8]) -> Result<AttributedGraph, DecodeError> {
    let mut r = Reader::new(bytes);
    let n = r.u32()? as usize;
    let m = r.u32()? as usize;
    let a = r.u32()? as usize;
    // Cheap lower bound (4 bytes per label count / edge endpoint /
    // attribute name length) so a corrupt count cannot provoke a huge
    // allocation before the reads below would fail anyway.
    if n.checked_mul(4).is_none_or(|b| b > r.remaining())
        || m.checked_mul(8).is_none_or(|b| b > r.remaining())
        || a.checked_mul(4).is_none_or(|b| b > r.remaining())
    {
        return Err(DecodeError::new("counts exceed remaining data"));
    }
    let mut attrs = AttrTable::new();
    for _ in 0..a {
        let name = r.str()?;
        let before = attrs.len();
        attrs.intern(&name);
        if attrs.len() == before {
            return Err(DecodeError::new("duplicate attribute name"));
        }
    }
    let mut labels: Vec<Vec<AttrId>> = Vec::with_capacity(n);
    for _ in 0..n {
        let k = r.bounded_count(4)?;
        let ids = r.u32s(k)?;
        if ids.iter().any(|&id| id as usize >= a) {
            return Err(DecodeError::new("label references unknown attribute"));
        }
        labels.push(ids);
    }
    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        let u = r.u32()?;
        let v = r.u32()?;
        edges.push((u, v));
    }
    r.finish()?;
    let g = AttributedGraph::from_edge_list(labels, attrs, edges)
        .map_err(|_| DecodeError::new("edge references unknown vertex or is a self-loop"))?;
    if g.edge_count() != m {
        // Duplicate edges collapsed: the section was not written by
        // encode_graph (or was corrupted into claiming one twice).
        return Err(DecodeError::new("duplicate edge in section"));
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::paper_example;

    #[test]
    fn roundtrip_paper_example() {
        let (g, _) = paper_example();
        let mut buf = Vec::new();
        write_graph(&g, &mut buf).unwrap();
        let g2 = read_graph(&buf[..]).unwrap();
        assert_eq!(g2.vertex_count(), g.vertex_count());
        assert_eq!(g2.edge_count(), g.edge_count());
        for v in g.vertices() {
            assert_eq!(g2.neighbors(v), g.neighbors(v));
            let names = |gr: &AttributedGraph| -> Vec<String> {
                gr.labels(v)
                    .iter()
                    .map(|&a| gr.attrs().name(a).unwrap().to_owned())
                    .collect()
            };
            assert_eq!(names(&g2), names(&g));
        }
    }

    #[test]
    fn parses_comments_blanks_and_order() {
        let text = "\n# header\ne 0 1\nv 1 beta\nv 0 alpha gamma\n";
        let g = read_graph(text.as_bytes()).unwrap();
        assert_eq!(g.vertex_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.labels(0).len(), 2);
    }

    #[test]
    fn vertex_only_seen_via_edge_exists() {
        let g = read_graph("v 0 x\ne 0 2\n".as_bytes()).unwrap();
        assert_eq!(g.vertex_count(), 3);
        assert!(g.labels(2).is_empty());
    }

    /// Sixteen bytes must not be able to demand ~96 GB of vertex table:
    /// an id past what the records can name is refused at its line.
    #[test]
    fn ids_beyond_what_the_records_name_are_refused() {
        let err = read_graph("e 0 4000000000\n".as_bytes()).unwrap_err();
        match err {
            GraphError::Parse { line, message } => {
                assert_eq!(line, 1);
                assert!(message.contains("4000000000"), "{message}");
            }
            other => panic!("expected parse error, got {other}"),
        }
        // The first line that names the largest id is reported.
        let err = read_graph("v 0 a\nv 1 b\ne 0 1\nv 9 c\ne 1 9\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 4, .. }), "{err}");
        // One `v` and one `e` record name at most ids 0..=2 (the file of
        // `vertex_only_seen_via_edge_exists`); id 3 is one too many.
        let err = read_graph("v 0 x\ne 0 3\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }), "{err}");
    }

    #[test]
    fn bad_tag_reports_line() {
        let err = read_graph("v 0 x\nz 1 2\n".as_bytes()).unwrap_err();
        match err {
            GraphError::Parse { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("unknown record tag"));
            }
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn bad_id_reports_line() {
        let err = read_graph("e 0 q\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
    }

    #[test]
    fn invalid_utf8_reports_line() {
        let err = read_graph(&b"v 0 a\nv 1 \xff\n"[..]).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }), "{err}");
    }

    #[test]
    fn self_loop_in_file_is_rejected() {
        let err = read_graph("e 1 1\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::SelfLoop(1)));
    }

    #[test]
    fn binary_roundtrip_is_exact() {
        let (g, _) = paper_example();
        let mut bytes = Vec::new();
        encode_graph(&g, &mut bytes);
        let g2 = decode_graph(&bytes).unwrap();
        assert_eq!(g2, g);
    }

    #[test]
    fn binary_roundtrip_keeps_unused_attribute_values() {
        // A hand-built table with a vertex-unused value ("ghost") in the
        // middle: the text format would lose it, the binary one must not.
        let mut attrs = AttrTable::new();
        attrs.intern("a");
        attrs.intern("ghost");
        let b = attrs.intern("b");
        let g =
            AttributedGraph::from_edge_list(vec![vec![0], vec![b]], attrs, [(0u32, 1u32)]).unwrap();
        let mut bytes = Vec::new();
        encode_graph(&g, &mut bytes);
        let g2 = decode_graph(&bytes).unwrap();
        assert_eq!(g2, g);
        assert_eq!(g2.attrs().name(1), Some("ghost"));
    }

    #[test]
    fn binary_decode_never_panics_on_damage() {
        let (g, _) = paper_example();
        let mut bytes = Vec::new();
        encode_graph(&g, &mut bytes);
        for cut in 0..bytes.len() {
            assert!(decode_graph(&bytes[..cut]).is_err(), "truncation at {cut}");
        }
        // Out-of-range label id.
        let mut bad = bytes.clone();
        let a = g.attr_count() as u32;
        // First label id follows counts + names + first label count.
        let labels_at = 12 + g.attrs().iter().map(|(_, n)| 4 + n.len()).sum::<usize>() + 4;
        bad[labels_at..labels_at + 4].copy_from_slice(&(a + 7).to_le_bytes());
        assert!(decode_graph(&bad).is_err());
        // Trailing garbage.
        let mut long = bytes.clone();
        long.push(0);
        assert!(decode_graph(&long).is_err());
    }
}
