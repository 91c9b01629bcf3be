//! DBLP co-authorship CSV: one row per author.
//!
//! The interchange cut of a DBLP export (see `docs/FORMATS.md` §2): a
//! header row naming at least `id`, `venues` and `coauthors` columns
//! (order free, extra columns ignored), then one row per author whose
//! `venues` field lists the venues they published at (`;`-separated —
//! these become the vertex's attribute values, as in the paper's DBLP
//! dataset) and whose `coauthors` field lists co-author ids
//! (`;`-separated — these become undirected edges). Names may be
//! double-quoted to protect embedded commas.

use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};

use super::error::IngestError;
use super::lines::{csv_fields, LineReader};
use super::{dataset_name, GraphAssembler};

/// Streaming source over a DBLP co-authorship CSV.
pub struct DblpSource {
    path: PathBuf,
}

impl DblpSource {
    /// Opens the CSV (existence is checked at stream time).
    pub fn open(path: &Path) -> Result<Self, IngestError> {
        Ok(Self {
            path: path.to_path_buf(),
        })
    }
}

impl super::AttributedGraphSource for DblpSource {
    fn name(&self) -> String {
        dataset_name("DBLP", &self.path)
    }

    fn stream_into(&mut self, sink: &mut GraphAssembler) -> Result<(), IngestError> {
        let mut r = LineReader::new(BufReader::new(File::open(&self.path)?), &self.path);
        let mut fields: Vec<String> = Vec::new();
        let mut line = String::new();

        // Header: locate the columns we need.
        loop {
            if !r.read_line(&mut line)? {
                return Err(r.parse_error("empty file (expected a CSV header)"));
            }
            if !(line.is_empty() || line.starts_with('#')) {
                break;
            }
        }
        csv_fields(&line, &mut fields);
        let col = |name: &str| {
            fields
                .iter()
                .position(|f| f.trim().eq_ignore_ascii_case(name))
        };
        let (Some(id_col), Some(venues_col), Some(coauthors_col)) =
            (col("id"), col("venues"), col("coauthors"))
        else {
            return Err(r.parse_error("header must name 'id', 'venues' and 'coauthors' columns"));
        };
        let needed = id_col.max(venues_col).max(coauthors_col) + 1;

        while r.read_line(&mut line)? {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            csv_fields(&line, &mut fields);
            if fields.len() < needed {
                return Err(r.parse_error(format!(
                    "truncated row: {} fields, header needs {needed}",
                    fields.len()
                )));
            }
            let id = fields[id_col].trim();
            if id.is_empty() {
                return Err(r.parse_error("empty author id"));
            }
            let Some(v) = sink.declare(id) else {
                return Err(IngestError::DuplicateVertex {
                    path: self.path.clone(),
                    line: r.lineno(),
                    id: id.to_owned(),
                });
            };
            for venue in fields[venues_col].split(';') {
                sink.label(v, venue.trim());
            }
            for co in fields[coauthors_col].split(';') {
                let co = co.trim();
                if co.is_empty() {
                    continue;
                }
                let u = sink.vertex(co);
                sink.edge(v, u);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::temp_dir;
    use super::super::{AttributedGraphSource as _, GraphAssembler};
    use super::*;
    use std::fs;

    fn run(text: &str, case: &str) -> Result<cspm_graph::AttributedGraph, IngestError> {
        let dir = temp_dir(&format!("dblp-{case}"));
        let path = dir.join("dblp.csv");
        fs::write(&path, text).unwrap();
        let mut src = DblpSource::open(&path)?;
        let mut sink = GraphAssembler::new();
        src.stream_into(&mut sink)?;
        Ok(sink.finish())
    }

    #[test]
    fn parses_rows_with_quoted_names() {
        let g = run(
            "id,name,venues,coauthors\n\
             1,\"Doe, Jane\",ICDE;VLDB,2;3\n\
             2,Smith,ICDE,1\n\
             3,Wu,KDD;ICDM,1\n",
            "ok",
        )
        .unwrap();
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 2); // 1-2 and 1-3 (2;3 from row 1, symmetric dupes collapse)
        assert!(g.attrs().get("ICDE").is_some());
        assert!(g.attrs().get("ICDM").is_some());
        assert_eq!(g.labels(0).len(), 2);
    }

    #[test]
    fn header_columns_may_be_reordered() {
        let g = run("coauthors,id,venues\n2,1,SIGMOD\n1,2,SIGMOD\n", "reorder").unwrap();
        assert_eq!(g.vertex_count(), 2);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn missing_header_columns_is_a_parse_error() {
        let err = run("id,name\n1,A\n", "badheader").unwrap_err();
        match err {
            IngestError::Parse { line, message, .. } => {
                assert_eq!(line, 1);
                assert!(message.contains("coauthors"));
            }
            other => panic!("expected Parse, got {other}"),
        }
    }

    #[test]
    fn truncated_row_is_a_parse_error() {
        let err = run("id,name,venues,coauthors\n1,A\n", "short").unwrap_err();
        match err {
            IngestError::Parse { line, message, .. } => {
                assert_eq!(line, 2);
                assert!(message.contains("truncated row"));
            }
            other => panic!("expected Parse, got {other}"),
        }
    }

    #[test]
    fn duplicate_author_is_typed() {
        let err = run("id,name,venues,coauthors\n1,A,ICDE,\n1,B,VLDB,\n", "dup").unwrap_err();
        assert!(matches!(err, IngestError::DuplicateVertex { line: 3, .. }));
    }

    #[test]
    fn empty_file_is_a_parse_error() {
        assert!(matches!(run("", "empty"), Err(IngestError::Parse { .. })));
    }

    #[test]
    fn name_uses_file_stem() {
        let dir = temp_dir("dblp-name");
        let path = dir.join("dblp_small.csv");
        fs::write(&path, "id,venues,coauthors\n").unwrap();
        assert_eq!(
            DblpSource::open(&path).unwrap().name(),
            "DBLP(real:dblp_small)"
        );
    }
}
