//! SNAP-style Pokec: relationship edge list + profile sidecar.
//!
//! The public Pokec dump ships as two tab-separated files
//! (`soc-pokec-relationships.txt`, `soc-pokec-profiles.txt`). The
//! profile schema here is the 6-column cut used by our fixtures —
//! `user_id, public, completion_percentage, gender, region, age` — the
//! leading columns of the real 59-column table; trailing extra columns
//! are ignored, so the real dump parses unchanged. `null` marks an
//! absent value, as in the dump. See `docs/FORMATS.md` §1.

use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};

use super::error::IngestError;
use super::lines::LineReader;
use super::{dataset_name, sidecar_path, GraphAssembler};

/// Streaming source over a Pokec relationship dump + profile sidecar.
pub struct PokecSource {
    edges: PathBuf,
    profiles: PathBuf,
}

impl PokecSource {
    /// Opens `edges` and resolves its profile sidecar
    /// (`<stem>.profiles.<ext>`, or the real dump's
    /// `…relationships…` → `…profiles…` naming).
    pub fn open(edges: &Path) -> Result<Self, IngestError> {
        let profiles = sidecar_path(edges, "profiles", Some(("relationships", "profiles")))?;
        Ok(Self {
            edges: edges.to_path_buf(),
            profiles,
        })
    }
}

impl super::AttributedGraphSource for PokecSource {
    fn name(&self) -> String {
        dataset_name("Pokec", &self.edges)
    }

    fn stream_into(&mut self, sink: &mut GraphAssembler) -> Result<(), IngestError> {
        let mut line = String::new();
        // Profiles first: they declare users and their attributes.
        let mut r = LineReader::new(BufReader::new(File::open(&self.profiles)?), &self.profiles);
        while r.read_line(&mut line)? {
            let line = line.as_str();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut cols = line.split('\t');
            let user = cols.next().unwrap_or("");
            let _public = cols.next();
            let _completion = cols.next();
            let gender = cols.next();
            let region = cols.next();
            let age = cols.next();
            let (Some(gender), Some(region), Some(age)) = (gender, region, age) else {
                return Err(r.parse_error(
                    "truncated profile row (expected ≥ 6 tab-separated columns: \
                     user_id, public, completion_percentage, gender, region, age)",
                ));
            };
            if user.parse::<u64>().is_err() {
                return Err(r.parse_error(format!("user id '{user}' is not an integer")));
            }
            let Some(v) = sink.declare(user) else {
                return Err(IngestError::DuplicateVertex {
                    path: self.profiles.clone(),
                    line: r.lineno(),
                    id: user.to_owned(),
                });
            };
            match gender {
                "1" => sink.keyed_label(v, "gender", "male"),
                "0" => sink.keyed_label(v, "gender", "female"),
                "null" | "" => {}
                other => return Err(r.parse_error(format!("gender '{other}' is not 0, 1 or null"))),
            }
            if !matches!(region, "null" | "") {
                sink.keyed_label(v, "region", region);
            }
            match age {
                "null" | "" | "0" => {} // 0 = unset in the dump
                other => {
                    let years: u32 = other
                        .parse()
                        .map_err(|_| r.parse_error(format!("age '{other}' is not an integer")))?;
                    // Decade buckets: 7 → "0s", 25 → "20s".
                    sink.keyed_label(v, "age", &format!("{}s", (years / 10) * 10));
                }
            }
        }

        let mut r = LineReader::new(BufReader::new(File::open(&self.edges)?), &self.edges);
        while r.read_line(&mut line)? {
            let line = line.as_str();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut cols = line.split('\t');
            let (Some(a), Some(b)) = (cols.next(), cols.next()) else {
                return Err(
                    r.parse_error("truncated edge row (expected two tab-separated user ids)")
                );
            };
            for id in [a, b] {
                if id.trim().parse::<u64>().is_err() {
                    return Err(r.parse_error(format!("user id '{id}' is not an integer")));
                }
            }
            // Users may appear in edges without a profile row (deleted
            // accounts in the real dump): they become label-less
            // vertices.
            let u = sink.vertex(a.trim());
            let v = sink.vertex(b.trim());
            sink.edge(u, v);
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

    fn write_pair(dir: &Path, edges: &str, profiles: &str) -> PathBuf {
        let e = dir.join("pokec.txt");
        fs::write(&e, edges).unwrap();
        fs::write(dir.join("pokec.profiles.txt"), profiles).unwrap();
        e
    }

    fn run(
        edges: &str,
        profiles: &str,
        case: &str,
    ) -> Result<cspm_graph::AttributedGraph, IngestError> {
        let dir = temp_dir(&format!("pokec-{case}"));
        let path = write_pair(&dir, edges, profiles);
        let mut src = PokecSource::open(&path)?;
        let mut sink = GraphAssembler::new();
        src.stream_into(&mut sink)?;
        Ok(sink.finish())
    }

    #[test]
    fn parses_profiles_and_edges() {
        let g = run(
            "# comment\n1\t2\n2\t3\n3\t1\n",
            "1\t1\t80\t1\tzilinsky kraj, zilina\t25\n\
             2\t0\t10\t0\tbratislavsky kraj\t31\n\
             3\t1\t55\tnull\tnull\t0\n",
            "ok",
        )
        .unwrap();
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 3);
        let a = g.attrs();
        assert!(a.get("gender=male").is_some());
        assert!(a.get("region=zilinsky_kraj,_zilina").is_some());
        assert!(a.get("age=20s").is_some());
        assert!(a.get("age=30s").is_some());
        // Vertex 3 declared everything null: no labels.
        assert_eq!(g.labels(2).len(), 0);
    }

    #[test]
    fn under_ten_ages_bucket_cleanly() {
        let g = run(
            "1\t2\n",
            "1\t1\t0\t1\tx\t7\n2\t1\t0\t0\ty\t103\n",
            "age-edges",
        )
        .unwrap();
        assert!(g.attrs().get("age=0s").is_some(), "age 7 must bucket to 0s");
        assert!(g.attrs().get("age=100s").is_some());
        assert!(g.attrs().get("age=00s").is_none());
    }

    #[test]
    fn edge_only_users_exist_without_labels() {
        let g = run("1\t9\n", "1\t1\t0\t1\tnull\t20\n", "edge-only").unwrap();
        assert_eq!(g.vertex_count(), 2);
        assert!(g.labels(1).is_empty());
    }

    #[test]
    fn truncated_profile_is_a_parse_error() {
        let err = run("1\t2\n", "1\t1\t80\n", "truncated").unwrap_err();
        match err {
            IngestError::Parse { line, message, .. } => {
                assert_eq!(line, 1);
                assert!(message.contains("truncated profile row"));
            }
            other => panic!("expected Parse, got {other}"),
        }
    }

    #[test]
    fn truncated_edge_is_a_parse_error() {
        let err = run("1\n", "1\t1\t0\tnull\tnull\tnull\n", "short-edge").unwrap_err();
        assert!(matches!(err, IngestError::Parse { line: 1, .. }));
    }

    #[test]
    fn duplicate_user_is_typed() {
        let err = run(
            "1\t2\n",
            "1\t1\t0\t1\tx\t20\n2\t1\t0\t0\ty\t30\n1\t1\t0\t1\tz\t40\n",
            "dup",
        )
        .unwrap_err();
        match err {
            IngestError::DuplicateVertex { line, id, .. } => {
                assert_eq!(line, 3);
                assert_eq!(id, "1");
            }
            other => panic!("expected DuplicateVertex, got {other}"),
        }
    }

    #[test]
    fn non_utf8_profile_is_typed() {
        let dir = temp_dir("pokec-utf8");
        let path = dir.join("pokec.txt");
        fs::write(&path, "1\t2\n").unwrap();
        fs::write(
            dir.join("pokec.profiles.txt"),
            b"1\t1\t0\t1\tok\t20\n2\t1\t0\t0\t\xff\xfe\t30\n",
        )
        .unwrap();
        let mut src = PokecSource::open(&path).unwrap();
        let mut sink = GraphAssembler::new();
        let err = src.stream_into(&mut sink).unwrap_err();
        assert!(matches!(err, IngestError::Utf8 { line: 2, .. }), "{err}");
    }

    #[test]
    fn missing_profiles_sidecar_is_typed() {
        let dir = temp_dir("pokec-nosidecar");
        let path = dir.join("alone.txt");
        fs::write(&path, "1\t2\n").unwrap();
        assert!(matches!(
            PokecSource::open(&path),
            Err(IngestError::MissingSidecar { .. })
        ));
    }

    #[test]
    fn name_uses_file_stem() {
        let dir = temp_dir("pokec-name");
        let path = write_pair(&dir, "1\t2\n", "1\t1\t0\t1\tx\t20\n");
        let src = PokecSource::open(&path).unwrap();
        assert_eq!(src.name(), "Pokec(real:pokec)");
    }
}
