//! USFlight route + airport attribute tables.
//!
//! The paper builds USFlight from BTS on-time tables: vertices are
//! airports, edges are operated routes, and attributes are discretised
//! traffic/delay indicators (`NbDepart+`, `Delay-`, …). Our interchange
//! cut (see `docs/FORMATS.md` §3) is two CSVs: the route table given as
//! `--input` with header `src,dst[,airline]` (airline ignored), and an
//! airport sidecar `<stem>.airports.csv` with header
//! `code,state,nb_depart,nb_arrive,delay` whose last three columns hold
//! trend levels `+`, `-` or `=` (above / below / near the national
//! median), pre-discretised exactly like the paper's attributes.

use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};

use super::error::IngestError;
use super::lines::{csv_fields, LineReader};
use super::{dataset_name, sidecar_path, GraphAssembler};

/// Streaming source over a route table + airport sidecar.
pub struct UsFlightSource {
    routes: PathBuf,
    airports: PathBuf,
}

impl UsFlightSource {
    /// Opens `routes` and resolves its `<stem>.airports.csv` sidecar.
    pub fn open(routes: &Path) -> Result<Self, IngestError> {
        let airports = sidecar_path(routes, "airports", Some(("routes", "airports")))?;
        Ok(Self {
            routes: routes.to_path_buf(),
            airports,
        })
    }
}

/// Maps a trend level to its paper-style attribute (`NbDepart+` …).
fn level_label(
    r: &LineReader<BufReader<File>>,
    key: &str,
    level: &str,
) -> Result<Option<String>, IngestError> {
    match level.trim() {
        "+" | "-" | "=" => Ok(Some(format!("{key}{}", level.trim()))),
        "" | "null" => Ok(None),
        other => Err(r.parse_error(format!(
            "level '{other}' for {key} is not '+', '-', '=' or null"
        ))),
    }
}

impl super::AttributedGraphSource for UsFlightSource {
    fn name(&self) -> String {
        dataset_name("USFlight", &self.routes)
    }

    fn stream_into(&mut self, sink: &mut GraphAssembler) -> Result<(), IngestError> {
        let mut fields: Vec<String> = Vec::new();
        let mut line = String::new();

        // Airport table first: declares vertices and attributes.
        let mut r = LineReader::new(BufReader::new(File::open(&self.airports)?), &self.airports);
        let mut saw_header = false;
        while r.read_line(&mut line)? {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if !saw_header {
                saw_header = true;
                let lower = line.to_ascii_lowercase();
                if !lower.starts_with("code,") {
                    return Err(r.parse_error(
                        "airport table must start with header 'code,state,nb_depart,nb_arrive,delay'",
                    ));
                }
                continue;
            }
            csv_fields(&line, &mut fields);
            let [code, state, nb_depart, nb_arrive, delay] = fields.as_slice() else {
                return Err(r.parse_error(format!(
                    "truncated airport row: {} fields, expected 5 (code,state,nb_depart,nb_arrive,delay)",
                    fields.len()
                )));
            };
            let code = code.trim();
            if code.is_empty() {
                return Err(r.parse_error("empty airport code"));
            }
            let Some(v) = sink.declare(code) else {
                return Err(IngestError::DuplicateVertex {
                    path: self.airports.clone(),
                    line: r.lineno(),
                    id: code.to_owned(),
                });
            };
            if !matches!(state.trim(), "" | "null") {
                sink.keyed_label(v, "state", state.trim());
            }
            for (key, level) in [
                ("NbDepart", nb_depart),
                ("NbArrive", nb_arrive),
                ("Delay", delay),
            ] {
                if let Some(label) = level_label(&r, key, level)? {
                    sink.label(v, &label);
                }
            }
        }

        // Route table: edges (airline column, if present, is ignored).
        let mut r = LineReader::new(BufReader::new(File::open(&self.routes)?), &self.routes);
        let mut saw_header = false;
        while r.read_line(&mut line)? {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if !saw_header {
                saw_header = true;
                let lower = line.to_ascii_lowercase();
                if !lower.starts_with("src,dst") {
                    return Err(
                        r.parse_error("route table must start with header 'src,dst[,airline]'")
                    );
                }
                continue;
            }
            csv_fields(&line, &mut fields);
            let (Some(src), Some(dst)) = (fields.first(), fields.get(1)) else {
                return Err(r.parse_error("truncated route row (expected src,dst)"));
            };
            let (src, dst) = (src.trim(), dst.trim());
            if src.is_empty() || dst.is_empty() {
                return Err(r.parse_error("route row with empty endpoint code"));
            }
            let u = sink.vertex(src);
            let v = sink.vertex(dst);
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

    fn run(
        routes: &str,
        airports: &str,
        case: &str,
    ) -> Result<cspm_graph::AttributedGraph, IngestError> {
        let dir = temp_dir(&format!("usflight-{case}"));
        let path = dir.join("flights.csv");
        fs::write(&path, routes).unwrap();
        fs::write(dir.join("flights.airports.csv"), airports).unwrap();
        let mut src = UsFlightSource::open(&path)?;
        let mut sink = GraphAssembler::new();
        src.stream_into(&mut sink)?;
        Ok(sink.finish())
    }

    const AIRPORTS: &str = "code,state,nb_depart,nb_arrive,delay\n\
                            JFK,NY,+,+,+\n\
                            LAX,CA,+,+,-\n\
                            BUF,NY,-,-,=\n";

    #[test]
    fn parses_routes_and_levels() {
        let g = run(
            "src,dst,airline\nJFK,LAX,AA\nLAX,JFK,DL\nJFK,BUF,B6\n",
            AIRPORTS,
            "ok",
        )
        .unwrap();
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 2); // JFK-LAX collapses both directions
        let a = g.attrs();
        assert!(a.get("NbDepart+").is_some());
        assert!(a.get("Delay-").is_some());
        assert!(a.get("Delay=").is_some());
        assert!(a.get("state=NY").is_some());
    }

    #[test]
    fn self_loop_routes_are_skipped_not_fatal() {
        let g = run("src,dst\nJFK,JFK\nJFK,LAX\n", AIRPORTS, "loop").unwrap();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn unknown_level_is_a_parse_error() {
        let err = run(
            "src,dst\nJFK,LAX\n",
            "code,state,nb_depart,nb_arrive,delay\nJFK,NY,high,+,+\n",
            "badlevel",
        )
        .unwrap_err();
        match err {
            IngestError::Parse { line, message, .. } => {
                assert_eq!(line, 2);
                assert!(message.contains("NbDepart"));
            }
            other => panic!("expected Parse, got {other}"),
        }
    }

    #[test]
    fn truncated_airport_row_is_a_parse_error() {
        let err = run(
            "src,dst\nJFK,LAX\n",
            "code,state,nb_depart,nb_arrive,delay\nJFK,NY\n",
            "short",
        )
        .unwrap_err();
        assert!(matches!(err, IngestError::Parse { line: 2, .. }));
    }

    #[test]
    fn duplicate_airport_is_typed() {
        let err = run(
            "src,dst\nJFK,LAX\n",
            "code,state,nb_depart,nb_arrive,delay\nJFK,NY,+,+,+\nJFK,NY,-,-,-\n",
            "dup",
        )
        .unwrap_err();
        assert!(matches!(err, IngestError::DuplicateVertex { line: 3, .. }));
    }

    #[test]
    fn missing_headers_are_parse_errors() {
        let err = run("JFK,LAX\n", AIRPORTS, "noheader").unwrap_err();
        assert!(matches!(err, IngestError::Parse { line: 1, .. }));
        let err = run("src,dst\nJFK,LAX\n", "JFK,NY,+,+,+\n", "noairportheader").unwrap_err();
        assert!(matches!(err, IngestError::Parse { line: 1, .. }));
    }

    #[test]
    fn missing_airports_sidecar_is_typed() {
        let dir = temp_dir("usflight-nosidecar");
        let path = dir.join("alone.csv");
        fs::write(&path, "src,dst\n").unwrap();
        assert!(matches!(
            UsFlightSource::open(&path),
            Err(IngestError::MissingSidecar { .. })
        ));
    }
}
