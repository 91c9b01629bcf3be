//! Streaming ingestion of real attributed-graph dumps.
//!
//! The paper's experiments run on real datasets — Pokec, DBLP,
//! USFlight — while the rest of this crate generates synthetic
//! stand-ins. This module (behind the `real-data` feature) closes that
//! gap: each supported dump format has a streaming parser that feeds
//! records straight into [`cspm_graph::GraphBuilder`] through a
//! [`GraphAssembler`] sink — one pass, one reused line buffer, no
//! intermediate per-dataset maps. The repo's own `v`/`e` format is
//! read by [`cspm_graph::read_graph`], the reader every other command
//! uses. Formats are specified in `docs/FORMATS.md`.
//!
//! # Example
//!
//! ```
//! use cspm_datasets::ingest::{self, Format};
//! # let dir = std::env::temp_dir().join("cspm-ingest-doctest");
//! # std::fs::create_dir_all(&dir).unwrap();
//! # let path = dir.join("tiny.txt");
//! # std::fs::write(&path, "1\t2\n2\t3\n").unwrap();
//! # std::fs::write(dir.join("tiny.profiles.txt"),
//! #     "1\t1\t55\t1\tbratislavsky kraj\t25\n2\t1\t40\t0\tkosicky kraj\t31\n").unwrap();
//! // pokec-style dump: tab-separated edges + a profile sidecar
//! let report = ingest::ingest(&path, None).unwrap();
//! assert_eq!(report.format, Format::Pokec);
//! assert_eq!(report.dataset.graph.vertex_count(), 3);
//! ```

mod dblp;
mod error;
mod lines;
mod pokec;
mod usflight;

pub use error::IngestError;

use std::collections::HashMap;
use std::fmt;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::time::Instant;

use cspm_graph::{read_graph, AttributedGraph, GraphBuilder, GraphError, VertexId};

use crate::Dataset;

/// A supported real-dataset dump format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// SNAP-style Pokec: tab-separated edge list plus a tab-separated
    /// profile sidecar (`<stem>.profiles.<ext>`).
    Pokec,
    /// DBLP co-authorship CSV: one row per author with `;`-separated
    /// venue and co-author columns.
    Dblp,
    /// USFlight route CSV plus an airport attribute sidecar
    /// (`<stem>.airports.csv`).
    UsFlight,
    /// This repo's own plain-text `v`/`e` graph format.
    Native,
}

impl Format {
    /// Parses a CLI format name. `"auto"` maps to `None` (sniff).
    pub fn from_cli(name: &str) -> Result<Option<Format>, String> {
        match name {
            "pokec" => Ok(Some(Format::Pokec)),
            "dblp" => Ok(Some(Format::Dblp)),
            "usflight" => Ok(Some(Format::UsFlight)),
            "native" => Ok(Some(Format::Native)),
            "auto" => Ok(None),
            other => Err(format!(
                "unknown format '{other}' (expected pokec|dblp|usflight|native|auto)"
            )),
        }
    }

    /// Table II category of datasets in this format.
    pub fn category(self) -> &'static str {
        match self {
            Format::Pokec => "Social",
            Format::Dblp => "Citation",
            Format::UsFlight => "Airport",
            Format::Native => "Graph",
        }
    }

    /// Detects the format from the first non-comment line of `path`:
    /// a first whitespace-separated token of `v` or `e` is native (as
    /// [`read_graph`] splits on any whitespace), a pair of tab-separated
    /// integers is a Pokec edge list, and CSV headers are told apart by
    /// their columns (`venues`+`coauthors` vs `src`+`dst`).
    pub fn sniff(path: &Path) -> Result<Format, IngestError> {
        let mut reader = BufReader::new(File::open(path)?);
        let mut line = Vec::new();
        loop {
            line.clear();
            if reader.read_until(b'\n', &mut line)? == 0 {
                break;
            }
            let text = String::from_utf8_lossy(&line);
            let text = text.trim();
            if text.is_empty() || text.starts_with('#') {
                continue;
            }
            if matches!(text.split_whitespace().next(), Some("v" | "e")) {
                return Ok(Format::Native);
            }
            let mut tabs = text.split('\t');
            if let (Some(a), Some(b)) = (tabs.next(), tabs.next()) {
                if a.trim().parse::<u64>().is_ok() && b.trim().parse::<u64>().is_ok() {
                    return Ok(Format::Pokec);
                }
            }
            let header = text.to_ascii_lowercase();
            let has = |col: &str| header.split(',').any(|f| f.trim() == col);
            if has("venues") && has("coauthors") {
                return Ok(Format::Dblp);
            }
            if has("src") && has("dst") {
                return Ok(Format::UsFlight);
            }
            break;
        }
        Err(IngestError::UnknownFormat {
            path: path.to_path_buf(),
        })
    }
}

impl fmt::Display for Format {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Format::Pokec => "pokec",
            Format::Dblp => "dblp",
            Format::UsFlight => "usflight",
            Format::Native => "native",
        })
    }
}

/// Sink that dump parsers stream records into.
///
/// Real dumps use sparse external ids (Pokec user numbers, IATA codes,
/// author keys); the assembler remaps them to the dense [`VertexId`]s
/// the miner needs, forwards labels and edges straight into a
/// [`GraphBuilder`], and tallies the oddities real data contains
/// (self-loop rows are skipped, duplicate declarations are errors).
pub struct GraphAssembler {
    builder: GraphBuilder,
    ids: HashMap<Box<str>, VertexId>,
    declared: Vec<bool>,
    self_loops_skipped: usize,
    value_buf: String,
}

impl Default for GraphAssembler {
    fn default() -> Self {
        Self::new()
    }
}

impl GraphAssembler {
    /// Creates an empty assembler.
    pub fn new() -> Self {
        Self {
            builder: GraphBuilder::new(),
            ids: HashMap::new(),
            declared: Vec::new(),
            self_loops_skipped: 0,
            value_buf: String::new(),
        }
    }

    /// Dense id for external id `ext`, creating the vertex on first use.
    pub fn vertex(&mut self, ext: &str) -> VertexId {
        if let Some(&v) = self.ids.get(ext) {
            return v;
        }
        let v = self.builder.add_vertex(std::iter::empty::<&str>());
        self.ids.insert(ext.into(), v);
        self.declared.push(false);
        v
    }

    /// Like [`Self::vertex`], but returns `None` if `ext` was already
    /// *declared* — used for the one record per entity (profile row,
    /// author row, airport row) each format carries; callers turn
    /// `None` into [`IngestError::DuplicateVertex`].
    pub fn declare(&mut self, ext: &str) -> Option<VertexId> {
        let v = self.vertex(ext);
        if std::mem::replace(&mut self.declared[v as usize], true) {
            return None;
        }
        Some(v)
    }

    /// Attaches attribute value `value` to `v`, normalising internal
    /// whitespace to `_` so values survive the plain-text graph format.
    pub fn label(&mut self, v: VertexId, value: &str) {
        self.value_buf.clear();
        for part in value.split_whitespace() {
            if !self.value_buf.is_empty() {
                self.value_buf.push('_');
            }
            self.value_buf.push_str(part);
        }
        if self.value_buf.is_empty() {
            return;
        }
        // value_buf can't alias builder state; ids are in-range by
        // construction.
        let buf = std::mem::take(&mut self.value_buf);
        self.builder
            .add_label(v, &buf)
            .expect("assembler ids are always in range");
        self.value_buf = buf;
    }

    /// Attaches a `key=value` attribute (`key=` prefixed normalisation
    /// of [`Self::label`]).
    pub fn keyed_label(&mut self, v: VertexId, key: &str, value: &str) {
        let mut composed = String::with_capacity(key.len() + 1 + value.len());
        composed.push_str(key);
        composed.push('=');
        composed.push_str(value);
        self.label(v, &composed);
    }

    /// Adds the undirected edge `{u, v}`; self-loops (present in some
    /// real dumps) are skipped and tallied, duplicates collapse.
    pub fn edge(&mut self, u: VertexId, v: VertexId) {
        if u == v {
            self.self_loops_skipped += 1;
            return;
        }
        self.builder
            .add_edge(u, v)
            .expect("assembler ids are always in range");
    }

    /// Number of vertices created so far.
    pub fn vertex_count(&self) -> usize {
        self.builder.vertex_count()
    }

    /// Self-loop records skipped so far.
    pub fn self_loops_skipped(&self) -> usize {
        self.self_loops_skipped
    }

    /// Finishes construction (no connectivity requirement: the miner
    /// accepts any graph, and real dumps are rarely one component).
    pub fn finish(self) -> AttributedGraph {
        self.builder.build_unchecked()
    }
}

/// A streaming producer of one attributed graph.
///
/// Implementations read their dump(s) line by line and push records
/// into the [`GraphAssembler`]; nothing dataset-sized is materialised
/// outside the builder itself.
pub trait AttributedGraphSource {
    /// Dataset display name (e.g. `"Pokec(real:pokec_small)"`).
    fn name(&self) -> String;
    /// Streams every record into `sink`, consuming the underlying
    /// reader(s).
    fn stream_into(&mut self, sink: &mut GraphAssembler) -> Result<(), IngestError>;
}

/// Result of one [`ingest`] call.
#[derive(Debug)]
pub struct IngestReport {
    /// The assembled dataset, ready for the miner.
    pub dataset: Dataset,
    /// Format actually used (sniffed or requested).
    pub format: Format,
    /// Wall-clock seconds spent parsing + assembling.
    pub parse_secs: f64,
    /// Self-loop records skipped during parsing.
    pub self_loops_skipped: usize,
}

/// Ingests a real dataset dump: sniffs the format (unless given) and
/// parses the dump. Native files go through [`read_graph`], so
/// `--input` reads them exactly as every other command does; the
/// dump formats stream through their [`AttributedGraphSource`]. See
/// the module docs for an example.
pub fn ingest(path: &Path, format: Option<Format>) -> Result<IngestReport, IngestError> {
    let format = match format {
        Some(f) => f,
        None => Format::sniff(path)?,
    };
    let started = Instant::now();
    let (dataset, self_loops_skipped) = match format {
        Format::Pokec => assemble(pokec::PokecSource::open(path)?, format)?,
        Format::Dblp => assemble(dblp::DblpSource::open(path)?, format)?,
        Format::UsFlight => assemble(usflight::UsFlightSource::open(path)?, format)?,
        Format::Native => {
            let graph = read_graph(File::open(path)?).map_err(|e| match e {
                GraphError::Parse { line, message } => IngestError::Parse {
                    path: path.to_path_buf(),
                    line,
                    message,
                },
                GraphError::Io(e) => IngestError::Io(e),
                e => IngestError::Graph(e),
            })?;
            let dataset = Dataset {
                name: leak_name(dataset_name("Graph", path)),
                category: format.category(),
                graph,
            };
            (dataset, 0)
        }
    };
    Ok(IngestReport {
        dataset,
        format,
        parse_secs: started.elapsed().as_secs_f64(),
        self_loops_skipped,
    })
}

/// Streams `source`, a dump in `format`, through a fresh
/// [`GraphAssembler`], returning the dataset and the number of
/// self-loop records skipped.
fn assemble(
    mut source: impl AttributedGraphSource,
    format: Format,
) -> Result<(Dataset, usize), IngestError> {
    let mut sink = GraphAssembler::new();
    source.stream_into(&mut sink)?;
    let self_loops_skipped = sink.self_loops_skipped();
    let dataset = Dataset {
        name: leak_name(source.name()),
        category: format.category(),
        graph: sink.finish(),
    };
    Ok((dataset, self_loops_skipped))
}

/// [`Dataset::name`] is `&'static str` (the generators use literals);
/// ingested names are dynamic, so they are leaked once per ingested
/// file — a few bytes over a process that ingests a handful of dumps.
fn leak_name(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}

/// Display name `<Kind>(real:<file stem>)`.
fn dataset_name(kind: &str, path: &Path) -> String {
    let stem = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "input".to_owned());
    format!("{kind}(real:{stem})")
}

/// Resolves a sidecar path by inserting `tag` before the extension
/// (`pokec_small.txt` → `pokec_small.profiles.txt`), falling back to a
/// name substitution for the real dumps' naming convention
/// (`soc-pokec-relationships.txt` → `soc-pokec-profiles.txt`).
fn sidecar_path(
    main: &Path,
    tag: &str,
    substitute: Option<(&str, &str)>,
) -> Result<PathBuf, IngestError> {
    let stem = main.file_stem().unwrap_or_default().to_string_lossy();
    let ext = main.extension().unwrap_or_default().to_string_lossy();
    let tagged = if ext.is_empty() {
        main.with_file_name(format!("{stem}.{tag}"))
    } else {
        main.with_file_name(format!("{stem}.{tag}.{ext}"))
    };
    if tagged.exists() {
        return Ok(tagged);
    }
    if let Some((from, to)) = substitute {
        let name = main.file_name().unwrap_or_default().to_string_lossy();
        if name.contains(from) {
            let swapped = main.with_file_name(name.replace(from, to));
            if swapped.exists() {
                return Ok(swapped);
            }
        }
    }
    Err(IngestError::MissingSidecar {
        main: main.to_path_buf(),
        expected: tagged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    pub(crate) fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("cspm-ingest-tests").join(name);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn assembler_remaps_sparse_ids_and_skips_self_loops() {
        let mut a = GraphAssembler::new();
        let u = a.vertex("1000");
        let v = a.vertex("7");
        assert_eq!(a.vertex("1000"), u);
        a.edge(u, v);
        a.edge(u, u);
        a.keyed_label(u, "region", "zilinsky kraj, zilina");
        let loops = a.self_loops_skipped();
        let g = a.finish();
        assert_eq!(loops, 1);
        assert_eq!(g.vertex_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert!(g.attrs().get("region=zilinsky_kraj,_zilina").is_some());
    }

    #[test]
    fn declare_rejects_duplicates() {
        let mut a = GraphAssembler::new();
        assert!(a.declare("x").is_some());
        assert!(a.declare("y").is_some());
        assert!(a.declare("x").is_none());
    }

    #[test]
    fn format_cli_names_roundtrip() {
        for f in [
            Format::Pokec,
            Format::Dblp,
            Format::UsFlight,
            Format::Native,
        ] {
            assert_eq!(Format::from_cli(&f.to_string()).unwrap(), Some(f));
        }
        assert_eq!(Format::from_cli("auto").unwrap(), None);
        assert!(Format::from_cli("nope").is_err());
    }

    #[test]
    fn sniff_distinguishes_the_formats() {
        let dir = temp_dir("sniff");
        let cases: &[(&str, &str, Format)] = &[
            ("edges.txt", "# snap\n12\t34\n", Format::Pokec),
            (
                "authors.csv",
                "id,name,venues,coauthors\n1,A,ICDE,2\n",
                Format::Dblp,
            ),
            (
                "routes.csv",
                "src,dst,airline\nJFK,LAX,AA\n",
                Format::UsFlight,
            ),
            ("plain.graph", "# c\nv 0 a\ne 0 1\n", Format::Native),
            ("tabbed.graph", "v\t0\ta\ne\t0\t1\n", Format::Native),
        ];
        for (file, text, want) in cases {
            let p = dir.join(file);
            fs::write(&p, text).unwrap();
            assert_eq!(Format::sniff(&p).unwrap(), *want, "{file}");
        }
        let p = dir.join("mystery.bin");
        fs::write(&p, "???\n").unwrap();
        assert!(matches!(
            Format::sniff(&p),
            Err(IngestError::UnknownFormat { .. })
        ));
    }

    #[test]
    fn bad_native_records_are_parse_errors_at_their_line() {
        let path = temp_dir("native").join("g.graph");
        for (text, want) in [("v 0 a\nz 1 2\n", 2), ("e 0\n", 1), ("v x a\n", 1)] {
            fs::write(&path, text).unwrap();
            match ingest(&path, Some(Format::Native)) {
                Err(IngestError::Parse { line, .. }) => assert_eq!(line, want, "{text:?}"),
                other => panic!("{text:?}: expected a parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn sidecar_resolution_prefers_tagged_then_substitutes() {
        let dir = temp_dir("sidecar");
        // The scratch dir persists across test runs; start clean so the
        // sidecar written below doesn't pre-exist.
        fs::remove_dir_all(&dir).ok();
        fs::create_dir_all(&dir).unwrap();
        let main = dir.join("soc-pokec-relationships.txt");
        fs::write(&main, "1\t2\n").unwrap();
        // Neither sidecar exists yet: typed error naming the expectation.
        match sidecar_path(&main, "profiles", Some(("relationships", "profiles"))) {
            Err(IngestError::MissingSidecar { expected, .. }) => {
                assert!(expected.to_string_lossy().contains("profiles"))
            }
            other => panic!("expected MissingSidecar, got {other:?}"),
        }
        let swapped = dir.join("soc-pokec-profiles.txt");
        fs::write(&swapped, "1\t1\t0\tnull\tnull\tnull\n").unwrap();
        assert_eq!(
            sidecar_path(&main, "profiles", Some(("relationships", "profiles"))).unwrap(),
            swapped
        );
    }
}
