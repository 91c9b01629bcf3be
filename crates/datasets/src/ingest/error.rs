//! Typed errors for the real-dataset ingestion pipeline.
//!
//! Every malformed input — truncated lines, non-UTF-8 bytes, duplicate
//! vertex declarations, missing sidecars — maps to a distinct variant
//! carrying the file and, where there is one, the 1-based line. The
//! parsers never panic on bad input.

use std::fmt;
use std::io;
use std::path::PathBuf;

use cspm_graph::GraphError;

/// Errors raised while ingesting a real dataset dump.
#[derive(Debug)]
pub enum IngestError {
    /// An underlying I/O failure.
    Io(io::Error),
    /// A line is not valid UTF-8 (1-based line number).
    Utf8 { path: PathBuf, line: usize },
    /// A malformed record: truncated line, bad id, bad number, …
    /// (1-based line number).
    Parse {
        path: PathBuf,
        line: usize,
        message: String,
    },
    /// A vertex (user / author / airport) was declared twice.
    DuplicateVertex {
        path: PathBuf,
        line: usize,
        id: String,
    },
    /// The format needs a companion file that does not exist
    /// (e.g. Pokec profiles next to the relationship dump).
    MissingSidecar { main: PathBuf, expected: PathBuf },
    /// The input matches none of the known formats.
    UnknownFormat { path: PathBuf },
    /// The assembled graph violates an input constraint.
    Graph(GraphError),
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Io(e) => write!(f, "i/o error: {e}"),
            IngestError::Utf8 { path, line } => {
                write!(f, "{}:{line}: line is not valid UTF-8", path.display())
            }
            IngestError::Parse {
                path,
                line,
                message,
            } => write!(f, "{}:{line}: {message}", path.display()),
            IngestError::DuplicateVertex { path, line, id } => {
                write!(f, "{}:{line}: duplicate vertex id '{id}'", path.display())
            }
            IngestError::MissingSidecar { main, expected } => write!(
                f,
                "{} needs its companion file {} (not found)",
                main.display(),
                expected.display()
            ),
            IngestError::UnknownFormat { path } => write!(
                f,
                "{}: cannot auto-detect format (expected pokec, dblp, usflight or native)",
                path.display()
            ),
            IngestError::Graph(e) => write!(f, "graph construction failed: {e}"),
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IngestError::Io(e) => Some(e),
            IngestError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for IngestError {
    fn from(e: io::Error) -> Self {
        IngestError::Io(e)
    }
}

impl From<GraphError> for IngestError {
    fn from(e: GraphError) -> Self {
        IngestError::Graph(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_positions() {
        let e = IngestError::Parse {
            path: "x.csv".into(),
            line: 7,
            message: "truncated row".into(),
        };
        assert!(e.to_string().contains("x.csv:7"));
        let e = IngestError::DuplicateVertex {
            path: "p.txt".into(),
            line: 3,
            id: "42".into(),
        };
        assert!(e.to_string().contains("duplicate vertex id '42'"));
    }
}
