//! The daemon's wire protocol: typed requests, typed errors, and the
//! line grammar shared by server and client.
//!
//! One JSON object per line in each direction (`docs/FORMATS.md` §6 is
//! the normative reference). Requests carry an `"op"` discriminator;
//! responses carry `"ok": true` plus op-specific fields, or `"ok":
//! false` with an `"error": {"code", "message"}` object. Every way a
//! request can be wrong maps to one [`ErrorCode`] — the daemon never
//! answers free-text, and never closes a connection just because one
//! line was garbage.
//!
//! Parsing is two-stage on purpose: [`crate::json`] gets the line into
//! a [`Value`] (syntax errors → [`ErrorCode::MalformedJson`] with a
//! byte offset), then [`parse_request`] checks shape and field types
//! (everything else). The same [`delta_from_value`] runs in the client
//! CLI, so a bad delta is rejected with the same message before it ever
//! crosses the socket.

use cspm_graph::dynamic::{DeltaVertex, GraphDelta};
use cspm_graph::VertexId;

use crate::json::{self, Value};

/// Hard cap on one request line, in bytes. Inline `open` graphs are the
/// only big payload; 8 MiB fits ~100k-vertex text graphs with room to
/// spare while keeping a hostile client from ballooning the daemon.
pub const MAX_FRAME: usize = 8 * 1024 * 1024;

/// Session names double as checkpoint file stems under `--store-dir`,
/// so the alphabet is filesystem-safe by construction.
pub const MAX_SESSION_NAME: usize = 64;

/// Typed protocol error codes (the `error.code` wire values).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line is not valid JSON.
    MalformedJson,
    /// Valid JSON, but `op` is missing or not one the daemon knows.
    UnknownOp,
    /// A required field is absent.
    MissingField,
    /// A field is present but has the wrong type or an invalid value.
    InvalidField,
    /// The request line exceeds [`MAX_FRAME`] bytes.
    OversizedFrame,
    /// The session name is not `[A-Za-z0-9._-]{1,64}` (or is `.`/`..`).
    BadName,
    /// No resident or stored session has this name.
    UnknownSession,
    /// `open` with a graph for a name that is already resident.
    SessionExists,
    /// The inline graph text failed to parse.
    BadGraph,
    /// The delta failed validation (here or at apply time).
    BadDelta,
    /// The mine request's deadline expired before convergence.
    DeadlineExceeded,
    /// A store (checkpoint/recovery) operation failed.
    Store,
    /// The daemon is draining: no new work is accepted.
    ShuttingDown,
    /// A bug surfaced as an error instead of a panic.
    Internal,
}

impl ErrorCode {
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::MalformedJson => "malformed_json",
            ErrorCode::UnknownOp => "unknown_op",
            ErrorCode::MissingField => "missing_field",
            ErrorCode::InvalidField => "invalid_field",
            ErrorCode::OversizedFrame => "oversized_frame",
            ErrorCode::BadName => "bad_name",
            ErrorCode::UnknownSession => "unknown_session",
            ErrorCode::SessionExists => "session_exists",
            ErrorCode::BadGraph => "bad_graph",
            ErrorCode::BadDelta => "bad_delta",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::Store => "store",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Internal => "internal",
        }
    }
}

/// A typed protocol error: code + human-readable detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    pub code: ErrorCode,
    pub message: String,
}

impl ProtoError {
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        Self {
            code,
            message: message.into(),
        }
    }

    /// The error as a complete response line (without the newline).
    pub fn to_line(&self) -> String {
        let error = Value::Obj(vec![
            ("code".into(), self.code.as_str().into()),
            ("message".into(), self.message.as_str().into()),
        ]);
        Value::Obj(vec![("ok".into(), false.into()), ("error".into(), error)]).to_json()
    }
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code.as_str(), self.message)
    }
}

impl std::error::Error for ProtoError {}

/// A validated request, ready for the server's dispatch loop.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answered without touching any session.
    Ping,
    /// With `graph`: create the named session from inline graph text.
    /// Without: attach to a resident session, or warm-open it from the
    /// store.
    Open {
        session: String,
        graph: Option<String>,
    },
    /// Stage an additive delta into the named session.
    Delta { session: String, delta: GraphDelta },
    /// Mine the named session (warm re-mine after deltas).
    Mine {
        session: String,
        /// Per-request deadline; expiry cancels via the observer and
        /// answers [`ErrorCode::DeadlineExceeded`].
        deadline_ms: Option<u64>,
        /// Cap on the number of stars echoed back (all merges still
        /// run; this only trims the response).
        top: Option<usize>,
    },
    /// Mine like [`Request::Mine`], but stream one progress event line
    /// per accepted merge before the final response — same connection,
    /// same terminal payload.
    Subscribe {
        session: String,
        /// Per-request deadline; expiry cancels via the observer and
        /// answers [`ErrorCode::DeadlineExceeded`] as the terminal line.
        deadline_ms: Option<u64>,
        /// Cap on the number of stars echoed back in the terminal line.
        top: Option<usize>,
    },
    /// Daemon-wide stats, or one session's stats when named.
    Stats { session: Option<String> },
    /// The process-wide metrics registry rendered as Prometheus text
    /// exposition, carried in a JSON string field.
    Metrics,
    /// Checkpoint (if durable) and release the named session.
    Close { session: String },
    /// Drain and stop the daemon (equivalent to SIGTERM).
    Shutdown,
}

impl Request {
    /// The request's wire `op` string (the metrics label for per-op
    /// counters).
    pub fn op_name(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::Open { .. } => "open",
            Request::Delta { .. } => "delta",
            Request::Mine { .. } => "mine",
            Request::Subscribe { .. } => "subscribe",
            Request::Stats { .. } => "stats",
            Request::Metrics => "metrics",
            Request::Close { .. } => "close",
            Request::Shutdown => "shutdown",
        }
    }
}

/// Whether `name` may identify a session: 1–64 chars of
/// `[A-Za-z0-9._-]`, excluding the path-walking `.` / `..`.
pub fn valid_session_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= MAX_SESSION_NAME
        && name != "."
        && name != ".."
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
}

fn missing(field: &str) -> ProtoError {
    ProtoError::new(ErrorCode::MissingField, format!("missing field {field:?}"))
}

fn invalid(field: &str, want: &str) -> ProtoError {
    ProtoError::new(
        ErrorCode::InvalidField,
        format!("field {field:?} must be {want}"),
    )
}

fn session_field(v: &Value) -> Result<String, ProtoError> {
    let name = v
        .get("session")
        .ok_or_else(|| missing("session"))?
        .as_str()
        .ok_or_else(|| invalid("session", "a string"))?;
    if !valid_session_name(name) {
        return Err(ProtoError::new(
            ErrorCode::BadName,
            format!(
                "session name must be 1..={MAX_SESSION_NAME} chars of [A-Za-z0-9._-], got {name:?}"
            ),
        ));
    }
    Ok(name.to_string())
}

/// Parses and validates one request line.
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    if line.len() > MAX_FRAME {
        return Err(ProtoError::new(
            ErrorCode::OversizedFrame,
            format!("request line is {} bytes (cap {})", line.len(), MAX_FRAME),
        ));
    }
    let v =
        json::parse(line).map_err(|e| ProtoError::new(ErrorCode::MalformedJson, e.to_string()))?;
    if v.as_obj().is_none() {
        return Err(ProtoError::new(
            ErrorCode::MalformedJson,
            "request must be a JSON object",
        ));
    }
    let op = v
        .get("op")
        .ok_or_else(|| ProtoError::new(ErrorCode::UnknownOp, "missing field \"op\""))?
        .as_str()
        .ok_or_else(|| ProtoError::new(ErrorCode::UnknownOp, "field \"op\" must be a string"))?;
    match op {
        "ping" => Ok(Request::Ping),
        "open" => {
            let session = session_field(&v)?;
            let graph = match v.get("graph") {
                None | Some(Value::Null) => None,
                Some(g) => Some(
                    g.as_str()
                        .ok_or_else(|| invalid("graph", "a string (graph text format)"))?
                        .to_string(),
                ),
            };
            Ok(Request::Open { session, graph })
        }
        "delta" => {
            let session = session_field(&v)?;
            let delta = delta_from_value(&v)?;
            Ok(Request::Delta { session, delta })
        }
        "mine" | "subscribe" => {
            let session = session_field(&v)?;
            let deadline_ms = match v.get("deadline_ms") {
                None | Some(Value::Null) => None,
                Some(d) => Some(
                    d.as_u64()
                        .ok_or_else(|| invalid("deadline_ms", "a non-negative integer"))?,
                ),
            };
            let top = match v.get("top") {
                None | Some(Value::Null) => None,
                Some(t) => Some(
                    t.as_u64()
                        .ok_or_else(|| invalid("top", "a non-negative integer"))?
                        as usize,
                ),
            };
            if op == "subscribe" {
                Ok(Request::Subscribe {
                    session,
                    deadline_ms,
                    top,
                })
            } else {
                Ok(Request::Mine {
                    session,
                    deadline_ms,
                    top,
                })
            }
        }
        "metrics" => Ok(Request::Metrics),
        "stats" => {
            let session = match v.get("session") {
                None | Some(Value::Null) => None,
                Some(_) => Some(session_field(&v)?),
            };
            Ok(Request::Stats { session })
        }
        "close" => Ok(Request::Close {
            session: session_field(&v)?,
        }),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(ProtoError::new(
            ErrorCode::UnknownOp,
            format!("unknown op {other:?}"),
        )),
    }
}

/// Builds a [`GraphDelta`] from a request's delta fields:
///
/// ```json
/// {"add_vertices":    [["a","b"], []],
///  "add_edges":       [[0, {"new": 0}], [{"new": 0}, {"new": 1}]],
///  "add_labels":      [[3, "c"]],
///  "remove_edges":    [[0, 2]],
///  "remove_labels":   [[1, "b"]],
///  "remove_vertices": [4],
///  "change_labels":   [[3, "c", "d"]]}
/// ```
///
/// `add_vertices[i]` is the label list of the delta's `i`-th new
/// vertex; edge endpoints are base-graph vertex ids (integers) or
/// `{"new": i}` references to those new vertices; `add_labels` attaches
/// a value to an existing vertex. The churn fields take base-graph ids
/// only (a vertex added by the same delta cannot be removed by it):
/// `remove_edges` drops edges, `remove_labels` drops one value off a
/// vertex, `remove_vertices` detaches vertices (labels and incident
/// edges go, the id slot stays), `change_labels` swaps `old` for `new`
/// on a vertex. Absent removal targets are no-ops at apply time. All
/// fields are optional — an absent field changes nothing.
pub fn delta_from_value(v: &Value) -> Result<GraphDelta, ProtoError> {
    let bad = |msg: String| ProtoError::new(ErrorCode::BadDelta, msg);
    let mut delta = GraphDelta::new();

    let added = match v.get("add_vertices") {
        None | Some(Value::Null) => 0,
        Some(vs) => {
            let vs = vs
                .as_arr()
                .ok_or_else(|| bad("add_vertices must be an array of label arrays".into()))?;
            for (i, labels) in vs.iter().enumerate() {
                let labels = labels
                    .as_arr()
                    .ok_or_else(|| bad(format!("add_vertices[{i}] must be an array of strings")))?;
                let mut names = Vec::with_capacity(labels.len());
                for l in labels {
                    names.push(l.as_str().ok_or_else(|| {
                        bad(format!("add_vertices[{i}] must contain only strings"))
                    })?);
                }
                delta.add_vertex(names);
            }
            vs.len()
        }
    };

    let endpoint = |ep: &Value, what: &str| -> Result<DeltaVertex, ProtoError> {
        if let Some(id) = ep.as_u64() {
            let id = VertexId::try_from(id)
                .map_err(|_| bad(format!("{what}: vertex id {id} out of range")))?;
            return Ok(DeltaVertex::Existing(id));
        }
        if let Some(new) = ep.get("new") {
            let i = new
                .as_u64()
                .ok_or_else(|| bad(format!("{what}: \"new\" must be a non-negative integer")))?;
            if i >= added as u64 {
                return Err(bad(format!(
                    "{what}: {{\"new\": {i}}} but the delta adds only {added} vertices"
                )));
            }
            return Ok(DeltaVertex::Added(i as u32));
        }
        Err(bad(format!(
            "{what}: endpoint must be a vertex id or {{\"new\": i}}"
        )))
    };

    if let Some(es) = v.get("add_edges") {
        if !matches!(es, Value::Null) {
            let es = es
                .as_arr()
                .ok_or_else(|| bad("add_edges must be an array of [a, b] pairs".into()))?;
            for (i, pair) in es.iter().enumerate() {
                let pair = pair
                    .as_arr()
                    .filter(|p| p.len() == 2)
                    .ok_or_else(|| bad(format!("add_edges[{i}] must be an [a, b] pair")))?;
                let a = endpoint(&pair[0], &format!("add_edges[{i}][0]"))?;
                let b = endpoint(&pair[1], &format!("add_edges[{i}][1]"))?;
                delta.add_edge(a, b);
            }
        }
    }

    if let Some(ls) = v.get("add_labels") {
        if !matches!(ls, Value::Null) {
            let ls = ls.as_arr().ok_or_else(|| {
                bad("add_labels must be an array of [vertex, value] pairs".into())
            })?;
            for (i, pair) in ls.iter().enumerate() {
                let pair = pair.as_arr().filter(|p| p.len() == 2).ok_or_else(|| {
                    bad(format!("add_labels[{i}] must be a [vertex, value] pair"))
                })?;
                let vid = pair[0]
                    .as_u64()
                    .and_then(|id| VertexId::try_from(id).ok())
                    .ok_or_else(|| bad(format!("add_labels[{i}][0] must be a vertex id")))?;
                let value = pair[1]
                    .as_str()
                    .ok_or_else(|| bad(format!("add_labels[{i}][1] must be a string")))?;
                delta.add_label(vid, value);
            }
        }
    }

    let base_id = |x: &Value, what: &str| -> Result<VertexId, ProtoError> {
        x.as_u64()
            .and_then(|id| VertexId::try_from(id).ok())
            .ok_or_else(|| bad(format!("{what} must be a base-graph vertex id")))
    };

    if let Some(es) = v.get("remove_edges") {
        if !matches!(es, Value::Null) {
            let es = es
                .as_arr()
                .ok_or_else(|| bad("remove_edges must be an array of [u, v] id pairs".into()))?;
            for (i, pair) in es.iter().enumerate() {
                let pair = pair
                    .as_arr()
                    .filter(|p| p.len() == 2)
                    .ok_or_else(|| bad(format!("remove_edges[{i}] must be a [u, v] id pair")))?;
                let u = base_id(&pair[0], &format!("remove_edges[{i}][0]"))?;
                let w = base_id(&pair[1], &format!("remove_edges[{i}][1]"))?;
                delta.remove_edge(u, w);
            }
        }
    }

    if let Some(ls) = v.get("remove_labels") {
        if !matches!(ls, Value::Null) {
            let ls = ls.as_arr().ok_or_else(|| {
                bad("remove_labels must be an array of [vertex, value] pairs".into())
            })?;
            for (i, pair) in ls.iter().enumerate() {
                let pair = pair.as_arr().filter(|p| p.len() == 2).ok_or_else(|| {
                    bad(format!("remove_labels[{i}] must be a [vertex, value] pair"))
                })?;
                let vid = base_id(&pair[0], &format!("remove_labels[{i}][0]"))?;
                let value = pair[1]
                    .as_str()
                    .ok_or_else(|| bad(format!("remove_labels[{i}][1] must be a string")))?;
                delta.remove_label(vid, value);
            }
        }
    }

    if let Some(vs) = v.get("remove_vertices") {
        if !matches!(vs, Value::Null) {
            let vs = vs
                .as_arr()
                .ok_or_else(|| bad("remove_vertices must be an array of vertex ids".into()))?;
            for (i, id) in vs.iter().enumerate() {
                delta.remove_vertex(base_id(id, &format!("remove_vertices[{i}]"))?);
            }
        }
    }

    if let Some(cs) = v.get("change_labels") {
        if !matches!(cs, Value::Null) {
            let cs = cs.as_arr().ok_or_else(|| {
                bad("change_labels must be an array of [vertex, old, new] triples".into())
            })?;
            for (i, triple) in cs.iter().enumerate() {
                let triple = triple.as_arr().filter(|t| t.len() == 3).ok_or_else(|| {
                    bad(format!(
                        "change_labels[{i}] must be a [vertex, old, new] triple"
                    ))
                })?;
                let vid = base_id(&triple[0], &format!("change_labels[{i}][0]"))?;
                let old = triple[1]
                    .as_str()
                    .ok_or_else(|| bad(format!("change_labels[{i}][1] must be a string")))?;
                let new = triple[2]
                    .as_str()
                    .ok_or_else(|| bad(format!("change_labels[{i}][2] must be a string")))?;
                delta.change_label(vid, old, new);
            }
        }
    }

    if delta.is_empty() {
        return Err(bad(
            "delta changes nothing (need add_vertices, add_edges, add_labels, \
             remove_edges, remove_labels, remove_vertices, or change_labels)"
                .into(),
        ));
    }
    Ok(delta)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_names_are_filesystem_safe() {
        assert!(valid_session_name("tenant-01.graph_a"));
        assert!(valid_session_name("A"));
        assert!(!valid_session_name(""));
        assert!(!valid_session_name("."));
        assert!(!valid_session_name(".."));
        assert!(!valid_session_name("a/b"));
        assert!(!valid_session_name("a b"));
        assert!(!valid_session_name("naïve"));
        assert!(!valid_session_name(&"x".repeat(65)));
        assert!(valid_session_name(&"x".repeat(64)));
    }

    #[test]
    fn parses_every_op() {
        assert_eq!(parse_request(r#"{"op":"ping"}"#).unwrap(), Request::Ping);
        assert_eq!(
            parse_request(r#"{"op":"open","session":"t1"}"#).unwrap(),
            Request::Open {
                session: "t1".into(),
                graph: None
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"open","session":"t1","graph":"v 0 a\nv 1 a\ne 0 1\n"}"#)
                .unwrap(),
            Request::Open {
                session: "t1".into(),
                graph: Some("v 0 a\nv 1 a\ne 0 1\n".into())
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"mine","session":"t1","deadline_ms":250,"top":5}"#).unwrap(),
            Request::Mine {
                session: "t1".into(),
                deadline_ms: Some(250),
                top: Some(5)
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"subscribe","session":"t1","deadline_ms":250,"top":5}"#)
                .unwrap(),
            Request::Subscribe {
                session: "t1".into(),
                deadline_ms: Some(250),
                top: Some(5)
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"metrics"}"#).unwrap(),
            Request::Metrics
        );
        assert_eq!(
            parse_request(r#"{"op":"stats"}"#).unwrap(),
            Request::Stats { session: None }
        );
        assert_eq!(
            parse_request(r#"{"op":"stats","session":"t1"}"#).unwrap(),
            Request::Stats {
                session: Some("t1".into())
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"close","session":"t1"}"#).unwrap(),
            Request::Close {
                session: "t1".into()
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn typed_errors_for_each_failure_mode() {
        let code = |line: &str| parse_request(line).unwrap_err().code;
        assert_eq!(code("not json"), ErrorCode::MalformedJson);
        assert_eq!(code("[1,2]"), ErrorCode::MalformedJson);
        assert_eq!(code(r#"{"op":"fly"}"#), ErrorCode::UnknownOp);
        assert_eq!(code(r#"{"session":"t1"}"#), ErrorCode::UnknownOp);
        assert_eq!(code(r#"{"op":"mine"}"#), ErrorCode::MissingField);
        assert_eq!(code(r#"{"op":"subscribe"}"#), ErrorCode::MissingField);
        assert_eq!(
            code(r#"{"op":"mine","session":7}"#),
            ErrorCode::InvalidField
        );
        assert_eq!(code(r#"{"op":"mine","session":"a/b"}"#), ErrorCode::BadName);
        assert_eq!(
            code(r#"{"op":"mine","session":"t1","deadline_ms":-5}"#),
            ErrorCode::InvalidField
        );
        assert_eq!(
            code(r#"{"op":"delta","session":"t1","add_edges":[[0]]}"#),
            ErrorCode::BadDelta
        );
        let long = format!("{{\"op\":\"ping\",\"pad\":\"{}\"}}", "x".repeat(MAX_FRAME));
        assert_eq!(code(&long), ErrorCode::OversizedFrame);
    }

    #[test]
    fn delta_builds_vertices_edges_labels() {
        let v = crate::json::parse(
            r#"{"add_vertices":[["a","b"],[]],
                "add_edges":[[0,{"new":0}],[{"new":0},{"new":1}]],
                "add_labels":[[2,"c"]]}"#,
        )
        .unwrap();
        let d = delta_from_value(&v).unwrap();
        assert_eq!(d.added_vertex_count(), 2);
        assert!(!d.is_empty());
    }

    #[test]
    fn delta_builds_churn_fields() {
        let v = crate::json::parse(
            r#"{"remove_edges":[[0,2]],
                "remove_labels":[[1,"b"]],
                "remove_vertices":[4],
                "change_labels":[[3,"c","d"]]}"#,
        )
        .unwrap();
        let d = delta_from_value(&v).unwrap();
        assert!(d.has_churn());
        assert!(!d.is_empty());
        assert_eq!(d.added_vertex_count(), 0);
    }

    #[test]
    fn malformed_churn_fields_get_typed_errors() {
        let cases = [
            // Wrong arity, wrong element types, non-array fields, and
            // `{"new": i}` references (churn takes base ids only).
            r#"{"remove_edges":[[0]]}"#,
            r#"{"remove_edges":[[0,{"new":0}]]}"#,
            r#"{"remove_edges":"all"}"#,
            r#"{"remove_labels":[[1,2]]}"#,
            r#"{"remove_labels":[["a",1]]}"#,
            r#"{"remove_vertices":[-1]}"#,
            r#"{"remove_vertices":["v0"]}"#,
            r#"{"change_labels":[[3,"c"]]}"#,
            r#"{"change_labels":[[3,"c",4]]}"#,
            r#"{"change_labels":{"3":"c"}}"#,
        ];
        for case in cases {
            let v = crate::json::parse(case).unwrap();
            let e = delta_from_value(&v).unwrap_err();
            assert_eq!(e.code, ErrorCode::BadDelta, "{case}");
        }
    }

    #[test]
    fn delta_rejects_dangling_new_reference() {
        let v = crate::json::parse(r#"{"add_edges":[[0,{"new":3}]]}"#).unwrap();
        let e = delta_from_value(&v).unwrap_err();
        assert_eq!(e.code, ErrorCode::BadDelta);
        assert!(e.message.contains("adds only 0 vertices"));
    }

    #[test]
    fn empty_delta_is_rejected() {
        let v = crate::json::parse(r#"{"op":"delta","session":"t"}"#).unwrap();
        assert_eq!(delta_from_value(&v).unwrap_err().code, ErrorCode::BadDelta);
    }

    #[test]
    fn error_lines_are_wire_shaped() {
        let line = ProtoError::new(ErrorCode::UnknownOp, "unknown op \"fly\"").to_line();
        assert_eq!(
            line,
            r#"{"ok":false,"error":{"code":"unknown_op","message":"unknown op \"fly\""}}"#
        );
    }
}
