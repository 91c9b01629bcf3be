//! `cspm` — command-line interface to the miner.
//!
//! ```text
//! cspm mine <graph-file> [--basic] [--data-only] [--top K] [--multi-core krimp|slim]
//!                        [--threads N] [--store <path>] [--json]
//! cspm mine --input <dump> [--format pokec|dblp|usflight|native|auto] [mine flags…]
//! cspm mine --store <path> [mine flags…]
//! cspm stats <graph-file> [--json]
//! cspm stats --store <path> [--json]
//! cspm generate <dblp|dblp-trend|usflight|pokec> <out-file> [--scale tiny|small|paper] [--seed N]
//! cspm verify <graph-file>
//! cspm serve --socket <path> [--store-dir <dir>] [--threads N] [--mem-budget BYTES]
//! cspm client <op> --socket <path> [op args…]
//! ```
//!
//! Graph files use the plain-text format of `cspm::graph::read_graph`
//! (`v <id> <attr>…` / `e <u> <v>` lines). With the `real-data` feature,
//! `mine --input` instead ingests a real dataset dump (SNAP-style Pokec,
//! DBLP co-authorship CSV, USFlight route tables — see docs/FORMATS.md),
//! or a native graph file read as above.
//!
//! Mining goes through a [`cspm::core::MiningSession`] (the library's
//! primary API); the CLI is one-shot, but `--json` exposes the same
//! machine-readable digest a session embedder would read off a
//! [`CspmResult`](cspm::core::CspmResult): run statistics, the model
//! summary, compression ratio, and the top patterns — as a single JSON
//! document on stdout (progress/ingest chatter moves to stderr).
//!
//! Scheduling knob (speed only — mined output is bit-identical at any
//! setting): `--threads N` sets the worker count of CSPM-Basic's
//! re-scoring sweeps (default 0 = one per core, capped at 8);
//! CSPM-Partial scores on the calling thread. `--basic` runs CSPM-Basic
//! (Algorithm 1) instead of the default CSPM-Partial.
//!
//! `--store <path>` makes the session durable (crash-safe snapshot +
//! delta WAL, [`cspm::store`]): `mine` seeds an empty store from the
//! given input and checkpoints, or warm-opens a populated one and
//! re-mines the recovered session; `stats --store` reports store
//! health — file sizes, generation, WAL records since the last
//! checkpoint, and how recovery went.

use std::fs::File;
use std::process::ExitCode;

use cspm::core::{
    verify_lossless, CoresetMode, CspmConfig, CspmResult, GainPolicy, ModelSummary, Variant,
};
use cspm::datasets::{dblp_like, dblp_trend_like, pokec_like, save_dataset, usflight_like, Scale};
use cspm::graph::{metrics, read_graph, AttributedGraph};
use cspm::serve::{dl_bits, json::Value};

/// Writes to stdout like `print!`. A reader that has gone away (the
/// far end of `| head`) ends the run cleanly: exit status 0, nothing on
/// stderr. Rust ignores SIGPIPE, so the closed pipe arrives here as
/// `BrokenPipe` instead of killing the process.
fn emit(args: std::fmt::Arguments) {
    use std::io::{ErrorKind, Write as _};
    let mut out = std::io::stdout().lock();
    match out.write_fmt(args).and_then(|()| out.flush()) {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => {
            eprintln!("error: cannot write to stdout: {e}");
            std::process::exit(1);
        }
    }
}

/// `println!` through [`emit`]: every line the CLI prints goes here.
macro_rules! outln {
    ($($arg:tt)*) => {
        emit(format_args!("{}\n", format_args!($($arg)*)))
    };
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  cspm mine <graph-file> [--basic] [--data-only] [--top K] [--multi-core krimp|slim]
                         [--threads N] [--store <path>] [--json]
  cspm mine --input <dump> [--format pokec|dblp|usflight|native|auto] [mine flags...]
  cspm mine --store <path> [mine flags...]
  cspm stats <graph-file> [--json]
  cspm stats --store <path> [--json]
  cspm generate <dblp|dblp-trend|usflight|pokec> <out-file> [--scale tiny|small|paper] [--seed N]
  cspm verify <graph-file>
  cspm serve --socket <path> [--store-dir <dir>] [--threads N]
                             [--mem-budget BYTES]
  cspm client ping|shutdown            --socket <path>
  cspm client open <session>           --socket <path> [--graph <file>]
  cspm client delta <session>          --socket <path> [--file <json>]
  cspm client mine <session>           --socket <path> [--deadline-ms N] [--top K]
  cspm client subscribe <session>      --socket <path> [--deadline-ms N] [--top K]
  cspm client stats [<session>]        --socket <path>
  cspm client metrics                  --socket <path>
  cspm client close <session>          --socket <path>

machine-readable output:
  --json               emit one JSON document on stdout (run statistics,
                       model summary, compression ratio, top patterns);
                       progress/ingest notes go to stderr

mine variant and scheduling:
  --basic              run CSPM-Basic (Algorithm 1: regenerate every candidate
                       gain after each merge) instead of CSPM-Partial
  --threads N          worker threads for --basic's re-scoring sweeps
                       (0 = auto, default); tunes speed, never the model

durable sessions (crash-safe snapshot + delta WAL, docs/FORMATS.md):
  --store <path>       mine: persist the session at <path> — an empty store
                       is seeded from the given graph/--input and
                       checkpointed; a populated store warm-opens (the
                       input is then ignored) and re-mines the recovered
                       session. stats: report store health — file sizes,
                       generation, WAL records since the last checkpoint,
                       and how recovery went (clean / tail-truncated /
                       snapshot-fallback)

mining as a service (wire protocol: docs/FORMATS.md §6):
  serve                keep many named tenant sessions resident behind a
                       Unix socket speaking line-delimited JSON; under
                       --mem-budget pressure, idle tenants are evicted
                       LRU-first (durable tenants checkpoint to
                       --store-dir for warm re-open)
  serve --threads N    at most N mines run at once (default 1; 0 = 1),
                       each on its client's connection thread
  client               one request per invocation: builds the JSON line,
                       prints the daemon's response line on stdout, and
                       exits nonzero when something fails — 1 when the
                       daemon answers \"ok\":false, 2 when the transport
                       fails (no daemon, dead socket, torn stream)
                       (delta reads the delta object from --file or stdin)
  client subscribe     like client mine, but streams one progress line
                       per accepted merge before the final response
  client metrics       prints the daemon's Prometheus text exposition
                       (engine, store, and serve metric families)

real datasets (requires a build with --features real-data):
  --input <dump>       ingest a real dataset dump (formats: docs/FORMATS.md)
  --format <name>      pokec|dblp|usflight|native, or auto-detect (default)";

/// Observer for durable-session runs: mining runs to completion, and
/// recovery anomalies (truncated WAL tail, snapshot fallback, cold
/// database rebuilds) surface on stderr instead of vanishing.
struct WarnToStderr;

impl cspm::core::ProgressObserver for WarnToStderr {
    fn on_iteration(&mut self, _stat: &cspm::core::IterationStat) -> std::ops::ControlFlow<()> {
        std::ops::ControlFlow::Continue(())
    }

    fn on_warning(&mut self, message: &str) {
        eprintln!("store: warning: {message}");
    }
}

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("mine") => mine(&args[1..]),
        Some("stats") => stats(&args[1..]),
        Some("generate") => generate(&args[1..]),
        Some("verify") => verify(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("client") => client(&args[1..]),
        Some(other) => Err(format!("unknown command '{other}'")),
        None => Err("missing command".into()),
    }
}

fn load(path: &str) -> Result<AttributedGraph, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    read_graph(file).map_err(|e| format!("cannot parse {path}: {e}"))
}

/// Ingests a real dataset dump (`mine --input`) and notes what was
/// parsed; `tests/cli.rs` asserts these lines. Under `--json` the notes
/// move to stderr so stdout stays one JSON document.
#[cfg(feature = "real-data")]
fn ingest_input(dump: &str, format: &str, json: bool) -> Result<AttributedGraph, String> {
    use cspm::datasets::ingest;

    let note = |line: String| {
        if json {
            eprintln!("{line}");
        } else {
            outln!("{line}");
        }
    };
    let format = ingest::Format::from_cli(format)?;
    let report = ingest::ingest(std::path::Path::new(dump), format)
        .map_err(|e| format!("cannot ingest {dump}: {e}"))?;
    let (n, m, a) = report.dataset.statistics();
    note(format!(
        "ingest: parsed {dump} as {} ({n} vertices, {m} edges, {a} attribute values) in {:.3}s",
        report.format, report.parse_secs
    ));
    if report.self_loops_skipped > 0 {
        note(format!(
            "ingest: skipped {} self-loop record(s)",
            report.self_loops_skipped
        ));
    }
    note(format!(
        "dataset: {} [{}]",
        report.dataset.name, report.dataset.category
    ));
    Ok(report.dataset.graph)
}

#[cfg(not(feature = "real-data"))]
fn ingest_input(_dump: &str, _format: &str, _json: bool) -> Result<AttributedGraph, String> {
    Err(
        "this build has no real-dataset support (the real-data feature is off); \
         rebuild with `cargo build --features real-data`, or fall back to the \
         synthetic generators: `cspm generate <kind> <file>` then `cspm mine <file>`"
            .into(),
    )
}

fn mine(args: &[String]) -> Result<(), String> {
    let mut config = CspmConfig::default();
    let mut variant = Variant::Partial;
    let mut top = 20usize;
    let mut json = false;
    let mut graph_file: Option<&String> = None;
    let mut input: Option<&String> = None;
    let mut format: Option<String> = None;
    let mut store_path: Option<&String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--input" => {
                input = Some(it.next().ok_or("--input needs a dump path")?);
            }
            "--store" => {
                store_path = Some(it.next().ok_or("--store needs a file path")?);
            }
            "--format" => {
                format = Some(
                    it.next()
                        .ok_or("--format needs pokec|dblp|usflight|native|auto")?
                        .clone(),
                );
            }
            "--basic" => variant = Variant::Basic,
            "--data-only" => config.gain_policy = GainPolicy::DataOnly,
            "--top" => {
                top = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--top needs a number")?;
            }
            "--multi-core" => {
                config.coreset_mode = match it.next().map(String::as_str) {
                    Some("krimp") => CoresetMode::Krimp,
                    Some("slim") => CoresetMode::Slim,
                    _ => return Err("--multi-core needs 'krimp' or 'slim'".into()),
                };
            }
            "--threads" => {
                config.threads = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--threads needs a number (0 = auto)")?;
            }
            other if !other.starts_with('-') && graph_file.is_none() => graph_file = Some(a),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if format.is_some() && input.is_none() {
        // A format flag on the plain-text path would be silently
        // ignored — the user almost certainly forgot --input.
        return Err("--format only applies to --input <dump>".into());
    }
    if graph_file.is_some() && input.is_some() {
        return Err("give either a graph file or --input <dump>, not both".into());
    }
    if let Some(store_path) = store_path {
        return mine_durable(
            store_path,
            graph_file,
            input,
            format.as_deref(),
            variant,
            config,
            top,
            json,
        );
    }
    let g = match (graph_file, input) {
        (Some(path), None) => load(path)?,
        (None, Some(dump)) => ingest_input(dump, format.as_deref().unwrap_or("auto"), json)?,
        _ => return Err("mine needs a graph file, --input <dump>, or --store <path>".into()),
    };
    // One-shot CLI run: `cspm::core::mine` builds the database and
    // consumes it (nothing cloned, nothing retained) — the right shape
    // for a process that exits afterwards.
    let result = cspm::core::mine(&g, variant, config);
    report_mine(&g, variant, &result, top, json, None);
    Ok(())
}

/// The `mine --store` path: the session lives at `store_path` instead
/// of being one-shot. An empty store is seeded from the given
/// graph/`--input` dump and checkpointed; a populated one warm-opens
/// (recovering through any WAL damage) and re-mines the recovered
/// session, ignoring any input argument.
#[allow(clippy::too_many_arguments)]
fn mine_durable(
    store_path: &str,
    graph_file: Option<&String>,
    input: Option<&String>,
    format: Option<&str>,
    variant: Variant,
    config: CspmConfig,
    top: usize,
    json: bool,
) -> Result<(), String> {
    use cspm::store::DurableSession;

    let note = |line: String| {
        if json {
            eprintln!("{line}");
        } else {
            outln!("{line}");
        }
    };
    let miner = cspm::core::Miner::from_config(config).variant(variant);
    let mut durable = DurableSession::open_with(miner, store_path, &mut WarnToStderr)
        .map_err(|e| format!("cannot open store {store_path}: {e}"))?;

    let (g, result) = if let Some(g) = durable.session().graph().cloned() {
        if graph_file.is_some() || input.is_some() {
            note(format!(
                "store: input ignored — {store_path} already holds a session"
            ));
        }
        note(format!(
            "store: warm-opened {store_path} (generation {}, {})",
            durable.store().generation(),
            durable.recovery()
        ));
        if let Some(reason) = durable.db_rebuilt() {
            note(format!("store: database rebuilt cold ({reason})"));
        }
        let result = durable
            .run_with(&mut WarnToStderr)
            .map_err(|e| format!("cannot mine stored session: {e}"))?;
        // Replayed WAL records (and cold rebuilds) fold into a fresh
        // snapshot so the next open is both warm and replay-free.
        if durable.store().wal_records() > 0 || durable.db_rebuilt().is_some() {
            durable
                .checkpoint()
                .map_err(|e| format!("cannot checkpoint {store_path}: {e}"))?;
            note(format!(
                "store: folded recovered state into generation {}",
                durable.store().generation()
            ));
        }
        (g, result)
    } else {
        let g = match (graph_file, input) {
            (Some(path), None) => load(path)?,
            (None, Some(dump)) => ingest_input(dump, format.unwrap_or("auto"), json)?,
            _ => {
                return Err(format!(
                    "store {store_path} is empty; seed it with a graph file or --input <dump>"
                ))
            }
        };
        let result = durable
            .load(&g)
            .and_then(|()| durable.run_with(&mut WarnToStderr))
            .map_err(|e| format!("cannot persist to {store_path}: {e}"))?;
        note(format!(
            "store: seeded {store_path} (generation {})",
            durable.store().generation()
        ));
        (g, result)
    };
    report_mine(&g, variant, &result, top, json, Some(&durable));
    Ok(())
}

/// Shared tail of every `mine` invocation: the JSON document or the
/// human-readable report. `durable` adds the `"store"` object under
/// `--json` so scripted callers can read generation/recovery state off
/// the same document.
fn report_mine(
    g: &AttributedGraph,
    variant: Variant,
    result: &CspmResult,
    top: usize,
    json: bool,
    durable: Option<&cspm::store::DurableSession>,
) {
    if json {
        outln!("{}", mine_json(g, variant, result, top, durable));
        return;
    }
    outln!(
        "mined {} a-stars in {} merges; DL {:.1} -> {:.1} bits (ratio {:.3})",
        result.model.len(),
        result.merges,
        result.initial_dl,
        result.final_dl,
        result.compression_ratio()
    );
    outln!("{}", ModelSummary::new(&result.db, &result.model));
    outln!("\ntop {top} patterns:");
    emit(format_args!("{}", result.model.format_top(g.attrs(), top)));
}

/// The `mine --json` document: graph shape, `RunStats`, `ModelSummary`
/// (with the compression ratio), and the top `top` patterns. One JSON
/// object on a single line; shape asserted by `tests/cli.rs` and
/// validated end-to-end by the CI `real-data` job. A durable run adds
/// a `"store"` object (generation, WAL position, recovery outcome).
fn mine_json(
    g: &AttributedGraph,
    variant: Variant,
    result: &CspmResult,
    top: usize,
    durable: Option<&cspm::store::DurableSession>,
) -> String {
    let variant = match variant {
        Variant::Basic => "basic",
        Variant::Partial => "partial",
    };
    let mut doc = vec![
        ("command".into(), "mine".into()),
        ("variant".into(), variant.into()),
        ("graph".into(), graph_json(g)),
    ];
    if let Some(d) = durable {
        let store = store_json(d.store().path(), d.stats(), d.recovery(), d.db_rebuilt());
        doc.push(("store".into(), store));
    }
    let (stats, p) = (&result.stats, &result.stats.posting);
    let run = Value::Obj(vec![
        ("initial_dl_bits".into(), result.initial_dl.into()),
        ("final_dl_bits".into(), result.final_dl.into()),
        ("final_dl_hex".into(), dl_bits(result.final_dl).into()),
        (
            "compression_ratio".into(),
            result.compression_ratio().into(),
        ),
        ("merges".into(), result.merges.into()),
        ("total_gain_evals".into(), stats.total_gain_evals.into()),
        ("cancelled".into(), stats.cancelled.into()),
        ("elapsed_secs".into(), stats.elapsed_secs.into()),
        ("posting_sparse_rows".into(), p.sparse_rows.into()),
        ("posting_bitmap_rows".into(), p.bitmap_rows.into()),
        ("posting_flips_to_bitmap".into(), p.flips_to_bitmap.into()),
        ("posting_flips_to_sparse".into(), p.flips_to_sparse.into()),
    ]);
    let summary = ModelSummary::new(&result.db, &result.model);
    let model = Value::Obj(vec![
        ("n_astars".into(), summary.n_astars.into()),
        ("n_coresets".into(), summary.n_coresets.into()),
        ("n_leafsets".into(), summary.n_leafsets.into()),
        ("mean_leafset_size".into(), summary.mean_leafset_size.into()),
        ("max_leafset_size".into(), summary.max_leafset_size.into()),
        ("merged_rows".into(), summary.merged_rows.into()),
        ("data_bits".into(), summary.data_bits.into()),
        ("model_bits".into(), summary.model_bits.into()),
        ("total_bits".into(), summary.total_bits().into()),
        (
            "conditional_entropy".into(),
            summary.conditional_entropy.into(),
        ),
    ]);
    let patterns = result.model.astars().iter().take(top).map(|m| {
        let astar = m.astar.display(g.attrs()).to_string();
        Value::Obj(vec![
            ("astar".into(), astar.into()),
            ("frequency".into(), m.frequency.into()),
            ("coreset_frequency".into(), m.coreset_freq.into()),
            ("code_len_bits".into(), m.code_len.into()),
        ])
    });
    doc.extend([
        ("run".into(), run),
        ("model".into(), model),
        ("top_patterns".into(), Value::Arr(patterns.collect())),
    ]);
    Value::Obj(doc).to_json()
}

/// The `"graph"` object shared by the JSON documents.
fn graph_json(g: &AttributedGraph) -> Value {
    Value::Obj(vec![
        ("vertices".into(), g.vertex_count().into()),
        ("edges".into(), g.edge_count().into()),
        ("attribute_values".into(), g.attr_count().into()),
    ])
}

/// The `"store"` object shared by the JSON documents: file sizes,
/// checkpoint generation, WAL records since the last checkpoint, and
/// the recovery outcome of the open that produced these numbers.
fn store_json(
    path: &std::path::Path,
    stats: cspm::store::StoreStats,
    recovery: &cspm::store::RecoveryOutcome,
    db_rebuilt: Option<&str>,
) -> Value {
    let mut store = vec![
        ("path".into(), path.display().to_string().into()),
        ("snapshot_bytes".into(), stats.snapshot_bytes.into()),
        ("wal_bytes".into(), stats.wal_bytes.into()),
        ("generation".into(), stats.generation.into()),
        ("wal_records".into(), stats.wal_records.into()),
        ("recovery".into(), recovery.label().into()),
        ("recovery_detail".into(), recovery.to_string().into()),
    ];
    if let Some(reason) = db_rebuilt {
        store.push(("db_rebuilt".into(), reason.into()));
    }
    Value::Obj(store)
}

fn stats(args: &[String]) -> Result<(), String> {
    let mut json = false;
    let mut path: Option<&String> = None;
    let mut store_path: Option<&String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--store" => {
                store_path = Some(it.next().ok_or("--store needs a file path")?);
            }
            other if !other.starts_with('-') && path.is_none() => path = Some(a),
            other if other.starts_with('-') => return Err(format!("unknown flag '{other}'")),
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    if let Some(store_path) = store_path {
        if path.is_some() {
            return Err("give either a graph file or --store <path>, not both".into());
        }
        return stats_store(store_path, json);
    }
    let path = path.ok_or("stats needs a graph file or --store <path>")?;
    let g = load(path)?;
    if json {
        outln!("{}", stats_json(&g));
        return Ok(());
    }
    outln!(
        "vertices: {}, edges: {}, attribute values: {}",
        g.vertex_count(),
        g.edge_count(),
        g.attr_count()
    );
    outln!(
        "connected: {}, components: {}",
        g.is_connected(),
        g.component_count()
    );
    if let Some(d) = metrics::degree_stats(&g) {
        outln!("degree: min {} / mean {:.2} / max {}", d.min, d.mean, d.max);
    }
    outln!(
        "mean labels/vertex: {:.2}, attribute homophily: {:.3}, mean clustering: {:.3}",
        g.mean_labels_per_vertex(),
        metrics::attribute_homophily(&g),
        metrics::mean_clustering(&g)
    );
    outln!("most frequent attribute values:");
    for (a, count) in metrics::attribute_histogram(&g).into_iter().take(10) {
        outln!("  {:<24} {count}", g.attrs().name(a).unwrap_or("?"));
    }
    Ok(())
}

/// The `stats --store` path: store health instead of graph structure.
/// Opens the store read-only-in-spirit (recovery may physically trim a
/// torn WAL tail, exactly as a mine would) and reports file sizes,
/// generation, WAL position, how recovery went, and the shape of the
/// recovered graph.
fn stats_store(store_path: &str, json: bool) -> Result<(), String> {
    use cspm::store::{RecoveryOutcome, SessionStore};

    let (store, recovered) = SessionStore::open(store_path)
        .map_err(|e| format!("cannot open store {store_path}: {e}"))?;
    let s = store.stats();
    let state = recovered.state.as_ref();
    let mode = state.and_then(|st| {
        st.mode.map(|m| match m {
            CoresetMode::SingleValue => "single-value".to_string(),
            CoresetMode::Krimp => {
                format!("krimp(min_support={})", CoresetMode::KRIMP_MIN_SUPPORT)
            }
            CoresetMode::Slim => "slim".to_string(),
        })
    });
    let gain = state.and_then(|st| {
        st.gain.map(|g| match g {
            GainPolicy::Total => "total",
            GainPolicy::DataOnly => "data-only",
        })
    });
    if json {
        let db_note = state.and_then(|st| st.db_note.as_deref());
        let health = store_json(store.path(), s, &recovered.outcome, db_note);
        let mut doc = vec![("command".into(), "stats".into()), ("store".into(), health)];
        if let Some(st) = state {
            doc.push(("graph".into(), graph_json(&st.graph)));
            if let Some(mode) = &mode {
                doc.push(("coreset_mode".into(), mode.as_str().into()));
            }
            if let Some(gain) = gain {
                doc.push(("gain_policy".into(), gain.into()));
            }
            doc.push(("db_section".into(), st.db.is_some().into()));
            if let Some(db) = &st.db {
                doc.push(("db_rows".into(), db.row_count().into()));
            }
        }
        outln!("{}", Value::Obj(doc).to_json());
        return Ok(());
    }
    outln!("store: {}", store.path().display());
    outln!(
        "snapshot: {} bytes (generation {})",
        s.snapshot_bytes,
        s.generation
    );
    outln!(
        "wal: {} bytes, {} record(s) since last checkpoint",
        s.wal_bytes,
        s.wal_records
    );
    match &recovered.outcome {
        o @ (RecoveryOutcome::Fresh | RecoveryOutcome::Clean { .. }) => {
            outln!("recovery: {}", o.label());
        }
        o => outln!("recovery: {} — {o}", o.label()),
    }
    match state {
        Some(st) => {
            outln!(
                "graph: {} vertices, {} edges, {} attribute values \
                 (+{} WAL delta(s) to replay)",
                st.graph.vertex_count(),
                st.graph.edge_count(),
                st.graph.attr_count(),
                st.deltas.len()
            );
            if let (Some(mode), Some(gain)) = (&mode, gain) {
                outln!("config: coreset mode {mode}, gain policy {gain}");
            }
            match &st.db {
                Some(db) => outln!("database: {} serialized row(s)", db.row_count()),
                None => {
                    let why = st
                        .db_note
                        .as_deref()
                        .unwrap_or("none serialized for this configuration");
                    outln!("database: cold rebuild on open ({why})");
                }
            }
        }
        None if matches!(recovered.outcome, RecoveryOutcome::Fresh) => {
            outln!("graph: none — the store has never been checkpointed");
        }
        None => {
            outln!("graph: unrecoverable — the next successful mine re-seeds the store");
        }
    }
    Ok(())
}

/// The `stats --json` document: graph shape plus the structural
/// metrics the human-readable listing shows.
fn stats_json(g: &AttributedGraph) -> String {
    let mut doc = vec![
        ("command".into(), "stats".into()),
        ("graph".into(), graph_json(g)),
        ("connected".into(), g.is_connected().into()),
        ("components".into(), g.component_count().into()),
    ];
    if let Some(d) = metrics::degree_stats(g) {
        let degree = Value::Obj(vec![
            ("min".into(), d.min.into()),
            ("mean".into(), d.mean.into()),
            ("max".into(), d.max.into()),
        ]);
        doc.push(("degree".into(), degree));
    }
    let top = metrics::attribute_histogram(g)
        .into_iter()
        .take(10)
        .map(|(a, count)| {
            Value::Obj(vec![
                ("value".into(), g.attrs().name(a).unwrap_or("?").into()),
                ("count".into(), count.into()),
            ])
        });
    doc.extend([
        (
            "mean_labels_per_vertex".into(),
            g.mean_labels_per_vertex().into(),
        ),
        (
            "attribute_homophily".into(),
            metrics::attribute_homophily(g).into(),
        ),
        ("mean_clustering".into(), metrics::mean_clustering(g).into()),
        ("top_attribute_values".into(), Value::Arr(top.collect())),
    ]);
    Value::Obj(doc).to_json()
}

fn generate(args: &[String]) -> Result<(), String> {
    let kind = args.first().ok_or("generate needs a dataset kind")?;
    let out = args.get(1).ok_or("generate needs an output file")?;
    let mut scale = Scale::Small;
    let mut seed = 2022u64;
    let mut it = args[2..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                scale = match it.next().map(String::as_str) {
                    Some("tiny") => Scale::Tiny,
                    Some("small") => Scale::Small,
                    Some("paper") => Scale::Paper,
                    _ => return Err("--scale needs tiny|small|paper".into()),
                };
            }
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--seed needs a number")?;
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let dataset = match kind.as_str() {
        "dblp" => dblp_like(scale, seed),
        "dblp-trend" => dblp_trend_like(scale, seed),
        "usflight" => usflight_like(scale, seed),
        "pokec" => pokec_like(scale, seed),
        other => return Err(format!("unknown dataset '{other}'")),
    };
    save_dataset(&dataset, std::path::Path::new(out))
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    let (n, m, a) = dataset.statistics();
    outln!(
        "wrote {} ({n} vertices, {m} edges, {a} attribute values) to {out}",
        dataset.name
    );
    Ok(())
}

fn verify(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("verify needs a graph file")?;
    let g = load(path)?;
    g.validate()
        .map_err(|e| format!("input constraint violated: {e}"))?;
    let result = cspm::core::mine(&g, Variant::Partial, CspmConfig::default());
    let errors = verify_lossless(&g, &result.db);
    if errors.is_empty() {
        outln!(
            "ok: model of {} a-stars decodes the graph losslessly (DL ratio {:.3})",
            result.model.len(),
            result.compression_ratio()
        );
        Ok(())
    } else {
        Err(format!(
            "lossless verification failed with {} errors",
            errors.len()
        ))
    }
}

/// `cspm serve`: run the multi-tenant mining daemon in the foreground
/// until SIGTERM/SIGINT, then drain connections, checkpoint durable
/// tenants, and remove the socket file (exit 0).
fn serve(args: &[String]) -> Result<(), String> {
    // `--socket` is required; it is checked once every flag is read.
    let mut socket: Option<&String> = None;
    let mut config = cspm::serve::ServerConfig::new("");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--socket" => socket = Some(value("--socket")?),
            "--store-dir" => config.store_dir = Some(value("--store-dir")?.into()),
            "--threads" => {
                let raw = value("--threads")?;
                config.threads = raw
                    .parse()
                    .map_err(|_| format!("--threads must be an integer, got '{raw}'"))?;
            }
            "--mem-budget" => {
                let raw = value("--mem-budget")?;
                config.mem_budget = Some(
                    raw.parse()
                        .map_err(|_| format!("--mem-budget must be bytes, got '{raw}'"))?,
                );
            }
            other => return Err(format!("unknown serve flag '{other}'")),
        }
    }
    config.socket = socket.ok_or("serve needs --socket <path>")?.into();
    cspm::serve::Server::run_until_signalled(config).map_err(|e| format!("serve: {e}"))
}

/// `cspm client`: one request per invocation. Builds the JSON request
/// line locally (validating deltas client-side with the same decoder
/// the daemon uses) and hands it to [`client_call`]. Argument mistakes
/// stay ordinary usage errors (code 1 with the usage banner).
fn client(args: &[String]) -> Result<(), String> {
    let op = args
        .first()
        .ok_or("client needs an op: ping|open|delta|mine|subscribe|stats|metrics|close|shutdown")?
        .as_str();
    let mut socket: Option<String> = None;
    let mut session: Option<String> = None;
    let mut graph_file: Option<String> = None;
    let mut delta_file: Option<String> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut top: Option<u64> = None;
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--socket" => socket = Some(value("--socket")?),
            "--graph" => graph_file = Some(value("--graph")?),
            "--file" => delta_file = Some(value("--file")?),
            "--deadline-ms" => {
                let raw = value("--deadline-ms")?;
                deadline_ms = Some(
                    raw.parse()
                        .map_err(|_| format!("--deadline-ms must be an integer, got '{raw}'"))?,
                );
            }
            "--top" => {
                let raw = value("--top")?;
                top = Some(
                    raw.parse()
                        .map_err(|_| format!("--top must be an integer, got '{raw}'"))?,
                );
            }
            other if !other.starts_with('-') && session.is_none() => {
                session = Some(other.to_string());
            }
            other => return Err(format!("unknown client flag '{other}'")),
        }
    }
    let socket = socket.ok_or("client needs --socket <path>")?;

    let mut fields: Vec<(String, Value)> = vec![("op".into(), Value::Str(op.into()))];
    let need_session = || {
        session
            .clone()
            .ok_or_else(|| format!("client {op} needs a session name"))
    };
    match op {
        "ping" | "shutdown" | "metrics" => {}
        "open" => {
            fields.push(("session".into(), Value::Str(need_session()?)));
            if let Some(path) = &graph_file {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                fields.push(("graph".into(), Value::Str(text)));
            }
        }
        "delta" => {
            fields.push(("session".into(), Value::Str(need_session()?)));
            let text = match &delta_file {
                Some(path) => {
                    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?
                }
                None => {
                    use std::io::Read as _;
                    let mut buf = String::new();
                    std::io::stdin()
                        .read_to_string(&mut buf)
                        .map_err(|e| format!("cannot read delta from stdin: {e}"))?;
                    buf
                }
            };
            let delta = cspm::serve::json::parse(text.trim())
                .map_err(|e| format!("delta is not valid JSON: {e}"))?;
            // Fail fast with the daemon's own decoder before burning a
            // round-trip on a delta the server would reject anyway.
            cspm::serve::proto::delta_from_value(&delta)
                .map_err(|e| format!("invalid delta: {}", e.message))?;
            // The wire format carries the delta fields at the request's
            // top level (docs/FORMATS.md §6), so splice them in.
            match delta {
                Value::Obj(pairs) => {
                    for (key, val) in pairs {
                        if key == "op" || key == "session" {
                            return Err(format!("delta object must not contain a '{key}' key"));
                        }
                        fields.push((key, val));
                    }
                }
                _ => return Err("delta must be a JSON object".into()),
            }
        }
        "mine" | "subscribe" => {
            fields.push(("session".into(), Value::Str(need_session()?)));
            if let Some(ms) = deadline_ms {
                fields.push(("deadline_ms".into(), Value::Num(ms as f64)));
            }
            if let Some(k) = top {
                fields.push(("top".into(), Value::Num(k as f64)));
            }
        }
        "stats" => {
            if let Some(name) = &session {
                fields.push(("session".into(), Value::Str(name.clone())));
            }
        }
        "close" => fields.push(("session".into(), Value::Str(need_session()?))),
        other => return Err(format!("unknown client op '{other}'")),
    }

    client_call(&socket, op, &Value::Obj(fields).to_json());
    Ok(())
}

/// Sends one request line and prints the daemon's answer up to its
/// terminal line: every line of a `subscribe` stream, the unwrapped
/// exposition text for `metrics`, the one response line otherwise.
/// Distinct exit codes tell the failure domains apart: **1** when the
/// daemon answered `"ok":false` (the typed error line is on stdout, and
/// no usage banner follows), **2** when the transport failed (no
/// daemon, dead socket, a hang-up or a non-JSON line).
fn client_call(socket: &str, op: &str, request: &str) {
    use std::io::{BufRead as _, BufReader, Write as _};
    use std::os::unix::net::UnixStream;
    use std::time::Duration;

    let stream = UnixStream::connect(socket).unwrap_or_else(|e| {
        transport_failed(&format!(
            "cannot connect to {socket}: {e} (is the daemon running?)"
        ))
    });
    // Timeouts keep a dead daemon from hanging the CLI forever.
    if let Err(e) = stream
        .set_read_timeout(Some(Duration::from_secs(600)))
        .and_then(|()| stream.set_write_timeout(Some(Duration::from_secs(30))))
        .and_then(|()| (&stream).write_all(format!("{request}\n").as_bytes()))
    {
        transport_failed(&format!("cannot send request: {e}"));
    }
    let mut reader = BufReader::new(&stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => transport_failed("daemon closed the connection before its terminal line"),
            Ok(_) => {}
            Err(e) => transport_failed(&format!("cannot read response: {e}")),
        }
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        let v = cspm::serve::json::parse(line)
            .unwrap_or_else(|e| transport_failed(&format!("daemon sent invalid JSON: {e}")));
        if v.get("ok").and_then(Value::as_bool) != Some(true) {
            outln!("{line}");
            daemon_refused(&v);
        }
        match v.get("text").and_then(Value::as_str) {
            Some(text) if op == "metrics" => emit(format_args!("{text}")),
            _ => outln!("{line}"),
        }
        if op != "subscribe" || v.get("event").and_then(Value::as_str) == Some("done") {
            return;
        }
    }
}

/// Transport failure (no daemon, dead socket, torn or non-JSON
/// stream): report on stderr and exit 2 — distinct from both usage
/// errors and daemon-side refusals.
fn transport_failed(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Server-side refusal (`"ok":false` on the wire): report the typed
/// error on stderr and exit 1. The response line is already on stdout.
fn daemon_refused(v: &Value) -> ! {
    let (code, message) = match v.get("error") {
        Some(err) => (
            err.get("code").and_then(Value::as_str).unwrap_or("?"),
            err.get("message").and_then(Value::as_str).unwrap_or(""),
        ),
        None => ("?", ""),
    };
    eprintln!("error: daemon refused: {code}: {message}");
    std::process::exit(1);
}
