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
//! caching the parsed graph in a `.csbin` snapshot next to the dump so
//! repeat runs skip parsing.
//!
//! Mining goes through a [`cspm::core::MiningSession`] (the library's
//! primary API); the CLI is one-shot, but `--json` exposes the same
//! machine-readable digest a session embedder would read off a
//! [`CspmResult`](cspm::core::CspmResult): run statistics, the model
//! summary, compression ratio, and the top patterns — as a single JSON
//! document on stdout (progress/ingest chatter moves to stderr).
//!
//! Scheduling knob (speed only — mined output is bit-identical at any
//! setting): `--threads N` sets the candidate-scoring worker count
//! (default 0 = one per core, capped at 8). `--basic` runs CSPM-Basic
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
use cspm::serve::Json;

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
                             [--mem-budget BYTES] [--compact-above F]
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
  --threads N          candidate-scoring worker threads (0 = auto, default);
                       tunes speed, never the mined model

durable sessions (crash-safe snapshot + delta WAL, docs/FORMATS.md):
  --store <path>       mine: persist the session at <path> — an empty store
                       is seeded from the given graph/--input and
                       checkpointed; a populated store warm-opens (the
                       input is then ignored) and re-mines the recovered
                       session. stats: report store health — file sizes,
                       generation, WAL records since the last checkpoint,
                       and how recovery went (clean / tail-truncated /
                       snapshot-fallback)

mining as a service (wire protocol: docs/FORMATS.md §7):
  serve                keep many named tenant sessions resident behind a
                       Unix socket speaking line-delimited JSON; under
                       --mem-budget pressure, fragmented tenants are
                       compacted and idle ones evicted LRU-first (durable
                       tenants checkpoint to --store-dir for warm re-open)
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
  --input <dump>       ingest a real dataset dump; parsed graphs are cached
                       in a versioned <dump>.csbin snapshot (docs/FORMATS.md)
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

/// Ingests a real dataset dump (`mine --input`), reporting how the
/// `.csbin` snapshot cache behaved; `tests/cli.rs` asserts these lines.
/// Under `--json` the notes move to stderr so stdout stays one JSON
/// document.
#[cfg(feature = "real-data")]
fn ingest_input(dump: &str, format: &str, json: bool) -> Result<AttributedGraph, String> {
    use cspm::datasets::ingest::{self, SnapshotOutcome, SnapshotPolicy};

    let note = |line: String| {
        if json {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    };
    let format = ingest::Format::from_cli(format)?;
    let path = std::path::Path::new(dump);
    let report = ingest::ingest(path, format, SnapshotPolicy::ReadWrite)
        .map_err(|e| format!("cannot ingest {dump}: {e}"))?;
    let (n, m, a) = report.dataset.statistics();
    let shape = format!("{n} vertices, {m} edges, {a} attribute values");
    match &report.snapshot {
        SnapshotOutcome::Loaded { path: snap } => note(format!(
            "ingest: loaded snapshot {} ({shape}) in {:.3}s",
            snap.display(),
            report.snapshot_load_secs
        )),
        SnapshotOutcome::Written { path: snap, invalidated } => {
            if let Some(reason) = invalidated {
                note(format!("ingest: discarded unusable snapshot ({reason})"));
            }
            note(format!(
                "ingest: parsed {dump} as {} ({shape}) in {:.3}s; wrote snapshot {}",
                report.format,
                report.parse_secs,
                snap.display()
            ));
        }
        SnapshotOutcome::WriteFailed { path: snap, reason } => note(format!(
            "ingest: parsed {dump} as {} ({shape}) in {:.3}s; could not write snapshot {}: {reason}",
            report.format,
            report.parse_secs,
            snap.display()
        )),
        SnapshotOutcome::Disabled => {}
    }
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
                    Some("krimp") => CoresetMode::Krimp { min_support: 2 },
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
            println!("{line}");
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
            .mine_with(&g, &mut WarnToStderr)
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
        println!("{}", mine_json(g, variant, result, top, durable));
        return;
    }
    println!(
        "mined {} a-stars in {} merges; DL {:.1} -> {:.1} bits (ratio {:.3})",
        result.model.len(),
        result.merges,
        result.initial_dl,
        result.final_dl,
        result.compression_ratio()
    );
    println!("{}", ModelSummary::new(&result.db, &result.model));
    println!("\ntop {top} patterns:");
    print!("{}", result.model.format_top(g.attrs(), top));
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
    let summary = ModelSummary::new(&result.db, &result.model);
    let mut j = Json::new();
    j.begin_obj();
    j.field_str("command", "mine");
    j.field_str(
        "variant",
        match variant {
            Variant::Basic => "basic",
            Variant::Partial => "partial",
        },
    );
    graph_json(&mut j, g);
    if let Some(d) = durable {
        store_json(
            &mut j,
            d.store().path(),
            d.stats(),
            d.recovery(),
            d.db_rebuilt(),
        );
    }
    j.begin_obj_field("run")
        .field_num("initial_dl_bits", result.initial_dl)
        .field_num("final_dl_bits", result.final_dl)
        .field_str("final_dl_hex", &cspm::serve::dl_bits(result.final_dl))
        .field_num("compression_ratio", result.compression_ratio())
        .field_int("merges", result.merges as u64)
        .field_int("total_gain_evals", result.stats.total_gain_evals)
        .field_bool("cancelled", result.stats.cancelled)
        .field_num("elapsed_secs", result.stats.elapsed_secs)
        .field_int(
            "posting_sparse_rows",
            result.stats.posting.sparse_rows as u64,
        )
        .field_int(
            "posting_bitmap_rows",
            result.stats.posting.bitmap_rows as u64,
        )
        .field_int(
            "posting_flips_to_bitmap",
            result.stats.posting.flips_to_bitmap,
        )
        .field_int(
            "posting_flips_to_sparse",
            result.stats.posting.flips_to_sparse,
        )
        .end_obj();
    j.begin_obj_field("model")
        .field_int("n_astars", summary.n_astars as u64)
        .field_int("n_coresets", summary.n_coresets as u64)
        .field_int("n_leafsets", summary.n_leafsets as u64)
        .field_num("mean_leafset_size", summary.mean_leafset_size)
        .field_int("max_leafset_size", summary.max_leafset_size as u64)
        .field_int("merged_rows", summary.merged_rows as u64)
        .field_num("data_bits", summary.data_bits)
        .field_num("model_bits", summary.model_bits)
        .field_num("total_bits", summary.total_bits())
        .field_num("conditional_entropy", summary.conditional_entropy)
        .end_obj();
    j.begin_arr_field("top_patterns");
    for m in result.model.astars().iter().take(top) {
        j.begin_obj()
            .field_str("astar", &m.astar.display(g.attrs()).to_string())
            .field_int("frequency", m.frequency)
            .field_int("coreset_frequency", m.coreset_freq)
            .field_num("code_len_bits", m.code_len)
            .end_obj();
    }
    j.end_arr();
    j.end_obj();
    j.finish()
}

/// Shared `"graph": {…}` fragment of the JSON documents.
fn graph_json(j: &mut Json, g: &AttributedGraph) {
    j.begin_obj_field("graph")
        .field_int("vertices", g.vertex_count() as u64)
        .field_int("edges", g.edge_count() as u64)
        .field_int("attribute_values", g.attr_count() as u64)
        .end_obj();
}

/// Shared `"store": {…}` fragment: file sizes, checkpoint generation,
/// WAL records since the last checkpoint, and the recovery outcome of
/// the open that produced these numbers.
fn store_json(
    j: &mut Json,
    path: &std::path::Path,
    stats: cspm::store::StoreStats,
    recovery: &cspm::store::RecoveryOutcome,
    db_rebuilt: Option<&str>,
) {
    let b = j
        .begin_obj_field("store")
        .field_str("path", &path.display().to_string())
        .field_int("snapshot_bytes", stats.snapshot_bytes)
        .field_int("wal_bytes", stats.wal_bytes)
        .field_int("generation", stats.generation)
        .field_int("wal_records", stats.wal_records as u64)
        .field_str("recovery", recovery.label())
        .field_str("recovery_detail", &recovery.to_string());
    if let Some(reason) = db_rebuilt {
        b.field_str("db_rebuilt", reason);
    }
    b.end_obj();
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
        println!("{}", stats_json(&g));
        return Ok(());
    }
    println!(
        "vertices: {}, edges: {}, attribute values: {}",
        g.vertex_count(),
        g.edge_count(),
        g.attr_count()
    );
    println!(
        "connected: {}, components: {}",
        g.is_connected(),
        g.component_count()
    );
    if let Some(d) = metrics::degree_stats(&g) {
        println!("degree: min {} / mean {:.2} / max {}", d.min, d.mean, d.max);
    }
    println!(
        "mean labels/vertex: {:.2}, attribute homophily: {:.3}, mean clustering: {:.3}",
        g.mean_labels_per_vertex(),
        metrics::attribute_homophily(&g),
        metrics::mean_clustering(&g)
    );
    println!("most frequent attribute values:");
    for (a, count) in metrics::attribute_histogram(&g).into_iter().take(10) {
        println!("  {:<24} {count}", g.attrs().name(a).unwrap_or("?"));
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
            CoresetMode::Krimp { min_support } => format!("krimp(min_support={min_support})"),
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
        let mut j = Json::new();
        j.begin_obj();
        j.field_str("command", "stats");
        store_json(
            &mut j,
            store.path(),
            s,
            &recovered.outcome,
            state.and_then(|st| st.db_note.as_deref()),
        );
        if let Some(st) = state {
            graph_json(&mut j, &st.graph);
            if let Some(mode) = &mode {
                j.field_str("coreset_mode", mode);
            }
            if let Some(gain) = gain {
                j.field_str("gain_policy", gain);
            }
            j.field_bool("db_section", st.db.is_some());
            if let Some(db) = &st.db {
                j.field_int("db_rows", db.row_count() as u64);
            }
        }
        j.end_obj();
        println!("{}", j.finish());
        return Ok(());
    }
    println!("store: {}", store.path().display());
    println!(
        "snapshot: {} bytes (generation {})",
        s.snapshot_bytes, s.generation
    );
    println!(
        "wal: {} bytes, {} record(s) since last checkpoint",
        s.wal_bytes, s.wal_records
    );
    match &recovered.outcome {
        o @ (RecoveryOutcome::Fresh | RecoveryOutcome::Clean { .. }) => {
            println!("recovery: {}", o.label());
        }
        o => println!("recovery: {} — {o}", o.label()),
    }
    match state {
        Some(st) => {
            println!(
                "graph: {} vertices, {} edges, {} attribute values \
                 (+{} WAL delta(s) to replay)",
                st.graph.vertex_count(),
                st.graph.edge_count(),
                st.graph.attr_count(),
                st.deltas.len()
            );
            if let (Some(mode), Some(gain)) = (&mode, gain) {
                println!("config: coreset mode {mode}, gain policy {gain}");
            }
            match &st.db {
                Some(db) => println!("database: {} serialized row(s)", db.row_count()),
                None => {
                    let why = st
                        .db_note
                        .as_deref()
                        .unwrap_or("none serialized for this configuration");
                    println!("database: cold rebuild on open ({why})");
                }
            }
        }
        None if matches!(recovered.outcome, RecoveryOutcome::Fresh) => {
            println!("graph: none — the store has never been checkpointed");
        }
        None => {
            println!("graph: unrecoverable — the next successful mine re-seeds the store");
        }
    }
    Ok(())
}

/// The `stats --json` document: graph shape plus the structural
/// metrics the human-readable listing shows.
fn stats_json(g: &AttributedGraph) -> String {
    let mut j = Json::new();
    j.begin_obj();
    j.field_str("command", "stats");
    graph_json(&mut j, g);
    j.field_bool("connected", g.is_connected());
    j.field_int("components", g.component_count() as u64);
    if let Some(d) = metrics::degree_stats(g) {
        j.begin_obj_field("degree")
            .field_int("min", d.min as u64)
            .field_num("mean", d.mean)
            .field_int("max", d.max as u64)
            .end_obj();
    }
    j.field_num("mean_labels_per_vertex", g.mean_labels_per_vertex());
    j.field_num("attribute_homophily", metrics::attribute_homophily(g));
    j.field_num("mean_clustering", metrics::mean_clustering(g));
    // Posting-row representation mix of the pristine inverted database:
    // how many rows the adaptive density thresholds send to bitmaps on
    // this dataset, before any merge traffic.
    let db = cspm::core::InvertedDb::build(g, CoresetMode::SingleValue, GainPolicy::Total);
    let p = db.posting_store().repr_stats();
    j.begin_obj_field("posting")
        .field_int("sparse_rows", p.sparse_rows as u64)
        .field_int("bitmap_rows", p.bitmap_rows as u64)
        .end_obj();
    j.begin_arr_field("top_attribute_values");
    for (a, count) in metrics::attribute_histogram(g).into_iter().take(10) {
        j.begin_obj()
            .field_str("value", g.attrs().name(a).unwrap_or("?"))
            .field_int("count", count as u64)
            .end_obj();
    }
    j.end_arr();
    j.end_obj();
    j.finish()
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
    println!(
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
        println!(
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
    let mut socket: Option<String> = None;
    let mut config_rest = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--socket" => socket = Some(value("--socket")?),
            "--store-dir" => config_rest.push(("store-dir", value("--store-dir")?)),
            "--threads" => config_rest.push(("threads", value("--threads")?)),
            "--mem-budget" => config_rest.push(("mem-budget", value("--mem-budget")?)),
            "--compact-above" => config_rest.push(("compact-above", value("--compact-above")?)),
            other => return Err(format!("unknown serve flag '{other}'")),
        }
    }
    let socket = socket.ok_or("serve needs --socket <path>")?;
    let mut config = cspm::serve::ServerConfig::new(&socket);
    for (flag, raw) in config_rest {
        match flag {
            "store-dir" => config.store_dir = Some(raw.into()),
            "threads" => {
                config.threads = raw
                    .parse()
                    .map_err(|_| format!("--threads must be an integer, got '{raw}'"))?;
            }
            "mem-budget" => {
                config.mem_budget = Some(
                    raw.parse()
                        .map_err(|_| format!("--mem-budget must be bytes, got '{raw}'"))?,
                );
            }
            "compact-above" => {
                config.compact_above = raw
                    .parse()
                    .map_err(|_| format!("--compact-above must be a number, got '{raw}'"))?;
            }
            _ => unreachable!(),
        }
    }
    eprintln!("serve: listening on {socket}");
    cspm::serve::Server::run_until_signalled(config).map_err(|e| format!("serve: {e}"))
}

/// `cspm client`: one request per invocation. Builds the JSON request
/// line locally (validating deltas client-side with the same decoder
/// the daemon uses), sends it over the Unix socket, prints the
/// daemon's response on stdout, and exits nonzero when something
/// fails, with distinct codes so pipelines can tell the failure domains
/// apart: **1** when the daemon answered `"ok":false` (a server-side
/// refusal — the typed error line is on stdout), **2** when the
/// transport failed (no daemon, dead socket, torn or non-JSON stream).
/// Argument mistakes stay ordinary usage errors (code 1 with the usage
/// banner). `subscribe` streams progress lines until the terminal
/// line; `metrics` unwraps the exposition text and prints it raw.
fn client(args: &[String]) -> Result<(), String> {
    use cspm::serve::json::Value;

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
            // top level (docs/FORMATS.md §7), so splice them in.
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

    let request = Value::Obj(fields).to_json();
    if op == "subscribe" {
        return client_subscribe(&socket, &request);
    }
    let response = match client_round_trip(&socket, &request) {
        Ok(r) => r,
        Err(msg) => transport_failed(&msg),
    };
    // Daemon-side refusals are not CLI-usage mistakes: report them on
    // stderr and exit 1 without re-printing the usage banner (the typed
    // error line is already on stdout for scripts to parse). A daemon
    // that answers gibberish is a transport failure: exit 2.
    match cspm::serve::json::parse(&response) {
        Ok(v) if v.get("ok").and_then(Value::as_bool) == Some(true) => {
            if op == "metrics" {
                if let Some(text) = v.get("text").and_then(Value::as_str) {
                    print!("{text}");
                    return Ok(());
                }
            }
            println!("{response}");
            Ok(())
        }
        Ok(v) => {
            println!("{response}");
            daemon_refused(&v);
        }
        Err(e) => transport_failed(&format!("daemon sent invalid JSON: {e}")),
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
fn daemon_refused(v: &cspm::serve::json::Value) -> ! {
    use cspm::serve::json::Value;
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

/// `cspm client subscribe`: stream the progress events of one mine as
/// they happen, line by line, then the terminal line. Exit codes match
/// the single-shot path: 1 when the terminal line is a refusal, 2 when
/// the transport dies mid-stream.
fn client_subscribe(socket: &str, request: &str) -> Result<(), String> {
    use cspm::serve::json::Value;
    use std::io::{BufRead as _, BufReader, Write as _};
    use std::os::unix::net::UnixStream;
    use std::time::Duration;

    let connect = || -> Result<UnixStream, String> {
        let stream = UnixStream::connect(socket)
            .map_err(|e| format!("cannot connect to {socket}: {e} (is the daemon running?)"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(600)))
            .and_then(|()| stream.set_write_timeout(Some(Duration::from_secs(30))))
            .map_err(|e| format!("cannot set socket timeouts: {e}"))?;
        Ok(stream)
    };
    let stream = match connect() {
        Ok(s) => s,
        Err(msg) => transport_failed(&msg),
    };
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(e) => transport_failed(&format!("cannot clone socket: {e}")),
    };
    if let Err(e) = writer
        .write_all(request.as_bytes())
        .and_then(|()| writer.write_all(b"\n"))
    {
        transport_failed(&format!("cannot send request: {e}"));
    }
    let mut reader = BufReader::new(stream);
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => transport_failed("daemon closed the connection mid-stream"),
            Ok(_) => {}
            Err(e) => transport_failed(&format!("cannot read stream: {e}")),
        }
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        println!("{line}");
        match cspm::serve::json::parse(line) {
            Ok(v) => {
                if v.get("ok").and_then(Value::as_bool) != Some(true) {
                    daemon_refused(&v);
                }
                if v.get("event").and_then(Value::as_str) == Some("done") {
                    return Ok(());
                }
            }
            Err(e) => transport_failed(&format!("daemon sent invalid JSON: {e}")),
        }
    }
}

/// Send one request line, read one response line. Timeouts keep a dead
/// daemon from hanging the CLI forever.
fn client_round_trip(socket: &str, request: &str) -> Result<String, String> {
    use std::io::{BufRead as _, BufReader, Write as _};
    use std::os::unix::net::UnixStream;
    use std::time::Duration;

    let stream = UnixStream::connect(socket)
        .map_err(|e| format!("cannot connect to {socket}: {e} (is the daemon running?)"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(600)))
        .and_then(|()| stream.set_write_timeout(Some(Duration::from_secs(30))))
        .map_err(|e| format!("cannot set socket timeouts: {e}"))?;
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("cannot clone socket: {e}"))?;
    writer
        .write_all(request.as_bytes())
        .and_then(|()| writer.write_all(b"\n"))
        .map_err(|e| format!("cannot send request: {e}"))?;
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .map_err(|e| format!("cannot read response: {e}"))?;
    if line.is_empty() {
        return Err("daemon closed the connection without responding".into());
    }
    Ok(line.trim_end().to_string())
}
