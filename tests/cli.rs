//! End-to-end tests of the `cspm` command-line interface.

use std::process::{Command, Stdio};

use cspm::serve::json::{self, Value};

fn cspm(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_cspm"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("cspm-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn generate_stats_mine_verify_pipeline() {
    let path = temp_path("pipeline.graph");
    let path_str = path.to_str().unwrap();

    let (ok, stdout, _) = cspm(&[
        "generate", "usflight", path_str, "--scale", "tiny", "--seed", "5",
    ]);
    assert!(ok, "generate failed");
    assert!(stdout.contains("USFlight"));

    let (ok, stdout, _) = cspm(&["stats", path_str]);
    assert!(ok);
    assert!(stdout.contains("vertices: 40"));
    assert!(stdout.contains("attribute homophily"));

    let (ok, stdout, _) = cspm(&["mine", path_str, "--top", "3"]);
    assert!(ok);
    assert!(stdout.contains("a-stars"));
    assert!(stdout.contains("bits"));

    let (ok, stdout, _) = cspm(&["verify", path_str]);
    assert!(ok);
    assert!(stdout.contains("losslessly"));

    std::fs::remove_file(path).ok();
}

#[test]
fn mine_flags_are_honoured() {
    let path = temp_path("flags.graph");
    let path_str = path.to_str().unwrap();
    cspm(&["generate", "dblp", path_str, "--scale", "tiny"]);

    let (ok, basic_out, _) = cspm(&["mine", path_str, "--basic", "--top", "2"]);
    assert!(ok);
    let (ok, data_only_out, _) = cspm(&["mine", path_str, "--data-only", "--top", "2"]);
    assert!(ok);
    // DataOnly accepts more merges than the default Total policy.
    let merges = |s: &str| -> usize {
        s.split(" in ")
            .nth(1)
            .and_then(|rest| rest.split(" merges").next())
            .and_then(|n| n.parse().ok())
            .unwrap_or(0)
    };
    assert!(merges(&data_only_out) >= merges(&basic_out));

    let (ok, _, _) = cspm(&["mine", path_str, "--multi-core", "slim", "--top", "2"]);
    assert!(ok, "multi-core slim mining failed");
    std::fs::remove_file(path).ok();
}

#[test]
fn scheduling_knobs_change_speed_not_output() {
    let path = temp_path("threads.graph");
    let path_str = path.to_str().unwrap();
    cspm(&["generate", "dblp", path_str, "--scale", "tiny"]);

    // Thread count must not change the mined model: identical stdout.
    let (ok, one, _) = cspm(&["mine", path_str, "--threads", "1", "--top", "5"]);
    assert!(ok);
    let (ok, four, _) = cspm(&["mine", path_str, "--threads", "4", "--top", "5"]);
    assert!(ok);
    assert_eq!(one, four, "mined output must be thread-count invariant");

    let (ok, _, stderr) = cspm(&["mine", path_str, "--threads"]);
    assert!(!ok);
    assert!(stderr.contains("--threads"));
    std::fs::remove_file(path).ok();
}

/// A reader that has gone away (the far end of `cspm mine … | head`)
/// ends the run cleanly: exit status 0 and nothing on stderr, instead of
/// a "Broken pipe" panic. The pipe's read end is closed before the
/// spawn, so the very first write fails, every time.
#[test]
fn closed_stdout_is_a_clean_exit() {
    let path = temp_path("closed-stdout.graph");
    let path_str = path.to_str().unwrap();
    cspm(&["generate", "dblp", path_str, "--scale", "tiny"]);

    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_cspm"))
        .args(["mine", path_str, "--top", "5"])
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(stderr.is_empty(), "nothing on stderr: {stderr}");
    std::fs::remove_file(path).ok();
}

/// `mine --input` reads a native file with the same reader as
/// `mine <file>`: a file that skips an id builds the same graph (the
/// skipped id is an isolated vertex) and mines the same model, and an
/// id that no record can account for is refused on both paths.
#[cfg(feature = "real-data")]
#[test]
fn native_input_reads_like_a_graph_file() {
    let path = temp_path("gapped.graph");
    let path_str = path.to_str().unwrap();
    std::fs::write(&path, "v 0 a\nv 2 a b\nv 3 b\ne 0 2\ne 2 3\ne 0 3\n").unwrap();

    let (ok, out, err) = cspm(&["mine", path_str, "--json"]);
    assert!(ok, "mine <file>: {err}");
    let direct = parse_json(&out);
    let (ok, out, err) = cspm(&["mine", "--input", path_str, "--format", "native", "--json"]);
    assert!(ok, "mine --input: {err}");
    let ingested = parse_json(&out);
    let notes: Vec<&str> = err.lines().filter(|l| l.starts_with("ingest: ")).collect();
    assert_eq!(notes.len(), 1, "one ingest note on stderr: {err}");
    assert!(notes[0].contains(" as native (4 vertices"), "{err}");
    assert_eq!(at(&direct, &["graph", "vertices"]).as_u64(), Some(4));
    assert_eq!(at(&ingested, &["graph"]), at(&direct, &["graph"]));
    assert_eq!(
        at(&ingested, &["run", "final_dl_hex"]),
        at(&direct, &["run", "final_dl_hex"])
    );

    std::fs::write(&path, "e 0 4000000000\n").unwrap();
    let (ok, _, stderr) = cspm(&["mine", "--input", path_str]);
    assert!(!ok, "a huge id must be refused");
    assert!(
        stderr.contains(":1: vertex id 4000000000 exceeds"),
        "unexpected error: {stderr}"
    );
    std::fs::remove_file(path).ok();
}

#[cfg(feature = "real-data")]
#[test]
fn ingest_flag_errors() {
    let (ok, _, stderr) = cspm(&["mine", "--input", "/nonexistent/dump.txt"]);
    assert!(!ok);
    assert!(stderr.contains("cannot ingest"));

    let (ok, _, stderr) = cspm(&["mine", "--input", "x", "--format", "nope"]);
    assert!(!ok);
    assert!(stderr.contains("unknown format"));

    let (ok, _, stderr) = cspm(&["mine", "some.graph", "--input", "dump.txt"]);
    assert!(!ok);
    assert!(stderr.contains("not both"));
}

#[cfg(not(feature = "real-data"))]
#[test]
fn ingest_without_feature_points_at_generators() {
    let (ok, _, stderr) = cspm(&["mine", "--input", "dump.txt"]);
    assert!(!ok);
    assert!(
        stderr.contains("real-data") && stderr.contains("generate"),
        "unhelpful error: {stderr}"
    );
}

/// Parses a `--json` document with the daemon's JSON reader, which
/// refuses anything but exactly one value. (CI additionally pipes a
/// real run through `python3 -m json.tool`.)
fn parse_json(doc: &str) -> Value {
    json::parse(doc).unwrap_or_else(|e| panic!("not one JSON document ({e}): {doc}"))
}

/// The member at `path` (object keys, outermost first); panics naming
/// the path when any step is missing.
fn at<'a>(doc: &'a Value, path: &[&str]) -> &'a Value {
    path.iter().fold(doc, |v, key| {
        v.get(key)
            .unwrap_or_else(|| panic!("missing {path:?} in {}", doc.to_json()))
    })
}

#[test]
fn mine_json_emits_one_machine_readable_document() {
    let path = temp_path("json.graph");
    let path_str = path.to_str().unwrap();
    cspm(&["generate", "dblp", path_str, "--scale", "tiny"]);

    let (ok, out, _) = cspm(&["mine", path_str, "--json", "--top", "2"]);
    assert!(ok);
    assert_eq!(out.trim().lines().count(), 1, "one document on stdout");
    let doc = parse_json(&out);
    assert_eq!(at(&doc, &["command"]).as_str(), Some("mine"));
    assert_eq!(at(&doc, &["variant"]).as_str(), Some("partial"));
    assert_eq!(at(&doc, &["run", "cancelled"]).as_bool(), Some(false));
    // ModelSummary, RunStats, and the compression ratio all present.
    for path in [
        &["graph", "vertices"][..],
        &["run", "compression_ratio"],
        &["run", "merges"],
        &["run", "total_gain_evals"],
        &["run", "posting_sparse_rows"],
        &["run", "posting_bitmap_rows"],
        &["run", "posting_flips_to_bitmap"],
        &["run", "posting_flips_to_sparse"],
        &["model", "n_astars"],
        &["model", "n_coresets"],
        &["model", "mean_leafset_size"],
        &["model", "data_bits"],
        &["model", "model_bits"],
        &["model", "total_bits"],
        &["model", "conditional_entropy"],
    ] {
        assert!(
            at(&doc, path).as_f64().is_some(),
            "{path:?} is not a number"
        );
    }
    // --top bounds the pattern array.
    let top = at(&doc, &["top_patterns"])
        .as_arr()
        .expect("top_patterns array");
    assert_eq!(top.len(), 2);
    for pattern in top {
        assert!(at(pattern, &["astar"]).as_str().is_some());
        assert!(at(pattern, &["code_len_bits"]).as_f64().is_some());
    }
    // The human-readable lines must not leak into the JSON stream.
    assert!(!out.contains("a-stars:"));

    let (ok, basic, _) = cspm(&["mine", path_str, "--json", "--basic", "--top", "1"]);
    assert!(ok);
    assert_eq!(
        at(&parse_json(&basic), &["variant"]).as_str(),
        Some("basic")
    );
    std::fs::remove_file(path).ok();
}

#[test]
fn stats_json_emits_graph_metrics() {
    let path = temp_path("json-stats.graph");
    let path_str = path.to_str().unwrap();
    cspm(&["generate", "usflight", path_str, "--scale", "tiny"]);

    let (ok, out, _) = cspm(&["stats", path_str, "--json"]);
    assert!(ok);
    assert_eq!(out.trim().lines().count(), 1);
    let doc = parse_json(&out);
    assert_eq!(at(&doc, &["command"]).as_str(), Some("stats"));
    assert_eq!(at(&doc, &["graph", "vertices"]).as_u64(), Some(40));
    assert!(at(&doc, &["connected"]).as_bool().is_some());
    for path in [
        &["components"][..],
        &["degree", "mean"],
        &["attribute_homophily"],
        &["mean_clustering"],
    ] {
        assert!(
            at(&doc, path).as_f64().is_some(),
            "{path:?} is not a number"
        );
    }
    assert!(at(&doc, &["top_attribute_values"]).as_arr().is_some());

    let (ok, _, stderr) = cspm(&["stats", path_str, "--frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag"));
    std::fs::remove_file(path).ok();
}

#[test]
fn durable_store_seeds_then_warm_opens() {
    let dir = std::env::temp_dir()
        .join("cspm-cli-tests")
        .join("store-roundtrip");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let graph = dir.join("seed.graph");
    let graph_str = graph.to_str().unwrap();
    let store = dir.join("session.csps");
    let store_str = store.to_str().unwrap();
    cspm(&["generate", "dblp", graph_str, "--scale", "tiny"]);

    // First run seeds the store from the graph file and checkpoints.
    let (ok, first, _) = cspm(&["mine", graph_str, "--store", store_str, "--top", "2"]);
    assert!(ok, "seeding run failed: {first}");
    assert!(first.contains("store: seeded"), "no seed note: {first}");
    assert!(first.contains("generation 1"), "no generation: {first}");
    assert!(store.exists(), "snapshot file not created");

    // Second run warm-opens and mines the identical model; the graph
    // argument is ignored with a note.
    let (ok, second, _) = cspm(&["mine", graph_str, "--store", store_str, "--top", "2"]);
    assert!(ok, "warm run failed: {second}");
    assert!(
        second.contains("store: warm-opened") && second.contains("(generation 1, clean"),
        "no warm-open note: {second}"
    );
    assert!(second.contains("input ignored"), "no ignore note: {second}");
    let mined = |s: &str| {
        s.lines()
            .skip_while(|l| !l.starts_with("mined "))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        mined(&first),
        mined(&second),
        "store must not change the model"
    );

    // No input at all: the stored session alone is enough.
    let (ok, third, _) = cspm(&["mine", "--store", store_str, "--top", "2"]);
    assert!(ok, "store-only run failed: {third}");
    assert!(!third.contains("input ignored"));
    assert_eq!(mined(&first), mined(&third));

    // Under --json the store notes move to stderr and the document
    // gains a "store" object.
    let (ok, out, stderr) = cspm(&["mine", "--store", store_str, "--json", "--top", "2"]);
    assert!(ok);
    assert_eq!(out.trim().lines().count(), 1, "one document on stdout");
    let doc = parse_json(&out);
    for path in [&["store", "snapshot_bytes"][..], &["store", "wal_bytes"]] {
        assert!(at(&doc, path).as_u64().is_some(), "{path:?} is not a count");
    }
    assert_eq!(at(&doc, &["store", "generation"]).as_u64(), Some(1));
    assert_eq!(at(&doc, &["store", "wal_records"]).as_u64(), Some(0));
    assert_eq!(at(&doc, &["store", "recovery"]).as_str(), Some("clean"));
    assert!(at(&doc, &["run", "final_dl_bits"]).as_f64().is_some());
    assert!(
        stderr.contains("store: warm-opened"),
        "notes not on stderr: {stderr}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_store_reports_health_and_survives_damage() {
    let dir = std::env::temp_dir()
        .join("cspm-cli-tests")
        .join("store-stats");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let graph = dir.join("seed.graph");
    let graph_str = graph.to_str().unwrap();
    let store = dir.join("session.csps");
    let store_str = store.to_str().unwrap();
    cspm(&["generate", "usflight", graph_str, "--scale", "tiny"]);

    // A path that does not exist yet is a fresh (empty) store.
    let (ok, out, _) = cspm(&["stats", "--store", store_str]);
    assert!(ok, "fresh stats failed: {out}");
    assert!(
        out.contains("never been checkpointed"),
        "fresh note missing: {out}"
    );

    let (ok, _, _) = cspm(&["mine", graph_str, "--store", store_str, "--top", "1"]);
    assert!(ok);

    let (ok, out, _) = cspm(&["stats", "--store", store_str]);
    assert!(ok, "stats failed: {out}");
    for needle in [
        "snapshot: ",
        "(generation 1)",
        "wal: ",
        "0 record(s) since last checkpoint",
        "recovery: clean",
        "graph: 40 vertices",
        "coreset mode single-value",
        "serialized row(s)",
    ] {
        assert!(out.contains(needle), "missing '{needle}' in {out}");
    }

    let (ok, out, _) = cspm(&["stats", "--store", store_str, "--json"]);
    assert!(ok);
    assert_eq!(out.trim().lines().count(), 1);
    let doc = parse_json(&out);
    assert_eq!(at(&doc, &["command"]).as_str(), Some("stats"));
    assert_eq!(at(&doc, &["store", "generation"]).as_u64(), Some(1));
    assert_eq!(at(&doc, &["store", "wal_records"]).as_u64(), Some(0));
    assert_eq!(at(&doc, &["store", "recovery"]).as_str(), Some("clean"));
    assert_eq!(at(&doc, &["graph", "vertices"]).as_u64(), Some(40));
    assert_eq!(at(&doc, &["db_section"]).as_bool(), Some(true));
    assert!(at(&doc, &["db_rows"]).as_u64().is_some());

    // Flip a bit in the snapshot body: stats must report the fallback,
    // not crash, and a re-mine must re-seed the store.
    let mut bytes = std::fs::read(&store).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&store, &bytes).unwrap();
    let (ok, out, _) = cspm(&["stats", "--store", store_str]);
    assert!(ok, "stats on a damaged store must not fail: {out}");
    assert!(
        out.contains("recovery: snapshot-fallback") || out.contains("recovery: clean"),
        "unexpected recovery line: {out}"
    );
    let (ok, out, stderr) = cspm(&["mine", graph_str, "--store", store_str, "--top", "1"]);
    assert!(ok, "re-seeding a damaged store failed: {out} {stderr}");

    // Mixing a graph file with --store under stats is ambiguous.
    let (ok, _, stderr) = cspm(&["stats", graph_str, "--store", store_str]);
    assert!(!ok);
    assert!(stderr.contains("not both"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn helpful_errors() {
    let (ok, _, stderr) = cspm(&[]);
    assert!(!ok);
    assert!(stderr.contains("usage"));

    let (ok, _, stderr) = cspm(&["mine", "/nonexistent/file.graph"]);
    assert!(!ok);
    assert!(stderr.contains("cannot open"));

    let (ok, _, stderr) = cspm(&["generate", "nope", "/tmp/x.graph"]);
    assert!(!ok);
    assert!(stderr.contains("unknown dataset"));

    let (ok, _, stderr) = cspm(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));

    // --format without --input would be silently ignored; refuse it.
    let (ok, _, stderr) = cspm(&["mine", "some.graph", "--format", "dblp"]);
    assert!(!ok);
    assert!(stderr.contains("--format only applies to --input"));
}
