//! End-to-end tests of the `cspm` command-line interface.

use std::process::Command;

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

/// Copies a fixture (and its sidecars) into a scratch dir so `.csbin`
/// snapshots land there, not in the repo tree.
#[cfg(feature = "real-data")]
fn stage_fixture(case: &str, names: &[&str]) -> std::path::PathBuf {
    let src = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let dir = std::env::temp_dir().join("cspm-cli-tests").join(case);
    std::fs::create_dir_all(&dir).unwrap();
    for name in names {
        std::fs::copy(src.join(name), dir.join(name)).unwrap();
    }
    dir.join(names[0])
}

#[cfg(feature = "real-data")]
#[test]
fn ingest_writes_then_loads_snapshot() {
    let input = stage_fixture(
        "snapshot-roundtrip",
        &["pokec_small.txt", "pokec_small.profiles.txt"],
    );
    let snap = input.with_file_name("pokec_small.txt.csbin");
    std::fs::remove_file(&snap).ok();
    let input = input.to_str().unwrap();

    // First run parses the dump and writes the snapshot …
    let (ok, first, _) = cspm(&["mine", "--input", input, "--format", "auto", "--top", "2"]);
    assert!(ok, "first ingest run failed");
    assert!(
        first.contains("as pokec"),
        "auto-detection note missing: {first}"
    );
    assert!(
        first.contains("wrote snapshot"),
        "snapshot note missing: {first}"
    );
    assert!(snap.exists(), "snapshot file not created");

    // … the second run loads it instead of re-parsing, mining the
    // identical model.
    let (ok, second, _) = cspm(&["mine", "--input", input, "--format", "auto", "--top", "2"]);
    assert!(ok, "second ingest run failed");
    assert!(
        second.contains("loaded snapshot"),
        "snapshot not reused: {second}"
    );
    assert!(!second.contains("wrote snapshot"));
    let mined = |s: &str| {
        s.lines()
            .skip_while(|l| !l.starts_with("mined "))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        mined(&first),
        mined(&second),
        "snapshot must not change the model"
    );
}

#[cfg(feature = "real-data")]
#[test]
fn stale_snapshot_is_discarded_and_rebuilt() {
    let input = stage_fixture(
        "snapshot-stale",
        &["pokec_small.txt", "pokec_small.profiles.txt"],
    );
    let snap = input.with_file_name("pokec_small.txt.csbin");
    let input = input.to_str().unwrap();
    let (ok, _, _) = cspm(&["mine", "--input", input, "--top", "2"]);
    assert!(ok);

    // Corrupt the layout-version field: the loader must reject it with
    // a typed error and the CLI must fall back to a fresh parse.
    let mut bytes = std::fs::read(&snap).unwrap();
    bytes[4] = 0xEE;
    std::fs::write(&snap, &bytes).unwrap();
    let (ok, out, _) = cspm(&["mine", "--input", input, "--top", "2"]);
    assert!(ok, "stale snapshot must not be fatal");
    assert!(
        out.contains("discarded unusable snapshot"),
        "no discard note: {out}"
    );
    assert!(
        out.contains("snapshot layout version 238"),
        "reason missing: {out}"
    );
    assert!(
        out.contains("wrote snapshot"),
        "snapshot not rebuilt: {out}"
    );
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

/// Structural well-formedness check for the hand-rolled `--json`
/// output: balanced braces/brackets outside strings, no trailing
/// garbage, string escapes valid. (CI additionally pipes a real run
/// through `python3 -m json.tool`.)
fn assert_wellformed_json(doc: &str) {
    let doc = doc.trim();
    assert!(
        doc.starts_with('{') && doc.ends_with('}'),
        "not an object: {doc:.40}"
    );
    let mut depth: i64 = 0;
    let mut in_str = false;
    let mut escaped = false;
    for c in doc.chars() {
        if in_str {
            match (escaped, c) {
                (true, _) => escaped = false,
                (false, '\\') => escaped = true,
                (false, '"') => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' | '[' => depth += 1,
            '}' | ']' => {
                depth -= 1;
                assert!(depth >= 0, "unbalanced close in {doc}");
            }
            _ => {}
        }
    }
    assert_eq!(depth, 0, "unbalanced braces in {doc}");
    assert!(!in_str, "unterminated string in {doc}");
}

#[test]
fn mine_json_emits_one_machine_readable_document() {
    let path = temp_path("json.graph");
    let path_str = path.to_str().unwrap();
    cspm(&["generate", "dblp", path_str, "--scale", "tiny"]);

    let (ok, out, _) = cspm(&["mine", path_str, "--json", "--top", "2"]);
    assert!(ok);
    assert_eq!(out.trim().lines().count(), 1, "one document on stdout");
    assert_wellformed_json(&out);
    // ModelSummary, RunStats, and the compression ratio all present.
    for key in [
        "\"command\":\"mine\"",
        "\"variant\":\"partial\"",
        "\"vertices\":",
        "\"compression_ratio\":",
        "\"merges\":",
        "\"total_gain_evals\":",
        "\"cancelled\":false",
        "\"posting_sparse_rows\":",
        "\"posting_bitmap_rows\":",
        "\"posting_flips_to_bitmap\":",
        "\"posting_flips_to_sparse\":",
        "\"n_astars\":",
        "\"n_coresets\":",
        "\"mean_leafset_size\":",
        "\"data_bits\":",
        "\"model_bits\":",
        "\"total_bits\":",
        "\"conditional_entropy\":",
        "\"top_patterns\":[",
        "\"code_len_bits\":",
    ] {
        assert!(out.contains(key), "missing {key} in {out}");
    }
    // --top bounds the pattern array.
    assert_eq!(out.matches("\"astar\":").count(), 2);
    // The human-readable lines must not leak into the JSON stream.
    assert!(!out.contains("a-stars:"));

    let (ok, basic, _) = cspm(&["mine", path_str, "--json", "--basic", "--top", "1"]);
    assert!(ok);
    assert!(basic.contains("\"variant\":\"basic\""));
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
    assert_wellformed_json(&out);
    for key in [
        "\"command\":\"stats\"",
        "\"vertices\":40",
        "\"connected\":",
        "\"components\":",
        "\"degree\":{",
        "\"attribute_homophily\":",
        "\"mean_clustering\":",
        "\"posting\":{\"sparse_rows\":",
        "\"bitmap_rows\":",
        "\"top_attribute_values\":[",
    ] {
        assert!(out.contains(key), "missing {key} in {out}");
    }

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
    assert_wellformed_json(&out);
    for key in [
        "\"store\":{",
        "\"snapshot_bytes\":",
        "\"wal_bytes\":",
        "\"generation\":1",
        "\"wal_records\":0",
        "\"recovery\":\"clean\"",
        "\"final_dl_bits\":",
    ] {
        assert!(out.contains(key), "missing {key} in {out}");
    }
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
    assert_wellformed_json(&out);
    for key in [
        "\"command\":\"stats\"",
        "\"store\":{",
        "\"generation\":1",
        "\"wal_records\":0",
        "\"recovery\":\"clean\"",
        "\"vertices\":40",
        "\"db_section\":true",
        "\"db_rows\":",
    ] {
        assert!(out.contains(key), "missing {key} in {out}");
    }

    // Flip a bit in the snapshot body: stats must report the fallback,
    // not crash, and a re-mine must re-seed the store.
    let mut bytes = std::fs::read(&store).unwrap();
    let at = bytes.len() / 2;
    bytes[at] ^= 0x10;
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
