//! Records merge-loop timings for the unified engine into
//! `BENCH_engine.json`, so successive PRs can track the perf trajectory.
//!
//! ```text
//! bench_engine [--tiny|--paper] [--seed N] [--out FILE]
//!              [--input FILE]… [--format pokec|dblp|usflight|native|auto]
//! ```
//!
//! Measures, per dataset: the engine's two variants end to end on a
//! pre-built inverted database (`merge_loop_incremental` for
//! CSPM-Partial; `merge_loop_basic` for CSPM-Basic, only where
//! Algorithm 1's O(pairs × merges) sweeps are tractable, see
//! `BASIC_MAX_PAIRS`), a thread sweep of the incremental merge loop
//! (`merge_loop_incremental_t{1,2,4,8}`), and the session warm-path
//! pair: `merge_loop_session_cold` (cold
//! `MiningSession::mine` of a delta-grown graph) vs
//! `merge_loop_session_warm` (`apply_delta` on a session that already
//! holds the base graph — same merge loop, but database *patching*
//! replaces database *construction*; results are asserted
//! bit-identical), the windowed-stream pair: `windowed_stream_patch`
//! (one warm session driven through insert-front/expire-back deltas,
//! re-mining after each step) vs `windowed_stream_rebuild` (cold mine
//! of each step's surviving window; every step's model asserted
//! bit-identical, and the warm arena's end-of-drive fragmentation
//! recorded as `windowed_stream_fragmentation`), and the
//! durable-store open pair:
//! `store_rebuild_cold` (open the snapshot, rebuild the database from
//! the recovered graph) vs `store_open_warm` (decode the snapshot's
//! serialized DB section instead — `InvertedDb::from_pristine_rows`;
//! description lengths asserted bit-identical).
//!
//! With `--input` (requires the `real-data` feature), the generator
//! suite is replaced by the given real dataset dumps; the parse phase
//! is recorded separately from the merge loops as `<name>/parse`
//! (snapshot caching is disabled so the record times the parser, not
//! the cache), and `--out` defaults to `BENCH_engine.inputs.json` so a
//! fixture run never clobbers the committed generator-suite baseline
//! that `bench_compare` gates on.
//!
//! `bench_compare` diffs the emitted JSON against the committed
//! baseline and gates CI on merge-loop regressions.

use std::io::Write as _;
use std::time::Instant;

use cspm_bench::fmt_secs;
use cspm_core::{CoresetMode, CspmConfig, CspmResult, GainPolicy, InvertedDb, Miner, Variant};
use cspm_datasets::{dblp_like, pokec_like, usflight_like, Dataset, Scale};
use cspm_graph::dynamic::{DeltaVertex, GraphDelta};
use cspm_graph::AttributedGraph;

/// Median of `reps` timed runs of `f`, in seconds.
fn median_secs<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    median_secs_batched(reps, || (), |()| f())
}

/// Median of `reps` timed runs of `routine` on fresh inputs from
/// `setup`; setup (e.g. cloning a database) stays outside the timing so
/// recorded trajectories track the routine alone.
fn median_secs_batched<I, T>(
    reps: usize,
    mut setup: impl FnMut() -> I,
    mut routine: impl FnMut(I) -> T,
) -> f64 {
    let mut times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let input = setup();
            let t = Instant::now();
            std::hint::black_box(routine(input));
            t.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

struct Record {
    name: String,
    secs: f64,
}

/// CSPM-Basic re-scores every sharing pair after every merge, so it is
/// timed only on datasets with at most this many initial pairs: DBLP
/// and USFlight at `--small`, not pokec-Small with its 44,850.
const BASIC_MAX_PAIRS: usize = 10_000;

/// The merge loop alone: mines a pre-built database.
fn mine_db(db: InvertedDb, variant: Variant, config: CspmConfig) -> CspmResult {
    let mut session = Miner::from_config(config).variant(variant).build();
    session.adopt_db(db);
    session.run_detached().expect("adopted database mines")
}

/// A deterministic, modest evolution step for the session benchmark:
/// ~1% new vertices (at least 4), each cloning the labels of an
/// existing vertex and wired to it, plus a handful of fresh edges
/// between existing vertices. Small relative to the graph, so the warm
/// path's patch-instead-of-rebuild advantage is visible.
fn session_delta(g: &AttributedGraph) -> GraphDelta {
    let n = g.vertex_count();
    let mut delta = GraphDelta::new();
    for i in 0..(n / 100).max(4) {
        let anchor = ((i * 37 + 11) % n) as u32;
        let labels: Vec<&str> = g
            .labels(anchor)
            .iter()
            .filter_map(|&a| g.attrs().name(a))
            .collect();
        let v = delta.add_vertex(labels);
        delta.add_edge(v, DeltaVertex::Existing(anchor));
    }
    for i in 0..4usize {
        let (u, w) = (((i * 53 + 7) % n) as u32, ((i * 101 + 29) % n) as u32);
        if u != w {
            delta.add_edge(DeltaVertex::Existing(u), DeltaVertex::Existing(w));
        }
    }
    delta
}

/// One windowed-stream step over the rolling graph: `batch` new
/// vertices arrive (each cloning the labels of a surviving anchor and
/// wired to it), and the `batch` oldest original vertices starting at
/// `expire_from` leave (detached: labels and incident edges dropped,
/// id slots retained). Anchors are drawn from the original-id range
/// that survives this step, so arrivals never wire to a ghost.
fn window_delta(g: &AttributedGraph, expire_from: u32, batch: usize, orig_n: u32) -> GraphDelta {
    let mut delta = GraphDelta::new();
    let live_lo = expire_from + batch as u32;
    let live_span = (orig_n - live_lo) as usize;
    for i in 0..batch {
        let anchor = live_lo + ((i * 37 + 11) % live_span) as u32;
        let labels: Vec<&str> = g
            .labels(anchor)
            .iter()
            .filter_map(|&a| g.attrs().name(a))
            .collect();
        let v = delta.add_vertex(labels);
        delta.add_edge(v, DeltaVertex::Existing(anchor));
    }
    for v in expire_from..expire_from + batch as u32 {
        delta.remove_vertex(v);
    }
    delta
}

/// Parses `--input` dumps into datasets, recording one `<name>/parse`
/// timing each (snapshots off: the record must time the parser).
#[cfg(feature = "real-data")]
fn ingest_inputs(inputs: &[String], format: &str, records: &mut Vec<Record>) -> Vec<Dataset> {
    use cspm_datasets::ingest::{self, SnapshotPolicy};
    let format = ingest::Format::from_cli(format).unwrap_or_else(|e| panic!("{e}"));
    inputs
        .iter()
        .map(|p| {
            let report = ingest::ingest(std::path::Path::new(p), format, SnapshotPolicy::Off)
                .unwrap_or_else(|e| panic!("cannot ingest {p}: {e}"));
            println!(
                "parsed {p} as {} in {}",
                report.format,
                fmt_secs(report.parse_secs)
            );
            records.push(Record {
                name: format!("{}/parse", report.dataset.name),
                secs: report.parse_secs,
            });
            report.dataset
        })
        .collect()
}

#[cfg(not(feature = "real-data"))]
fn ingest_inputs(_inputs: &[String], _format: &str, _records: &mut Vec<Record>) -> Vec<Dataset> {
    panic!("--input needs real-dataset support: rebuild with --features real-data");
}

fn main() {
    let mut scale = Scale::Small;
    let mut seed = 2022u64;
    let mut out_path: Option<String> = None;
    let mut inputs: Vec<String> = Vec::new();
    let mut format = "auto".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--paper" => scale = Scale::Paper,
            "--tiny" => scale = Scale::Tiny,
            "--seed" => seed = args.next().and_then(|s| s.parse().ok()).expect("--seed N"),
            "--out" => out_path = Some(args.next().expect("--out FILE")),
            "--input" => inputs.push(args.next().expect("--input FILE")),
            "--format" => format = args.next().expect("--format NAME"),
            other => panic!("unknown argument '{other}'"),
        }
    }
    // Fixture runs default to their own output file: BENCH_engine.json
    // is the committed CI baseline for the *generator* suite, and
    // silently replacing it would neuter the bench_compare gate.
    let out_path = out_path.unwrap_or_else(|| {
        if inputs.is_empty() {
            "BENCH_engine.json".to_string()
        } else {
            "BENCH_engine.inputs.json".to_string()
        }
    });

    let mut records: Vec<Record> = Vec::new();
    let datasets: Vec<Dataset> = if inputs.is_empty() {
        vec![
            dblp_like(scale, seed),
            usflight_like(scale, seed),
            pokec_like(
                if scale == Scale::Paper {
                    Scale::Small
                } else {
                    scale
                },
                seed,
            ),
        ]
    } else {
        ingest_inputs(&inputs, &format, &mut records)
    };
    let reps = 3;

    for d in &datasets {
        let (n, m, a) = d.statistics();
        println!("== {} ({n} vertices, {m} edges, {a} attrs) ==", d.name);

        let db = InvertedDb::build(&d.graph, CoresetMode::SingleValue, GainPolicy::Total);
        let initial_pairs = db.sharing_pairs().len();
        for (label, variant) in [("incremental", Variant::Partial), ("basic", Variant::Basic)] {
            if variant == Variant::Basic && initial_pairs > BASIC_MAX_PAIRS {
                println!("  merge loop [{label}]: skipped ({initial_pairs} initial pairs)");
                continue;
            }
            let mut evals = 0u64;
            let secs = median_secs_batched(
                reps,
                || db.clone(),
                |db| {
                    let res = mine_db(db, variant, CspmConfig::default());
                    evals = res.stats.total_gain_evals;
                    res
                },
            );
            println!(
                "  merge loop [{label}]: {} ({evals} gain evals)",
                fmt_secs(secs)
            );
            records.push(Record {
                name: format!("{}/merge_loop_{label}", d.name),
                secs,
            });
        }

        // Thread sweep over the incremental merge loop: scoring fans
        // out across scoped workers; results are bit-identical at every
        // count (asserted against the single-thread reference).
        let reference = mine_db(
            db.clone(),
            Variant::Partial,
            CspmConfig::default().with_threads(1),
        );
        for threads in [1usize, 2, 4, 8] {
            let config = CspmConfig::default().with_threads(threads);
            let mut final_dl = f64::NAN;
            let secs = median_secs_batched(
                reps,
                || db.clone(),
                |db| {
                    let res = mine_db(db, Variant::Partial, config);
                    final_dl = res.final_dl;
                    res
                },
            );
            assert_eq!(
                final_dl, reference.final_dl,
                "parallel scoring must be deterministic"
            );
            println!(
                "  merge loop [incremental, t={threads}]: {}",
                fmt_secs(secs)
            );
            records.push(Record {
                name: format!("{}/merge_loop_incremental_t{threads}", d.name),
                secs,
            });
        }

        // Session warm path: the graph grows by one delta, and a
        // session already holding the base graph re-mines it warm
        // (patch + merge loop) vs a cold session mine of the grown
        // graph (build + merge loop). Models must be bit-identical;
        // the delta is the only thing the warm path re-reads.
        let delta = session_delta(&d.graph);
        let applied = delta.apply(&d.graph).expect("synthetic delta applies");
        let dirty = applied.dirty_centers.len();
        let grown = applied.graph;
        let mut cold_dl = f64::NAN;
        let cold = median_secs_batched(
            reps,
            || Miner::new().build(),
            |mut session| {
                let res = session.mine(&grown);
                cold_dl = res.final_dl;
                res
            },
        );
        let mut warm_template = Miner::new().build();
        warm_template.load(&d.graph);
        let mut warm_dl = f64::NAN;
        let warm = median_secs_batched(
            reps,
            || warm_template.clone(),
            |mut session| {
                let res = session.apply_delta(&delta).expect("delta applies");
                warm_dl = res.final_dl;
                res
            },
        );
        assert_eq!(
            warm_dl.to_bits(),
            cold_dl.to_bits(),
            "warm re-mine must be bit-identical to the cold mine"
        );
        println!(
            "  merge loop [session]: cold {} vs warm {} ({:.2}x, {dirty} dirty of {} vertices)",
            fmt_secs(cold),
            fmt_secs(warm),
            cold / warm,
            grown.vertex_count()
        );
        records.push(Record {
            name: format!("{}/merge_loop_session_cold", d.name),
            secs: cold,
        });
        records.push(Record {
            name: format!("{}/merge_loop_session_warm", d.name),
            secs: warm,
        });

        // Windowed stream: insert new vertices at the front, expire
        // the oldest at the back (vertex detachment), one delta per
        // step. The patch driver advances one warm session's database
        // through every step (`stage_delta`: dirty-center patching of
        // retained posting rows); the rebuild driver reconstructs the
        // database from each step's surviving window (`InvertedDb::
        // build`, the cost a rebuild-based streamer would pay per
        // step). Mining the drive's final window warm is asserted
        // bit-identical to cold-mining it from scratch — the
        // windowed-stream correctness contract — and the warm arena's
        // end-of-drive fragmentation is recorded alongside the
        // timings. (Per-step bit-identity across threads and posting
        // policies is covered exhaustively by tests/stream_churn.rs.)
        let steps = 4usize;
        let batch = (d.graph.vertex_count() / 100).max(4);
        let orig_n = d.graph.vertex_count() as u32;
        let mut rolling = d.graph.clone();
        let mut window_deltas = Vec::new();
        let mut step_graphs = Vec::new();
        for k in 0..steps {
            let delta = window_delta(&rolling, (k * batch) as u32, batch, orig_n);
            rolling = delta.apply(&rolling).expect("window delta applies").graph;
            window_deltas.push(delta);
            step_graphs.push(rolling.clone());
        }
        let mut warm_template = Miner::new().build();
        warm_template.load(&d.graph);
        let mut frag = f64::NAN;
        let mut driven: Option<cspm_core::MiningSession> = None;
        let patch = median_secs_batched(
            reps,
            || warm_template.clone(),
            |mut session| {
                for delta in &window_deltas {
                    session.stage_delta(delta).expect("window delta stages");
                }
                frag = session.fragmentation();
                driven = Some(session);
            },
        );
        let rebuild = median_secs(reps, || {
            for g in &step_graphs {
                std::hint::black_box(InvertedDb::build(
                    g,
                    CoresetMode::SingleValue,
                    GainPolicy::Total,
                ));
            }
        });
        let warm_final = driven
            .take()
            .expect("at least one timed drive ran")
            .run_detached()
            .expect("driven session mines");
        let cold_final = Miner::new().build().mine(step_graphs.last().unwrap());
        assert_eq!(
            warm_final.final_dl.to_bits(),
            cold_final.final_dl.to_bits(),
            "windowed-stream mining must be bit-identical to cold re-mining \
             the surviving window"
        );
        // Gate only where the timings clear the jitter floor: at
        // --tiny scale both drivers finish in single-digit
        // milliseconds and the comparison is noise.
        if d.name.starts_with("Pokec") && rebuild > 0.05 {
            assert!(
                patch < rebuild,
                "patched windowed streaming must beat per-step rebuild on {}: \
                 patch {} vs rebuild {}",
                d.name,
                fmt_secs(patch),
                fmt_secs(rebuild)
            );
        }
        println!(
            "  windowed stream ({steps} steps × {batch} in/out): patch {} vs rebuild {} \
             ({:.2}x, fragmentation {frag:.3})",
            fmt_secs(patch),
            fmt_secs(rebuild),
            rebuild / patch
        );
        records.push(Record {
            name: format!("{}/windowed_stream_patch", d.name),
            secs: patch,
        });
        records.push(Record {
            name: format!("{}/windowed_stream_rebuild", d.name),
            secs: rebuild,
        });
        records.push(Record {
            name: format!("{}/windowed_stream_fragmentation", d.name),
            secs: frag,
        });

        // Durable store open: a checkpointed store restores the
        // pristine database by decoding the snapshot's DB section
        // (`InvertedDb::from_pristine_rows`) instead of re-scanning
        // the recovered graph (`InvertedDb::build`). Both opens read
        // the same snapshot bytes; the restored databases must carry
        // bit-identical description lengths.
        let store_path = std::env::temp_dir()
            .join("cspm-bench-store")
            .join(format!("{}.csps", d.name.replace(['/', ' '], "_")));
        std::fs::create_dir_all(store_path.parent().unwrap()).expect("can create store dir");
        std::fs::remove_file(&store_path).ok();
        {
            use cspm_store::Durable;
            let mut durable = Miner::new()
                .durable(&store_path)
                .expect("store opens fresh");
            durable.mine(&d.graph).expect("seeding mine persists");
        }
        let open_state = || {
            let (_, recovered) = cspm_store::SessionStore::open(&store_path).expect("store opens");
            recovered.state.expect("checkpointed store has state")
        };
        let mut warm_dl = f64::NAN;
        let store_warm = median_secs(reps, || {
            let state = open_state();
            let db = InvertedDb::from_pristine_rows(
                &state.graph,
                GainPolicy::Total,
                state
                    .db
                    .as_ref()
                    .expect("single-value snapshot has a DB section")
                    .iter(),
            )
            .expect("serialized rows restore");
            warm_dl = db.total_dl();
            db
        });
        let mut cold_dl = f64::NAN;
        let store_cold = median_secs(reps, || {
            let state = open_state();
            let db = InvertedDb::build(&state.graph, CoresetMode::SingleValue, GainPolicy::Total);
            cold_dl = db.total_dl();
            db
        });
        assert_eq!(
            warm_dl.to_bits(),
            cold_dl.to_bits(),
            "warm store open must restore the cold-built database exactly"
        );
        println!(
            "  store open: cold rebuild {} vs warm restore {} ({:.2}x)",
            fmt_secs(store_cold),
            fmt_secs(store_warm),
            store_cold / store_warm
        );
        records.push(Record {
            name: format!("{}/store_rebuild_cold", d.name),
            secs: store_cold,
        });
        records.push(Record {
            name: format!("{}/store_open_warm", d.name),
            secs: store_warm,
        });
        std::fs::remove_file(&store_path).ok();
        std::fs::remove_file(store_path.with_extension("csps.wal")).ok();
    }

    let mut f = std::fs::File::create(&out_path).expect("can create output file");
    writeln!(f, "{{").unwrap();
    writeln!(f, "  \"suite\": \"engine\",").unwrap();
    writeln!(f, "  \"scale\": \"{scale:?}\",").unwrap();
    writeln!(f, "  \"seed\": {seed},").unwrap();
    writeln!(f, "  \"timings_secs\": {{").unwrap();
    for (i, r) in records.iter().enumerate() {
        let comma = if i + 1 == records.len() { "" } else { "," };
        writeln!(f, "    \"{}\": {:.6}{comma}", r.name, r.secs).unwrap();
    }
    writeln!(f, "  }}").unwrap();
    writeln!(f, "}}").unwrap();
    println!("wrote {out_path}");
}
