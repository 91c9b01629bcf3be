//! `mine-pokec`: one caller mining the pokec-Small graph file from file
//! to model, repeatedly, with the CLI's default configuration (the
//! `cspm mine <file>` call path: `read_graph`, then the one-shot
//! `cspm_core::mine`). Parse, `InvertedDb::build`, sharing-pair
//! enumeration and gain scoring do the work; the store and the daemon
//! do none.

use std::fs::File;
use std::path::Path;
use std::time::Instant;

use cspm_core::{CspmConfig, InvertedDb, Miner, Variant};
use cspm_datasets::{pokec_like, save_dataset, Scale};
use cspm_graph::{read_graph, AttributedGraph};
use cspm_serve::server::dl_bits;

use crate::engine::{clocked_run, engine_counts, engine_layers};
use crate::{stats, Ctx, Phase, SETUP_REPEATS};

/// The cold one-shot digest of pokec-Small for seed 2022, known from
/// the repository's own records; a second, fixed check on the gate.
const SEED_2022_DIGEST: &str = "4153207949202dc0";

fn load(path: &Path) -> Result<AttributedGraph, String> {
    let file = File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    read_graph(file).map_err(|e| format!("parse {}: {e}", path.display()))
}

/// Auto (`0`) resolved the way the engine resolves it.
pub fn resolved_threads(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .clamp(1, CspmConfig::MAX_AUTO_THREADS)
    }
}

pub fn run(ctx: &Ctx) -> Result<Phase, String> {
    let mut phase = Phase::new(ctx.traced);
    let path = ctx.work.join("pokec-small.graph");
    let mut shape = (0, 0, 0);
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let dataset = pokec_like(Scale::Small, ctx.seed);
        save_dataset(&dataset, &path).map_err(|e| format!("write {}: {e}", path.display()))?;
        phase.setup_s.push(t.elapsed().as_secs_f64());
        shape = dataset.statistics();
    }
    let config = CspmConfig::default();
    phase.provenance.extend([
        ("scale", "\"small\"".to_string()),
        (
            "graphs",
            format!(
                "[{{\"name\":\"pokec-small\",\"vertices\":{},\"edges\":{},\"attribute_values\":{}}}]",
                shape.0, shape.1, shape.2
            ),
        ),
        ("engine_threads", resolved_threads(config.threads).to_string()),
    ]);

    // Correctness reference, outside the timed region: a cold one-shot
    // mine, and in traced runs a lossless-decode check of its model
    // (`verify_lossless` takes about half a minute on this graph).
    let graph = load(&path)?;
    let reference = cspm_core::mine(&graph, Variant::Partial, config);
    let want = dl_bits(reference.final_dl);
    if ctx.seed == 2022 && want != SEED_2022_DIGEST {
        phase.mismatches.push(format!(
            "seed 2022 reference digest {want}, expected {SEED_2022_DIGEST}"
        ));
    }
    if ctx.traced {
        phase.check_lossless(&graph, &reference.db);
    }
    let reference_counts = engine_counts(&reference);
    drop((graph, reference));

    let deadline = Instant::now() + std::time::Duration::from_secs_f64(ctx.seconds);
    let started = Instant::now();
    let mut cycle = 0u64;
    while cycle == 0 || Instant::now() < deadline {
        cycle += 1;
        let t = Instant::now();
        let result = if ctx.traced {
            traced_mine(&mut phase, cycle, &path, config)?
        } else {
            let g = load(&path)?;
            std::hint::black_box(cspm_core::mine(&g, Variant::Partial, config))
        };
        phase.cycle_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let got = dl_bits(result.final_dl);
        if !phase.op(got == want) {
            phase
                .mismatches
                .push(format!("mine {cycle}: digest {got}, cold one-shot {want}"));
        }
        let counts = engine_counts(&result);
        if counts != reference_counts {
            phase.mismatches.push(format!(
                "mine {cycle}: engine counts {counts:?} differ from the reference {reference_counts:?}"
            ));
        }
    }
    phase.wall_s = started.elapsed().as_secs_f64();
    phase.peak_rss_mb = crate::wire::peak_rss_mb("self");
    phase.counts.extend(reference_counts);

    if ctx.traced {
        let tr = &phase.tracer;
        let read = tr.ms("graph.read");
        let build = tr.ms("inverted.build");
        let pairs = tr.ms("inverted.sharing_pairs");
        let scrape = tr.ms("telemetry.scrape");
        phase.layer("graph.read_s", stats::median(&read) / 1e3);
        phase.layer("inverted.build_s", stats::median(&build) / 1e3);
        phase.layer("inverted.sharing_pairs_s", stats::median(&pairs) / 1e3);
        phase.layer("telemetry.scrape_ms", stats::median(&scrape));
        engine_layers(&mut phase);
        for (k, v) in reference_counts {
            phase.layer(k, v);
        }
        let evals = reference_counts[1].1;
        phase.layer("engine.prune_ratio", reference_counts[2].1 / evals.max(1.0));
        if let Some(&n) = phase.counts.get("inverted.sharing_pairs") {
            phase.layer("inverted.sharing_pairs", n);
        }
    }
    Ok(phase)
}

/// One mine with a span around each layer call. The merge loop runs
/// through `MiningSession::run_with` so an observer can time it, which
/// adds one clone of the pristine database to `engine.seed`.
fn traced_mine(
    phase: &mut Phase,
    cycle: u64,
    path: &Path,
    config: CspmConfig,
) -> Result<cspm_core::CspmResult, String> {
    let tr = &mut phase.tracer;
    let root = tr.enter("cycle", cycle);
    let s = tr.enter("graph.read", cycle);
    let g = load(path)?;
    tr.exit(s);
    let s = tr.enter("inverted.build", cycle);
    let db = InvertedDb::build(&g, config.coreset_mode, config.gain_policy);
    tr.exit(s);
    let mut session = Miner::from_config(config).variant(Variant::Partial).build();
    session.adopt_db(db);
    let result = clocked_run(tr, "engine.run", cycle, &mut session);
    tr.exit(root);

    // Outside the cycle: the public pair enumeration on the pristine
    // database, and one render of the in-process metrics registry.
    let db = session
        .pristine_db()
        .expect("session holds its pristine db");
    let s = tr.enter("inverted.sharing_pairs", cycle);
    let pairs = std::hint::black_box(db.sharing_pairs()).len();
    tr.exit(s);
    let s = tr.enter("telemetry.scrape", cycle);
    std::hint::black_box(cspm_telemetry::global().render());
    tr.exit(s);
    phase.counts.insert("inverted.sharing_pairs", pairs as f64);
    Ok(result)
}
