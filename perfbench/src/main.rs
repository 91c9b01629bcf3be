//! `perfbench`: the repository benchmark. It times what a caller of the
//! miner, the store and the daemon waits for, end to end, and splits
//! that time by layer with spans recorded around the benchmark's own
//! calls into each layer's public functions (nothing inside the program
//! is instrumented).
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <mine-pokec|tenant-churn|client-reopen> --seed N --seconds S --trace 0|1
//! ```
//!
//! Workloads (each a closed loop driven from this process; the seed
//! generates every input, and the program receives only those inputs):
//!
//! * `mine-pokec` — one caller mines the pokec-Small graph file (30k
//!   vertices) from file to model with the CLI's default configuration.
//! * `tenant-churn` — two clients, each on one persistent connection to
//!   a daemon (`--threads 2 --store-dir`), each driving its own durable
//!   DBLP paper-scale tenant through windowed-delta + `mine` cycles,
//!   taking turns.
//! * `client-reopen` — one client opening a fresh connection per request
//!   (the `cspm client` pattern), cycling `open` (warm restore), a
//!   windowed delta and `close` (checkpoint) on a durable tenant of
//!   10,000 pokec-Small users.
//!
//! With `--trace 0` the run measures end-to-end metrics for `--seconds`
//! seconds. With `--trace 1` it measures half the time untraced and
//! half traced, and reports per-layer metrics plus the tracing overhead
//! (traced against untraced cycle median) and trace coverage. The last
//! stdout line is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. Every run checks mined digests against cold one-shot mines
//! and exits 1 on a mismatch.

mod churn;
mod engine;
mod mine;
mod reopen;
mod replica;
mod served;
mod stats;
mod tenant;
mod trace;
mod wire;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use trace::Tracer;

/// How many times each run repeats its set-up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 11;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MinePokec,
    TenantChurn,
    ClientReopen,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "mine-pokec" => Some(Workload::MinePokec),
            "tenant-churn" => Some(Workload::TenantChurn),
            "client-reopen" => Some(Workload::ClientReopen),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::MinePokec => "mine-pokec",
            Workload::TenantChurn => "tenant-churn",
            Workload::ClientReopen => "client-reopen",
        }
    }
}

/// One measured phase: the inputs every workload module fills in.
pub struct Phase {
    /// Wall time of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Client-measured latency of every completed cycle, all clients.
    pub cycle_ms: Vec<f64>,
    /// Wall time of the timed loop.
    pub wall_s: f64,
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness failures (digest mismatches, lossy decodes).
    pub mismatches: Vec<String>,
    /// Per-layer metrics (traced phases).
    pub layers: BTreeMap<&'static str, f64>,
    /// Exact counts over a fixed amount of work.
    pub counts: BTreeMap<&'static str, f64>,
    /// Human-readable report lines.
    pub report: Vec<String>,
    pub provenance: Vec<(&'static str, String)>,
    pub tracer: Tracer,
}

impl Phase {
    pub fn new(traced: bool) -> Phase {
        Phase {
            setup_s: Vec::new(),
            cycle_ms: Vec::new(),
            wall_s: 0.0,
            peak_rss_mb: 0.0,
            attempted: 0,
            failed: 0,
            mismatches: Vec::new(),
            layers: BTreeMap::new(),
            counts: BTreeMap::new(),
            report: Vec::new(),
            provenance: Vec::new(),
            tracer: Tracer::new(traced, Instant::now(), 0),
        }
    }

    /// Counts one attempted op, and a failure when `ok` is false.
    pub fn op(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        ok
    }

    /// `verify_lossless` of a mined database against its graph, outside
    /// any timed region.
    pub fn check_lossless(&mut self, g: &cspm_graph::AttributedGraph, db: &cspm_core::InvertedDb) {
        let t = Instant::now();
        let errors = cspm_core::verify_lossless(g, db);
        self.report.push(format!(
            "verify_lossless: {} errors in {:.2} s",
            errors.len(),
            t.elapsed().as_secs_f64()
        ));
        if !errors.is_empty() {
            self.mismatches
                .push(format!("{} lossless-decode errors", errors.len()));
        }
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }

    fn e2e(&self) -> [(&'static str, &'static str, f64); 5] {
        [
            ("cycle_p50_ms", "ms", stats::quantile(&self.cycle_ms, 0.5)),
            ("cycle_p90_ms", "ms", stats::quantile(&self.cycle_ms, 0.9)),
            (
                "cycles_per_s",
                "1/s",
                self.cycle_ms.len() as f64 / self.wall_s,
            ),
            ("peak_rss_mb", "MB", self.peak_rss_mb),
            ("setup_s", "s", stats::median(&self.setup_s)),
        ]
    }
}

/// Every per-layer metric with its unit, in report order. A workload
/// that does not exercise a layer reports it as 0.
const LAYERS: &[(&str, &str)] = &[
    ("graph.read_s", "s"),
    ("inverted.build_s", "s"),
    ("inverted.sharing_pairs_s", "s"),
    ("inverted.sharing_pairs", "count"),
    ("engine.seed_s", "s"),
    ("engine.step_ms_p50", "ms"),
    ("engine.step_ms_p90", "ms"),
    ("engine.tail_s", "s"),
    ("engine.merges", "count"),
    ("engine.gain_evals", "count"),
    ("engine.pruned_pairs", "count"),
    ("engine.prune_ratio", "ratio"),
    ("session.stage_delta_ms", "ms"),
    ("session.run_ms", "ms"),
    ("session.dirty_centers", "count"),
    ("session.rebuilds", "count"),
    ("session.compactions", "count"),
    ("session.fragmentation", "ratio"),
    ("store.open_ms", "ms"),
    ("store.checkpoint_ms", "ms"),
    ("store.wal_append_ms", "ms"),
    ("store.fsyncs_per_cycle", "count"),
    ("store.wal_bytes_per_cycle", "bytes"),
    ("store.fsync_ms_p50", "ms"),
    ("serve.rtt_open_ms_p50", "ms"),
    ("serve.rtt_delta_ms_p50", "ms"),
    ("serve.rtt_mine_ms_p50", "ms"),
    ("serve.rtt_close_ms_p50", "ms"),
    ("serve.daemon_open_ms_p50", "ms"),
    ("serve.daemon_delta_ms_p50", "ms"),
    ("serve.daemon_mine_ms_p50", "ms"),
    ("serve.daemon_close_ms_p50", "ms"),
    ("serve.accept_ms", "ms"),
    ("serve.lock_wait_ms_p90", "ms"),
    ("serve.mine_overhead_ms", "ms"),
    ("telemetry.scrape_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage", "ratio"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 2022u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Everything a workload module needs to run one phase.
pub struct Ctx<'a> {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Scratch directory for this phase, relative to the checkout so
    /// socket paths stay short.
    pub work: &'a Path,
}

fn run_phase(workload: Workload, ctx: &Ctx) -> Result<Phase, String> {
    std::fs::create_dir_all(ctx.work).map_err(|e| format!("create {}: {e}", ctx.work.display()))?;
    let phase = match workload {
        Workload::MinePokec => mine::run(ctx),
        Workload::TenantChurn => tenant::run(ctx),
        Workload::ClientReopen => reopen::run(ctx),
    };
    let _ = std::fs::remove_dir_all(ctx.work);
    phase
}

/// The commit of the checkout when it is a git work tree, read from
/// `.git` directly (no subprocess); "unknown" elsewhere.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.to_string()
        };
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// A key that changes whenever the benchmark binary is rebuilt, so
/// remembered counts are only compared against the same program.
fn build_key() -> String {
    let meta = std::env::current_exe().and_then(std::fs::metadata);
    match meta {
        Ok(m) => {
            let mtime = m
                .modified()
                .ok()
                .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                .map_or(0, |d| d.as_nanos());
            format!("{:x}-{:x}", m.len(), mtime)
        }
        Err(_) => "unknown".into(),
    }
}

/// Exact counts must repeat for a seed: compares them with the counts
/// earlier runs of the same build and seed left behind, then adds them
/// to that record. Returns the counts that differ.
fn check_counts_repeat(path: &Path, counts: &BTreeMap<&'static str, f64>) -> Vec<String> {
    let mut record: BTreeMap<String, f64> = std::fs::read_to_string(path)
        .unwrap_or_default()
        .lines()
        .filter_map(|line| {
            let (k, v) = line.split_once(' ')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect();
    let mut differ = Vec::new();
    for (&k, &now) in counts {
        match record.insert(k.to_string(), now) {
            Some(before) if before != now => {
                differ.push(format!("{k}: {before} before, {now} now"));
            }
            _ => {}
        }
    }
    let text: String = record.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    let _ = std::fs::write(path, text);
    differ
}

/// `(steal, total)` CPU ticks of the host since boot, from `/proc/stat`:
/// time the hypervisor ran something else while this machine's CPUs
/// were ready to run, which a wall-clock figure cannot tell from a
/// slower program.
fn cpu_ticks() -> (u64, u64) {
    let line = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = line
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--serve-daemon") {
        if let Err(e) = wire::serve_daemon(&argv[1..]) {
            eprintln!("perfbench daemon: {e}");
            std::process::exit(2);
        }
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// Runs the benchmark and prints its report; `Ok(false)` when an output
/// was wrong.
fn run(args: &Args) -> Result<bool, String> {
    let root = PathBuf::from(".bench_work");
    let phase = |traced: bool, seconds: f64| {
        let tag = if traced { "traced" } else { "plain" };
        let work = root.join(format!(
            "{}-{tag}-{}",
            args.workload.name(),
            std::process::id()
        ));
        let ctx = Ctx {
            seed: args.seed,
            seconds,
            traced,
            work: &work,
        };
        run_phase(args.workload, &ctx)
    };
    let ticks_before = cpu_ticks();
    let (untraced, traced) = if args.trace {
        let half = args.seconds / 2.0;
        (phase(false, half)?, Some(phase(true, half)?))
    } else {
        (phase(false, args.seconds)?, None)
    };

    let ticks_after = cpu_ticks();
    let steal_pct = ticks_after.0.saturating_sub(ticks_before.0) as f64
        / ticks_after.1.saturating_sub(ticks_before.1).max(1) as f64
        * 100.0;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut provenance = vec![
        ("workload", format!("\"{}\"", args.workload.name())),
        ("seed", args.seed.to_string()),
        ("seconds", json_num(args.seconds)),
        ("nproc", nproc.to_string()),
        ("host_steal_pct", json_num(steal_pct)),
        ("commit", format!("\"{}\"", git_commit())),
    ];
    provenance.extend(untraced.provenance.iter().cloned());
    let provenance: Vec<String> = provenance
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    println!("provenance {{{}}}", provenance.join(","));

    let mut mismatches = untraced.mismatches.clone();
    let (mut attempted, mut failed) = (untraced.attempted, untraced.failed);
    for line in &untraced.report {
        println!("{line}");
    }
    println!("end-to-end ({} cycles):", untraced.cycle_ms.len());
    for (name, unit, value) in untraced.e2e() {
        println!("  {name} = {value:.4} {unit}");
    }
    let p50 = stats::quantile(&untraced.cycle_ms, 0.5);
    match args.workload {
        Workload::MinePokec => println!("  mine_s = {:.4} s", p50 / 1e3),
        Workload::TenantChurn => {}
        Workload::ClientReopen => println!("  reopen_p50_ms = {p50:.4} ms"),
    }
    let error_ratio = untraced.failed as f64 / untraced.attempted.max(1) as f64;
    println!(
        "  error_ratio = {error_ratio} ({} failed of {} ops)",
        untraced.failed, untraced.attempted
    );

    let mut metrics: Vec<(String, &str, f64)> = untraced
        .e2e()
        .into_iter()
        .map(|(n, u, v)| (n.to_string(), u, v))
        .collect();
    let mut counts = untraced.counts.clone();
    if let Some(mut traced) = traced {
        mismatches.append(&mut traced.mismatches);
        attempted += traced.attempted;
        failed += traced.failed;
        for line in &traced.report {
            println!("{line}");
        }
        let traced_p50 = stats::quantile(&traced.cycle_ms, 0.5);
        traced.layer("trace.overhead_pct", (traced_p50 / p50 - 1.0) * 100.0);
        traced.layer("trace.coverage", traced.tracer.coverage("cycle"));
        println!(
            "tracing: traced cycle p50 {traced_p50:.4} ms against untraced {p50:.4} ms; \
             leaf spans cover {:.1}% of cycle time",
            traced.tracer.coverage("cycle") * 100.0
        );
        let trace_path = root.join(format!(
            "trace-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        match traced.tracer.write_jsonl(&trace_path) {
            Ok(()) => println!(
                "spans: {} written to {}",
                traced.tracer.spans().len(),
                trace_path.display()
            ),
            Err(e) => eprintln!("perfbench: cannot write spans: {e}"),
        }
        println!("per-layer:");
        metrics = LAYERS
            .iter()
            .map(|&(name, unit)| {
                let v = traced.layers.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                println!("  {name} = {v:.6} {unit}");
                (name.to_string(), unit, v)
            })
            .collect();
        counts.extend(traced.counts);
    }
    if !counts.is_empty() {
        println!("exact counts (must repeat for a seed):");
        for (k, v) in &counts {
            println!("  {k} = {v}");
        }
        let path = root.join(format!(
            "counts-{}-seed{}-{}.txt",
            args.workload.name(),
            args.seed,
            build_key()
        ));
        for d in check_counts_repeat(&path, &counts) {
            mismatches.push(format!("exact count changed between runs of one seed: {d}"));
        }
    }
    for m in &mismatches {
        println!("MISMATCH: {m}");
    }
    let correct = mismatches.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", json_num(*v)))
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        attempted.max(1),
        body.join(",")
    );
    Ok(correct)
}
