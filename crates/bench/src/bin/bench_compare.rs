//! CI bench-regression gate: diffs a fresh `BENCH_engine.json` against
//! the committed baseline and fails on merge-loop slowdowns.
//!
//! ```text
//! bench_compare [--baseline FILE] [--fresh FILE] [--threshold PCT] [--floor-ms MS]
//! ```
//!
//! Prints a markdown table of every timing either way. The gate applies
//! only to `merge_loop` timings present in both files: the job fails
//! (exit 1) when a fresh timing exceeds the baseline by more than
//! `--threshold` percent (default 15) *and* by more than `--floor-ms`
//! milliseconds (default 0.5 — microsecond-scale timings jitter far
//! beyond 15% on shared CI runners, and a relative gate alone would
//! flake). Other timings (windowed-stream, store-open) are reported but
//! never gated, and so are records present on only one side: a record
//! absent from the baseline is a **new** benchmark landing in this PR
//! (e.g. `merge_loop_session_warm`) — it has nothing to regress against and
//! must not fail the job; its timing becomes gate-relevant once the
//! refreshed baseline is committed. A record absent from the fresh run
//! is reported as **removed**.
//!
//! `serve/…` records (the `bench_serve` load driver: daemon round-trip
//! latencies, dominated by socket scheduling rather than the merge
//! loop) are never gated regardless of name — they report as `new` or
//! `info` only, so a fresh `BENCH_serve.json` can ride through the gate
//! before any serve baseline exists.

use std::collections::BTreeMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut baseline_path = "BENCH_engine.json".to_string();
    let mut fresh_path = "BENCH_engine.fresh.json".to_string();
    let mut threshold_pct = 15.0f64;
    let mut floor_ms = 0.5f64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--baseline" => baseline_path = args.next().expect("--baseline FILE"),
            "--fresh" => fresh_path = args.next().expect("--fresh FILE"),
            "--threshold" => {
                threshold_pct = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--threshold PCT");
            }
            "--floor-ms" => {
                floor_ms = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--floor-ms MS");
            }
            other => panic!("unknown argument '{other}'"),
        }
    }

    let baseline = read_timings(&baseline_path);
    let fresh = read_timings(&fresh_path);
    let report = compare(&baseline, &fresh, threshold_pct, floor_ms);

    println!("## Engine bench comparison");
    println!();
    println!("baseline `{baseline_path}` vs fresh `{fresh_path}`");
    println!();
    println!("| timing | baseline (s) | fresh (s) | Δ | gate |");
    println!("|---|---:|---:|---:|---|");
    for row in &report.rows {
        println!("{}", row.markdown());
    }
    println!();
    if !report.new_names.is_empty() {
        println!(
            "{} new benchmark(s) with no baseline yet: {} — refresh the committed \
             baseline to start gating them.",
            report.new_names.len(),
            report.new_names.join(", ")
        );
        println!();
    }
    if report.failures.is_empty() {
        println!("No merge-loop timing regressed beyond {threshold_pct}% (+{floor_ms}ms floor).");
        ExitCode::SUCCESS
    } else {
        println!("Merge-loop regressions beyond {threshold_pct}%:");
        for f in &report.failures {
            println!("- {f}");
        }
        ExitCode::FAILURE
    }
}

/// How one timing fared in the diff.
#[derive(Debug, Clone, PartialEq)]
enum Verdict {
    /// Gated and regressed: fails the job.
    Fail { delta_pct: f64 },
    /// Gated, within bounds.
    Ok { delta_pct: f64 },
    /// Reported only (windowed-stream and store-open timings etc.).
    Info { delta_pct: f64 },
    /// Present in the fresh run only — a benchmark landing in this PR.
    New,
    /// Present in the baseline only.
    Removed,
}

#[derive(Debug, Clone)]
struct Row {
    name: String,
    baseline: Option<f64>,
    fresh: Option<f64>,
    verdict: Verdict,
}

impl Row {
    fn markdown(&self) -> String {
        let num = |v: Option<f64>| v.map_or("—".to_string(), |s| format!("{s:.6}"));
        let (delta, verdict) = match &self.verdict {
            Verdict::Fail { delta_pct } => (format!("{delta_pct:+.1}%"), "**FAIL**"),
            Verdict::Ok { delta_pct } => (format!("{delta_pct:+.1}%"), "ok"),
            Verdict::Info { delta_pct } => (format!("{delta_pct:+.1}%"), "info"),
            Verdict::New => (String::new(), "new"),
            Verdict::Removed => (String::new(), "removed"),
        };
        format!(
            "| {} | {} | {} | {delta} | {verdict} |",
            self.name,
            num(self.baseline),
            num(self.fresh)
        )
    }
}

#[derive(Debug, Default)]
struct Report {
    rows: Vec<Row>,
    /// Human-readable descriptions of gated regressions.
    failures: Vec<String>,
    /// Names present in the fresh run but not the baseline.
    new_names: Vec<String>,
}

/// Diffs two timing maps. Only `merge_loop` records present in *both*
/// are gated; fresh-only records are `new` (never a failure — they are
/// this PR's benchmarks), baseline-only records are `removed`.
fn compare(
    baseline: &BTreeMap<String, f64>,
    fresh: &BTreeMap<String, f64>,
    threshold_pct: f64,
    floor_ms: f64,
) -> Report {
    let mut report = Report::default();
    let mut names: Vec<&String> = baseline.keys().chain(fresh.keys()).collect();
    names.sort();
    names.dedup();
    for name in names {
        let gated = name.contains("merge_loop") && !name.starts_with("serve/");
        let (b, f) = (baseline.get(name).copied(), fresh.get(name).copied());
        let verdict = match (b, f) {
            (Some(b), Some(f)) => {
                let delta_pct = if b > 0.0 { (f - b) / b * 100.0 } else { 0.0 };
                let regressed = gated && delta_pct > threshold_pct && (f - b) * 1e3 > floor_ms;
                match (gated, regressed) {
                    (true, true) => {
                        report
                            .failures
                            .push(format!("{name}: {b:.6}s -> {f:.6}s ({delta_pct:+.1}%)"));
                        Verdict::Fail { delta_pct }
                    }
                    (true, false) => Verdict::Ok { delta_pct },
                    (false, _) => Verdict::Info { delta_pct },
                }
            }
            (None, Some(_)) => {
                report.new_names.push(name.clone());
                Verdict::New
            }
            (Some(_), None) => Verdict::Removed,
            (None, None) => unreachable!("name came from one of the maps"),
        };
        report.rows.push(Row {
            name: name.clone(),
            baseline: b,
            fresh: f,
            verdict,
        });
    }
    report
}

/// Parses the `timings_secs` object of a `BENCH_engine.json`. The file
/// is written by `bench_engine` in a fixed shape (one `"name": secs`
/// pair per line), so a line-oriented parse is sufficient and keeps the
/// gate dependency-free.
fn read_timings(path: &str) -> BTreeMap<String, f64> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {path}: {e} (run bench_engine first)"));
    let out = parse_timings(&text);
    assert!(
        !out.is_empty(),
        "no timings found in {path}: not a bench_engine output?"
    );
    out
}

fn parse_timings(text: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let mut in_timings = false;
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with("\"timings_secs\"") {
            in_timings = true;
            continue;
        }
        if !in_timings {
            continue;
        }
        if line.starts_with('}') {
            break;
        }
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        let key = key.trim().trim_matches('"');
        let value = value.trim().trim_end_matches(',');
        if let Ok(secs) = value.parse::<f64>() {
            out.insert(key.to_string(), secs);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timings(pairs: &[(&str, f64)]) -> BTreeMap<String, f64> {
        pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    /// The scenario this PR ships: a brand-new `merge_loop_session_warm`
    /// record exists only in the fresh run. It must be reported as
    /// `new` — never as a gate failure.
    #[test]
    fn fresh_only_merge_loop_record_is_new_not_a_failure() {
        let baseline = timings(&[("Pokec/merge_loop_incremental", 1.70)]);
        let fresh = timings(&[
            ("Pokec/merge_loop_incremental", 1.71),
            ("Pokec/merge_loop_session_warm", 1.75),
            ("Pokec/merge_loop_session_cold", 1.85),
        ]);
        let report = compare(&baseline, &fresh, 15.0, 0.5);
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert_eq!(
            report.new_names,
            vec![
                "Pokec/merge_loop_session_cold".to_string(),
                "Pokec/merge_loop_session_warm".to_string(),
            ]
        );
        let warm = report
            .rows
            .iter()
            .find(|r| r.name.ends_with("session_warm"))
            .unwrap();
        assert_eq!(warm.verdict, Verdict::New);
        assert!(warm.markdown().contains("| new |"));
        assert!(warm.markdown().contains("| — |"), "no baseline column");
    }

    /// Daemon round-trip latencies jitter with socket scheduling, so
    /// `serve/…` records never gate: fresh-only ones are `new`, and
    /// even a wild swing in a record present on both sides only informs
    /// — including names that would otherwise match the merge-loop gate.
    #[test]
    fn serve_records_report_but_never_gate() {
        let baseline = timings(&[("serve/mine_merge_loop_p99", 0.010)]);
        let fresh = timings(&[
            ("serve/mine_merge_loop_p99", 0.100),
            ("serve/delta_p50", 0.002),
        ]);
        let report = compare(&baseline, &fresh, 15.0, 0.5);
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert_eq!(report.new_names, vec!["serve/delta_p50".to_string()]);
        let p99 = report
            .rows
            .iter()
            .find(|r| r.name.ends_with("p99"))
            .unwrap();
        assert!(matches!(p99.verdict, Verdict::Info { .. }));
        let p50 = report
            .rows
            .iter()
            .find(|r| r.name.ends_with("p50"))
            .unwrap();
        assert_eq!(p50.verdict, Verdict::New);
    }

    #[test]
    fn gated_regression_fails_and_is_listed() {
        let baseline = timings(&[("D/merge_loop_incremental", 0.100)]);
        let fresh = timings(&[("D/merge_loop_incremental", 0.150)]);
        let report = compare(&baseline, &fresh, 15.0, 0.5);
        assert_eq!(report.failures.len(), 1);
        assert!(report.failures[0].contains("+50.0%"));
        assert!(matches!(report.rows[0].verdict, Verdict::Fail { .. }));
    }

    #[test]
    fn jitter_floor_spares_microsecond_timings() {
        // +60% but only +0.3ms: under the absolute floor, not a failure.
        let baseline = timings(&[("D/merge_loop_incremental", 0.0005)]);
        let fresh = timings(&[("D/merge_loop_incremental", 0.0008)]);
        let report = compare(&baseline, &fresh, 15.0, 0.5);
        assert!(report.failures.is_empty());
        assert!(matches!(report.rows[0].verdict, Verdict::Ok { .. }));
    }

    #[test]
    fn ungated_records_only_inform() {
        let baseline = timings(&[("D/store_open_warm", 0.001), ("D/gone", 1.0)]);
        let fresh = timings(&[("D/store_open_warm", 0.9)]);
        let report = compare(&baseline, &fresh, 15.0, 0.5);
        assert!(report.failures.is_empty());
        let open = report
            .rows
            .iter()
            .find(|r| r.name.ends_with("warm"))
            .unwrap();
        assert!(matches!(open.verdict, Verdict::Info { .. }));
        let gone = report
            .rows
            .iter()
            .find(|r| r.name.ends_with("gone"))
            .unwrap();
        assert_eq!(gone.verdict, Verdict::Removed);
    }

    #[test]
    fn parse_reads_bench_engine_shape() {
        let text = r#"{
  "suite": "engine",
  "scale": "Small",
  "seed": 2022,
  "timings_secs": {
    "A/merge_loop_incremental": 0.001458,
    "A/merge_loop_session_warm": 1.754776
  }
}"#;
        let t = parse_timings(text);
        assert_eq!(t.len(), 2);
        assert_eq!(t["A/merge_loop_session_warm"], 1.754776);
    }
}
