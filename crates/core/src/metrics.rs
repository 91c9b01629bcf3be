//! Engine metrics, registered once against the process-wide
//! [`cspm_telemetry::global`] registry.
//!
//! The merge loop is the hottest code in the workspace, so it is
//! instrumented at exactly one seam: [`record_run`] fires once per
//! completed run with the [`RunStats`] the engine already collects —
//! a handful of relaxed atomic adds per *mine*, never per merge. That
//! is what keeps the telemetry subsystem inside the `bench_compare`
//! merge-loop gate with room to spare.

use std::sync::OnceLock;

use cspm_telemetry::{global, Counter, Gauge, Histogram, TIME_BUCKETS};

use crate::config::RunStats;

pub(crate) struct EngineMetrics {
    runs: Counter,
    merges: Counter,
    gain_evals: Counter,
    cancelled: Counter,
    mine_seconds: Histogram,
    sparse_rows: Gauge,
    bitmap_rows: Gauge,
    flips_to_bitmap: Gauge,
    flips_to_sparse: Gauge,
}

pub(crate) fn engine_metrics() -> &'static EngineMetrics {
    static METRICS: OnceLock<EngineMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = global();
        EngineMetrics {
            runs: r.counter("cspm_engine_runs_total", "Completed merge-loop runs."),
            merges: r.counter("cspm_engine_merges_total", "Accepted merges across runs."),
            gain_evals: r.counter(
                "cspm_engine_gain_evals_total",
                "Candidate pair-gain evaluations across runs.",
            ),
            cancelled: r.counter(
                "cspm_engine_cancelled_total",
                "Runs cancelled cooperatively by a progress observer.",
            ),
            mine_seconds: r.histogram(
                "cspm_engine_mine_seconds",
                "Merge-loop wall time per run (excludes graph construction).",
                &TIME_BUCKETS,
            ),
            sparse_rows: r.gauge_with(
                "cspm_engine_posting_rows",
                "Posting-row representation mix after the most recent run.",
                &[("repr", "sparse")],
            ),
            bitmap_rows: r.gauge_with(
                "cspm_engine_posting_rows",
                "Posting-row representation mix after the most recent run.",
                &[("repr", "bitmap")],
            ),
            flips_to_bitmap: r.gauge_with(
                "cspm_engine_posting_flips",
                "Adaptive representation flips reported by the most recent run's store.",
                &[("dir", "to_bitmap")],
            ),
            flips_to_sparse: r.gauge_with(
                "cspm_engine_posting_flips",
                "Adaptive representation flips reported by the most recent run's store.",
                &[("dir", "to_sparse")],
            ),
        }
    })
}

/// Records one finished merge-loop run. Counters accumulate across
/// runs; the posting-representation numbers are gauges because
/// [`RunStats::posting`] snapshots the (session-lifetime) store state
/// at run end — re-adding them per warm run would double count.
pub(crate) fn record_run(merges: usize, stats: &RunStats) {
    let m = engine_metrics();
    m.runs.inc();
    m.merges.add(merges as u64);
    m.gain_evals.add(stats.total_gain_evals);
    if stats.cancelled {
        m.cancelled.inc();
    }
    m.mine_seconds.observe(stats.elapsed_secs);
    m.sparse_rows.set(stats.posting.sparse_rows as u64);
    m.bitmap_rows.set(stats.posting.bitmap_rows as u64);
    m.flips_to_bitmap.set(stats.posting.flips_to_bitmap);
    m.flips_to_sparse.set(stats.posting.flips_to_sparse);
}

#[cfg(test)]
mod tests {
    use super::*;
    use cspm_graph::fixtures::paper_example;

    #[test]
    fn a_run_moves_the_engine_counters() {
        let before = engine_metrics().runs.get();
        let merges_before = engine_metrics().merges.get();
        let (g, _) = paper_example();
        let result = crate::mine(&g, crate::Variant::Partial, crate::CspmConfig::default());
        assert!(result.merges > 0);
        let m = engine_metrics();
        assert!(m.runs.get() > before);
        assert!(m.merges.get() >= merges_before + result.merges as u64);
        assert!(m.mine_seconds.count() > 0);
    }
}
