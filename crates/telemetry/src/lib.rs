//! Lock-free metrics for the CSPM stack.
//!
//! The daemon, the durable store and the mining engine all have hot
//! paths that must never contend on observability plumbing, so this
//! crate is built around one rule: **registration is the only locked
//! operation**. A [`MetricsRegistry`] hands out cheap cloneable handles
//! ([`Counter`], [`Gauge`], [`Histogram`]) whose update methods are
//! single relaxed atomic operations on pre-allocated cells — no global
//! lock, no allocation, no formatting on the hot path. Rendering walks
//! the registered cells and emits [Prometheus text exposition
//! format](https://prometheus.io/docs/instrumenting/exposition_formats/).
//!
//! Metrics are always on. The overhead stays near zero because of
//! where the handles sit, not because they can be switched off: the
//! engine is touched once per *run*, never per merge, so the merge-loop
//! benches stay inside the existing `bench_compare` gate with every
//! handle live.
//!
//! Instrumented crates register their handles once against the
//! process-wide [`global()`] registry through a `OnceLock`-backed
//! static, so one `metrics` scrape sees engine, store and serve
//! families together.
//!
//! ```
//! use cspm_telemetry::{MetricsRegistry, TIME_BUCKETS};
//!
//! let registry = MetricsRegistry::new();
//! let requests = registry.counter_with(
//!     "cspm_serve_requests_total",
//!     "Requests dispatched, by op.",
//!     &[("op", "mine")],
//! );
//! let latency = registry.histogram(
//!     "cspm_serve_request_seconds",
//!     "Request wall time.",
//!     &TIME_BUCKETS,
//! );
//! requests.inc();
//! latency.observe(0.002);
//! let text = registry.render();
//! assert!(text.contains(r#"cspm_serve_requests_total{op="mine"} 1"#));
//! assert!(text.contains("# TYPE cspm_serve_request_seconds histogram"));
//! ```

use std::f64::consts::SQRT_2;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Log-linear latency bucket upper bounds, in seconds: `2^k µs × {1,
/// 2^¼, √2, 2^¾}` from 1 µs to 2^25 µs ≈ 33.55 s, so a recovered quantile
/// reads at most 2^¼ ≈ 1.19× high. One fixed grid serves every duration
/// histogram in the stack (fsync ~µs, request dispatch ~ms, whole mines
/// ~s), which keeps cross-family comparisons honest.
pub const TIME_BUCKETS: [f64; 101] = {
    const STEPS: [f64; 4] = [1.0, 1.189_207_115_002_721, SQRT_2, 1.681_792_830_507_429];
    let mut bounds = [0.0; 101];
    let mut i = 0;
    while i < bounds.len() {
        bounds[i] = (1u64 << (i / 4)) as f64 * 1e-6 * STEPS[i % 4];
        i += 1;
    }
    bounds
};

/// What a registered metric renders as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn type_name(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// The shared payload of a histogram handle: per-bucket counts plus a
/// running sum (f64 bits accumulated via CAS) and total count.
#[derive(Debug)]
struct HistogramCore {
    bounds: Vec<f64>,
    /// One cell per bound plus the overflow (`+Inf`) bucket.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of observed values, stored as `f64::to_bits`.
    sum_bits: AtomicU64,
}

impl HistogramCore {
    fn new(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Self {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    fn observe(&self, value: f64) {
        let idx = self.bounds.partition_point(|&b| b < value);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // Lock-free f64 accumulation: retry the CAS until no concurrent
        // observer raced us. Observations are rare relative to the loop
        // bodies they time, so contention here is negligible.
        let mut current = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + value).to_bits();
            match self.sum_bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => current = seen,
            }
        }
    }

    fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }
}

/// The value cell behind one registered metric.
#[derive(Debug)]
enum Cell {
    Scalar(Arc<AtomicU64>),
    Histogram(Arc<HistogramCore>),
}

/// One registered metric: family name + fixed labels + its cell.
#[derive(Debug)]
struct Entry {
    name: String,
    help: String,
    kind: Kind,
    labels: Vec<(String, String)>,
    cell: Cell,
}

/// A set of registered metrics with lock-free handles and a Prometheus
/// text renderer. See the [crate docs](self) for the design rules.
#[derive(Debug)]
pub struct MetricsRegistry {
    entries: Mutex<Vec<Entry>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self {
            entries: Mutex::new(Vec::new()),
        }
    }

    fn register(&self, name: &str, help: &str, kind: Kind, labels: &[(&str, &str)]) -> Cell {
        debug_assert!(valid_metric_name(name), "invalid metric name {name:?}");
        let cell = match kind {
            Kind::Histogram => unreachable!("histograms register via register_histogram"),
            _ => Cell::Scalar(Arc::new(AtomicU64::new(0))),
        };
        self.push_entry(name, help, kind, labels, clone_cell(&cell));
        cell
    }

    fn push_entry(&self, name: &str, help: &str, kind: Kind, labels: &[(&str, &str)], cell: Cell) {
        let mut entries = self.entries.lock().expect("metrics registry poisoned");
        debug_assert!(
            entries
                .iter()
                .filter(|e| e.name == name)
                .all(|e| e.kind == kind
                    && e.labels
                        .iter()
                        .map(|(k, v)| (k.as_str(), v.as_str()))
                        .ne(labels.iter().copied())),
            "duplicate registration of {name:?} with identical labels"
        );
        entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            kind,
            labels: labels
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            cell,
        });
    }

    /// Registers a monotone counter. Labels are fixed at registration
    /// (one handle per label combination — the hot path never formats).
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// [`counter`](Self::counter) with fixed labels.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.register(name, help, Kind::Counter, labels) {
            Cell::Scalar(cell) => Counter { cell },
            Cell::Histogram(_) => unreachable!(),
        }
    }

    /// Registers a gauge (a settable current value).
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// [`gauge`](Self::gauge) with fixed labels.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.register(name, help, Kind::Gauge, labels) {
            Cell::Scalar(cell) => Gauge { cell },
            Cell::Histogram(_) => unreachable!(),
        }
    }

    /// Registers a fixed-bucket histogram; `bounds` are the bucket
    /// upper bounds in increasing order (see [`TIME_BUCKETS`]).
    pub fn histogram(&self, name: &str, help: &str, bounds: &[f64]) -> Histogram {
        self.histogram_with(name, help, bounds, &[])
    }

    /// [`histogram`](Self::histogram) with fixed labels.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        bounds: &[f64],
        labels: &[(&str, &str)],
    ) -> Histogram {
        debug_assert!(valid_metric_name(name), "invalid metric name {name:?}");
        let core = Arc::new(HistogramCore::new(bounds));
        self.push_entry(
            name,
            help,
            Kind::Histogram,
            labels,
            Cell::Histogram(Arc::clone(&core)),
        );
        Histogram { core }
    }

    /// Renders every registered metric in Prometheus text exposition
    /// format. `# HELP`/`# TYPE` headers are emitted once per family
    /// (first registration wins); entries render in registration order.
    pub fn render(&self) -> String {
        let entries = self.entries.lock().expect("metrics registry poisoned");
        let mut out = String::new();
        let mut seen: Vec<&str> = Vec::new();
        for entry in entries.iter() {
            if !seen.contains(&entry.name.as_str()) {
                seen.push(&entry.name);
                out.push_str("# HELP ");
                out.push_str(&entry.name);
                out.push(' ');
                out.push_str(&entry.help);
                out.push('\n');
                out.push_str("# TYPE ");
                out.push_str(&entry.name);
                out.push(' ');
                out.push_str(entry.kind.type_name());
                out.push('\n');
            }
            match &entry.cell {
                Cell::Scalar(cell) => {
                    push_sample(
                        &mut out,
                        &entry.name,
                        "",
                        &entry.labels,
                        None,
                        cell.load(Ordering::Relaxed) as f64,
                    );
                }
                Cell::Histogram(core) => {
                    let mut cumulative = 0u64;
                    for (i, bound) in core.bounds.iter().enumerate() {
                        cumulative += core.buckets[i].load(Ordering::Relaxed);
                        push_sample(
                            &mut out,
                            &entry.name,
                            "_bucket",
                            &entry.labels,
                            Some(format_f64(*bound)),
                            cumulative as f64,
                        );
                    }
                    cumulative += core.buckets[core.bounds.len()].load(Ordering::Relaxed);
                    push_sample(
                        &mut out,
                        &entry.name,
                        "_bucket",
                        &entry.labels,
                        Some("+Inf".to_string()),
                        cumulative as f64,
                    );
                    push_sample(
                        &mut out,
                        &entry.name,
                        "_sum",
                        &entry.labels,
                        None,
                        core.sum(),
                    );
                    push_sample(
                        &mut out,
                        &entry.name,
                        "_count",
                        &entry.labels,
                        None,
                        core.count.load(Ordering::Relaxed) as f64,
                    );
                }
            }
        }
        out
    }
}

fn clone_cell(cell: &Cell) -> Cell {
    match cell {
        Cell::Scalar(c) => Cell::Scalar(Arc::clone(c)),
        Cell::Histogram(c) => Cell::Histogram(Arc::clone(c)),
    }
}

/// `[a-zA-Z_:][a-zA-Z0-9_:]*` — the Prometheus metric-name grammar.
fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// One exposition line: `name[suffix]{labels[,le]} value`.
fn push_sample(
    out: &mut String,
    name: &str,
    suffix: &str,
    labels: &[(String, String)],
    le: Option<String>,
    value: f64,
) {
    out.push_str(name);
    out.push_str(suffix);
    if !labels.is_empty() || le.is_some() {
        out.push('{');
        let mut first = true;
        for (k, v) in labels {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(k);
            out.push_str("=\"");
            escape_label(v, out);
            out.push('"');
        }
        if let Some(le) = le {
            if !first {
                out.push(',');
            }
            out.push_str("le=\"");
            out.push_str(&le);
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(&format_f64(value));
    out.push('\n');
}

/// Shortest round-trip form; integral values print without a fraction,
/// which the exposition format allows for any sample.
fn format_f64(value: f64) -> String {
    format!("{value}")
}

fn escape_label(value: &str, out: &mut String) {
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// A monotonically increasing counter handle. Cloning shares the cell.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A settable gauge handle (current value, not a rate).
#[derive(Debug, Clone)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, value: u64) {
        self.cell.store(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram handle.
#[derive(Debug, Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn observe(&self, value: f64) {
        self.core.observe(value);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.core.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.core.sum()
    }

    /// Upper-bound estimate of the `q`-quantile (`0.0..=1.0`): the
    /// bound of the first bucket whose cumulative count reaches
    /// `q × count`. Returns `None` with no observations; observations
    /// past the last bound report that bound (the histogram cannot
    /// resolve further).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, bound) in self.core.bounds.iter().enumerate() {
            cumulative += self.core.buckets[i].load(Ordering::Relaxed);
            if cumulative >= rank {
                return Some(*bound);
            }
        }
        self.core.bounds.last().copied()
    }
}

/// The process-wide registry every instrumented crate registers
/// against; created on first use. One `metrics` scrape of a
/// daemon renders engine, store and serve families from this registry
/// together.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_render() {
        let r = MetricsRegistry::new();
        let c = r.counter("t_total", "Things.");
        let g = r.gauge("t_current", "Level.");
        c.inc();
        c.add(4);
        g.set(17);
        g.set(9);
        assert_eq!(c.get(), 5);
        assert_eq!(g.get(), 9);
        let text = r.render();
        assert!(text.contains("# HELP t_total Things.\n# TYPE t_total counter\nt_total 5\n"));
        assert!(text.contains("# TYPE t_current gauge\nt_current 9\n"));
    }

    #[test]
    fn labelled_family_renders_one_header() {
        let r = MetricsRegistry::new();
        let a = r.counter_with("req_total", "Requests.", &[("op", "mine")]);
        let b = r.counter_with("req_total", "Requests.", &[("op", "open")]);
        a.add(2);
        b.add(3);
        let text = r.render();
        assert_eq!(text.matches("# TYPE req_total counter").count(), 1);
        assert!(text.contains(r#"req_total{op="mine"} 2"#));
        assert!(text.contains(r#"req_total{op="open"} 3"#));
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let r = MetricsRegistry::new();
        let h = r.histogram("lat_seconds", "Latency.", &[0.001, 0.01, 0.1]);
        h.observe(0.0005); // bucket 0
        h.observe(0.005); // bucket 1
        h.observe(0.005); // bucket 1
        h.observe(5.0); // +Inf
        let text = r.render();
        assert!(text.contains(r#"lat_seconds_bucket{le="0.001"} 1"#));
        assert!(text.contains(r#"lat_seconds_bucket{le="0.01"} 3"#));
        assert!(text.contains(r#"lat_seconds_bucket{le="0.1"} 3"#));
        assert!(text.contains(r#"lat_seconds_bucket{le="+Inf"} 4"#));
        assert!(text.contains("lat_seconds_count 4"));
        assert!(text.contains("lat_seconds_sum 5.0105"));
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 5.0105).abs() < 1e-12);
    }

    #[test]
    fn quantiles_estimate_from_buckets() {
        let r = MetricsRegistry::new();
        let h = r.histogram("q_seconds", "Q.", &TIME_BUCKETS);
        assert_eq!(h.quantile(0.5), None);
        for _ in 0..99 {
            h.observe(0.002);
        }
        h.observe(1.5);
        // 0.002 falls in the le=0.002048 bucket; the single outlier only
        // surfaces at the very top of the distribution, in the bucket
        // 2^20 µs × 2^¾ ≈ 1.763 s.
        assert_eq!(h.quantile(0.5), Some(0.002048));
        assert_eq!(h.quantile(0.99), Some(0.002048));
        assert_eq!(h.quantile(1.0), Some(TIME_BUCKETS[83]));
        assert!((1.5..=1.19 * 1.5).contains(&TIME_BUCKETS[83]));
    }

    #[test]
    fn every_duration_reads_at_most_19_percent_high() {
        // A geometric sweep from 1 µs to 30 s, plus every bound and the
        // value just past it (the worst case: the next bucket up).
        let sweep =
            std::iter::successors(Some(1e-6), |v| Some(v * 1.01)).take_while(|&v| v <= 30.0);
        let edges = TIME_BUCKETS
            .iter()
            .filter(|&&b| b <= 30.0)
            .flat_map(|&b| [b, b * (1.0 + 1e-9)]);
        for v in sweep.chain(edges) {
            let h = MetricsRegistry::new().histogram("grid_seconds", "G.", &TIME_BUCKETS);
            h.observe(v);
            let bound = h.quantile(1.0).unwrap();
            assert!(
                v <= bound && bound <= 1.19 * v,
                "{v}s reads as the {bound}s bucket"
            );
        }
    }

    #[test]
    fn oversized_observation_clamps_to_last_bound() {
        let r = MetricsRegistry::new();
        let h = r.histogram("big", "B.", &[1.0, 2.0]);
        h.observe(100.0);
        assert_eq!(h.quantile(0.5), Some(2.0));
    }

    #[test]
    fn label_values_are_escaped() {
        let r = MetricsRegistry::new();
        let c = r.counter_with("esc_total", "E.", &[("path", "a\"b\\c\nd")]);
        c.inc();
        assert!(r.render().contains(r#"esc_total{path="a\"b\\c\nd"} 1"#));
    }

    #[test]
    fn concurrent_updates_do_not_lose_counts() {
        let r = MetricsRegistry::new();
        let c = r.counter("mt_total", "MT.");
        let h = r.histogram("mt_seconds", "MT.", &TIME_BUCKETS);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let c = c.clone();
                let h = h.clone();
                scope.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                        h.observe(0.001);
                    }
                });
            }
        });
        assert_eq!(c.get(), 40_000);
        assert_eq!(h.count(), 40_000);
        assert!((h.sum() - 40.0).abs() < 1e-6);
    }

    #[test]
    fn metric_name_grammar() {
        assert!(valid_metric_name("cspm_engine_runs_total"));
        assert!(valid_metric_name("_x:y"));
        assert!(!valid_metric_name("9lives"));
        assert!(!valid_metric_name("bad-name"));
        assert!(!valid_metric_name(""));
    }

    #[test]
    fn global_registry_is_shared_and_enabled() {
        // Global handles record from the start; there is no switch.
        let c = global().counter("telemetry_test_global_total", "Test.");
        c.inc();
        assert_eq!(c.get(), 1);
        let a = global() as *const _;
        let b = global() as *const _;
        assert_eq!(a, b);
    }
}
