//! Daemon metrics, registered once against the process-wide
//! [`cspm_telemetry::global`] registry.
//!
//! Every request is counted and timed per `op` label; the remaining
//! families cover the daemon's contended resources (the registry
//! mutex), its budget machinery (evictions), and
//! the two ways a request degrades without failing (deadline expiry,
//! delta-forced rebuilds). All of it is readable in one scrape via the
//! `metrics` op — the same registry also carries the engine and store
//! families, so a single exposition shows the whole stack.

use std::sync::OnceLock;

use cspm_telemetry::{global, Counter, Histogram, TIME_BUCKETS};

/// One wire op's request counter + latency histogram (latency measured
/// from parse to rendered response, mine-slot wait included).
pub(crate) struct OpMetrics {
    pub(crate) requests: Counter,
    pub(crate) seconds: Histogram,
}

pub(crate) struct ServeMetrics {
    ping: OpMetrics,
    open: OpMetrics,
    delta: OpMetrics,
    mine: OpMetrics,
    subscribe: OpMetrics,
    stats: OpMetrics,
    metrics: OpMetrics,
    close: OpMetrics,
    shutdown: OpMetrics,
    other: OpMetrics,
    pub(crate) errors: Counter,
    pub(crate) lock_wait_seconds: Histogram,
    pub(crate) evictions: Counter,
    pub(crate) deadline_expiries: Counter,
    pub(crate) delta_rebuilds: Counter,
    pub(crate) subscribe_dropped: Counter,
}

impl ServeMetrics {
    /// The per-op pair for a [`Request::op_name`] value.
    ///
    /// [`Request::op_name`]: crate::Request::op_name
    pub(crate) fn op(&self, name: &str) -> &OpMetrics {
        match name {
            "ping" => &self.ping,
            "open" => &self.open,
            "delta" => &self.delta,
            "mine" => &self.mine,
            "subscribe" => &self.subscribe,
            "stats" => &self.stats,
            "metrics" => &self.metrics,
            "close" => &self.close,
            "shutdown" => &self.shutdown,
            _ => &self.other,
        }
    }
}

pub(crate) fn serve_metrics() -> &'static ServeMetrics {
    static METRICS: OnceLock<ServeMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = global();
        let op = |name| OpMetrics {
            requests: r.counter_with(
                "cspm_serve_requests_total",
                "Requests dispatched, by wire op.",
                &[("op", name)],
            ),
            seconds: r.histogram_with(
                "cspm_serve_request_seconds",
                "Request latency from parse to rendered response, by wire op.",
                &TIME_BUCKETS,
                &[("op", name)],
            ),
        };
        ServeMetrics {
            ping: op("ping"),
            open: op("open"),
            delta: op("delta"),
            mine: op("mine"),
            subscribe: op("subscribe"),
            stats: op("stats"),
            metrics: op("metrics"),
            close: op("close"),
            shutdown: op("shutdown"),
            other: op("other"),
            errors: r.counter(
                "cspm_serve_errors_total",
                "Requests answered with an error line (parse failures included).",
            ),
            lock_wait_seconds: r.histogram(
                "cspm_serve_registry_lock_wait_seconds",
                "Wait to acquire the session-registry mutex.",
                &TIME_BUCKETS,
            ),
            evictions: r.counter(
                "cspm_serve_evictions_total",
                "Tenants evicted by memory-budget pressure.",
            ),
            deadline_expiries: r.counter(
                "cspm_serve_deadline_expiries_total",
                "Mine/subscribe requests cancelled by their deadline.",
            ),
            delta_rebuilds: r.counter(
                "cspm_serve_delta_rebuilds_total",
                "Deltas that forced a cold rebuild (e.g. a vanished attribute).",
            ),
            subscribe_dropped: r.counter(
                "cspm_serve_subscribe_dropped_total",
                "Subscribe progress events dropped because the stream buffer was full.",
            ),
        }
    })
}
