//! Mining-as-a-service: the `cspm serve` daemon and its wire protocol.
//!
//! This crate turns the session stack into a long-running multi-tenant
//! server: many named sessions stay resident, accept graph deltas, and
//! re-mine warm, over a line-delimited JSON protocol on a Unix socket.
//!
//! | Module | Role |
//! |---|---|
//! | [`json`] | [`Value`], the one JSON type: a defensive parser (typed errors with byte offsets, depth-capped) and `to_json`, which writes every response, `cspm client` request and CLI `--json` document |
//! | [`proto`] | request/response grammar, typed [`proto::ErrorCode`]s, delta decoding |
//! | [`server`] | listener + connection loop (each connection's requests, mines included, run on its own thread), tenant registry, `--threads` mine slots, eviction |
//! | `metrics` | per-op counters/latency histograms on the process-wide telemetry registry, scraped via the `metrics` op |
//!
//! The protocol grammar is documented normatively in `docs/FORMATS.md`
//! §6. The CLI front-ends (`cspm serve`, `cspm client`) live in the
//! root crate, and the load benchmark in `perfbench/` (`tenant-churn`).
//!
//! # Guarantees
//!
//! - **Bit identity:** a mine through the daemon returns the same
//!   `final_dl_bits` as one-shot `cspm mine` on the same graph — the
//!   daemon adds routing, never arithmetic.
//! - **Robustness:** malformed lines, unknown ops, oversized frames
//!   (bounded memory even mid-line), hostile graphs (an `open` whose
//!   vertex ids outnumber its records is refused before anything is
//!   allocated for them), and bad deltas each produce one typed error
//!   line; the connection and every other tenant keep working. A
//!   panicking mine surfaces as an `internal` error, not a dead daemon.
//! - **Deadlines:** `mine` requests carry `deadline_ms`, enforced via
//!   the engine's cooperative cancellation; expiry leaves the tenant's
//!   warm state untouched.
//! - **Memory budget:** under `--mem-budget` pressure the daemon evicts
//!   idle tenants LRU-first — checkpointing durable ones so re-open is
//!   warm. Tenants need no compaction here: each session compacts its
//!   own posting arena as it absorbs deltas.

pub mod json;
mod metrics;
pub mod proto;
pub mod server;

pub use json::Value;
pub use proto::{ErrorCode, ProtoError, Request, MAX_FRAME};
pub use server::{dl_bits, Server, ServerConfig};
