//! Telecom alarm-correlation substrate (§VI-D of the paper, Fig. 8).
//!
//! The paper evaluates CSPM on a proprietary log of ~6M alarms from a
//! metropolitan network, with 300 alarm types governed by 11 expert
//! rules (decomposed into 121 cause→derivative pair rules from the AABD
//! system). None of that data is public, so this crate builds the whole
//! pipeline synthetically:
//!
//! * [`TelecomTopology`]: a three-tier (core/aggregation/access) device
//!   network;
//! * [`RuleLibrary`]: a ground-truth rule library with the paper's
//!   11-rules/121-pairs structure;
//! * [`simulate`]: a fault-propagation simulator that plays faults
//!   through the rules onto the topology, mixing in noise alarms;
//! * [`build_window_graph`]: windowing of the alarm log into a dynamic
//!   attributed graph (disjoint union of per-window snapshots);
//! * [`acor_rank`]: the ACOR baseline — per-pair correlation scoring;
//! * [`cspm_rank`]: CSPM-based ranking — mine a-stars, split into pair
//!   rules keeping the code-length order;
//! * [`coverage_curve`]: the Fig. 8 metric.

mod compression;
mod miner;
mod rules;
mod simulator;
mod topology;

pub use compression::{compress_log, CompressionReport};
pub use miner::{acor_rank, coverage_curve, cspm_rank, PairRule, PairStats, RankedPairs};
pub use rules::{AlarmRule, AlarmType, RuleLibrary};
pub use simulator::{build_window_graph, simulate, AlarmEvent, SimConfig, WindowGraph};
pub use topology::TelecomTopology;
