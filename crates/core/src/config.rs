//! Configuration and run statistics for CSPM.

/// How merge gains are priced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GainPolicy {
    /// Data gain (Eq. 9) **minus** the model-cost delta of materialising
    /// changed `CT_L` rows (leafset ST codes + coreset pointer codes).
    /// This is the paper's full accounting ("the cost increase of the new
    /// pattern's leafset in the code table") and the default.
    #[default]
    Total,
    /// Data gain only (Eq. 9). Exposed for the ablation study: it accepts
    /// more merges, growing the model for marginal data savings.
    DataOnly,
}

/// How coresets are formed (§IV-F, Step 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoresetMode {
    /// One coreset per attribute value; `CT_c` equals the standard code
    /// table. The paper's main experimental setting.
    #[default]
    SingleValue,
    /// Multi-value coresets mined by Krimp over the vertex→attribute
    /// transaction table (requires a minimum support for its candidate
    /// miner).
    Krimp {
        /// Absolute minimum support for Eclat candidates.
        min_support: u32,
    },
    /// Multi-value coresets mined by SLIM (parameter-free).
    Slim,
}

/// CSPM configuration. The defaults reproduce the paper's parameter-free
/// setting. Three fields change *what* is found: `gain_policy` (how a
/// merge is priced), `coreset_mode` (which coresets exist) and
/// `max_merges` (where mining stops). The other two change only
/// instrumentation and speed: `collect_stats` records per-merge
/// statistics, and the thread count changes how fast the answer is
/// computed, never which answer.
#[derive(Debug, Clone, Copy, Default)]
pub struct CspmConfig {
    /// Gain accounting policy.
    pub gain_policy: GainPolicy,
    /// Coreset formation mode.
    pub coreset_mode: CoresetMode,
    /// Optional cap on accepted merges (safety valve for huge inputs;
    /// `None` = run to convergence as in the paper).
    pub max_merges: Option<usize>,
    /// Record per-iteration statistics (gain-update ratio, DL trace).
    pub collect_stats: bool,
    /// Worker threads for candidate gain scoring (`0` = one per
    /// available core, capped at [`CspmConfig::MAX_AUTO_THREADS`]).
    /// Scoring is deterministic at every thread count: results are
    /// bit-identical to the sequential path.
    pub threads: usize,
}

impl CspmConfig {
    /// Upper cap on auto-detected scoring threads (`threads == 0`).
    pub const MAX_AUTO_THREADS: usize = 8;

    /// Paper-default configuration with statistics collection enabled.
    pub fn instrumented() -> Self {
        Self {
            collect_stats: true,
            ..Self::default()
        }
    }

    /// This configuration with an explicit scoring thread count.
    pub fn with_threads(self, threads: usize) -> Self {
        Self { threads, ..self }
    }
}

/// One mining iteration's bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationStat {
    /// Number of pair gains computed (added or updated) this iteration.
    pub gain_evals: u64,
    /// Number of possible pairs `C(n,2)` over live leafsets.
    pub possible_pairs: u64,
    /// Gain of the accepted merge.
    pub accepted_gain: f64,
    /// Total description length `L(M, I)` after the merge.
    pub dl_after: f64,
    /// Data cost `L(I|M)` (Eq. 8) after the merge. Monotone under
    /// [`GainPolicy::DataOnly`]; `dl_after` is monotone under
    /// [`GainPolicy::Total`].
    pub data_dl_after: f64,
}

impl IterationStat {
    /// Gain update ratio (Fig. 5): evaluations / possible pairs, in `[0,1]`.
    pub fn update_ratio(&self) -> f64 {
        if self.possible_pairs == 0 {
            0.0
        } else {
            (self.gain_evals as f64 / self.possible_pairs as f64).min(1.0)
        }
    }
}

/// Statistics for a whole run.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Per-iteration records (empty unless `collect_stats`).
    pub iterations: Vec<IterationStat>,
    /// Total pair-gain evaluations across the run (always tracked).
    /// Every evaluation is an exact gain.
    pub total_gain_evals: u64,
    /// Always 0: every candidate pair is scored exactly, none is
    /// dismissed early. The field stays only because the repository
    /// benchmark under `perfbench/` reads it; remove it together with
    /// that reader.
    pub pruned_pairs: u64,
    /// Whether the run was cancelled cooperatively by a
    /// [`ProgressObserver`](crate::ProgressObserver) returning
    /// `ControlFlow::Break`. A cancelled result is still a valid model
    /// — just with fewer merges applied.
    pub cancelled: bool,
    /// Wall-clock seconds spent mining. [`mine`](crate::mine),
    /// [`MiningSession::mine_with`](crate::MiningSession::mine_with) and
    /// [`MiningSession::apply_delta_with`](crate::MiningSession::apply_delta_with)
    /// also count building (or delta-patching) the `InvertedDb`;
    /// [`MiningSession::run_with`](crate::MiningSession::run_with),
    /// [`MiningSession::run_detached`](crate::MiningSession::run_detached)
    /// and the `cspm_engine_mine_seconds` histogram time the merge loop
    /// alone.
    pub elapsed_secs: f64,
    /// Final posting-row representation mix (sparse vs bitmap rows) and
    /// flip counters, captured from the store when the run ends — the
    /// observability hook for the adaptive-layout density thresholds.
    pub posting: crate::positions::PostingReprStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_paper_defaults() {
        let c = CspmConfig::default();
        assert_eq!(c.gain_policy, GainPolicy::Total);
        assert_eq!(c.coreset_mode, CoresetMode::SingleValue);
        assert!(c.max_merges.is_none());
        assert!(!c.collect_stats);
        assert_eq!(c.threads, 0, "auto thread detection by default");
        assert!(CspmConfig::instrumented().collect_stats);
        assert_eq!(c.with_threads(4).threads, 4);
    }

    #[test]
    fn update_ratio_bounds() {
        let stat = |ge, pp| IterationStat {
            gain_evals: ge,
            possible_pairs: pp,
            accepted_gain: 1.0,
            dl_after: 0.0,
            data_dl_after: 0.0,
        };
        assert!((stat(3, 10).update_ratio() - 0.3).abs() < 1e-12);
        assert_eq!(stat(0, 0).update_ratio(), 0.0);
        assert_eq!(stat(99, 10).update_ratio(), 1.0);
    }
}
