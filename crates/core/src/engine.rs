//! The unified mining engine: one greedy merge loop that both CSPM
//! variants (and dynamic mining, the CLI, and the benchmarks) compile
//! down to.
//!
//! # Mapping back to the paper
//!
//! The paper presents CSPM twice: Algorithm 1 ("CSPM-Basic") recomputes
//! every candidate gain after each merge (its candidate generation is
//! Algorithm 2), while Algorithm 3 ("CSPM-Partial", §V) keeps the
//! candidate set warm across merges and repairs only the entries a merge
//! could have changed (its update step is Algorithm 4, driven by the
//! `rdict` relation index). Both are the *same* greedy loop over the
//! inverted database of §IV-B — pick the best positive-gain pair (Eq.
//! 9), apply the merge of §IV-E, repeat — differing only in how the
//! candidate pool is maintained. This module implements that loop once:
//!
//! * [`CandidateScheduler`] — a gain-ordered priority queue over leafset
//!   pairs with the per-leafset partner index (`rdict`) of §V, shared by
//!   both variants;
//! * [`Variant::Basic`] — Algorithm 1: the scheduler is cleared and
//!   reseeded from every sharing pair after each merge (large sweeps
//!   are evaluated across threads);
//! * [`Variant::Partial`] — Algorithm 3: popped gains are lazily
//!   revalidated (recomputed once before use, preserving the
//!   monotone-DL invariant), the new pattern is evaluated against
//!   `rdict[x] ∩ rdict[y]`, and pairs of partly-merged parents are
//!   re-scored — exactly the three update rules of Algorithm 4.
//!
//! The merge arithmetic itself lives in [`InvertedDb`]
//! over the flat [`PostingStore`](crate::positions::PostingStore) arena,
//! so the hot path of §IV-E runs over contiguous `(offset, len)` slices
//! rather than per-row heap allocations.
//!
//! # Candidate scoring
//!
//! Between merges the rows do not change, and every candidate gain is
//! a pure function of them ([`InvertedDb::pair_gain`], always exact).
//! Two paths score by counting instead, each to the bit as `pair_gain`
//! computes it:
//!
//! * the initial sweep of a pristine database (Algorithm 1 line 5,
//!   Algorithm 3 lines 5–6), by [`InvertedDb::seed_gains`]: no leafset
//!   has been merged yet, so each pair's gain follows from
//!   co-occurrence counts;
//! * Algorithm 4's update batches, split into anchor groups that share
//!   one leafset (the new leafset with `rdict[x] ∩ rdict[y]`, and each
//!   partly merged parent with its partners). A group of at least
//!   `COUNTED_GROUP_FLOOR` partners is scored by
//!   [`InvertedDb::anchor_gains`], one sweep over the anchor's
//!   positions through a `(coreset, center) → leafsets` index
//!   ([`CenterIndex`](crate::CenterIndex)). The run builds that index
//!   when the first such group comes, `merge` keeps it current, and the
//!   run drops it before returning. Smaller groups go through
//!   `pair_gain`, on the calling thread too.
//!
//! Partial's revalidation on pop goes through `pair_gain`, and so do
//! Algorithm 1's regeneration sweeps and the seed of a database that is
//! not pristine; those two batches fan out across a `std::thread::scope`
//! worker pool once they reach `FANOUT_FLOOR` pairs. Workers share the
//! posting arena read-only (no row is cloned); batches are split into
//! contiguous chunks and the per-pair gains reassembled in input order.
//! Algorithm 1 then keeps the sweep's best pair, with gain ties broken
//! towards the smallest candidate pair id. Mining output is therefore
//! **bit-identical at every thread count**.
//!
//! One knob on [`CspmConfig`] controls scheduling, and it tunes *speed*,
//! never *what* is mined: [`CspmConfig::threads`], the worker count of
//! those two fanned-out batches (`0` = one per available core, capped
//! at [`CspmConfig::MAX_AUTO_THREADS`]). CSPM-Partial on a pristine
//! database never reaches them, so it runs on one thread at any count.

use std::cmp::Reverse;
use std::collections::{BTreeSet, HashMap};
use std::ops::ControlFlow;
use std::time::Instant;

use cspm_mdl::OrdF64;

use crate::config::{CspmConfig, IterationStat, RunStats};
use crate::inverted::{InvertedDb, LeafsetId, MergeOutcome};
use crate::model::MinedModel;

/// Gains this close to zero are treated as "no improvement".
const GAIN_EPS: f64 = 1e-9;

/// Hook into the merge loop: called after every accepted merge with
/// that iteration's [`IterationStat`], and in control of whether the
/// loop keeps going.
///
/// Returning [`ControlFlow::Break`] cancels **cooperatively**: the
/// current merge is already applied (the database never observes a
/// half-merge), the loop stops before the next one, and the returned
/// [`CspmResult`] is a valid intermediate model — total DL is monotone,
/// so it is simply the model after as many merges as were allowed. The
/// run is marked in [`RunStats::cancelled`].
///
/// Observers are how long-lived sessions surface progress (see
/// [`MiningSession::run_with`](crate::MiningSession::run_with)), and
/// how a run is stopped early: a daemon deadline, a disconnected
/// subscriber and a merge cap are all observers that break. The
/// one-shot entry points run with [`RunToCompletion`].
pub trait ProgressObserver {
    /// One accepted merge happened; `stat` describes it. Return
    /// [`ControlFlow::Continue`] to keep mining or
    /// [`ControlFlow::Break`] to stop after this merge.
    ///
    /// The observer is consulted *before* the scheduler upkeep that
    /// prepares the next iteration (so cancelling skips that work);
    /// `stat.gain_evals` here counts the evaluations spent reaching
    /// this merge, while the per-iteration records in
    /// [`RunStats::iterations`](crate::RunStats) additionally include
    /// the upkeep evaluations, as they always have.
    fn on_iteration(&mut self, stat: &IterationStat) -> ControlFlow<()>;

    /// A recoverable anomaly outside the merge loop — e.g. a durable
    /// session truncating a torn WAL tail or falling back from a
    /// corrupt snapshot during recovery. Purely informational: the
    /// operation already degraded gracefully. Default: ignored.
    fn on_warning(&mut self, message: &str) {
        let _ = message;
    }
}

/// The observer the plain entry points use: never cancels, and
/// ignores warnings.
pub struct RunToCompletion;

impl ProgressObserver for RunToCompletion {
    fn on_iteration(&mut self, _stat: &IterationStat) -> ControlFlow<()> {
        ControlFlow::Continue(())
    }
}

/// Which CSPM variant the merge loop runs — that is, how the engine
/// maintains its candidate pool between merges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Variant {
    /// CSPM-Basic (Algorithm 1): regenerate every candidate gain after
    /// each merge.
    Basic,
    /// CSPM-Partial (Algorithm 3, §V): keep candidates warm, repair
    /// them incrementally via `rdict`, revalidate lazily on pop. The
    /// default, as in the paper's applications ("CSPM-Partial is
    /// adopted for the two applications owing to its efficiency").
    #[default]
    Partial,
}

/// Result of a CSPM run (either variant).
#[derive(Debug, Clone)]
pub struct CspmResult {
    /// The mined model, ranked by ascending code length.
    pub model: MinedModel,
    /// The converged inverted database.
    pub db: InvertedDb,
    /// Total DL before any merge (singleton-leafset model).
    pub initial_dl: f64,
    /// Total DL after convergence.
    pub final_dl: f64,
    /// Number of accepted merges.
    pub merges: usize,
    /// Run statistics.
    pub stats: RunStats,
}

impl CspmResult {
    /// Compression ratio `final/initial` (lower = better).
    pub fn compression_ratio(&self) -> f64 {
        if self.initial_dl == 0.0 {
            1.0
        } else {
            self.final_dl / self.initial_dl
        }
    }
}

/// Gain-ordered candidate pool with per-leafset partner indexing.
///
/// Generalises the paper's `rdict` (§V): pairs are kept in a total order
/// `(gain, smallest-pair-first)` so [`Self::pop_max`] is deterministic
/// under gain ties, and every leafset knows its current partners so
/// merge updates touch only the affected entries.
#[derive(Debug, Default, Clone)]
pub struct CandidateScheduler {
    gains: HashMap<(LeafsetId, LeafsetId), f64>,
    order: BTreeSet<(OrdF64, Reverse<LeafsetId>, Reverse<LeafsetId>)>,
    /// `rdict`: leafset → related leafsets (partners in stored pairs).
    rdict: HashMap<LeafsetId, BTreeSet<LeafsetId>>,
}

impl CandidateScheduler {
    fn key(x: LeafsetId, y: LeafsetId) -> (LeafsetId, LeafsetId) {
        (x.min(y), x.max(y))
    }

    /// Inserts or updates a pair's stored gain.
    pub fn upsert(&mut self, x: LeafsetId, y: LeafsetId, gain: f64) {
        let key = Self::key(x, y);
        if let Some(old) = self.gains.insert(key, gain) {
            self.order
                .remove(&(OrdF64(old), Reverse(key.0), Reverse(key.1)));
        }
        self.order
            .insert((OrdF64(gain), Reverse(key.0), Reverse(key.1)));
        self.rdict.entry(x).or_default().insert(y);
        self.rdict.entry(y).or_default().insert(x);
    }

    /// Drops one pair, if stored.
    pub fn remove_pair(&mut self, x: LeafsetId, y: LeafsetId) {
        let key = Self::key(x, y);
        if let Some(old) = self.gains.remove(&key) {
            self.order
                .remove(&(OrdF64(old), Reverse(key.0), Reverse(key.1)));
        }
        self.unrelate(x, y);
        self.unrelate(y, x);
    }

    fn unrelate(&mut self, a: LeafsetId, b: LeafsetId) {
        if let Some(s) = self.rdict.get_mut(&a) {
            s.remove(&b);
            if s.is_empty() {
                self.rdict.remove(&a);
            }
        }
    }

    /// Removes every pair involving `l` (Algorithm 4, step 1).
    pub fn remove_leafset(&mut self, l: LeafsetId) {
        if let Some(partners) = self.rdict.remove(&l) {
            for p in partners {
                let key = Self::key(l, p);
                if let Some(old) = self.gains.remove(&key) {
                    self.order
                        .remove(&(OrdF64(old), Reverse(key.0), Reverse(key.1)));
                }
                self.unrelate(p, l);
            }
        }
    }

    /// Pops the stored pair with the maximum gain; gain ties break
    /// towards the smallest `(x, y)`.
    pub fn pop_max(&mut self) -> Option<(LeafsetId, LeafsetId, f64)> {
        let &(OrdF64(gain), Reverse(x), Reverse(y)) = self.order.last()?;
        self.remove_pair(x, y);
        Some((x, y, gain))
    }

    /// Current partners of `l` (`rdict[l]`).
    pub fn related(&self, l: LeafsetId) -> BTreeSet<LeafsetId> {
        self.rdict.get(&l).cloned().unwrap_or_default()
    }

    /// Whether no pair is stored.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Number of stored pairs.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Drops every stored pair.
    pub fn clear(&mut self) {
        self.gains.clear();
        self.order.clear();
        self.rdict.clear();
    }
}

/// The merge loop itself (Algorithm 1 / Algorithm 3), with a progress
/// observer threaded through; every public mining entry point funnels
/// here.
pub(crate) fn run_loop(
    mut db: InvertedDb,
    variant: Variant,
    config: CspmConfig,
    observer: &mut dyn ProgressObserver,
) -> CspmResult {
    let started = Instant::now();
    let initial_dl = db.total_dl();
    let mut stats = RunStats::default();
    let threads = resolve_threads(config.threads);
    let mut merges = 0usize;
    let mut scheduler = CandidateScheduler::default();

    // Algorithm 1 line 5 / Algorithm 3 lines 5–6: the initial candidate
    // pool. Basic only ever needs the front of the queue — everything
    // else is regenerated after the next merge anyway.
    stats.total_gain_evals += seed_pairs(&db, &mut scheduler, variant, threads);

    while let Some((x, y, gain, mut gain_evals)) =
        pop_next_positive(&mut scheduler, &db, variant, &mut stats)
    {
        // Capture relations before any removal (the new pattern inherits
        // candidate partners from both parents).
        let (rel_x, rel_y) = match variant {
            Variant::Partial => (scheduler.related(x), scheduler.related(y)),
            Variant::Basic => Default::default(),
        };
        let outcome = db.merge(x, y);
        debug_assert!(outcome.merged_any);
        merges += 1;

        // Consult the observer *before* the post-merge scheduler
        // upkeep: everything below this point only prepares the next
        // iteration (an Algorithm 1 regeneration sweep, or the
        // Algorithm 4 update batch) and would be wasted work on a
        // cancellation, so a run stopped after its k-th merge scores
        // nothing it then throws away. The stat therefore counts the
        // evals spent reaching this merge; the recorded per-iteration
        // stats additionally include the upkeep evals, as they always
        // have.
        let live = db.live_leafset_count() as u64;
        let mut stat = IterationStat {
            gain_evals,
            possible_pairs: live * live.saturating_sub(1) / 2,
            accepted_gain: gain,
            dl_after: db.total_dl(),
            data_dl_after: db.data_cost(),
        };
        if observer.on_iteration(&stat).is_break() {
            stats.total_gain_evals += gain_evals;
            stats.iterations.push(stat);
            stats.cancelled = true;
            break;
        }

        match variant {
            Variant::Basic => {
                scheduler.clear();
                gain_evals += seed_pairs(&db, &mut scheduler, variant, threads);
            }
            Variant::Partial => {
                // (1) Remove totally merged leafsets from the pool.
                if outcome.x_removed {
                    scheduler.remove_leafset(x);
                }
                if outcome.y_removed {
                    scheduler.remove_leafset(y);
                }
                for group in anchor_groups(&db, &scheduler, (x, y), &outcome, &rel_x, &rel_y) {
                    gain_evals += group.partners.len() as u64;
                    let gains = score_group(&mut db, &group);
                    group.store(&mut scheduler, &gains);
                }
            }
        }

        stats.total_gain_evals += gain_evals;
        stat.gain_evals = gain_evals;
        stats.iterations.push(stat);
    }

    db.drop_center_index();
    stats.elapsed_secs = started.elapsed().as_secs_f64();
    stats.posting = db.posting_store().repr_stats();
    // The engine's single telemetry seam: once per run, never per merge.
    crate::metrics::record_run(merges, &stats);
    CspmResult {
        model: MinedModel::from_db(&db),
        initial_dl,
        final_dl: db.total_dl(),
        merges,
        stats,
        db,
    }
}

/// Pops scheduler entries until one whose validated gain is positive,
/// returning it together with the revalidation evals spent on the
/// accepted entry (evals spent on discarded stale entries are charged
/// to `stats.total_gain_evals` directly, as before).
///
/// `Basic` trusts stored gains — its queue is regenerated from scratch
/// after every merge, so entries are exact by construction. `Partial`
/// lazily revalidates every pop: untouched pairs go stale when a shared
/// coreset's total frequency changes, and a stale entry whose true gain
/// flipped non-positive is dropped here — it is never applied, which is
/// what keeps the total DL monotone.
fn pop_next_positive(
    scheduler: &mut CandidateScheduler,
    db: &InvertedDb,
    variant: Variant,
    stats: &mut RunStats,
) -> Option<(LeafsetId, LeafsetId, f64, u64)> {
    while let Some((x, y, stored)) = scheduler.pop_max() {
        let (gain, evals) = match variant {
            Variant::Basic => (stored, 0),
            Variant::Partial => (db.pair_gain(x, y), 1),
        };
        if gain > GAIN_EPS {
            return Some((x, y, gain, evals));
        }
        stats.total_gain_evals += evals;
    }
    None
}

/// Resolves [`CspmConfig::threads`]: `0` means one worker per available
/// core, capped at [`CspmConfig::MAX_AUTO_THREADS`].
fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .clamp(1, CspmConfig::MAX_AUTO_THREADS)
    }
}

/// Scores every sharing pair of `db` and fills the scheduler from them.
/// Returns the number of gain evaluations charged: one per pair. Under
/// `Basic` only the best pair is retained (Algorithm 2's candidate
/// generation reduced to its argmax, gain ties going to the smallest
/// pair); under `Partial` every positive pair is stored.
///
/// A pristine database (the initial sweep of a built, patched or
/// restored database) is scored by counting, in
/// [`InvertedDb::seed_gains`]. Any other one, after a merge or adopted
/// mid-run, goes through [`InvertedDb::pair_gain`], fanned out across
/// the worker threads.
fn seed_pairs(
    db: &InvertedDb,
    scheduler: &mut CandidateScheduler,
    variant: Variant,
    threads: usize,
) -> u64 {
    let scored = db.seed_gains().unwrap_or_else(|| {
        let pairs = db.sharing_pairs();
        let gains = score_pairs(db, &pairs, threads);
        pairs
            .into_iter()
            .zip(gains)
            .map(|((x, y), gain)| (x, y, gain))
            .collect()
    });
    let positive = scored
        .iter()
        .copied()
        .filter(|&(_, _, gain)| gain > GAIN_EPS);
    match variant {
        Variant::Basic => {
            if let Some((x, y, gain)) = positive.fold(None, better) {
                scheduler.upsert(x, y, gain);
            }
        }
        Variant::Partial => positive.for_each(|(x, y, gain)| scheduler.upsert(x, y, gain)),
    }
    scored.len() as u64
}

/// One anchor group of an Algorithm 4 update batch: the pairs of
/// `anchor` with each of `partners`.
struct AnchorGroup {
    anchor: LeafsetId,
    partners: Vec<LeafsetId>,
    /// Rule (3), a partly merged parent's stored pairs: scored as
    /// `(anchor, partner)`, and dropped if no longer positive. Otherwise
    /// rule (2), the new leafset's candidate pairs: scored as
    /// `(partner, anchor)`, and stored only if positive.
    rescore: bool,
}

impl AnchorGroup {
    /// Applies the group's gains: positive pairs are stored, and rule
    /// (3) drops pairs that went non-positive (rule (2) pairs were
    /// never stored).
    fn store(&self, scheduler: &mut CandidateScheduler, gains: &[f64]) {
        for (&partner, &gain) in self.partners.iter().zip(gains) {
            if gain > GAIN_EPS {
                scheduler.upsert(self.anchor, partner, gain);
            } else if self.rescore {
                scheduler.remove_pair(self.anchor, partner);
            }
        }
    }
}

/// Splits the update batch after merging `x` and `y` (Algorithm 4's
/// rules (2) and (3)) into anchor groups that share one leafset:
/// (2) the new leafset `n` with `rdict[x] ∩ rdict[y]` (`rel_x` and
/// `rel_y`, captured before the merge), and (3) each partly merged
/// parent with its current partners (frequencies only shrink, so gains
/// may flip negative). The groups never overlap: rule (2)'s partners
/// exclude both parents, so no group edits another's `rdict` entries,
/// and every group can be listed before any is applied.
fn anchor_groups(
    db: &InvertedDb,
    scheduler: &CandidateScheduler,
    (x, y): (LeafsetId, LeafsetId),
    outcome: &MergeOutcome,
    rel_x: &BTreeSet<LeafsetId>,
    rel_y: &BTreeSet<LeafsetId>,
) -> Vec<AnchorGroup> {
    let n = outcome.new_leafset;
    let fresh = rel_x
        .intersection(rel_y)
        .copied()
        .filter(|&rel| rel != n && db.is_live(rel) && db.is_live(n))
        .collect();
    let mut groups = vec![AnchorGroup {
        anchor: n,
        partners: fresh,
        rescore: false,
    }];
    for (parent, removed) in [(x, outcome.x_removed), (y, outcome.y_removed)] {
        if !removed {
            groups.push(AnchorGroup {
                anchor: parent,
                partners: scheduler.related(parent).into_iter().collect(),
                rescore: true,
            });
        }
    }
    groups
}

/// Smallest anchor group that is scored by counting. A counted sweep
/// reads every center list along the anchor's rows, whatever the
/// partner count, so it pays only where many partners share them: on
/// pokec-Small 74 groups of at least 16 hold 9,919 of the 10,847
/// update pairs, while paper-scale DBLP's hold 2.5 partners on average
/// and its mine under the default pricing never builds the index.
const COUNTED_GROUP_FLOOR: usize = 16;

/// Scores one anchor group on the calling thread: by counting
/// ([`InvertedDb::anchor_gains`], building the database's center index
/// the first time) once it reaches [`COUNTED_GROUP_FLOOR`] partners,
/// else pair by pair through [`InvertedDb::pair_gain`]. Both give the
/// same bits.
fn score_group(db: &mut InvertedDb, group: &AnchorGroup) -> Vec<f64> {
    let AnchorGroup {
        anchor,
        ref partners,
        rescore,
    } = *group;
    if partners.len() < COUNTED_GROUP_FLOOR {
        return partners
            .iter()
            .map(|&p| {
                if rescore {
                    db.pair_gain(anchor, p)
                } else {
                    db.pair_gain(p, anchor)
                }
            })
            .collect();
    }
    db.index_centers();
    db.anchor_gains(anchor, partners, rescore)
}

/// Fan-out floor of [`score_pairs`]: smaller batches are scored inline,
/// where spawning workers costs more than the evaluations. On a 2-core
/// host a floor of 64 made Basic 16–19% slower on DBLP-Small and
/// USFlight-Small.
const FANOUT_FLOOR: usize = 8_192;

/// Scores every pair against the current (immutable) database state,
/// fanning out to scoped worker threads once the batch reaches
/// [`FANOUT_FLOOR`] pairs. Returns the exact per-pair gains in input
/// order. Only Basic's regeneration sweeps and the seed of a database
/// that is not pristine come here.
///
/// Deterministic at every thread count: each gain is a pure function of
/// the database, chunks are contiguous, and results are reassembled in
/// input order — the output vector is bit-identical to the sequential
/// path regardless of partitioning.
fn score_pairs(db: &InvertedDb, pairs: &[(LeafsetId, LeafsetId)], threads: usize) -> Vec<f64> {
    if threads <= 1 || pairs.len() < FANOUT_FLOOR {
        return score_chunk(db, pairs);
    }
    let chunk = pairs.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = pairs
            .chunks(chunk)
            .map(|slice| scope.spawn(move || score_chunk(db, slice)))
            .collect();
        let mut gains = Vec::with_capacity(pairs.len());
        for h in handles {
            gains.extend(h.join().expect("gain worker must not panic"));
        }
        gains
    })
}

/// Sequential scoring of one contiguous chunk.
fn score_chunk(db: &InvertedDb, pairs: &[(LeafsetId, LeafsetId)]) -> Vec<f64> {
    pairs.iter().map(|&(x, y)| db.pair_gain(x, y)).collect()
}

/// Keeps the better of the running best pair and `candidate`: the
/// higher gain, with equal gains going to the smallest `(x, y)`.
fn better(
    current: Option<(LeafsetId, LeafsetId, f64)>,
    candidate: (LeafsetId, LeafsetId, f64),
) -> Option<(LeafsetId, LeafsetId, f64)> {
    match current {
        None => Some(candidate),
        Some((cx, cy, cg)) => {
            let replace =
                candidate.2 > cg || (candidate.2 == cg && (candidate.0, candidate.1) < (cx, cy));
            Some(if replace { candidate } else { (cx, cy, cg) })
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::{CoresetMode, GainPolicy};
    use cspm_graph::fixtures::paper_example;

    #[test]
    fn scheduler_invariants() {
        let mut c = CandidateScheduler::default();
        c.upsert(1, 2, 3.0);
        c.upsert(2, 3, 5.0);
        c.upsert(1, 3, 4.0);
        assert_eq!(c.len(), 3);
        assert_eq!(c.pop_max(), Some((2, 3, 5.0)));
        c.upsert(1, 2, 10.0); // update overwrites
        assert_eq!(c.pop_max(), Some((1, 2, 10.0)));
        c.remove_leafset(3);
        assert!(c.is_empty());
        c.upsert(4, 5, 1.0);
        c.clear();
        assert!(c.is_empty() && c.related(4).is_empty());
    }

    #[test]
    fn pop_ties_break_towards_smallest_pair() {
        let mut c = CandidateScheduler::default();
        c.upsert(7, 9, 2.0);
        c.upsert(1, 4, 2.0);
        c.upsert(1, 3, 2.0);
        assert_eq!(c.pop_max(), Some((1, 3, 2.0)));
        assert_eq!(c.pop_max(), Some((1, 4, 2.0)));
        assert_eq!(c.pop_max(), Some((7, 9, 2.0)));
        assert_eq!(c.pop_max(), None);
    }

    #[test]
    fn policies_agree_on_paper_example() {
        // Under DataOnly pricing the two variants take identical greedy
        // paths on the paper example. (Under Total, Partial may
        // legitimately stop earlier: Algorithm 3 only considers new
        // pairs from rdict[x] ∩ rdict[y], and a pair whose model cost
        // made it unprofitable before a merge is never revisited — the
        // trade-off §V accepts for its speed.)
        let (g, _) = paper_example();
        let cfg = CspmConfig {
            gain_policy: GainPolicy::DataOnly,
            ..Default::default()
        };
        let full = crate::mine(&g, Variant::Basic, cfg);
        let inc = crate::mine(&g, Variant::Partial, cfg);
        assert!((full.final_dl - inc.final_dl).abs() < 1e-6);
        assert_eq!(full.merges, inc.merges);
        assert!(full.final_dl <= full.initial_dl);
    }

    #[test]
    fn both_policies_are_sound_under_total_pricing() {
        let (g, _) = paper_example();
        for variant in [Variant::Basic, Variant::Partial] {
            let res = crate::mine(&g, variant, CspmConfig::default());
            assert!(res.final_dl <= res.initial_dl + 1e-9);
            let mut prev = res.initial_dl;
            for it in &res.stats.iterations {
                assert!(it.dl_after < prev + 1e-9, "total DL must be monotone");
                prev = it.dl_after;
            }
        }
    }

    #[test]
    fn default_runs_record_every_merge() {
        let (g, _) = paper_example();
        for variant in [Variant::Basic, Variant::Partial] {
            let res = crate::mine(&g, variant, CspmConfig::default());
            assert!(res.merges > 0, "{variant:?} accepted no merge");
            assert_eq!(res.stats.iterations.len(), res.merges, "{variant:?}");
        }
    }

    /// A connected graph with `k` interleaved label families, dense
    /// enough in distinct leafset pairs to exercise the parallel
    /// scoring fan-out.
    pub(crate) fn many_label_graph(n: usize, k: usize) -> cspm_graph::AttributedGraph {
        let mut b = cspm_graph::GraphBuilder::new();
        for i in 0..n {
            b.add_vertex([format!("a{}", i % k), format!("b{}", (i * 7 + 3) % k)]);
        }
        for i in 1..n {
            b.add_edge(i as u32 - 1, i as u32).unwrap();
        }
        for i in 0..n {
            let j = (i * 13 + 5) % n;
            if i != j {
                let _ = b.add_edge(i as u32, j as u32);
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn score_pairs_is_identical_at_every_thread_count() {
        let d = many_label_graph(1_200, 128);
        let db = InvertedDb::build(&d, CoresetMode::SingleValue, GainPolicy::Total);
        let pairs = db.sharing_pairs();
        assert!(
            pairs.len() >= FANOUT_FLOOR,
            "need a batch large enough to fan out ({} pairs)",
            pairs.len()
        );
        let seq = score_chunk(&db, &pairs);
        for threads in [1, 2, 4, 8] {
            let par = score_pairs(&db, &pairs, threads);
            assert_eq!(seq, par, "gains must be bit-identical at {threads} threads");
        }
    }

    /// Replays a Partial run step for step as `run_loop` takes it, but
    /// scores every anchor group by counting, whatever its size. After
    /// each merge the center index must equal one rebuilt from the
    /// rows, and every counted gain `pair_gain`'s to the bit. Returns
    /// the replay's final DL bits, merges, gain evals and the largest
    /// group it scored.
    fn audited_partial_run(mut db: InvertedDb) -> (u64, usize, u64, usize) {
        let mut stats = RunStats::default();
        let mut scheduler = CandidateScheduler::default();
        stats.total_gain_evals += seed_pairs(&db, &mut scheduler, Variant::Partial, 1);
        db.index_centers();
        let (mut merges, mut largest) = (0, 0);
        while let Some((x, y, _, mut gain_evals)) =
            pop_next_positive(&mut scheduler, &db, Variant::Partial, &mut stats)
        {
            let (rel_x, rel_y) = (scheduler.related(x), scheduler.related(y));
            let outcome = db.merge(x, y);
            merges += 1;
            assert!(
                db.center_index() == Some(&crate::CenterIndex::build(&db)),
                "merge {merges}: the index differs from a rebuild"
            );
            if outcome.x_removed {
                scheduler.remove_leafset(x);
            }
            if outcome.y_removed {
                scheduler.remove_leafset(y);
            }
            for group in anchor_groups(&db, &scheduler, (x, y), &outcome, &rel_x, &rel_y) {
                gain_evals += group.partners.len() as u64;
                largest = largest.max(group.partners.len());
                let gains = db.anchor_gains(group.anchor, &group.partners, group.rescore);
                for (&p, gain) in group.partners.iter().zip(&gains) {
                    let (a, b) = if group.rescore {
                        (group.anchor, p)
                    } else {
                        (p, group.anchor)
                    };
                    let oracle = db.pair_gain(a, b);
                    assert_eq!(
                        gain.to_bits(),
                        oracle.to_bits(),
                        "merge {merges}: ({a}, {b}) counted {gain}, pair_gain {oracle}"
                    );
                }
                group.store(&mut scheduler, &gains);
            }
            stats.total_gain_evals += gain_evals;
        }
        (
            db.total_dl().to_bits(),
            merges,
            stats.total_gain_evals,
            largest,
        )
    }

    /// Audits the Partial run of each `(name, database)` and checks that
    /// the replay is the real run: same digest, merges and evals, and
    /// the real run hands its database back without an index. Returns
    /// the largest group scored.
    fn audit_partial_runs(dbs: impl IntoIterator<Item = (String, InvertedDb)>) -> usize {
        let mut largest = 0;
        for (name, db) in dbs {
            assert!(db.is_pristine(), "{name}");
            let mut session = crate::Miner::new().threads(1).build();
            session.adopt_db(db.clone());
            let real = session.run_detached().unwrap();
            assert!(
                real.db.center_index().is_none(),
                "{name}: index left behind"
            );
            let (dl, merges, evals, group) = audited_partial_run(db);
            assert_eq!(
                (dl, merges, evals),
                (
                    real.final_dl.to_bits(),
                    real.merges,
                    real.stats.total_gain_evals
                ),
                "{name}: the replay left the real run's path"
            );
            largest = largest.max(group);
        }
        largest
    }

    const MODES: [CoresetMode; 3] = [
        CoresetMode::SingleValue,
        CoresetMode::Krimp,
        CoresetMode::Slim,
    ];
    const POLICIES: [GainPolicy; 2] = [GainPolicy::Total, GainPolicy::DataOnly];

    /// Every database of `graphs` under each coreset mode and gain policy.
    fn databases<'a>(
        graphs: &'a [(&'a str, cspm_graph::AttributedGraph)],
    ) -> impl Iterator<Item = (String, InvertedDb)> + 'a {
        graphs.iter().flat_map(|(name, g)| {
            MODES.into_iter().flat_map(move |mode| {
                POLICIES.into_iter().map(move |policy| {
                    let db = InvertedDb::build(g, mode, policy);
                    (format!("{name} {mode:?} {policy:?}"), db)
                })
            })
        })
    }

    #[test]
    fn counted_batches_match_pair_gain_on_fixtures() {
        let graphs = [
            ("paper example", paper_example().0),
            ("many labels", many_label_graph(240, 32)),
        ];
        let largest = audit_partial_runs(databases(&graphs));
        assert!(largest >= COUNTED_GROUP_FLOOR, "largest group {largest}");
    }

    #[test]
    fn counted_batches_match_pair_gain_on_bench_generators() {
        use cspm_datasets::{dblp_like, dblp_trend_like, pokec_like, usflight_like, Scale};
        let graphs = [
            dblp_like(Scale::Small, 2022),
            usflight_like(Scale::Small, 2022),
            dblp_trend_like(Scale::Small, 2022),
            pokec_like(Scale::Tiny, 2022),
        ]
        .map(|d| (d.name, d.graph));
        let largest = audit_partial_runs(databases(&graphs));
        assert!(largest >= COUNTED_GROUP_FLOOR, "largest group {largest}");
    }

    #[test]
    fn counted_batches_read_sparse_and_bitmap_rows_alike() {
        use crate::PostingPolicy;
        use cspm_datasets::{planted_astars, PlantedConfig};
        let (g, _) = planted_astars(
            &[
                (&["doctor"], &["flu", "fever", "cough"]),
                (&["airport"], &["delay", "storm", "queue"]),
            ],
            PlantedConfig {
                occurrences_per_pattern: 150,
                background_vertices: 60,
                background_attrs: 10,
                noise_labels_per_vertex: 0.3,
                seed: 19,
            },
        );
        let dbs = POLICIES.into_iter().flat_map(|policy| {
            let g = &g;
            [PostingPolicy::Adaptive, PostingPolicy::SparseOnly].map(move |posting| {
                let db =
                    InvertedDb::build_with_posting(g, CoresetMode::SingleValue, policy, posting);
                let bitmaps = db.posting_store().repr_stats().bitmap_rows;
                assert_eq!(
                    bitmaps > 0,
                    posting == PostingPolicy::Adaptive,
                    "{posting:?}"
                );
                (format!("planted {policy:?} {posting:?}"), db)
            })
        });
        audit_partial_runs(dbs);
    }

    /// A database with a leafset that shares coresets with at least
    /// `partners` others, and that many of them.
    fn anchor_with_partners(partners: usize) -> (InvertedDb, LeafsetId, Vec<LeafsetId>) {
        let d = many_label_graph(240, 32);
        let db = InvertedDb::build(&d, CoresetMode::SingleValue, GainPolicy::Total);
        let pairs = db.sharing_pairs();
        let anchor = pairs[0].0;
        let related: Vec<LeafsetId> = pairs
            .iter()
            .filter(|&&(x, _)| x == anchor)
            .map(|&(_, y)| y)
            .take(partners)
            .collect();
        assert_eq!(related.len(), partners, "fixture too small");
        (db, anchor, related)
    }

    #[test]
    fn groups_below_the_floor_go_through_pair_gain() {
        let (mut db, anchor, partners) = anchor_with_partners(COUNTED_GROUP_FLOOR - 1);
        for rescore in [false, true] {
            let group = AnchorGroup {
                anchor,
                partners: partners.clone(),
                rescore,
            };
            let gains = score_group(&mut db, &group);
            assert!(
                db.center_index().is_none(),
                "a group below the floor built the index"
            );
            for (&p, gain) in partners.iter().zip(&gains) {
                let oracle = if rescore {
                    db.pair_gain(anchor, p)
                } else {
                    db.pair_gain(p, anchor)
                };
                assert_eq!(gain.to_bits(), oracle.to_bits());
            }
        }
    }

    #[test]
    fn groups_at_the_floor_are_counted() {
        let (mut db, anchor, partners) = anchor_with_partners(COUNTED_GROUP_FLOOR);
        for rescore in [false, true] {
            let group = AnchorGroup {
                anchor,
                partners: partners.clone(),
                rescore,
            };
            let gains = score_group(&mut db, &group);
            assert!(
                db.center_index().is_some(),
                "a group at the floor was not counted"
            );
            assert_eq!(gains, db.anchor_gains(anchor, &partners, rescore));
            for (&p, gain) in partners.iter().zip(&gains) {
                let oracle = if rescore {
                    db.pair_gain(anchor, p)
                } else {
                    db.pair_gain(p, anchor)
                };
                assert_eq!(gain.to_bits(), oracle.to_bits());
            }
        }
    }

    /// A stale queue entry whose gain flipped non-positive must never be
    /// applied. Partial revalidates on pop and drops it here; Basic
    /// never sees one (its queue is rebuilt from exact gains after every
    /// merge — `seed_pairs` only stores fresh values).
    #[test]
    fn stale_flipped_entry_is_never_popped_as_positive() {
        let (g, _) = paper_example();
        let mut db = InvertedDb::build(&g, CoresetMode::SingleValue, GainPolicy::Total);
        // Stale the pool: merge the globally best pair directly, behind
        // the scheduler's back.
        let mut best = CandidateScheduler::default();
        seed_pairs(&db, &mut best, Variant::Basic, 1);
        let (bx, by, _) = best.pop_max().expect("a positive pair");
        db.merge(bx, by);
        // Poison the queue with entries whose *stored* gain is huge but
        // whose true post-merge gain is non-positive.
        let mut scheduler = CandidateScheduler::default();
        let mut poisoned = 0u64;
        for (x, y) in db.sharing_pairs() {
            if db.pair_gain(x, y) <= GAIN_EPS {
                scheduler.upsert(x, y, 1e6);
                poisoned += 1;
            }
        }
        assert!(poisoned > 0, "fixture must yield stale candidates");
        let mut stats = RunStats::default();
        let popped = pop_next_positive(&mut scheduler, &db, Variant::Partial, &mut stats);
        assert!(
            popped.is_none(),
            "revalidation let a stale entry through: {popped:?}"
        );
        assert!(scheduler.is_empty(), "all poisoned entries were drained");
        assert_eq!(stats.total_gain_evals, poisoned, "one revalidation each");
    }

    /// An observer that stops the run after its `k`-th merge.
    fn stop_after(k: usize) -> impl ProgressObserver {
        let mut seen = 0;
        crate::FnObserver(move |_: &IterationStat| {
            seen += 1;
            if seen < k {
                ControlFlow::Continue(())
            } else {
                ControlFlow::Break(())
            }
        })
    }

    /// Algorithm 1 re-scores every sharing pair after every merge: a
    /// converged Basic run spends the initial sweep plus one sweep of
    /// the pairs left after each merge.
    #[test]
    fn basic_spends_one_full_sweep_per_merge() {
        let d = many_label_graph(60, 6);
        let run = crate::mine(&d, Variant::Basic, CspmConfig::default());
        assert!(run.merges >= 2, "fixture merged only {} times", run.merges);
        let mut session = crate::Miner::new().variant(Variant::Basic).build();
        session.load(&d);
        let mut sweeps = session.pristine_db().unwrap().sharing_pairs().len() as u64;
        for m in 1..=run.merges {
            let stopped = session.run_with(&mut stop_after(m)).unwrap();
            assert_eq!(stopped.merges, m);
            sweeps += stopped.db.sharing_pairs().len() as u64;
        }
        assert_eq!(run.stats.total_gain_evals, sweeps);
    }

    /// A Partial run stopped after its first merge scores no Algorithm 4
    /// batch for a second one: it spends the seed sweep and the popped
    /// pair's revalidation, nothing more. (Basic's skipped sweep is
    /// pinned by `basic_sweeps_every_pair_on_large_graphs`.)
    #[test]
    fn stopped_partial_run_skips_its_update_batch() {
        let d = many_label_graph(60, 6);
        let mut session = crate::Miner::new().build();
        session.load(&d);
        let seed = session.pristine_db().unwrap().sharing_pairs().len() as u64;
        let stopped = session.run_with(&mut stop_after(1)).unwrap();
        assert!(stopped.stats.cancelled && stopped.merges == 1);
        assert_eq!(stopped.stats.total_gain_evals, seed + 1);
        // Unstopped, the same merge is followed by a non-empty batch.
        let full = crate::mine(&d, Variant::Partial, CspmConfig::default());
        assert!(full.stats.iterations[0].gain_evals > 1);
    }

    #[test]
    fn mining_is_bit_identical_across_thread_counts() {
        let (g, _) = paper_example();
        for variant in [Variant::Basic, Variant::Partial] {
            let base = crate::mine(&g, variant, CspmConfig::default().with_threads(1));
            for threads in [2, 4, 8] {
                let run = crate::mine(&g, variant, CspmConfig::default().with_threads(threads));
                assert_eq!(
                    base.final_dl, run.final_dl,
                    "{variant:?} @ {threads} threads"
                );
                assert_eq!(base.merges, run.merges);
                assert_eq!(base.stats.total_gain_evals, run.stats.total_gain_evals);
            }
        }
    }

    #[test]
    fn tie_breaking_prefers_smallest_pair() {
        assert_eq!(better(None, (3, 4, 1.0)), Some((3, 4, 1.0)));
        assert_eq!(better(Some((3, 4, 1.0)), (1, 2, 1.0)), Some((1, 2, 1.0)));
        assert_eq!(better(Some((1, 2, 1.0)), (3, 4, 1.0)), Some((1, 2, 1.0)));
        assert_eq!(better(Some((1, 2, 1.0)), (3, 4, 2.0)), Some((3, 4, 2.0)));
    }
}
