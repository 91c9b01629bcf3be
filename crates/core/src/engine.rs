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
//! Between merges the database is immutable, and every candidate gain
//! is a pure function of it ([`InvertedDb::pair_gain`], always exact).
//! Both variants score their candidate batches through one routine that
//! fans a batch out across a `std::thread::scope` worker pool once it
//! reaches a per-variant size floor (Algorithm 1's sweeps need a far
//! larger batch than Algorithm 4's updates to pay for the workers).
//! Workers share the posting arena read-only (no row is cloned);
//! batches are split into contiguous chunks and the per-pair gains
//! reassembled in input order. Algorithm 1 then keeps the sweep's best
//! pair, with gain ties broken towards the smallest candidate pair id.
//! Mining output is therefore **bit-identical at every thread count**.
//!
//! One knob on [`CspmConfig`] controls scheduling, and it tunes *speed*,
//! never *what* is mined: [`CspmConfig::threads`], the scoring worker
//! count (`0` = one per available core, capped at
//! [`CspmConfig::MAX_AUTO_THREADS`]).

use std::cmp::Reverse;
use std::collections::{BTreeSet, HashMap};
use std::ops::ControlFlow;
use std::time::Instant;

use cspm_mdl::OrdF64;

use crate::config::{CspmConfig, IterationStat, RunStats};
use crate::inverted::{GainView, InvertedDb, LeafsetId};
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
/// [`MiningSession::run_with`](crate::MiningSession::run_with)); the
/// one-shot entry points run with a no-op observer.
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

/// The observer the plain entry points use: never cancels.
pub(crate) struct RunToCompletion;

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
    let cap_reached = |merges: usize| config.max_merges.is_some_and(|m| merges >= m);

    // Algorithm 1 line 5 / Algorithm 3 lines 5–6: the initial candidate
    // pool. Basic only ever needs the front of the queue — everything
    // else is regenerated after the next merge anyway. A pre-satisfied
    // merge cap skips the sweep entirely.
    if !cap_reached(merges) {
        let pairs = db.sharing_pairs();
        stats.total_gain_evals += seed_pairs(&db, &pairs, &mut scheduler, variant, threads);
    }

    while !cap_reached(merges) {
        let Some((x, y, gain, mut gain_evals)) =
            pop_next_positive(&mut scheduler, &db, variant, &mut stats)
        else {
            break;
        };
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
        // cancellation. The stat therefore counts the evals spent
        // reaching this merge; the recorded per-iteration stats
        // additionally include the upkeep evals, as they always have.
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
            if config.collect_stats {
                stats.iterations.push(stat);
            }
            stats.cancelled = true;
            break;
        }

        match variant {
            Variant::Basic => {
                scheduler.clear();
                // Skip the regeneration sweep after the final permitted
                // merge — the loop is about to break on the cap anyway.
                if !cap_reached(merges) {
                    let pairs = db.sharing_pairs();
                    gain_evals += seed_pairs(&db, &pairs, &mut scheduler, variant, threads);
                }
            }
            Variant::Partial => {
                let n = outcome.new_leafset;
                // (1) Remove totally merged leafsets from the pool.
                if outcome.x_removed {
                    scheduler.remove_leafset(x);
                }
                if outcome.y_removed {
                    scheduler.remove_leafset(y);
                }
                // Algorithm 4's remaining update rules form one batch of
                // independent read-only scores against the post-merge
                // database, evaluated across the worker pool and applied
                // in sequential order (bit-identical to the serial path):
                // (2) pairs of the new leafset with rdict[x] ∩ rdict[y],
                // (3) re-scores of pairs involving a partly merged
                // parent (frequencies only shrink; gains may flip
                // negative). The two groups never overlap: group (2)
                // partners exclude both parents, so neither group edits
                // the other's rdict entries and the update set can be
                // snapshotted up front.
                let mut updates: Vec<(LeafsetId, LeafsetId)> = Vec::new();
                for &rel in rel_x.intersection(&rel_y) {
                    if rel == n || !db.is_live(rel) || !db.is_live(n) {
                        continue;
                    }
                    updates.push((rel, n));
                }
                let fresh_pairs = updates.len();
                for (parent, removed) in [(x, outcome.x_removed), (y, outcome.y_removed)] {
                    if removed {
                        continue;
                    }
                    for rel in scheduler.related(parent) {
                        updates.push((parent, rel));
                    }
                }
                gain_evals += updates.len() as u64;
                let gains = score_pairs(&db, &updates, threads, PARTIAL_FANOUT_FLOOR);
                for (i, (&(a, b), &gain)) in updates.iter().zip(&gains).enumerate() {
                    if gain > GAIN_EPS {
                        scheduler.upsert(a, b, gain);
                    } else if i >= fresh_pairs {
                        // Rule (3) drops influenced pairs that went
                        // non-positive; rule (2) pairs were never stored.
                        scheduler.remove_pair(a, b);
                    }
                }
            }
        }

        stats.total_gain_evals += gain_evals;
        if config.collect_stats {
            stat.gain_evals = gain_evals;
            stats.iterations.push(stat);
        }
    }

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

/// Fills the scheduler from the given sharing pairs. Returns the number
/// of gain evaluations charged. Under `Basic` only the best pair is
/// retained (Algorithm 2's candidate generation reduced to its argmax,
/// gain ties going to the smallest pair); under `Partial` every
/// positive pair is stored.
fn seed_pairs(
    db: &InvertedDb,
    pairs: &[(LeafsetId, LeafsetId)],
    scheduler: &mut CandidateScheduler,
    variant: Variant,
    threads: usize,
) -> u64 {
    let floor = match variant {
        Variant::Basic => BASIC_FANOUT_FLOOR,
        Variant::Partial => PARTIAL_FANOUT_FLOOR,
    };
    let gains = score_pairs(db, pairs, threads, floor);
    let positive = pairs
        .iter()
        .zip(&gains)
        .filter(|&(_, &gain)| gain > GAIN_EPS)
        .map(|(&(x, y), &gain)| (x, y, gain));
    match variant {
        Variant::Basic => {
            if let Some((x, y, gain)) = positive.fold(None, better) {
                scheduler.upsert(x, y, gain);
            }
        }
        Variant::Partial => positive.for_each(|(x, y, gain)| scheduler.upsert(x, y, gain)),
    }
    pairs.len() as u64
}

/// Fan-out floor for CSPM-Partial's scoring (its seed and every
/// Algorithm 4 update batch): smaller batches are scored inline, where
/// spawning workers costs more than the evaluations. On a 2-core host a
/// floor of 8,192 made the pokec-Small mine about 5% slower.
const PARTIAL_FANOUT_FLOOR: usize = 64;

/// Fan-out floor for CSPM-Basic's full sweeps. On a 2-core host a floor
/// of 64 made Basic 16–19% slower on DBLP-Small and USFlight-Small.
const BASIC_FANOUT_FLOOR: usize = 8_192;

/// Scores every pair against the current (immutable) database state,
/// fanning out to scoped worker threads once the batch reaches `floor`
/// pairs. Returns the exact per-pair gains in input order.
///
/// Deterministic at every thread count: each gain is a pure function of
/// the database, chunks are contiguous, and results are reassembled in
/// input order — the output vector is bit-identical to the sequential
/// path regardless of partitioning.
fn score_pairs(
    db: &InvertedDb,
    pairs: &[(LeafsetId, LeafsetId)],
    threads: usize,
    floor: usize,
) -> Vec<f64> {
    if threads <= 1 || pairs.len() < floor {
        return score_chunk(db.gain_view(), pairs);
    }
    let chunk = pairs.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = pairs
            .chunks(chunk)
            .map(|slice| {
                let view = db.gain_view();
                scope.spawn(move || score_chunk(view, slice))
            })
            .collect();
        let mut gains = Vec::with_capacity(pairs.len());
        for h in handles {
            gains.extend(h.join().expect("gain worker must not panic"));
        }
        gains
    })
}

/// Sequential scoring of one contiguous chunk through a read-only view.
fn score_chunk(view: GainView<'_>, pairs: &[(LeafsetId, LeafsetId)]) -> Vec<f64> {
    pairs.iter().map(|&(x, y)| view.pair_gain(x, y)).collect()
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
mod tests {
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
            let res = crate::mine(&g, variant, CspmConfig::instrumented());
            assert!(res.final_dl <= res.initial_dl + 1e-9);
            let mut prev = res.initial_dl;
            for it in &res.stats.iterations {
                assert!(it.dl_after < prev + 1e-9, "total DL must be monotone");
                prev = it.dl_after;
            }
        }
    }

    /// A connected graph with `k` interleaved label families, dense
    /// enough in distinct leafset pairs to exercise the parallel
    /// scoring fan-out.
    fn many_label_graph(n: usize, k: usize) -> cspm_graph::AttributedGraph {
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
        let d = many_label_graph(240, 16);
        let db = InvertedDb::build(&d, CoresetMode::SingleValue, GainPolicy::Total);
        let pairs = db.sharing_pairs();
        assert!(
            pairs.len() >= PARTIAL_FANOUT_FLOOR,
            "need a batch large enough to fan out ({} pairs)",
            pairs.len()
        );
        let seq = score_chunk(db.gain_view(), &pairs);
        for threads in [1, 2, 4, 8] {
            let par = score_pairs(&db, &pairs, threads, PARTIAL_FANOUT_FLOOR);
            assert_eq!(seq, par, "gains must be bit-identical at {threads} threads");
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
        seed_pairs(&db, &db.sharing_pairs(), &mut best, Variant::Basic, 1);
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

    /// Algorithm 1 re-scores every sharing pair after every merge: a
    /// converged Basic run spends the initial sweep plus one sweep of
    /// the pairs left after each merge.
    #[test]
    fn basic_spends_one_full_sweep_per_merge() {
        let d = many_label_graph(60, 6);
        let capped = |m| CspmConfig {
            max_merges: m,
            ..Default::default()
        };
        let pairs_after = |m| {
            let res = crate::mine(&d, Variant::Basic, capped(Some(m)));
            res.db.sharing_pairs().len() as u64
        };
        let run = crate::mine(&d, Variant::Basic, capped(None));
        assert!(run.merges >= 2, "fixture merged only {} times", run.merges);
        let sweeps: u64 = (0..=run.merges).map(pairs_after).sum();
        assert_eq!(run.stats.total_gain_evals, sweeps);
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
