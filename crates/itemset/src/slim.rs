//! SLIM: directly mining descriptive patterns (Smets & Vreeken, SDM 2012).
//!
//! Unlike Krimp, SLIM needs no pre-mined candidate collection: in every
//! iteration it considers pairwise unions `X ∪ Y` of current code-table
//! entries, ranked by an estimated description-length gain derived from
//! their co-usage, and accepts the first union that *actually* lowers the
//! total DL. This on-the-fly candidate generation is what CSPM borrows
//! (§II: "inspired by an improved version of Krimp, named SLIM").

use std::collections::HashMap;

use crate::cover::{CodeTable, CoverResult, DlBreakdown, Pattern};
use crate::transaction::{Item, TransactionDb};

/// Each iteration evaluates at most this many top-ranked candidates
/// before giving up. SLIM's estimate ordering means the accepted
/// candidate is almost always near the front.
const EVAL_BUDGET_PER_ITER: usize = 64;

/// Result of a SLIM run.
#[derive(Debug, Clone)]
pub struct SlimResult {
    /// Final code table.
    pub code_table: CodeTable,
    /// Final cover of the database.
    pub cover: CoverResult,
    /// Final description length.
    pub dl: DlBreakdown,
    /// Singleton-only baseline description length.
    pub baseline: DlBreakdown,
    /// Number of accepted merges (patterns added).
    pub accepted: usize,
    /// Number of exact DL evaluations performed.
    pub evaluated: usize,
}

impl SlimResult {
    /// Achieved compression ratio `L(CT,D)/L(ST,D)` (lower is better).
    pub fn compression_ratio(&self) -> f64 {
        self.dl.total() / self.baseline.total()
    }
}

/// Runs SLIM to convergence: until no candidate among an iteration's
/// top-ranked few lowers the total description length.
pub fn slim(db: &TransactionDb) -> SlimResult {
    let mut ct = CodeTable::singletons(db);
    let (mut cover, baseline) = ct.evaluate(db);
    let mut dl = baseline;
    let mut accepted = 0usize;
    let mut evaluated = 0usize;

    loop {
        let candidates = ranked_candidates(&ct, &cover);
        let mut improved = false;
        for (x, y, _est) in candidates.into_iter().take(EVAL_BUDGET_PER_ITER) {
            let union: Vec<Item> = merge_items(ct.patterns()[x].items(), ct.patterns()[y].items());
            if ct.contains(&union) {
                continue;
            }
            evaluated += 1;
            let support = count_support(db, &union);
            let idx = ct.insert(Pattern::new(union, support));
            let (new_cover, new_dl) = ct.evaluate(db);
            if new_dl.total() < dl.total() - 1e-9 {
                cover = new_cover;
                dl = new_dl;
                accepted += 1;
                improved = true;
                break;
            }
            ct.remove(idx);
        }
        if !improved {
            break;
        }
    }

    SlimResult {
        code_table: ct,
        cover,
        dl,
        baseline,
        accepted,
        evaluated,
    }
}

/// Candidate pairs of code-table entries ranked by estimated gain.
///
/// The estimate follows SLIM: a union used `xy` times saves roughly
/// `xy · (L(X) + L(Y) − L'(X∪Y))` bits on the data; we use the simpler
/// (and order-preserving for our purposes) `xy · (L(X) + L(Y))` minus the
/// ST cost of materialising the union.
fn ranked_candidates(ct: &CodeTable, cover: &CoverResult) -> Vec<(usize, usize, f64)> {
    // Co-usage counts from per-transaction cover sets.
    let mut co: HashMap<(u32, u32), u64> = HashMap::new();
    for used in &cover.covers {
        for i in 0..used.len() {
            for j in i + 1..used.len() {
                let key = (used[i].min(used[j]), used[i].max(used[j]));
                *co.entry(key).or_insert(0) += 1;
            }
        }
    }
    let s = cover.total_usage as f64;
    let code_len = |idx: usize| -> f64 {
        let u = cover.usages[idx];
        if u == 0 {
            f64::INFINITY
        } else {
            -((u as f64 / s).log2())
        }
    };
    let mut out: Vec<(usize, usize, f64)> = co
        .into_iter()
        .filter(|&(_, xy)| xy > 1)
        .map(|((a, b), xy)| {
            let (a, b) = (a as usize, b as usize);
            let union_st_cost: f64 = ct.patterns()[a]
                .items()
                .iter()
                .chain(ct.patterns()[b].items())
                .map(|&i| ct.st().code_len(i as usize))
                .sum();
            let est = xy as f64 * (code_len(a) + code_len(b)) - union_st_cost;
            (a, b, est)
        })
        .filter(|&(_, _, est)| est > 0.0)
        .collect();
    out.sort_by(|l, r| r.2.partial_cmp(&l.2).unwrap_or(std::cmp::Ordering::Equal));
    out
}

fn merge_items(a: &[Item], b: &[Item]) -> Vec<Item> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    out.extend_from_slice(a);
    out.extend_from_slice(b);
    out.sort_unstable();
    out.dedup();
    out
}

fn count_support(db: &TransactionDb, items: &[Item]) -> u32 {
    db.iter()
        .filter(|t| items.iter().all(|i| t.binary_search(i).is_ok()))
        .count() as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn patterned_db() -> TransactionDb {
        let mut rows = Vec::new();
        for _ in 0..30 {
            rows.push(vec![0, 1, 2]);
        }
        for _ in 0..10 {
            rows.push(vec![3, 4]);
        }
        rows.push(vec![0, 5]);
        rows.push(vec![1, 5]);
        TransactionDb::from_rows(rows)
    }

    #[test]
    fn slim_discovers_planted_patterns_without_candidates() {
        let res = slim(&patterned_db());
        assert!(res.accepted >= 2);
        assert!(res.code_table.contains(&[0, 1, 2]));
        assert!(res.code_table.contains(&[3, 4]));
        assert!(res.compression_ratio() < 1.0);
    }

    #[test]
    fn dl_is_monotone_over_acceptances() {
        // Every accepted merge strictly lowers DL, so final <= baseline.
        let res = slim(&patterned_db());
        assert!(res.dl.total() < res.baseline.total());
    }

    #[test]
    fn converges_on_patternless_data() {
        // All-distinct transactions: nothing co-occurs twice, no merge.
        let db = TransactionDb::from_rows(vec![vec![0, 1], vec![2, 3], vec![4, 5]]);
        let res = slim(&db);
        assert_eq!(res.accepted, 0);
        assert!((res.dl.total() - res.baseline.total()).abs() < 1e-9);
    }

    #[test]
    fn cover_remains_lossless_after_slim() {
        let db = patterned_db();
        let res = slim(&db);
        for (t, used) in db.iter().zip(&res.cover.covers) {
            let mut rebuilt: Vec<Item> = used
                .iter()
                .flat_map(|&i| {
                    res.code_table.patterns()[i as usize]
                        .items()
                        .iter()
                        .copied()
                })
                .collect();
            rebuilt.sort_unstable();
            assert_eq!(rebuilt, t);
        }
    }
}
