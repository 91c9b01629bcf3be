//! Rule ranking: the ACOR baseline, CSPM-based ranking, and the
//! coverage-ratio metric of Fig. 8.

use std::collections::{HashMap, HashSet};

use cspm_core::{mine, CspmConfig, Variant};

use crate::rules::AlarmType;
use crate::simulator::{build_window_graph, parse_alarm_attr, AlarmEvent};
use crate::topology::TelecomTopology;

/// A directed cause→derivative pair rule with its ranking score
/// (higher = ranked earlier).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairRule {
    /// The inferred cause alarm.
    pub cause: AlarmType,
    /// The inferred derivative alarm.
    pub derivative: AlarmType,
    /// Ranking score (algorithm specific; only the order matters).
    pub score: f64,
}

/// A ranked rule list, best first.
pub type RankedPairs = Vec<PairRule>;

/// Windowed co-occurrence statistics: occurrence counts `n_A` over
/// `(window, device)` slots and nearby-co-occurrence counts `c_{A→B}`
/// (B at the same or a linked device within A's window). Shared by ACOR
/// (scores *and* direction) and by CSPM's direction resolution.
pub struct PairStats {
    n: HashMap<AlarmType, u32>,
    co: HashMap<(AlarmType, AlarmType), u32>,
}

impl PairStats {
    /// Scans the log once and accumulates the statistics.
    pub fn collect(topo: &TelecomTopology, events: &[AlarmEvent], window_ms: u64) -> Self {
        let mut n: HashMap<AlarmType, u32> = HashMap::new();
        let mut co: HashMap<(AlarmType, AlarmType), u32> = HashMap::new();
        let mut i = 0usize;
        while i < events.len() {
            let w = events[i].time / window_ms;
            let mut j = i;
            while j < events.len() && events[j].time / window_ms == w {
                j += 1;
            }
            let mut per_device: HashMap<u32, HashSet<AlarmType>> = HashMap::new();
            for e in &events[i..j] {
                per_device.entry(e.device).or_default().insert(e.alarm);
            }
            for (&d, alarms) in &per_device {
                // Alarm context: own device plus linked neighbours.
                let mut nearby: HashSet<AlarmType> = alarms.clone();
                for &nbr in topo.neighbors(d) {
                    if let Some(other) = per_device.get(&nbr) {
                        nearby.extend(other.iter().copied());
                    }
                }
                for &a in alarms {
                    *n.entry(a).or_insert(0) += 1;
                    for &b in &nearby {
                        if a != b {
                            *co.entry((a, b)).or_insert(0) += 1;
                        }
                    }
                }
            }
            i = j;
        }
        Self { n, co }
    }

    /// `P̂(b nearby | a)`.
    fn conditional(&self, a: AlarmType, b: AlarmType) -> f64 {
        let co = self.co.get(&(a, b)).copied().unwrap_or(0) as f64;
        let n = self.n.get(&a).copied().unwrap_or(0).max(1) as f64;
        co / n
    }

    /// Resolves the causal orientation of an unordered pair: the cause
    /// is the alarm that is more reliably present when the other fires.
    pub fn orient(&self, a: AlarmType, b: AlarmType) -> (AlarmType, AlarmType) {
        if self.conditional(b, a) >= self.conditional(a, b) {
            (a, b)
        } else {
            (b, a)
        }
    }
}

/// The ACOR baseline (Fournier-Viger et al., 2020): models the log as a
/// dynamic attributed graph and scores every alarm pair independently by
/// a correlation measure over windowed co-occurrences on the same or
/// adjacent devices. Direction: the alarm whose occurrences are more
/// often accompanied by the other is taken as the cause (importance).
pub fn acor_rank(topo: &TelecomTopology, events: &[AlarmEvent], window_ms: u64) -> RankedPairs {
    let stats = PairStats::collect(topo, events, window_ms);
    let (n, co) = (&stats.n, &stats.co);

    // One directed rule per unordered pair: direction by conditional
    // asymmetry, score by the cosine-style correlation.
    let mut out: RankedPairs = Vec::new();
    let mut seen: HashSet<(AlarmType, AlarmType)> = HashSet::new();
    for (&(a, b), &cab) in co {
        let key = (a.min(b), a.max(b));
        if !seen.insert(key) {
            continue;
        }
        let cba = co.get(&(b, a)).copied().unwrap_or(0);
        let (na, nb) = (n[&a] as f64, n[&b] as f64);
        let corr = (cab.max(cba) as f64) / (na * nb).sqrt();
        let (cause, derivative) = stats.orient(a, b);
        out.push(PairRule {
            cause,
            derivative,
            score: corr,
        });
    }
    out.sort_by(|l, r| {
        r.score
            .partial_cmp(&l.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| (l.cause, l.derivative).cmp(&(r.cause, r.derivative)))
    });
    out
}

/// CSPM-based ranking (§VI-D): mines a-stars from the windowed dynamic
/// attributed graph (cause = core, derivatives = leaves) and splits each
/// a-star into pair rules, preserving the code-length ranking ("the
/// rankings and scores of all alarm rules are maintained").
///
/// Both orientations of a pair usually surface (adjacency is symmetric,
/// so the joint frequency is too); unordered pairs are deduplicated at
/// their best rank and the causal orientation is resolved by the same
/// conditional-asymmetry rule ACOR uses ([`PairStats::orient`]): the
/// cause is the alarm that is (nearly) always present when the other
/// fires. CSPM's contribution — the *ranking* — comes purely from the
/// MDL code lengths.
pub fn cspm_rank(topo: &TelecomTopology, events: &[AlarmEvent], window_ms: u64) -> RankedPairs {
    let wg = build_window_graph(topo, events, window_ms);
    let result = mine(&wg.graph, Variant::Partial, CspmConfig::default());
    let attrs = wg.graph.attrs();
    let stats = PairStats::collect(topo, events, window_ms);

    let mut out: RankedPairs = Vec::new();
    let mut seen: HashSet<(AlarmType, AlarmType)> = HashSet::new();
    // Model a-stars come sorted by ascending code length (best first).
    for mined in result.model.astars() {
        let cores: Vec<AlarmType> = mined
            .astar
            .coreset()
            .iter()
            .filter_map(|&a| parse_alarm_attr(attrs.name(a)?))
            .collect();
        for &core in &cores {
            for &leaf_attr in mined.astar.leafset() {
                let Some(name) = attrs.name(leaf_attr) else {
                    continue;
                };
                let Some(leaf) = parse_alarm_attr(name) else {
                    continue;
                };
                if leaf == core {
                    continue;
                }
                if seen.insert((core.min(leaf), core.max(leaf))) {
                    let (cause, derivative) = stats.orient(core, leaf);
                    out.push(PairRule {
                        cause,
                        derivative,
                        score: -mined.code_len,
                    });
                }
            }
        }
    }
    out
}

/// Coverage ratio (Fig. 8): `|A ∩ top-K(B)| / |A|` for each requested K,
/// where `A` is the valid rule set.
pub fn coverage_curve(
    valid: &[(AlarmType, AlarmType)],
    ranked: &RankedPairs,
    ks: &[usize],
) -> Vec<(usize, f64)> {
    let valid_set: HashSet<(AlarmType, AlarmType)> = valid.iter().copied().collect();
    let mut curve = Vec::with_capacity(ks.len());
    for &k in ks {
        let hits = ranked
            .iter()
            .take(k)
            .filter(|p| valid_set.contains(&(p.cause, p.derivative)))
            .count();
        curve.push((k, hits as f64 / valid_set.len().max(1) as f64));
    }
    curve
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::RuleLibrary;
    use crate::simulator::{simulate, SimConfig};

    fn scenario() -> (TelecomTopology, RuleLibrary, Vec<AlarmEvent>, u64) {
        let topo = TelecomTopology::generate(3, 8, 40, 5);
        let rules = RuleLibrary::generate(5, 12, 40, 6);
        let cfg = SimConfig {
            n_events: 4000,
            n_windows: 60,
            ..Default::default()
        };
        let events = simulate(&topo, &rules, &cfg);
        (topo, rules, events, cfg.window_ms)
    }

    #[test]
    fn acor_recovers_most_valid_rules() {
        let (topo, rules, events, w) = scenario();
        let ranked = acor_rank(&topo, &events, w);
        let valid = rules.pair_rules();
        let curve = coverage_curve(&valid, &ranked, &[ranked.len()]);
        assert!(curve[0].1 >= 0.8, "ACOR final coverage {}", curve[0].1);
    }

    #[test]
    fn cspm_recovers_most_valid_rules() {
        let (topo, rules, events, w) = scenario();
        let ranked = cspm_rank(&topo, &events, w);
        let valid = rules.pair_rules();
        let curve = coverage_curve(&valid, &ranked, &[ranked.len()]);
        assert!(curve[0].1 >= 0.8, "CSPM final coverage {}", curve[0].1);
    }

    #[test]
    fn cspm_ranks_valid_rules_earlier_than_acor() {
        // The Fig. 8 claim, measured as area under the coverage curve.
        let (topo, rules, events, w) = scenario();
        let valid = rules.pair_rules();
        let ks: Vec<usize> = (1..=40).map(|i| i * 10).collect();
        let acor = coverage_curve(&valid, &acor_rank(&topo, &events, w), &ks);
        let cspm = coverage_curve(&valid, &cspm_rank(&topo, &events, w), &ks);
        let auc = |c: &[(usize, f64)]| c.iter().map(|&(_, v)| v).sum::<f64>();
        assert!(
            auc(&cspm) >= auc(&acor) * 0.95,
            "CSPM AUC {} vs ACOR AUC {}",
            auc(&cspm),
            auc(&acor)
        );
    }

    #[test]
    fn coverage_is_monotone_in_k() {
        let (topo, rules, events, w) = scenario();
        let ranked = acor_rank(&topo, &events, w);
        let curve = coverage_curve(&rules.pair_rules(), &ranked, &[5, 20, 50, 100, 200]);
        for pair in curve.windows(2) {
            assert!(pair[1].1 >= pair[0].1);
        }
    }

    #[test]
    fn coverage_handles_empty_inputs() {
        let curve = coverage_curve(&[], &Vec::new(), &[10]);
        assert_eq!(curve, vec![(10, 0.0)]);
    }
}
