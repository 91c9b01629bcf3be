//! Order statistics over samples and over scraped Prometheus histograms.

/// The `q`-quantile (0..=1) of `samples` by linear interpolation between
/// closest ranks; `NaN` when there are no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// 0 for an empty slice, so an absent layer reports as zero work.
pub fn median_or_zero(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        median(samples)
    }
}

/// One histogram series out of a Prometheus text exposition: cumulative
/// `(upper bound, count)` buckets, `+Inf` last.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Buckets(pub Vec<(f64, f64)>);

impl Buckets {
    /// Parses the `<family>_bucket{<labels>le="…"}` lines of one series.
    /// `labels` is the label text before `le`, e.g. `op="mine",`.
    pub fn parse(exposition: &str, family: &str, labels: &str) -> Buckets {
        let prefix = format!("{family}_bucket{{{labels}le=\"");
        let mut out = Vec::new();
        for line in exposition.lines() {
            let Some(rest) = line.strip_prefix(prefix.as_str()) else {
                continue;
            };
            let Some((le, count)) = rest.split_once("\"} ") else {
                continue;
            };
            let bound = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().unwrap_or(f64::NAN)
            };
            out.push((bound, count.trim().parse().unwrap_or(0.0)));
        }
        Buckets(out)
    }

    /// The observations added between `earlier` and `self` (two scrapes
    /// of the same series).
    pub fn since(&self, earlier: &Buckets) -> Buckets {
        Buckets(
            self.0
                .iter()
                .enumerate()
                .map(|(i, &(b, c))| (b, c - earlier.0.get(i).map_or(0.0, |e| e.1)))
                .collect(),
        )
    }

    pub fn count(&self) -> f64 {
        self.0.last().map_or(0.0, |b| b.1)
    }

    /// The `histogram_quantile` estimate: linear inside the bucket that
    /// holds the rank; the last finite bound for the `+Inf` bucket.
    /// `NaN` when the series is empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total <= 0.0 {
            return f64::NAN;
        }
        let rank = (q * total).ceil().max(1.0);
        let (mut lower, mut prev) = (0.0, 0.0);
        for &(bound, count) in &self.0 {
            if count >= rank {
                if bound.is_infinite() {
                    return lower;
                }
                return lower + (bound - lower) * ((rank - prev) / (count - prev));
            }
            prev = count;
            lower = bound;
        }
        lower
    }
}

/// The value of an unlabelled counter or gauge sample, 0 when absent.
pub fn scalar(exposition: &str, name: &str) -> f64 {
    exposition
        .lines()
        .find_map(|line| {
            let (key, value) = line.split_once(' ')?;
            (key == name).then(|| value.trim().parse().ok()).flatten()
        })
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), 2.5);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn buckets_parse_and_diff() {
        let text = "x_bucket{op=\"mine\",le=\"0.001\"} 1\n\
                    x_bucket{op=\"mine\",le=\"0.002\"} 3\n\
                    x_bucket{op=\"mine\",le=\"+Inf\"} 4\n\
                    x_total 7\n";
        let b = Buckets::parse(text, "x", "op=\"mine\",");
        assert_eq!(b.count(), 4.0);
        assert_eq!(b.quantile(0.5), 0.0015);
        assert_eq!(b.quantile(1.0), 0.002);
        assert_eq!(b.since(&b).count(), 0.0);
        assert_eq!(scalar(text, "x_total"), 7.0);
    }
}
