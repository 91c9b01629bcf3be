//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only here, around the benchmark's own calls into
//! each layer's public functions. Each span keeps its name, start, end,
//! parent and cycle id; the whole set is written out once, after the
//! run. A disabled tracer records nothing, so untraced runs pay only a
//! branch per call site.

use std::io::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Seconds since the tracer's epoch.
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub cycle: u64,
    /// Which recording thread (client) produced the span.
    pub thread: usize,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Handle of an open span; closed with [`Tracer::exit`].
#[must_use]
pub struct Open(Option<usize>);

pub struct Tracer {
    on: bool,
    epoch: Instant,
    thread: usize,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant, thread: usize) -> Self {
        Self {
            on,
            epoch,
            thread,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// An empty tracer on the same clock for another recording thread.
    pub fn fork(&self, thread: usize) -> Tracer {
        Tracer::new(self.on, self.epoch, thread)
    }

    fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64()
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, cycle: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let start = self.at(Instant::now());
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
            cycle,
            thread: self.thread,
        });
        let id = self.spans.len() - 1;
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn exit(&mut self, open: Open) {
        if let Some(id) = open.0 {
            self.spans[id].end = self.at(Instant::now());
            let popped = self.stack.pop();
            debug_assert_eq!(popped, Some(id), "spans must close innermost first");
        }
    }

    /// Records an already finished interval as a child of the innermost
    /// open span (observer callbacks are timed first, filed afterwards).
    pub fn record(&mut self, name: &'static str, cycle: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        self.spans.push(Span {
            name,
            start: self.at(start),
            end: self.at(end),
            parent: self.stack.last().copied(),
            cycle,
            thread: self.thread,
        });
    }

    /// Moves another thread's spans into this tracer.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.secs() * 1e3)
            .collect()
    }

    /// Each span's self time: its duration minus the union of the
    /// intervals its children cover.
    pub fn self_secs(&self) -> Vec<f64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut iv: Vec<(f64, f64)> = children[i]
                    .iter()
                    .map(|&c| {
                        (
                            self.spans[c].start.max(s.start),
                            self.spans[c].end.min(s.end),
                        )
                    })
                    .filter(|(a, b)| b > a)
                    .collect();
                iv.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut covered = 0.0;
                let mut reach = s.start;
                for (a, b) in iv {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.secs() - covered).max(0.0)
            })
            .collect()
    }

    /// Share of the time spent in spans called `root` that leaf spans
    /// below them account for: 1.0 means every microsecond of every
    /// cycle is inside some innermost measured call.
    pub fn coverage(&self, root: &str) -> f64 {
        let selfs = self.self_secs();
        let mut has_child = vec![false; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                has_child[p] = true;
            }
        }
        let under_root = |mut i: usize| loop {
            match self.spans[i].parent {
                Some(p) if self.spans[p].name == root => return true,
                Some(p) => i = p,
                None => return false,
            }
        };
        let total: f64 = self
            .spans
            .iter()
            .filter(|s| s.name == root)
            .map(Span::secs)
            .sum();
        let leaves: f64 = (0..self.spans.len())
            .filter(|&i| !has_child[i] && under_root(i))
            .map(|i| selfs[i])
            .sum();
        if total > 0.0 {
            leaves / total
        } else {
            0.0
        }
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let selfs = self.self_secs();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"self_s\":{},\
                 \"parent\":{parent},\"cycle\":{},\"thread\":{}}}",
                s.name, s.start, s.end, selfs[i], s.cycle, s.thread
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_and_coverage() {
        let epoch = Instant::now();
        let mut t = Tracer::new(true, epoch, 0);
        let at = |ms: u64| epoch + Duration::from_millis(ms);
        let root = t.enter("cycle", 1);
        t.record("leaf", 1, at(0), at(2));
        t.record("leaf", 1, at(1), at(3));
        t.exit(root);
        // Force the root's interval to a known width.
        t.spans[0].start = 0.0;
        t.spans[0].end = 0.004;
        let selfs = t.self_secs();
        assert!((selfs[0] - 0.001).abs() < 1e-9, "{selfs:?}");
        assert!((t.coverage("cycle") - 1.0).abs() < 1e-9);
        assert_eq!(t.ms("leaf").len(), 2);
    }

    #[test]
    fn disabled_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 0);
        let o = t.enter("x", 0);
        t.exit(o);
        assert!(t.spans().is_empty());
    }
}
