//! The engine layer, timed from outside: a `ProgressObserver` passed to
//! `MiningSession::run_with` marks every accepted merge, and the gaps
//! between the marks become the engine's phase spans.

use std::ops::ControlFlow;
use std::time::Instant;

use cspm_core::{CspmResult, IterationStat, MiningSession, ProgressObserver};

use crate::stats;
use crate::trace::Tracer;
use crate::Phase;

/// Marks the time of every accepted merge.
#[derive(Default)]
struct EngineClock {
    marks: Vec<Instant>,
}

impl ProgressObserver for EngineClock {
    fn on_iteration(&mut self, _stat: &IterationStat) -> ControlFlow<()> {
        self.marks.push(Instant::now());
        ControlFlow::Continue(())
    }
}

/// `session.run_with` inside a `span` span, with the engine's phases
/// filed as children: `engine.seed` (run start to the first merge:
/// pristine clone, pair enumeration, seed scoring), `engine.step` (one
/// per gap between merges: Algorithm-4 upkeep, pop, merge) and
/// `engine.tail` (last merge to return: model extraction).
pub fn clocked_run(
    tr: &mut Tracer,
    span: &'static str,
    cycle: u64,
    session: &mut MiningSession,
) -> CspmResult {
    let open = tr.enter(span, cycle);
    let mut clock = EngineClock::default();
    let start = Instant::now();
    let result = session
        .run_with(&mut clock)
        .expect("benchmark sessions are loaded before they run");
    let end = Instant::now();
    let mut prev = start;
    for (i, &mark) in clock.marks.iter().enumerate() {
        tr.record(
            if i == 0 { "engine.seed" } else { "engine.step" },
            cycle,
            prev,
            mark,
        );
        prev = mark;
    }
    if clock.marks.is_empty() {
        tr.record("engine.seed", cycle, start, end);
    } else {
        tr.record("engine.tail", cycle, prev, end);
    }
    tr.exit(open);
    result
}

/// Files the engine-layer metrics from the spans `clocked_run` left.
pub fn engine_layers(phase: &mut Phase) {
    let seed = phase.tracer.ms("engine.seed");
    let step = phase.tracer.ms("engine.step");
    let tail = phase.tracer.ms("engine.tail");
    phase.layer("engine.seed_s", stats::median_or_zero(&seed) / 1e3);
    phase.layer("engine.step_ms_p50", stats::quantile(&step, 0.5));
    phase.layer("engine.step_ms_p90", stats::quantile(&step, 0.9));
    phase.layer("engine.tail_s", stats::median_or_zero(&tail) / 1e3);
}

/// Engine work counts of one run.
pub fn engine_counts(r: &CspmResult) -> [(&'static str, f64); 3] {
    [
        ("engine.merges", r.merges as f64),
        ("engine.gain_evals", r.stats.total_gain_evals as f64),
        ("engine.pruned_pairs", r.stats.pruned_pairs as f64),
    ]
}
