//! Shared harness utilities for the experiment binaries.
//!
//! Every table and figure of the paper has a dedicated binary in
//! `src/bin/`, named after it (`table2_datasets`, `fig5_update_ratio`,
//! …). All binaries accept:
//!
//! * `--paper` — run at the paper's Table II scale (slow; Pokec is 1.6M
//!   vertices). Default is the `Small` scale with identical structure.
//! * `--seed <u64>` — generator seed (default 2022).
//!
//! `bench_engine` additionally accepts `--input <dump>` (with the
//! `real-data` feature) to benchmark real dataset fixtures, recording
//! the parse phase separately from the merge loops; `bench_compare`
//! gates CI on merge-loop regressions against the committed
//! `BENCH_engine.json`.
//!
//! # Example
//!
//! ```
//! use cspm_bench::{fmt_secs, HarnessArgs};
//!
//! let args = HarnessArgs::default();
//! assert_eq!(args.seed, 2022);
//! assert_eq!(fmt_secs(0.25), "0.250s");
//! assert_eq!(fmt_secs(150.0), "2.5min");
//! ```

use cspm_datasets::Scale;

/// Parsed common CLI options.
#[derive(Debug, Clone, Copy)]
pub struct HarnessArgs {
    /// Requested generation scale.
    pub scale: Scale,
    /// Generator seed.
    pub seed: u64,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        Self {
            scale: Scale::Small,
            seed: 2022,
        }
    }
}

/// Parses `--paper`, `--tiny` and `--seed N` from `std::env::args`.
pub fn parse_args() -> HarnessArgs {
    let mut out = HarnessArgs::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--paper" => out.scale = Scale::Paper,
            "--tiny" => out.scale = Scale::Tiny,
            "--seed" => {
                out.seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--seed needs an integer");
            }
            other => panic!("unknown argument '{other}' (expected --paper, --tiny, --seed N)"),
        }
    }
    out
}

/// Prints a horizontal rule sized to `width`.
pub fn hr(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Formats seconds human-readably.
pub fn fmt_secs(s: f64) -> String {
    if s < 1.0 {
        format!("{:.3}s", s)
    } else if s < 120.0 {
        format!("{:.2}s", s)
    } else {
        format!("{:.1}min", s / 60.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let a = HarnessArgs::default();
        assert_eq!(a.scale, Scale::Small);
        assert_eq!(a.seed, 2022);
    }

    #[test]
    fn fmt_secs_ranges() {
        assert_eq!(fmt_secs(0.5), "0.500s");
        assert_eq!(fmt_secs(5.0), "5.00s");
        assert_eq!(fmt_secs(180.0), "3.0min");
    }
}
