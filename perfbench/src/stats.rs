//! Percentiles and failure accounting.
//!
//! Tails follow the ten-beyond rule: a percentile is reported only when at
//! least [`MIN_BEYOND`] samples lie beyond it, so p90 needs at least
//! [`MIN_TAIL_SAMPLES`] samples and is refused below that.

use std::fmt;

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Fewest samples a p90 is reported from (`MIN_BEYOND / (1 - 0.9)`).
pub const MIN_TAIL_SAMPLES: usize = 100;

/// Median of `xs` (mean of the middle pair for an even count); `None`
/// when `xs` is empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let s = sorted(xs);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

/// Why a tail percentile was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooFewSamples {
    /// Samples available.
    pub have: usize,
    /// Samples the requested percentile needs.
    pub need: usize,
}

impl fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} samples, need at least {}", self.have, self.need)
    }
}

/// Nearest-rank percentile `q` (in `(0, 1)`) of `xs`, refused unless at
/// least [`MIN_BEYOND`] samples lie beyond its rank.
pub fn tail(xs: &[f64], q: f64) -> Result<f64, TooFewSamples> {
    assert!(q > 0.0 && q < 1.0, "percentile must lie in (0, 1)");
    let n = xs.len();
    let beyond = |n: usize| n - rank(q, n);
    if n == 0 || beyond(n) < MIN_BEYOND {
        let mut need = n + 1;
        while beyond(need) < MIN_BEYOND {
            need += 1;
        }
        return Err(TooFewSamples { have: n, need });
    }
    Ok(sorted(xs)[rank(q, n).max(1) - 1])
}

/// Nearest rank `ceil(q n)` of percentile `q` among `n` samples, immune
/// to `q n` landing a rounding error above an integer.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64) - 1e-9).ceil().max(0.0) as usize
}

/// p90 under the ten-beyond rule.
pub fn p90(xs: &[f64]) -> Result<f64, TooFewSamples> {
    tail(xs, 0.9)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Operations attempted and failed. A failed correctness check counts as
/// a failed operation; a run is correct only when nothing failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted, checks included.
    pub attempted: u64,
    /// Operations that failed or whose output was wrong.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; returns `ok`.
    pub fn record(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        ok
    }

    /// Counts one checked operation and reports a failure on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            eprintln!("check failed: {}", what());
        }
        self.record(ok)
    }

    /// Adds another tally's counts.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// True when at least one operation ran and none failed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}
