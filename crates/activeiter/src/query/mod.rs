//! Active query strategies — external iteration step (2).
//!
//! Selecting the optimal query set outright is a `C(|U|, b)` combinatorial
//! search (§III-D), so ActiveIter queries greedily: `k` links per external
//! round until the budget is spent. The strategy decides *which* links; the
//! paper's [`ConflictQuery`] targets likely **false negatives** — negatives
//! squeezed out of the matching by a conflicting positive of nearly equal
//! score while clearly beating another conflicting positive. The other
//! strategies are the ActiveIter-Rand baseline and two ablations.
//!
//! **Cost of a selection.** A round looks at all `n` candidates but keeps
//! only `k = batch` of them. [`ConflictQuery`], [`UncertaintyQuery`] and
//! [`TopScoreQuery`] score the candidates in one pass and then take the
//! `k` best with a linear-time partial selection, sorting just those `k`:
//! `O(n + k log k)` per round, never a full `O(n log n)` sort. Score ties
//! break by candidate index, so the selection is exactly the first `k` of
//! the full ranking. [`RandomQuery`] shuffles its whole pool, `O(n)`.

mod conflict;
mod random;
mod topscore;
mod uncertainty;

pub use conflict::ConflictQuery;
pub use random::RandomQuery;
pub use topscore::TopScoreQuery;
pub use uncertainty::UncertaintyQuery;

use hetnet::UserId;

/// Everything a strategy may look at when picking queries.
#[derive(Debug)]
pub struct QueryContext<'a> {
    /// Current model scores `ŷ` per candidate.
    pub scores: &'a [f64],
    /// Current label assignment `y` per candidate (post greedy step).
    pub labels: &'a [f64],
    /// Candidate endpoints.
    pub candidates: &'a [(UserId, UserId)],
    /// Whether each candidate may be queried (unlabeled and not yet queried).
    pub queryable: &'a [bool],
    /// The acceptance threshold currently in effect (the model's decision
    /// boundary; uncertainty sampling centers on it).
    pub threshold: f64,
    /// Mean score of the currently known positive links — the scale the
    /// paper's absolute constants (τ = 0.05 etc.) implicitly assume to be
    /// ≈ 1. Strategies multiply their thresholds by this to stay
    /// scale-invariant.
    pub positive_scale: f64,
    /// Maximum number of selections this round (`min(k, remaining budget)`).
    pub batch: usize,
}

/// A query-set selection policy.
pub trait QueryStrategy {
    /// Strategy name for reports.
    fn name(&self) -> &'static str;

    /// Picks up to `ctx.batch` distinct queryable candidate indices.
    fn select(&mut self, ctx: &QueryContext<'_>) -> Vec<usize>;
}

/// Shared validation helper for strategies (and their tests): the selection
/// must be within budget, queryable, and duplicate-free.
pub fn assert_valid_selection(sel: &[usize], ctx: &QueryContext<'_>) {
    assert!(sel.len() <= ctx.batch, "selection exceeds batch");
    let mut seen = std::collections::HashSet::new();
    for &i in sel {
        assert!(ctx.queryable[i], "selected a non-queryable candidate {i}");
        assert!(seen.insert(i), "duplicate selection {i}");
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// A small fixture with two left users each facing a near-tie conflict.
    pub struct Fixture {
        pub scores: Vec<f64>,
        pub labels: Vec<f64>,
        pub candidates: Vec<(UserId, UserId)>,
        pub queryable: Vec<bool>,
    }

    impl Fixture {
        pub fn ctx(&self, batch: usize) -> QueryContext<'_> {
            QueryContext {
                scores: &self.scores,
                labels: &self.labels,
                candidates: &self.candidates,
                queryable: &self.queryable,
                threshold: 0.5,
                positive_scale: 1.0,
                batch,
            }
        }
    }

    /// Layout (left, right, score, label):
    /// 0: (0,0) 0.80 +  — the matched positive for left user 0
    /// 1: (0,1) 0.78 −  — near-tie loser (conflicts with 0 on the left,
    ///                    and with 3 on the right)
    /// 2: (1,2) 0.90 +  — the matched positive for left user 1
    /// 3: (1,1) 0.30 +  — a weak positive on right user 1's column? No —
    ///                    see below: (2,1) to conflict through right user 1.
    /// Re-labeled concretely in `fixture()`.
    pub fn fixture() -> Fixture {
        // Candidates: (left, right)
        // 0: (0,0) score .80 label + (winner on left user 0)
        // 1: (0,1) score .78 label − (lost to 0 narrowly; right user 1's
        //    winner is 2 with a much lower score .30 > 0)
        // 2: (2,1) score .30 label + (weak winner on right user 1)
        // 3: (3,3) score .95 label + (clean positive, no conflicts)
        // 4: (4,4) score .10 label − (hopeless negative)
        let candidates = vec![
            (UserId(0), UserId(0)),
            (UserId(0), UserId(1)),
            (UserId(2), UserId(1)),
            (UserId(3), UserId(3)),
            (UserId(4), UserId(4)),
        ];
        Fixture {
            scores: vec![0.80, 0.78, 0.30, 0.95, 0.10],
            labels: vec![1.0, 0.0, 1.0, 1.0, 0.0],
            candidates,
            queryable: vec![true, true, true, true, true],
        }
    }
}
