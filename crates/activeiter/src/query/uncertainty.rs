//! Uncertainty sampling ablation: query the links whose scores sit closest
//! to the decision threshold. The classic active-learning heuristic — the
//! ablation benchmark contrasts it with the paper's conflict strategy,
//! which additionally exploits the one-to-one constraint structure.

use super::{QueryContext, QueryStrategy};
use crate::ord::{cmp_scores_asc, top_k_by};

/// Queries the candidates with the smallest `|ŷ − threshold|`, where the
/// threshold is the model's current decision boundary (from the context).
#[derive(Debug, Clone, Default)]
pub struct UncertaintyQuery;

impl QueryStrategy for UncertaintyQuery {
    fn name(&self) -> &'static str {
        "uncertainty"
    }

    fn select(&mut self, ctx: &QueryContext<'_>) -> Vec<usize> {
        let ranked: Vec<(usize, f64)> = (0..ctx.candidates.len())
            .filter(|&i| ctx.queryable[i])
            .map(|i| (i, (ctx.scores[i] - ctx.threshold).abs()))
            .collect();
        top_k_by(ranked, ctx.batch, |a, b| {
            cmp_scores_asc(a.1, b.1).then(a.0.cmp(&b.0))
        })
        .into_iter()
        .map(|(i, _)| i)
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::super::{assert_valid_selection, testutil};
    use super::*;

    #[test]
    fn picks_closest_to_threshold() {
        let f = testutil::fixture();
        // Scores: .80 .78 .30 .95 .10 → distances from .5: .30 .28 .20 .45 .40
        let mut s = UncertaintyQuery;
        let sel = s.select(&f.ctx(2));
        assert_eq!(sel, vec![2, 1]);
        assert_valid_selection(&sel, &f.ctx(2));
    }

    #[test]
    fn respects_queryable() {
        let mut f = testutil::fixture();
        f.queryable[2] = false;
        let mut s = UncertaintyQuery;
        assert_eq!(s.select(&f.ctx(1)), vec![1]);
    }

    #[test]
    fn deterministic_ties() {
        let f = testutil::fixture();
        let mut s = UncertaintyQuery;
        assert_eq!(s.select(&f.ctx(3)), s.select(&f.ctx(3)));
    }
}
