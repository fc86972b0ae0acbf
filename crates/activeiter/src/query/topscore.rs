//! Top-score ablation: query the highest-scored currently-negative links —
//! the naive version of "find false negatives" that ignores the conflict
//! structure. The ablation bench shows what the conflict conditions add.

use super::{QueryContext, QueryStrategy};
use crate::ord::{cmp_scores_desc, top_k_by};

/// Queries the highest-scored candidates currently labeled negative.
#[derive(Debug, Clone, Default)]
pub struct TopScoreQuery;

impl QueryStrategy for TopScoreQuery {
    fn name(&self) -> &'static str {
        "topscore"
    }

    fn select(&mut self, ctx: &QueryContext<'_>) -> Vec<usize> {
        let ranked: Vec<usize> = (0..ctx.candidates.len())
            // srclint: allow(float_eq, reason = "labels are exact 0.0/1.0 sentinels assigned by the driver, never computed")
            .filter(|&i| ctx.queryable[i] && ctx.labels[i] == 0.0)
            .collect();
        top_k_by(ranked, ctx.batch, |&a, &b| {
            cmp_scores_desc(ctx.scores[a], ctx.scores[b]).then(a.cmp(&b))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::{assert_valid_selection, testutil};
    use super::*;

    #[test]
    fn picks_best_scored_negatives() {
        let f = testutil::fixture();
        // Negatives are 1 (.78) and 4 (.10).
        let mut s = TopScoreQuery;
        let sel = s.select(&f.ctx(1));
        assert_eq!(sel, vec![1]);
        let sel2 = s.select(&f.ctx(5));
        assert_eq!(sel2, vec![1, 4]);
        assert_valid_selection(&sel2, &f.ctx(5));
    }

    #[test]
    fn ignores_positives() {
        let f = testutil::fixture();
        let mut s = TopScoreQuery;
        let sel = s.select(&f.ctx(5));
        assert!(!sel.contains(&0));
        assert!(!sel.contains(&3));
    }
}
