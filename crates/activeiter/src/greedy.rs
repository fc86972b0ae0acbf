//! Greedy cardinality-constrained link selection — internal iteration step
//! (1-2).
//!
//! With `w` fixed, minimizing `‖ŷ − y‖²` over binary `y` under the
//! one-to-one degree constraints `0 ≤ A⁽¹⁾y ≤ 1`, `0 ≤ A⁽²⁾y ≤ 1` is an
//! integer program; assigning `y_l = 1` is worth `2ŷ_l − 1`, so the problem
//! is maximum-weight bipartite matching over the links with `ŷ_l` above the
//! break-even 0.5. The paper adopts the **greedy algorithm of Zhang et al.
//! (WSDM'17)**, which scans links by descending score and accepts any link
//! whose two endpoints are still free — a ½-approximation of the optimum
//! (property-tested here against an exact matcher).
//!
//! **Cost.** `O(n + m log m)` per call, where `n` is the number of
//! candidates and `m` the number of free links above threshold: one pass
//! builds the above-threshold list, which is fully sorted because the
//! greedy scan needs the whole order. The fixed-link set and the
//! used-endpoint sets are boolean tables indexed by candidate and by user
//! id (a dense index, so a table has one entry per user), and every
//! membership test is one array read. The driver calls this on every inner
//! iteration.

use crate::ord::cmp_scores_desc;
use hetnet::UserId;

/// Result of a greedy selection round.
#[derive(Debug, Clone, PartialEq)]
pub struct Selection {
    /// Binary label per candidate (1.0 selected / fixed positive).
    pub labels: Vec<f64>,
    /// Total matching weight `Σ (2ŷ − 1)` over *freely* selected links.
    pub weight: f64,
}

/// Greedy selection under the one-to-one constraint.
///
/// * `scores` — current `ŷ` per candidate;
/// * `candidates` — endpoints per candidate;
/// * `fixed_pos` — indices whose label is fixed to 1 (labeled `L⁺` and
///   positively-queried links). Their endpoints are saturated first, which
///   is how "if one incident anchor link is positive the rest are negative
///   by default" enters the optimization;
/// * `fixed_neg` — indices whose label is fixed to 0 (negatively-queried);
/// * `threshold` — acceptance threshold on `ŷ` (0.5 in the paper).
///
/// Indices in `fixed_pos` and `fixed_neg` must be below `candidates.len()`.
pub fn greedy_select(
    scores: &[f64],
    candidates: &[(UserId, UserId)],
    fixed_pos: &[usize],
    fixed_neg: &[usize],
    threshold: f64,
) -> Selection {
    assert_eq!(scores.len(), candidates.len(), "score per candidate");
    let mut labels = vec![0.0; candidates.len()];
    let Endpoints {
        fixed,
        mut left_used,
        mut right_used,
    } = Endpoints::new(candidates, fixed_pos, fixed_neg);
    for &i in fixed_pos {
        labels[i] = 1.0;
    }

    // Free links above threshold, by descending score with NaN last (as
    // `eval::ranking` orders reports — a NaN score from a degenerate fit
    // must not poison the order or panic a sweep); ties break by index for
    // determinism.
    let mut order: Vec<usize> = (0..candidates.len())
        .filter(|&i| !fixed[i] && scores[i] > threshold)
        .collect();
    order.sort_by(|&a, &b| cmp_scores_desc(scores[a], scores[b]).then(a.cmp(&b)));

    let mut weight = 0.0;
    for i in order {
        let (l, r) = candidates[i];
        if !left_used[l.index()] && !right_used[r.index()] {
            labels[i] = 1.0;
            left_used[l.index()] = true;
            right_used[r.index()] = true;
            weight += 2.0 * scores[i] - 1.0;
        }
    }
    Selection { labels, weight }
}

/// The fixed-link mask and the endpoints the fixed positives saturate, as
/// boolean tables indexed by candidate and by user id.
struct Endpoints {
    fixed: Vec<bool>,
    left_used: Vec<bool>,
    right_used: Vec<bool>,
}

impl Endpoints {
    fn new(candidates: &[(UserId, UserId)], fixed_pos: &[usize], fixed_neg: &[usize]) -> Self {
        let (lefts, rights) = candidates.iter().fold((0, 0), |(nl, nr), &(l, r)| {
            (nl.max(l.index() + 1), nr.max(r.index() + 1))
        });
        let mut e = Endpoints {
            fixed: vec![false; candidates.len()],
            left_used: vec![false; lefts],
            right_used: vec![false; rights],
        };
        for &i in fixed_neg {
            e.fixed[i] = true;
        }
        for &i in fixed_pos {
            let (l, r) = candidates[i];
            e.left_used[l.index()] = true;
            e.right_used[r.index()] = true;
            e.fixed[i] = true;
        }
        e
    }
}

/// Exact maximum-weight matching by exhaustive search — exponential, tests
/// only. Considers the same link set the greedy considers (free links above
/// `threshold`, endpoints not saturated by `fixed_pos`).
pub fn optimal_select(
    scores: &[f64],
    candidates: &[(UserId, UserId)],
    fixed_pos: &[usize],
    fixed_neg: &[usize],
    threshold: f64,
) -> f64 {
    let Endpoints {
        fixed,
        mut left_used,
        mut right_used,
    } = Endpoints::new(candidates, fixed_pos, fixed_neg);
    let free: Vec<usize> = (0..candidates.len())
        .filter(|&i| {
            !fixed[i]
                && scores[i] > threshold
                && !left_used[candidates[i].0.index()]
                && !right_used[candidates[i].1.index()]
        })
        .collect();
    assert!(free.len() <= 20, "exact matcher is for tiny tests only");

    fn rec(
        free: &[usize],
        pos: usize,
        scores: &[f64],
        candidates: &[(UserId, UserId)],
        left: &mut [bool],
        right: &mut [bool],
    ) -> f64 {
        if pos == free.len() {
            return 0.0;
        }
        let skip = rec(free, pos + 1, scores, candidates, left, right);
        let i = free[pos];
        let (l, r) = (candidates[i].0.index(), candidates[i].1.index());
        if left[l] || right[r] {
            return skip;
        }
        left[l] = true;
        right[r] = true;
        let take = 2.0 * scores[i] - 1.0 + rec(free, pos + 1, scores, candidates, left, right);
        left[l] = false;
        right[r] = false;
        skip.max(take)
    }
    rec(
        &free,
        0,
        scores,
        candidates,
        &mut left_used,
        &mut right_used,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;
    use std::collections::HashMap;

    fn c(pairs: &[(u32, u32)]) -> Vec<(UserId, UserId)> {
        pairs.iter().map(|&(l, r)| (UserId(l), UserId(r))).collect()
    }

    #[test]
    fn selects_best_per_user() {
        // User 0 has two candidates; the higher-scored wins.
        let cands = c(&[(0, 0), (0, 1), (1, 1)]);
        let scores = vec![0.9, 0.7, 0.8];
        let sel = greedy_select(&scores, &cands, &[], &[], 0.5);
        assert_eq!(sel.labels, vec![1.0, 0.0, 1.0]);
    }

    #[test]
    fn one_to_one_always_holds() {
        let cands = c(&[(0, 0), (0, 1), (1, 0), (1, 1)]);
        let scores = vec![0.9, 0.8, 0.85, 0.7];
        let sel = greedy_select(&scores, &cands, &[], &[], 0.5);
        let mut l_deg = HashMap::new();
        let mut r_deg = HashMap::new();
        for (i, &lab) in sel.labels.iter().enumerate() {
            if lab == 1.0 {
                *l_deg.entry(cands[i].0).or_insert(0) += 1;
                *r_deg.entry(cands[i].1).or_insert(0) += 1;
            }
        }
        assert!(l_deg.values().all(|&d| d <= 1));
        assert!(r_deg.values().all(|&d| d <= 1));
        // 0.9 picks (0,0); (1,1) remains for user 1 at 0.7.
        assert_eq!(sel.labels, vec![1.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn threshold_blocks_low_scores() {
        let cands = c(&[(0, 0), (1, 1)]);
        let scores = vec![0.4, 0.500001];
        let sel = greedy_select(&scores, &cands, &[], &[], 0.5);
        assert_eq!(sel.labels, vec![0.0, 1.0]);
    }

    #[test]
    fn fixed_positives_saturate_endpoints() {
        let cands = c(&[(0, 0), (0, 1), (2, 1)]);
        let scores = vec![0.1, 0.99, 0.99];
        // (0,0) is a labeled positive: user 0 and right-user 0 are taken.
        let sel = greedy_select(&scores, &cands, &[0], &[], 0.5);
        assert_eq!(sel.labels[0], 1.0);
        assert_eq!(sel.labels[1], 0.0, "conflicts with fixed positive on left");
        assert_eq!(sel.labels[2], 1.0);
    }

    #[test]
    fn fixed_negatives_are_never_selected() {
        let cands = c(&[(0, 0)]);
        let scores = vec![0.99];
        let sel = greedy_select(&scores, &cands, &[], &[0], 0.5);
        assert_eq!(sel.labels, vec![0.0]);
    }

    #[test]
    fn deterministic_tie_break() {
        let cands = c(&[(0, 0), (1, 1), (0, 1)]);
        let scores = vec![0.8, 0.8, 0.8];
        let a = greedy_select(&scores, &cands, &[], &[], 0.5);
        let b = greedy_select(&scores, &cands, &[], &[], 0.5);
        assert_eq!(a, b);
        // Lower index wins the tie.
        assert_eq!(a.labels, vec![1.0, 1.0, 0.0]);
    }

    #[test]
    fn nan_scores_never_poison_selection_or_panic() {
        // A NaN score sits between two real candidates sharing endpoints
        // with it; selection must ignore it (NaN > threshold is false) and
        // the real scores must keep their descending order.
        let cands = c(&[(0, 0), (0, 1), (1, 1), (2, 2)]);
        let scores = vec![0.9, f64::NAN, 0.8, f64::NAN];
        let sel = greedy_select(&scores, &cands, &[], &[], 0.5);
        assert_eq!(sel.labels, vec![1.0, 0.0, 1.0, 0.0]);
        // The comparator itself orders NaN last and never panics.
        assert_eq!(cmp_scores_desc(1.0, 0.5), Ordering::Less);
        assert_eq!(
            cmp_scores_desc(f64::NAN, f64::NEG_INFINITY),
            Ordering::Greater
        );
        assert_eq!(cmp_scores_desc(f64::NEG_INFINITY, f64::NAN), Ordering::Less);
        assert_eq!(cmp_scores_desc(f64::NAN, f64::NAN), Ordering::Equal);
        // Even a NaN threshold (every comparison false) must not panic —
        // nothing passes the filter, nothing is selected.
        let sel = greedy_select(&scores, &cands, &[], &[], f64::NAN);
        assert!(sel.labels.iter().all(|&l| l == 0.0));
    }

    #[test]
    fn empty_input() {
        let sel = greedy_select(&[], &[], &[], &[], 0.5);
        assert!(sel.labels.is_empty());
        assert_eq!(sel.weight, 0.0);
    }

    #[test]
    fn greedy_weight_at_least_half_optimal_on_adversarial_case() {
        // Classic ½-approx adversarial shape: greedy grabs the 0.8 edge,
        // blocking two 0.79 edges.
        let cands = c(&[(0, 0), (1, 0), (0, 1)]);
        let scores = vec![0.80, 0.79, 0.79];
        let sel = greedy_select(&scores, &cands, &[], &[], 0.5);
        let opt = optimal_select(&scores, &cands, &[], &[], 0.5);
        assert!(sel.weight >= 0.5 * opt - 1e-12);
        assert!(sel.weight < opt, "greedy is suboptimal here by design");
    }

    #[test]
    fn exact_matcher_small_case() {
        let cands = c(&[(0, 0), (1, 1)]);
        let scores = vec![0.9, 0.9];
        let opt = optimal_select(&scores, &cands, &[], &[], 0.5);
        assert!((opt - 1.6).abs() < 1e-12);
    }
}
