//! NaN-safe score ordering, shared by every ranked selection in this
//! crate.
//!
//! Scores come out of floating-point model evaluations; a degenerate
//! feature vector can make one NaN, and `partial_cmp(..).expect(..)`
//! inside a `sort_by` then takes down the whole selection round — the
//! incident fixed in `eval` (PR 2), fixed again in [`crate::greedy`]
//! (PR 4), and reintroduced twice more before `srclint` started gating
//! it (`docs/LINTS.md`, `nan_unsafe_comparator`). These comparators are
//! total: every real score outranks NaN, and NaNs tie among themselves.

use std::cmp::Ordering;

/// Descending score order with NaN **last**: any real score outranks
/// NaN. The canonical ranking order ("best first").
pub(crate) fn cmp_scores_desc(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater, // NaN sorts after b
        (false, true) => Ordering::Less,
        (false, false) => b.total_cmp(&a),
    }
}

/// Ascending order with NaN **last**: any real value sorts before NaN
/// (for "smallest distance first" rankings).
pub(crate) fn cmp_scores_asc(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater, // NaN sorts after b
        (false, true) => Ordering::Less,
        (false, false) => a.total_cmp(&b),
    }
}

/// The first `k` items of `items` under `cmp`, in order — what a full
/// sort followed by `truncate(k)` returns, for `O(n + k log k)` work:
/// `select_nth_unstable_by` moves the `k` best to the front in linear time
/// and only that prefix is sorted.
///
/// `cmp` must be a total order that never ties two distinct items (every
/// ranked selection here breaks score ties by candidate index); otherwise
/// which of several equal items survive the cut is unspecified.
pub(crate) fn top_k_by<T>(
    mut items: Vec<T>,
    k: usize,
    mut cmp: impl FnMut(&T, &T) -> Ordering,
) -> Vec<T> {
    if k == 0 {
        items.clear();
    } else if k < items.len() {
        items.select_nth_unstable_by(k - 1, &mut cmp);
        items.truncate(k);
    }
    items.sort_unstable_by(cmp);
    items
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn desc_ranks_real_scores_first() {
        let mut v = [0.2, f64::NAN, 0.9, 0.5];
        v.sort_by(|a, b| cmp_scores_desc(*a, *b));
        assert_eq!(v[..3], [0.9, 0.5, 0.2]);
        assert!(v[3].is_nan());
    }

    #[test]
    fn asc_ranks_real_scores_first() {
        let mut v = [0.2, f64::NAN, 0.9, 0.5];
        v.sort_by(|a, b| cmp_scores_asc(*a, *b));
        assert_eq!(v[..3], [0.2, 0.5, 0.9]);
        assert!(v[3].is_nan());
    }

    /// Full sort then truncate: the reference `top_k_by` must equal.
    fn sorted_prefix(mut v: Vec<(usize, f64)>, k: usize) -> Vec<(usize, f64)> {
        v.sort_by(by_score_then_index);
        v.truncate(k);
        v
    }

    fn by_score_then_index(a: &(usize, f64), b: &(usize, f64)) -> Ordering {
        cmp_scores_desc(a.1, b.1).then(a.0.cmp(&b.0))
    }

    fn bits(v: &[(usize, f64)]) -> Vec<(usize, u64)> {
        v.iter().map(|&(i, s)| (i, s.to_bits())).collect()
    }

    #[test]
    fn top_k_of_all_equal_keys_keeps_the_lowest_indices() {
        let v: Vec<(usize, f64)> = (0..20).rev().map(|i| (i, 0.5)).collect();
        for k in 0..=21 {
            let got = top_k_by(v.clone(), k, by_score_then_index);
            let want: Vec<(usize, f64)> = (0..k.min(20)).map(|i| (i, 0.5)).collect();
            assert_eq!(got, want, "k = {k}");
        }
        // Without an index tie-break any k of the equal items may survive,
        // but exactly k come back.
        let got = top_k_by(v, 7, |a, b| cmp_scores_desc(a.1, b.1));
        assert_eq!(got.len(), 7);
        assert!(got.iter().all(|&(_, s)| s == 0.5));
    }

    #[test]
    fn top_k_matches_sort_then_truncate_at_every_k() {
        let scores = [0.3, f64::NAN, 0.7, 0.3, -0.0, 0.0, 0.7, f64::NAN, 1.0, -1.0];
        let v: Vec<(usize, f64)> = scores.iter().copied().enumerate().collect();
        // k = 0, every k up to the length, past it, and unbounded.
        for k in (0..=scores.len() + 1).chain([usize::MAX]) {
            let got = top_k_by(v.clone(), k, by_score_then_index);
            assert_eq!(bits(&got), bits(&sorted_prefix(v.clone(), k)), "k = {k}");
        }
        for k in [0, 3] {
            assert!(top_k_by(Vec::<(usize, f64)>::new(), k, by_score_then_index).is_empty());
        }
    }

    #[test]
    fn both_are_total_orders_over_nan() {
        for cmp in [cmp_scores_desc, cmp_scores_asc] {
            assert_eq!(cmp(f64::NAN, f64::NAN), Ordering::Equal);
            assert_eq!(cmp(f64::NAN, 1.0), Ordering::Greater);
            assert_eq!(cmp(1.0, f64::NAN), Ordering::Less);
        }
    }
}
