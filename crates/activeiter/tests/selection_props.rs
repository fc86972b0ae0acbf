//! Property tests for the ranked selections: every query strategy that
//! keeps its best `k` by partial selection, and the dense-table greedy
//! matcher, must return exactly what the straightforward implementation
//! returns — a full sort truncated to the batch, and hash-set bookkeeping
//! — on random instances full of exact ties, NaN, ±0.0 and users shared by
//! many candidates.

use activeiter::greedy::greedy_select;
use activeiter::query::{
    ConflictQuery, QueryContext, QueryStrategy, TopScoreQuery, UncertaintyQuery,
};
use hetnet::UserId;
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};

// ---------------------------------------------------------------------
// Reference implementations: full sorts and hash maps.
// ---------------------------------------------------------------------

fn desc(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        (false, false) => b.total_cmp(&a),
    }
}

fn asc(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        (false, false) => a.total_cmp(&b),
    }
}

fn conflict_reference(ctx: &QueryContext<'_>, tau: f64, delta: f64, fallback: bool) -> Vec<usize> {
    let mut left_pos: HashMap<u32, usize> = HashMap::new();
    let mut right_pos: HashMap<u32, usize> = HashMap::new();
    for (i, &lab) in ctx.labels.iter().enumerate() {
        if lab == 1.0 {
            left_pos.insert(ctx.candidates[i].0 .0, i);
            right_pos.insert(ctx.candidates[i].1 .0, i);
        }
    }
    let tau = tau * ctx.positive_scale;
    let delta = delta * ctx.positive_scale;
    let (mut tier1, mut tier2, mut tier3) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..ctx.candidates.len() {
        if !ctx.queryable[i] || ctx.labels[i] == 1.0 {
            continue;
        }
        let (l, r) = ctx.candidates[i];
        let yi = ctx.scores[i];
        let cl = left_pos.get(&l.0).copied();
        let cr = right_pos.get(&r.0).copied();
        let mut best_gain: Option<f64> = None;
        if let (Some(cl), Some(cr)) = (cl, cr) {
            if cl != cr {
                for (near, far) in [(cl, cr), (cr, cl)] {
                    let closeness = (ctx.scores[near] - yi).abs();
                    let gain = yi - ctx.scores[far];
                    if closeness <= tau && gain > delta && ctx.scores[far] > 0.0 {
                        best_gain = Some(best_gain.map_or(gain, |g: f64| g.max(gain)));
                    }
                }
            }
        }
        if let Some(g) = best_gain {
            tier1.push((i, g));
            continue;
        }
        let near_one_side = [cl, cr]
            .into_iter()
            .flatten()
            .any(|w| (ctx.scores[w] - yi).abs() <= tau && yi > 0.0);
        if near_one_side {
            tier2.push((i, yi));
        } else {
            tier3.push((i, yi));
        }
    }
    let mut tiers = vec![tier1];
    if fallback {
        tiers.push(tier2);
        tiers.push(tier3);
    }
    let mut out = Vec::new();
    let mut seen = HashSet::new();
    for mut tier in tiers {
        tier.sort_by(|a, b| desc(a.1, b.1).then(a.0.cmp(&b.0)));
        for (i, _) in tier {
            if out.len() < ctx.batch && seen.insert(i) {
                out.push(i);
            }
        }
    }
    out
}

fn uncertainty_reference(ctx: &QueryContext<'_>) -> Vec<usize> {
    let mut ranked: Vec<(usize, f64)> = (0..ctx.candidates.len())
        .filter(|&i| ctx.queryable[i])
        .map(|i| (i, (ctx.scores[i] - ctx.threshold).abs()))
        .collect();
    ranked.sort_by(|a, b| asc(a.1, b.1).then(a.0.cmp(&b.0)));
    ranked.truncate(ctx.batch);
    ranked.into_iter().map(|(i, _)| i).collect()
}

fn topscore_reference(ctx: &QueryContext<'_>) -> Vec<usize> {
    let mut ranked: Vec<usize> = (0..ctx.candidates.len())
        .filter(|&i| ctx.queryable[i] && ctx.labels[i] == 0.0)
        .collect();
    ranked.sort_by(|&a, &b| desc(ctx.scores[a], ctx.scores[b]).then(a.cmp(&b)));
    ranked.truncate(ctx.batch);
    ranked
}

fn greedy_reference(
    scores: &[f64],
    candidates: &[(UserId, UserId)],
    fixed_pos: &[usize],
    fixed_neg: &[usize],
    threshold: f64,
) -> (Vec<f64>, f64) {
    let mut labels = vec![0.0; candidates.len()];
    let mut left_used: HashSet<u32> = HashSet::new();
    let mut right_used: HashSet<u32> = HashSet::new();
    let mut fixed: HashSet<usize> = fixed_neg.iter().copied().collect();
    for &i in fixed_pos {
        labels[i] = 1.0;
        left_used.insert(candidates[i].0 .0);
        right_used.insert(candidates[i].1 .0);
        fixed.insert(i);
    }
    let mut order: Vec<usize> = (0..candidates.len())
        .filter(|i| !fixed.contains(i) && scores[*i] > threshold)
        .collect();
    order.sort_by(|&a, &b| desc(scores[a], scores[b]).then(a.cmp(&b)));
    let mut weight = 0.0;
    for i in order {
        let (l, r) = candidates[i];
        if !left_used.contains(&l.0) && !right_used.contains(&r.0) {
            labels[i] = 1.0;
            left_used.insert(l.0);
            right_used.insert(r.0);
            weight += 2.0 * scores[i] - 1.0;
        }
    }
    (labels, weight)
}

// ---------------------------------------------------------------------
// Instances.
// ---------------------------------------------------------------------

/// Scores drawn mostly from a small palette so exact ties, NaN and both
/// zeros are common; the rest are on a 1/1000 grid (ties again).
const PALETTE: [f64; 10] = [0.0, -0.0, f64::NAN, 0.3, 0.5, 0.78, 0.8, 0.9, 1.0, -0.2];

const THRESHOLDS: [f64; 4] = [0.5, 0.3, 0.0, f64::NAN];
const SCALES: [f64; 3] = [1.0, 0.5, 0.0];
const MARGINS: [f64; 4] = [0.0, 0.05, 0.2, 1.0];

#[derive(Debug, Clone)]
struct World {
    candidates: Vec<(UserId, UserId)>,
    scores: Vec<f64>,
    labels: Vec<f64>,
    queryable: Vec<bool>,
    fixed_pos: Vec<usize>,
    fixed_neg: Vec<usize>,
    threshold: f64,
    positive_scale: f64,
}

impl World {
    fn ctx(&self, batch: usize) -> QueryContext<'_> {
        QueryContext {
            scores: &self.scores,
            labels: &self.labels,
            candidates: &self.candidates,
            queryable: &self.queryable,
            threshold: self.threshold,
            positive_scale: self.positive_scale,
            batch,
        }
    }

    /// Batch sizes to try: none, one, the paper's 5, a few more, the whole
    /// pool and past it.
    fn batches(&self) -> [usize; 6] {
        let n = self.candidates.len();
        [0, 1, 5, 7, n, n + 3]
    }
}

/// Up to `max_links` distinct candidate pairs over `users` users per side;
/// a small `users` makes many candidates share each user. Per link: a
/// score, a random 0/1 label, queryable with probability 0.7, and fixed
/// positive / negative / both / free.
fn world(max_links: usize, users: u32) -> impl Strategy<Value = World> {
    let link = (
        0..users,
        0..users,
        0..20usize,
        0..1000u32,
        any::<bool>(),
        0..10u32,
        0..12u32,
    );
    (
        proptest::collection::vec(link, 0..max_links),
        0..THRESHOLDS.len(),
        0..SCALES.len(),
    )
        .prop_map(|(links, t, s)| {
            let mut seen = HashSet::new();
            let mut w = World {
                candidates: Vec::new(),
                scores: Vec::new(),
                labels: Vec::new(),
                queryable: Vec::new(),
                fixed_pos: Vec::new(),
                fixed_neg: Vec::new(),
                threshold: THRESHOLDS[t],
                positive_scale: SCALES[s],
            };
            for (l, r, code, fine, label, q, fixed) in links {
                if !seen.insert((l, r)) {
                    continue;
                }
                let i = w.candidates.len();
                w.candidates.push((UserId(l), UserId(r)));
                w.scores
                    .push(PALETTE.get(code).copied().unwrap_or(fine as f64 / 1000.0));
                w.labels.push(if label { 1.0 } else { 0.0 });
                w.queryable.push(q < 7);
                if fixed == 0 || fixed == 2 {
                    w.fixed_pos.push(i);
                }
                if fixed == 1 || fixed == 2 {
                    w.fixed_neg.push(i);
                }
            }
            w
        })
}

/// `world` with the labels replaced by a greedy matching, as the driver
/// hands them to the query step: at most one positive per user.
fn matched_world(max_links: usize, users: u32) -> impl Strategy<Value = World> {
    world(max_links, users).prop_map(|mut w| {
        w.labels = greedy_select(&w.scores, &w.candidates, &[], &[], w.threshold).labels;
        w
    })
}

fn any_world() -> impl Strategy<Value = World> {
    prop_oneof![
        world(40, 5),
        world(120, 200),
        matched_world(40, 5),
        matched_world(120, 30),
    ]
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    #[test]
    fn conflict_query_equals_full_sort(
        w in any_world(),
        tau in 0..MARGINS.len(),
        delta in 0..MARGINS.len(),
    ) {
        let (tau, delta) = (MARGINS[tau], MARGINS[delta]);
        for batch in w.batches() {
            let ctx = w.ctx(batch);
            for (mut s, fallback) in [
                (ConflictQuery::new(tau, delta), true),
                (ConflictQuery::strict(tau, delta), false),
            ] {
                prop_assert_eq!(
                    s.select(&ctx),
                    conflict_reference(&ctx, tau, delta, fallback),
                    "fallback {} batch {}",
                    fallback,
                    batch
                );
            }
        }
    }

    #[test]
    fn uncertainty_query_equals_full_sort(w in any_world()) {
        for batch in w.batches() {
            let ctx = w.ctx(batch);
            prop_assert_eq!(UncertaintyQuery.select(&ctx), uncertainty_reference(&ctx));
        }
    }

    #[test]
    fn topscore_query_equals_full_sort(w in any_world()) {
        for batch in w.batches() {
            let ctx = w.ctx(batch);
            prop_assert_eq!(TopScoreQuery.select(&ctx), topscore_reference(&ctx));
        }
    }

    #[test]
    fn greedy_equals_hash_set_reference(w in any_world()) {
        for (pos, neg) in [
            (&w.fixed_pos[..], &w.fixed_neg[..]),
            (&[][..], &[][..]),
        ] {
            let sel = greedy_select(&w.scores, &w.candidates, pos, neg, w.threshold);
            let (labels, weight) = greedy_reference(&w.scores, &w.candidates, pos, neg, w.threshold);
            prop_assert_eq!(bits(&sel.labels), bits(&labels));
            prop_assert_eq!(sel.weight.to_bits(), weight.to_bits());
        }
    }
}
