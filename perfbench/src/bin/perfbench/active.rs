//! `active`: the session-driven active loop, driven round by round the
//! way an interactive labeler drives it.
//!
//! World `paper_scale(1000)`, fold 0 at θ = 50, γ = 0.6, UncertaintyQuery
//! with query batch 5 and budget 500 (100 rounds). One round is
//! `select_queries`, the oracle's answers, `update_anchors`,
//! `replace_features` and the next `converge`: what a labeler waits for
//! between answering a batch and seeing the next one. The full count and
//! featurization happen in setup.
//!
//! A labeling session's round cost follows its query yield, which
//! differs from one world and training sample to the next, so a run
//! drives at least [`MIN_LOOPS`] sessions, session `i` on world `i` (0 is
//! the `--seed` world), and reports medians over all their rounds. Each
//! later session's world is generated, counted and featurized between
//! sessions, outside the timing.

use crate::cell::test_metrics;
use crate::{host, mean, ms, repeat_setup, Opts, Outcome, SETUP_REPEATS};
use activeiter::driver::ActiveLoop;
use activeiter::query::UncertaintyQuery;
use activeiter::{FitReport, ModelConfig, Oracle, VecOracle};
use datagen::GeneratedWorld;
use eval::{LinkSet, Metrics};
use hetnet::AnchorLink;
use metadiagram::delta::DeltaCatalogCounts;
use metadiagram::{Catalog, FeatureSet, Threading};
use perfbench::report::{complete, Metric, END_TO_END, PER_LAYER};
use perfbench::stats::{median, p90, Tally};
use session::{AlignmentSession, Featurized, RecountPolicy, SessionBuilder};
use std::time::{Duration, Instant};

/// Anchored users of the world.
pub const PAPER_SHARED: usize = 1000;
/// Query budget (100 rounds of 5).
pub const BUDGET: usize = 500;
/// Queries per round.
pub const BATCH: usize = 5;
/// Labeling sessions per untraced run, at least.
pub const MIN_LOOPS: usize = 8;
/// Labeling sessions per traced run, at least (each runs three times).
const MIN_TRACED_LOOPS: usize = 3;
/// The training fold.
pub const FOLD: usize = 0;

/// One labeling session's inputs.
pub struct Inputs {
    /// The generated world.
    pub world: GeneratedWorld,
    /// The link set (θ = 50, 10 folds).
    pub ls: LinkSet,
    /// Fold 0's γ-sampled training positives.
    pub train_pos: Vec<usize>,
    /// Their anchor links.
    pub anchors: Vec<AnchorLink>,
    /// The counted and featurized session every loop starts from.
    pub featurized: AlignmentSession<Featurized>,
    /// The loop's model config.
    pub config: ModelConfig,
    /// Time of the last setup's `count`.
    pub count_time: Duration,
    /// Time of the last setup's `featurize`.
    pub featurize_time: Duration,
}

/// Generates session `session`'s world and link set, and counts and
/// featurizes fold 0.
pub fn setup(opts: &Opts, session: u64) -> Inputs {
    let mut cfg = opts.world_config(PAPER_SHARED);
    cfg.seed ^= session.wrapping_mul(0x2545_f491_4f6c_dd1d);
    let seed = cfg.seed;
    let world = datagen::generate(&cfg);
    let ls = LinkSet::build(
        &world,
        crate::feasible_np_ratio(&cfg, crate::cell::THETA),
        10,
        seed,
    );
    let (train_pos, _) = ls.train_indices(FOLD, crate::cell::GAMMA, seed);
    let anchors: Vec<AnchorLink> = train_pos
        .iter()
        .map(|&i| AnchorLink::new(ls.candidates[i].0, ls.candidates[i].1))
        .collect();
    let t = Instant::now();
    let counted = SessionBuilder::new(world.left(), world.right())
        .anchors(anchors.clone())
        .threading(Threading::Threads(opts.workers))
        .count()
        .expect("generated networks share attribute universes");
    let count_time = t.elapsed();
    let t = Instant::now();
    let featurized = counted.featurize(ls.candidates.clone());
    let featurize_time = t.elapsed();
    let budget = match opts.scale {
        crate::Scale::Paper => BUDGET,
        crate::Scale::Tiny => 50,
    };
    let config = ModelConfig {
        budget,
        query_batch: BATCH,
        seed: seed ^ (FOLD as u64) << 8,
        ..Default::default()
    };
    Inputs {
        world,
        ls,
        train_pos,
        anchors,
        featurized,
        config,
        count_time,
        featurize_time,
    }
}

/// Adds the time since `t` to the span `pick` names, when tracing.
/// Timestamps are taken in both modes, so a traced loop differs from an
/// untraced one only by these additions and the shadow replay.
fn lap(
    trace: &mut Option<(&mut DeltaCatalogCounts, &mut Spans)>,
    t: Instant,
    pick: fn(&mut Spans) -> &mut Duration,
) {
    if let Some((_, s)) = trace.as_mut() {
        *pick(s) += t.elapsed();
    }
}

/// Layer time and work of one traced loop.
#[derive(Debug, Default, Clone, Copy)]
struct Spans {
    ridge_factor: Duration,
    select: Duration,
    update: Duration,
    replace: Duration,
    converge: Duration,
    recount: Duration,
    changed_counts: usize,
    touched_rows: usize,
    touched_cols: usize,
    anchors_applied: usize,
    queried: usize,
    confirmed: usize,
}

/// One active loop from `inputs.featurized`, returning the final fit and
/// each round's wall time in ms. With `shadow`, every call into a layer
/// is timed and each round's confirmed edges are replayed through the
/// shadow count store outside the round's wall time.
fn drive(
    inputs: &Inputs,
    mut shadow: Option<(&mut DeltaCatalogCounts, &mut Spans)>,
    tally: &mut Tally,
) -> (FitReport, Vec<f64>) {
    let mut session = inputs.featurized.clone();
    let oracle = VecOracle::new(inputs.ls.truth.clone());
    let mut strategy = UncertaintyQuery;
    let instance = session.instance(inputs.train_pos.clone());
    let t = Instant::now();
    let mut drv = ActiveLoop::new(instance, inputs.config.clone());
    let ridge = t.elapsed();
    drv.converge();
    let mut rounds = Vec::new();
    if let Some((_, s)) = shadow.as_mut() {
        s.ridge_factor += ridge;
    }
    while drv.remaining() > 0 {
        let start = Instant::now();
        let selection = drv.select_queries(&mut strategy);
        lap(&mut shadow, start, |s| &mut s.select);
        if selection.is_empty() {
            break;
        }
        let queried = selection.len();
        let mut confirmed = Vec::new();
        for idx in selection {
            let answer = oracle.label(idx);
            drv.apply_answer(idx, answer);
            if answer {
                let (l, r) = session.candidates()[idx];
                confirmed.push(AnchorLink::new(l, r));
            }
        }
        let t = Instant::now();
        let applied = if confirmed.is_empty() {
            0
        } else {
            session
                .update_anchors(&confirmed)
                .expect("confirmed candidates lie inside the user populations")
        };
        lap(&mut shadow, t, |s| &mut s.update);
        let t = Instant::now();
        if applied > 0 {
            drv.replace_features(&session.features().x);
        }
        lap(&mut shadow, t, |s| &mut s.replace);
        let t = Instant::now();
        drv.converge();
        lap(&mut shadow, t, |s| &mut s.converge);
        rounds.push(ms(start.elapsed()));
        tally.record(true);

        if let Some((store, s)) = shadow.as_mut() {
            s.queried += queried;
            s.confirmed += confirmed.len();
            if !confirmed.is_empty() {
                let t = Instant::now();
                let outcome = store
                    .update_anchors(&confirmed)
                    .expect("confirmed candidates lie inside the user populations");
                s.recount += t.elapsed();
                s.changed_counts += outcome.changed.len();
                for region in outcome.changed.iter().filter_map(|c| c.touched.as_ref()) {
                    s.touched_rows += region.rows.len();
                    s.touched_cols += region.cols.len();
                }
                s.anchors_applied += outcome.applied;
                tally.check(outcome.applied == applied, || {
                    format!(
                        "shadow store applied {} anchors, session {applied}",
                        outcome.applied
                    )
                });
            }
        }
    }
    (drv.finish(), rounds)
}

fn same_fit(a: &FitReport, b: &FitReport) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    bits(&a.labels) == bits(&b.labels) && bits(&a.scores) == bits(&b.scores)
}

/// `AlignmentSession::run_active` on the same inputs: the reference every
/// driven loop must match bit for bit.
fn reference(inputs: &Inputs) -> FitReport {
    let oracle = VecOracle::new(inputs.ls.truth.clone());
    let (_, report) = inputs
        .featurized
        .clone()
        .run_active(
            inputs.train_pos.clone(),
            &oracle,
            &mut UncertaintyQuery,
            &inputs.config,
            RecountPolicy::Delta,
        )
        .expect("confirmed candidates lie inside the user populations");
    report.fit
}

fn f1_of(inputs: &Inputs, fit: &FitReport) -> Metrics {
    test_metrics(&inputs.ls, FOLD, fit)
}

/// The inputs of session `i`: the first from setup, then one world each.
fn next_session(opts: &Opts, first: &mut Option<Inputs>, i: usize) -> Inputs {
    first.take().unwrap_or_else(|| setup(opts, i as u64))
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Outcome {
    let (first, setup_s) = repeat_setup(SETUP_REPEATS, || setup(opts, 0));
    if opts.trace {
        return traced(opts, first);
    }
    let mut tally = Tally::default();
    let (mut rounds, mut f1s) = (Vec::new(), Vec::new());
    let mut busy = 0.0;
    // One session per run, chosen by the seed, is checked against
    // `run_active` (which costs as much as the session); every session of
    // a traced run is.
    let checked = (opts.seed % MIN_LOOPS as u64) as usize;
    let first_len = first.ls.len();
    let mut first = Some(first);
    let mut i = 0;
    while i < MIN_LOOPS || busy < opts.seconds * 1e3 {
        let inputs = next_session(opts, &mut first, i);
        let (fit, r) = drive(&inputs, None, &mut tally);
        busy += r.iter().sum::<f64>();
        rounds.extend(r);
        tally.check(fit.queried.len() == inputs.config.budget, || {
            format!("session {i}: {} queries", fit.queried.len())
        });
        if i == checked {
            tally.check(same_fit(&fit, &reference(&inputs)), || {
                format!("session {i}: final labels/scores differ from run_active")
            });
        }
        if i < MIN_LOOPS {
            f1s.push(f1_of(&inputs, &fit).f1);
        }
        i += 1;
    }
    let f1 = mean(&f1s);
    let p50 = median(&rounds).unwrap_or(f64::NAN);
    let mut detail = vec![
        Metric::new("round_p50_ms", p50, "ms"),
        Metric::new("f1", f1, "score"),
        Metric::new("rounds", rounds.len() as f64, "count"),
        Metric::new("sessions", i as f64, "count"),
        Metric::new("candidates", first_len as f64, "count"),
    ];
    match p90(&rounds) {
        Ok(v) => detail.push(Metric::new("round_p90_ms", v, "ms")),
        Err(e) => eprintln!("round_p90_ms not reported: {e}"),
    }
    let metrics = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("op_p50_ms", p50, "ms"),
        Metric::new("ops_per_s", rounds.len() as f64 / (busy / 1e3), "1/s"),
        Metric::new("f1", f1, "score"),
        Metric::new("peak_rss_mb", host::peak_rss_mb(), "MB"),
    ];
    Outcome {
        tally,
        metrics: complete(END_TO_END, &metrics),
        detail,
    }
}

/// The traced run: per session, an untraced and a traced loop; layer
/// times are per round.
fn traced(opts: &Opts, first: Inputs) -> Outcome {
    let mut tally = Tally::default();
    let mut spans = Spans::default();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut f1_plain, mut f1_traced) = (Vec::new(), Vec::new());
    let mut inner = 0usize;
    let (count, featurize) = (first.count_time, first.featurize_time);
    let counters = crate::cell::count_counters_for(&first.world, &first.anchors);
    let mut first = Some(first);
    let mut i = 0;
    while i < MIN_TRACED_LOOPS || traced.iter().sum::<f64>() < opts.seconds * 1e3 {
        let inputs = next_session(opts, &mut first, i);
        let want = reference(&inputs);
        let (fit, r) = drive(&inputs, None, &mut tally);
        plain.extend(r);
        f1_plain.push(f1_of(&inputs, &fit).f1);
        tally.check(same_fit(&fit, &want), || {
            "untraced loop differs from run_active".into()
        });
        // The shadow count store: the session's counts before any round.
        let (left, right) = (inputs.world.left(), inputs.world.right());
        let a = hetnet::aligned::anchor_matrix(left.n_users(), right.n_users(), &inputs.anchors)
            .expect("anchors lie inside the user populations");
        let mut store = DeltaCatalogCounts::build(
            left,
            right,
            a,
            &Catalog::new(FeatureSet::Full),
            Threading::Threads(opts.workers),
        )
        .expect("generated networks share attribute universes");
        let (fit, r) = drive(&inputs, Some((&mut store, &mut spans)), &mut tally);
        traced.extend(r);
        f1_traced.push(f1_of(&inputs, &fit).f1);
        tally.check(same_fit(&fit, &want), || {
            "traced loop differs from run_active".into()
        });
        inner += fit.total_inner_iterations();
        i += 1;
    }
    let n = traced.len().max(1) as f64;
    let per = |d: Duration| ms(d) / n;
    let layers = spans.select + spans.update + spans.replace + spans.converge;
    let rate = |v: &[f64]| v.len() as f64 / (v.iter().sum::<f64>() / 1e3);
    let mut layer = counters;
    layer.extend([
        Metric::new("session.count_ms", ms(count), "ms"),
        Metric::new("session.featurize_ms", ms(featurize), "ms"),
        Metric::new(
            "activeiter.ridge_factor_ms",
            ms(spans.ridge_factor) / i as f64,
            "ms",
        ),
        Metric::new("activeiter.select_ms", per(spans.select), "ms"),
        Metric::new("session.update_ms", per(spans.update), "ms"),
        Metric::new("metadiagram.recount_ms", per(spans.recount), "ms"),
        Metric::new(
            "session.refresh_ms",
            per(spans.update) - per(spans.recount),
            "ms",
        ),
        Metric::new("activeiter.replace_ms", per(spans.replace), "ms"),
        Metric::new("activeiter.converge_ms", per(spans.converge), "ms"),
        Metric::new("activeiter.inner_iters", inner as f64 / n, "count"),
        Metric::new(
            "activeiter.query_yield",
            spans.confirmed as f64 / spans.queried.max(1) as f64,
            "ratio",
        ),
        Metric::new(
            "metadiagram.changed_counts",
            spans.changed_counts as f64 / n,
            "count",
        ),
        Metric::new(
            "metadiagram.touched_rows",
            spans.touched_rows as f64 / n,
            "count",
        ),
        Metric::new(
            "metadiagram.touched_cols",
            spans.touched_cols as f64 / n,
            "count",
        ),
        Metric::new(
            "metadiagram.anchors_applied",
            spans.anchors_applied as f64 / n,
            "count",
        ),
        Metric::new("active.layers_ms", per(layers), "ms"),
        Metric::new("active.unattributed_ms", mean(&traced) - per(layers), "ms"),
        Metric::new(
            "overhead.op_p50_ms",
            median(&traced).unwrap_or(0.0) - median(&plain).unwrap_or(0.0),
            "ms",
        ),
        Metric::new("overhead.ops_per_s", rate(&traced) - rate(&plain), "1/s"),
        Metric::new("overhead.f1", mean(&f1_traced) - mean(&f1_plain), "score"),
    ]);
    let mut detail = vec![
        Metric::new("traced_round_p50_ms", median(&traced).unwrap_or(0.0), "ms"),
        Metric::new("untraced_round_p50_ms", median(&plain).unwrap_or(0.0), "ms"),
        Metric::new("sessions", i as f64, "count"),
    ];
    if let (Ok(t), Ok(u)) = (p90(&traced), p90(&plain)) {
        detail.push(Metric::new("overhead.round_p90_ms", t - u, "ms"));
    }
    Outcome {
        tally,
        metrics: complete(PER_LAYER, &layer),
        detail,
    }
}
