//! `cell`: one table IV cell — ActiveIter-100 under the paper's
//! ConflictQuery at θ = 50, γ = 0.6, two fold rotations — on a
//! `paper_scale(3282)` world (the paper's Table II anchor count).
//!
//! The timed run calls `eval::run_experiment`. The traced run replays the
//! same cell call by call — `SessionBuilder::count`, `featurize`,
//! `ActiveLoop::{new, converge, select_queries}` — on the same fold pool
//! as `run_experiment`, and checks that it reproduces the cell's per-fold
//! metrics exactly.

use crate::{host, mean, ms, repeat_setup, Opts, Outcome, SETUP_REPEATS};
use activeiter::driver::ActiveLoop;
use activeiter::query::ConflictQuery;
use activeiter::{ModelConfig, Oracle, VecOracle};
use datagen::GeneratedWorld;
use eval::{
    effective_threads, run_experiment, Confusion, ExperimentSpec, LinkSet, Method, Metrics,
};
use hetnet::AnchorLink;
use metadiagram::{plan_dag, run_dag, Catalog, CountEngine, Threading};
use perfbench::report::complete;
use perfbench::report::{Metric, END_TO_END, PER_LAYER};
use perfbench::stats::{median, Tally};
use session::SessionBuilder;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Anchored users of the cell's world (Table II).
pub const PAPER_SHARED: usize = 3282;
/// The table IV column.
pub const THETA: usize = 50;
/// The table IV row.
pub const GAMMA: f64 = 0.6;
/// Fold rotations per cell.
pub const ROTATIONS: usize = 2;
/// Query budget of ActiveIter-100.
pub const BUDGET: usize = 100;
/// Cells timed at least, however short the run.
const MIN_CELLS: usize = 3;

/// The cell's inputs.
pub struct Inputs {
    /// The generated world.
    pub world: GeneratedWorld,
    /// The cell's link set.
    pub ls: LinkSet,
    /// The experiment spec.
    pub spec: ExperimentSpec,
}

/// The method the cell runs.
pub const METHOD: Method = Method::ActiveIter { budget: BUDGET };

/// Generates the world and the link set.
pub fn setup(opts: &Opts) -> Inputs {
    let cfg = opts.world_config(PAPER_SHARED);
    let spec = ExperimentSpec {
        np_ratio: crate::feasible_np_ratio(&cfg, THETA),
        sample_ratio: GAMMA,
        n_folds: 10,
        rotations: ROTATIONS,
        seed: opts.seed,
        threads: opts.workers,
    };
    let world = datagen::generate(&cfg);
    let ls = LinkSet::build(&world, spec.np_ratio, spec.n_folds, spec.seed);
    Inputs { world, ls, spec }
}

fn cell_ok(per_fold: &[Metrics], reference: &[Metrics]) -> bool {
    per_fold == reference
        && per_fold
            .iter()
            .all(|m| m.f1.is_finite() && (0.0..=1.0).contains(&m.f1))
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Outcome {
    let (inputs, setup_s) = repeat_setup(SETUP_REPEATS, || setup(opts));
    let mut tally = Tally::default();
    // Warm-up: the first cell pays page faults and allocator growth.
    let warm = run_experiment(&inputs.world, &inputs.spec, METHOD);
    let f1 = warm.f1.mean;
    tally.check(warm.per_fold.len() == ROTATIONS && f1 > 0.0, || {
        format!("warm-up cell: {} folds, F1 {f1}", warm.per_fold.len())
    });
    if opts.trace {
        return traced(opts, &inputs, &warm.per_fold, tally);
    }
    let mut walls = Vec::new();
    let start = Instant::now();
    while walls.len() < MIN_CELLS || start.elapsed() < opts.budget() {
        let t = Instant::now();
        let cell = run_experiment(&inputs.world, &inputs.spec, METHOD);
        walls.push(t.elapsed().as_secs_f64());
        tally.check(cell_ok(&cell.per_fold, &warm.per_fold), || {
            format!(
                "cell {} per-fold metrics differ from the warm-up cell",
                walls.len()
            )
        });
    }
    let cell_s = median(&walls).expect("at least one cell");
    let ops = walls.len() as f64 / walls.iter().sum::<f64>();
    let metrics = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("op_p50_ms", cell_s * 1e3, "ms"),
        Metric::new("ops_per_s", ops, "1/s"),
        Metric::new("f1", f1, "score"),
        Metric::new("peak_rss_mb", host::peak_rss_mb(), "MB"),
    ];
    Outcome {
        tally,
        metrics: complete(END_TO_END, &metrics),
        detail: vec![
            Metric::new("cell_s", cell_s, "s"),
            Metric::new("f1", f1, "score"),
            Metric::new("cells", walls.len() as f64, "count"),
            Metric::new("candidates", inputs.ls.len() as f64, "count"),
        ],
    }
}

/// Layer time and work of one traced fold.
#[derive(Debug, Default, Clone, Copy)]
struct FoldSpans {
    count: Duration,
    featurize: Duration,
    ridge_factor: Duration,
    converge: Duration,
    select: Duration,
    inner_iters: usize,
    queried: usize,
    confirmed: usize,
}

impl FoldSpans {
    fn add(&mut self, o: &FoldSpans) {
        self.count += o.count;
        self.featurize += o.featurize;
        self.ridge_factor += o.ridge_factor;
        self.converge += o.converge;
        self.select += o.select;
        self.inner_iters += o.inner_iters;
        self.queried += o.queried;
        self.confirmed += o.confirmed;
    }

    fn layers(&self) -> Duration {
        self.count + self.featurize + self.ridge_factor + self.converge + self.select
    }
}

/// One fold of `eval::run_fold` for ActiveIter, call by call, timing each
/// call into a layer.
fn traced_fold(inputs: &Inputs, fold: usize, extract_threads: usize) -> (Metrics, FoldSpans) {
    let Inputs { world, ls, spec } = inputs;
    let mut spans = FoldSpans::default();
    let (train_pos, _) = ls.train_indices(fold, spec.sample_ratio, spec.seed);
    let anchors: Vec<AnchorLink> = train_pos
        .iter()
        .map(|&i| AnchorLink::new(ls.candidates[i].0, ls.candidates[i].1))
        .collect();
    let candidates = ls.candidates.clone();

    let t = Instant::now();
    let counted = SessionBuilder::new(world.left(), world.right())
        .anchors(anchors)
        .feature_set(METHOD.feature_set())
        .threading(Threading::Threads(extract_threads))
        .count()
        .expect("generated networks share attribute universes");
    spans.count = t.elapsed();
    let t = Instant::now();
    let session = counted.featurize(candidates);
    spans.featurize = t.elapsed();

    let oracle = VecOracle::new(ls.truth.clone());
    let config = ModelConfig {
        budget: METHOD.budget(),
        seed: spec.seed ^ (fold as u64) << 8,
        ..Default::default()
    };
    let mut strategy = ConflictQuery::new(config.similar_tau, config.margin_delta);
    let instance = session.instance(train_pos);
    let t = Instant::now();
    let mut drv = ActiveLoop::new(instance, config);
    spans.ridge_factor = t.elapsed();
    loop {
        let t = Instant::now();
        drv.converge();
        spans.converge += t.elapsed();
        if drv.remaining() == 0 {
            break;
        }
        let t = Instant::now();
        let selection = drv.select_queries(&mut strategy);
        spans.select += t.elapsed();
        if selection.is_empty() {
            break;
        }
        for idx in selection {
            let answer = oracle.label(idx);
            spans.queried += 1;
            spans.confirmed += usize::from(answer);
            drv.apply_answer(idx, answer);
        }
    }
    let report = drv.finish();
    spans.inner_iters = report.total_inner_iterations();
    (test_metrics(ls, fold, &report), spans)
}

/// `run_fold`'s scoring: the test folds with queried links removed
/// (§IV-B.3).
pub fn test_metrics(ls: &LinkSet, fold: usize, report: &activeiter::FitReport) -> Metrics {
    let queried: HashSet<usize> = report.queried.iter().map(|&(i, _)| i).collect();
    let eval_idx: Vec<usize> = ls
        .test_indices(fold)
        .into_iter()
        .filter(|i| !queried.contains(i))
        .collect();
    // srclint: allow(float_eq, reason = "labels are exact 0.0/1.0 sentinels")
    let pred: Vec<bool> = eval_idx.iter().map(|&i| report.labels[i] == 1.0).collect();
    let truth: Vec<bool> = eval_idx.iter().map(|&i| ls.truth[i]).collect();
    Confusion::from_predictions(&pred, &truth).metrics()
}

/// The traced cell on `run_experiment`'s fold pool: per-fold metrics in
/// fold order and the spans summed over folds.
fn traced_cell(inputs: &Inputs) -> (Vec<Metrics>, FoldSpans, usize) {
    let n_rot = inputs.spec.rotations.min(inputs.spec.n_folds);
    let budget = effective_threads(inputs.spec.threads);
    let fold_workers = budget.min(n_rot).max(1);
    let extract_threads = (budget / fold_workers).max(1);
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, Metrics, FoldSpans)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..fold_workers {
            scope.spawn(|| loop {
                let fold = next.fetch_add(1, Ordering::Relaxed);
                if fold >= n_rot {
                    break;
                }
                let (m, s) = traced_fold(inputs, fold, extract_threads);
                results.lock().expect("fold results").push((fold, m, s));
            });
        }
    });
    let mut results = results.into_inner().expect("fold results");
    results.sort_by_key(|r| r.0);
    let mut spans = FoldSpans::default();
    for r in &results {
        spans.add(&r.2);
    }
    (
        results.into_iter().map(|r| r.1).collect(),
        spans,
        fold_workers,
    )
}

/// Work counters of the full catalog count of fold 0's anchors, from a
/// `CountEngine` driven as `DeltaCatalogCounts::build` drives it: the
/// covering DAG, then one lookup per catalog entry.
pub fn count_counters(inputs: &Inputs) -> Vec<Metric> {
    let Inputs { world, ls, spec } = inputs;
    let (train_pos, _) = ls.train_indices(0, spec.sample_ratio, spec.seed);
    let anchors: Vec<AnchorLink> = train_pos
        .iter()
        .map(|&i| AnchorLink::new(ls.candidates[i].0, ls.candidates[i].1))
        .collect();
    count_counters_for(world, &anchors)
}

/// [`count_counters`] for any anchor set.
pub fn count_counters_for(world: &GeneratedWorld, anchors: &[AnchorLink]) -> Vec<Metric> {
    let a =
        hetnet::aligned::anchor_matrix(world.left().n_users(), world.right().n_users(), anchors)
            .expect("anchors lie inside the user populations");
    let engine = CountEngine::new(world.left(), world.right(), a)
        .expect("generated networks share attribute universes");
    let catalog = Catalog::new(METHOD.feature_set());
    run_dag(&plan_dag(&catalog.coverings()), 1, |idx| {
        let _ = engine.count(&catalog.entries()[idx].diagram);
    });
    let nnz: usize = catalog
        .entries()
        .iter()
        .map(|e| engine.count(&e.diagram).nnz())
        .sum();
    let s = engine.stats();
    let lookups = (s.cache_hits + s.cache_misses).max(1);
    vec![
        Metric::new("metadiagram.spgemm_calls", s.spgemm_calls as f64, "count"),
        Metric::new(
            "metadiagram.hadamard_calls",
            s.hadamard_calls as f64,
            "count",
        ),
        Metric::new(
            "metadiagram.cache_hit_ratio",
            s.cache_hits as f64 / lookups as f64,
            "ratio",
        ),
        Metric::new("metadiagram.count_nnz", nnz as f64, "count"),
    ]
}

/// The traced run: untraced and traced cells alternate; the layer times
/// are per cell, as busy time per fold worker.
fn traced(opts: &Opts, inputs: &Inputs, reference: &[Metrics], mut tally: Tally) -> Outcome {
    let mut layer = count_counters(inputs);
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut spans = FoldSpans::default();
    let mut workers = 1;
    let mut f1_traced = 0.0;
    let start = Instant::now();
    while traced.len() < 2 || start.elapsed() < opts.budget() {
        let t = Instant::now();
        let cell = run_experiment(&inputs.world, &inputs.spec, METHOD);
        plain.push(t.elapsed().as_secs_f64());
        tally.check(cell_ok(&cell.per_fold, reference), || {
            "untraced cell differs from the warm-up cell".into()
        });
        let t = Instant::now();
        let (per_fold, s, w) = traced_cell(inputs);
        traced.push(t.elapsed().as_secs_f64());
        spans.add(&s);
        workers = w;
        f1_traced = mean(&per_fold.iter().map(|m| m.f1).collect::<Vec<_>>());
        tally.check(per_fold == reference, || {
            format!("traced replica {per_fold:?} != run_fold {reference:?}")
        });
    }
    let f1 = mean(&reference.iter().map(|m| m.f1).collect::<Vec<_>>());
    // Per cell, per fold worker.
    let per = |d: Duration| ms(d) / traced.len() as f64 / workers as f64;
    let layers_ms = per(spans.layers());
    let wall_ms = mean(&traced) * 1e3;
    layer.extend([
        Metric::new("session.count_ms", per(spans.count), "ms"),
        Metric::new("session.featurize_ms", per(spans.featurize), "ms"),
        Metric::new("activeiter.ridge_factor_ms", per(spans.ridge_factor), "ms"),
        Metric::new("activeiter.converge_ms", per(spans.converge), "ms"),
        Metric::new("activeiter.select_ms", per(spans.select), "ms"),
        Metric::new(
            "activeiter.inner_iters",
            spans.inner_iters as f64 / traced.len() as f64,
            "count",
        ),
        Metric::new(
            "activeiter.query_yield",
            spans.confirmed as f64 / spans.queried.max(1) as f64,
            "ratio",
        ),
        Metric::new("cell.layers_ms", layers_ms, "ms"),
        Metric::new("cell.unattributed_ms", wall_ms - layers_ms, "ms"),
        Metric::new(
            "overhead.op_p50_ms",
            (median(&traced).unwrap_or(0.0) - median(&plain).unwrap_or(0.0)) * 1e3,
            "ms",
        ),
        Metric::new(
            "overhead.ops_per_s",
            traced.len() as f64 / traced.iter().sum::<f64>()
                - plain.len() as f64 / plain.iter().sum::<f64>(),
            "1/s",
        ),
        Metric::new("overhead.f1", f1_traced - f1, "score"),
    ]);
    Outcome {
        tally,
        metrics: complete(PER_LAYER, &layer),
        detail: vec![
            Metric::new("traced_cell_ms", wall_ms, "ms"),
            Metric::new("untraced_cell_ms", mean(&plain) * 1e3, "ms"),
            Metric::new("fold_workers", workers as f64, "count"),
            Metric::new("cells", traced.len() as f64, "count"),
        ],
    }
}
