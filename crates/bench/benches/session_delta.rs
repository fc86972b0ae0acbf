//! Per-round recount cost of the session-driven active loop: the sparse
//! low-rank delta path (`C += L·ΔA·R`, region-exact stack re-combination
//! and touched-row/col Dice patching) against a full recount of the
//! anchor-dependent chains from the merged anchors, at several
//! confirmed-batch sizes and scales — plus the feature scheduler: a full
//! catalog proximity extraction fanned out over the dependency DAG against
//! a single worker.
//!
//! The acceptance bars: per-round wall-clock of the delta path no worse
//! than the full-recount path at any batch size, the DAG scheduler no
//! worse than one worker, and bit-identical results on every path
//! (asserted here on every scenario's setup against a fresh session over
//! the merged anchors).
//!
//! Besides the criterion groups, this bench writes
//! `BENCH_session_delta.json` so the perf gate can pair each fast path
//! with its from-scratch counterpart inside one run
//! (`perf_gate --paired region-exact:full-recount`, `dag:serial`) and
//! track every cell across runs:
//!
//! * `splice` — a delta round at the [`session::Counted`] stage (counting
//!   only), on `{scale}-b{n}` cells;
//! * `region-exact` / `full-recount` — a featurized delta round against a
//!   featurized full recount, on the same `{scale}-b{n}` cells;
//! * `dag` / `serial` — cold full-catalog proximity extraction at `n`
//!   workers against one worker, on `{scale}-t{n}` cells.
//!
//! Set `SESSION_DELTA_RECORD_ONLY=1` to skip the criterion groups and only
//! write the record (the CI perf-trajectory step does this).

use bench::record::BenchRecorder;
use criterion::{criterion_group, BatchSize, BenchmarkId, Criterion};
use eval::MetricSummary;
use hetnet::aligned::anchor_matrix;
use hetnet::AnchorLink;
use metadiagram::{proximity_matrices, Catalog, CountEngine, FeatureSet};
use session::SessionBuilder;
use sparsela::{CsrMatrix, Threading};
use std::time::{Duration, Instant};

struct Scenario {
    world: datagen::GeneratedWorld,
    train: Vec<AnchorLink>,
    held_out: Vec<AnchorLink>,
    candidates: Vec<(hetnet::UserId, hetnet::UserId)>,
}

fn scenario(cfg: &datagen::GeneratorConfig) -> Scenario {
    let world = datagen::generate(cfg);
    let links = world.truth().links().to_vec();
    let split = links.len() / 3;
    let candidates = links.iter().map(|l| (l.left, l.right)).collect();
    Scenario {
        train: links[..split].to_vec(),
        held_out: links[split..].to_vec(),
        world,
        candidates,
    }
}

/// One featurized session per scenario; measurements clone it per
/// iteration (sessions are value-like), so building is part of setup and
/// the clone overhead is identical in both arms.
fn open(s: &Scenario) -> session::AlignmentSession<session::Featurized> {
    open_counted(s).featurize(s.candidates.clone())
}

/// A [`session::Counted`] session over `s`'s training anchors — the stage
/// the `splice` cells measure, so counting is not diluted by the
/// downstream proximity refresh.
fn open_counted(s: &Scenario) -> session::AlignmentSession<session::Counted> {
    open_with(s, s.train.clone())
}

fn open_with(
    s: &Scenario,
    anchors: Vec<AnchorLink>,
) -> session::AlignmentSession<session::Counted> {
    SessionBuilder::new(s.world.left(), s.world.right())
        .anchors(anchors)
        .count()
        .expect("generated networks share attribute universes")
}

/// The delta round and the full recount must both land on the features a
/// fresh session over the merged anchors computes; only the cost differs.
fn assert_paths_agree(s: &Scenario) {
    let batch = &s.held_out[..5.min(s.held_out.len())];
    let mut delta = open(s);
    let mut full = open(s);
    delta.update_anchors(batch).unwrap();
    full.recount_anchors(batch).unwrap();
    let merged: Vec<AnchorLink> = s.train.iter().chain(batch).copied().collect();
    let fresh = open_with(s, merged).featurize(s.candidates.clone());
    assert_eq!(delta.features().x.data(), fresh.features().x.data());
    assert_eq!(full.features().x.data(), fresh.features().x.data());
    for i in 0..delta.catalog().len() {
        assert_eq!(delta.proximity_of(i), fresh.proximity_of(i));
    }
}

fn bench_round_recount(c: &mut Criterion) {
    let mut group = c.benchmark_group("session_round_recount");
    group.sample_size(10);
    for (scale, cfg) in [
        ("small", datagen::presets::small(5)),
        ("table4", datagen::presets::paper_scale(200, 5)),
    ] {
        let s = scenario(&cfg);
        assert_paths_agree(&s);
        let base = open(&s);
        for batch_size in [1usize, 5, 20] {
            let batch: Vec<AnchorLink> = s.held_out[..batch_size.min(s.held_out.len())].to_vec();
            // The session clone is per-iteration setup, not measured work
            // — timing it would dilute the delta-vs-full gap.
            group.bench_with_input(
                BenchmarkId::new(format!("delta/b{batch_size}"), scale),
                &(),
                |b, _| {
                    b.iter_batched(
                        || base.clone(),
                        |mut session| session.update_anchors(&batch).unwrap(),
                        BatchSize::LargeInput,
                    )
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("full/b{batch_size}"), scale),
                &(),
                |b, _| {
                    b.iter_batched(
                        || base.clone(),
                        |mut session| session.recount_anchors(&batch).unwrap(),
                        BatchSize::LargeInput,
                    )
                },
            );
        }
    }
    group.finish();
}

/// The feature scheduler: a cold full-catalog proximity extraction over
/// the dependency DAG at 2 and 4 workers against one worker. Each sample
/// gets a fresh engine — the schedule decides the order the memo cache
/// fills in, so a warm engine would measure nothing.
fn bench_feature_schedule(c: &mut Criterion) {
    let mut group = c.benchmark_group("feature_schedule");
    group.sample_size(10);
    let catalog = Catalog::new(FeatureSet::Full);
    for (scale, cfg) in [
        ("small", datagen::presets::small(5)),
        ("table4", datagen::presets::paper_scale(200, 5)),
    ] {
        let s = scenario(&cfg);
        let a = train_anchor_matrix(&s);
        for (label, threading) in [
            ("serial", Threading::Serial),
            ("dag/t2", Threading::Threads(2)),
            ("dag/t4", Threading::Threads(4)),
        ] {
            group.bench_with_input(BenchmarkId::new(label, scale), &(), |b, _| {
                b.iter_batched(
                    || CountEngine::new(s.world.left(), s.world.right(), a.clone()).unwrap(),
                    |engine| proximity_matrices(&engine, &catalog, threading),
                    BatchSize::LargeInput,
                )
            });
        }
    }
    group.finish();
}

fn train_anchor_matrix(s: &Scenario) -> CsrMatrix {
    anchor_matrix(
        s.world.left().n_users(),
        s.world.right().n_users(),
        &s.train,
    )
    .unwrap()
}

/// Mean wall-clock of `run` over `samples` fresh inputs from `setup`.
/// Neither the setup nor dropping the input or output is timed.
fn time_mean<T, R>(
    samples: usize,
    mut setup: impl FnMut() -> T,
    mut run: impl FnMut(&mut T) -> R,
) -> Duration {
    let mut total = Duration::ZERO;
    for _ in 0..samples {
        let mut input = setup();
        let start = Instant::now();
        let out = run(&mut input);
        total += start.elapsed();
        drop(out);
    }
    total / samples as u32
}

/// Writes `BENCH_session_delta.json`: the `{scale}-b{n}` round cells and
/// the `{scale}-t{n}` scheduler cells, at tiny and table IV scale.
fn write_records() {
    let mut recorder = BenchRecorder::new("session_delta");
    recorder.annotate(
        "dimensions",
        "splice, region-exact vs full-recount, dag vs serial",
    );
    let no_f1 = MetricSummary {
        mean: f64::NAN,
        std: 0.0,
    };
    let catalog = Catalog::new(FeatureSet::Full);
    for (scale, cfg, samples) in [
        ("tiny", datagen::presets::tiny(5), 20usize),
        ("table4", datagen::presets::paper_scale(200, 5), 10),
    ] {
        let s = scenario(&cfg);
        assert_paths_agree(&s);
        let counted = open_counted(&s);
        let featurized = open(&s);
        for batch_size in [1usize, 5, 20] {
            let batch: Vec<AnchorLink> = s.held_out[..batch_size.min(s.held_out.len())].to_vec();
            let cell = format!("{scale}-b{batch_size}");
            let mean = time_mean(
                samples,
                || counted.clone(),
                |session| session.update_anchors(&batch).unwrap(),
            );
            recorder.record("splice", cell.clone(), no_f1, mean);
            let mean = time_mean(
                samples,
                || featurized.clone(),
                |session| session.update_anchors(&batch).unwrap(),
            );
            recorder.record("region-exact", cell.clone(), no_f1, mean);
            let mean = time_mean(
                samples,
                || featurized.clone(),
                |session| session.recount_anchors(&batch).unwrap(),
            );
            recorder.record("full-recount", cell, no_f1, mean);
        }
        let a = train_anchor_matrix(&s);
        let engine = || CountEngine::new(s.world.left(), s.world.right(), a.clone()).unwrap();
        for threads in [2usize, 4] {
            let cell = format!("{scale}-t{threads}");
            for (method, threading) in [
                ("dag", Threading::Threads(threads)),
                ("serial", Threading::Serial),
            ] {
                let mean = time_mean(samples.min(10), engine, |engine| {
                    proximity_matrices(engine, &catalog, threading)
                });
                recorder.record(method, cell.clone(), no_f1, mean);
            }
        }
    }

    // Benches run with the package as CWD; the perf gate reads records
    // from the workspace root, where the table bins drop theirs.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate sits two levels under the workspace root");
    let path = recorder
        .write_to(root)
        .expect("BENCH_session_delta.json written");
    println!("wrote {}", path.display());
}

criterion_group!(benches, bench_round_recount, bench_feature_schedule);
// Custom entry point instead of `criterion_main!`: after the groups run,
// the perf-trajectory record is written for the gate.
fn main() {
    if std::env::var_os("SESSION_DELTA_RECORD_ONLY").is_none() {
        benches();
    }
    write_records();
}
