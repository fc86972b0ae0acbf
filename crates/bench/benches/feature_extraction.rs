//! Full-catalog feature extraction on generated worlds — the dominant cost
//! of one experiment fold — serial and with the diagram/candidate fan-out
//! at 2 and 4 workers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hetnet::aligned::anchor_matrix;
use metadiagram::{extract_features, Catalog, CountEngine, FeatureSet, Threading};

fn bench_extraction(c: &mut Criterion) {
    let mut group = c.benchmark_group("feature_extraction");
    group.sample_size(10);
    for (name, cfg) in [
        ("tiny", datagen::presets::tiny(3)),
        ("small", datagen::presets::small(3)),
    ] {
        let world = datagen::generate(&cfg);
        let train: Vec<_> = world.truth().links()[..world.truth().len() / 10].to_vec();
        let candidates: Vec<_> = world.truth().iter().map(|a| (a.left, a.right)).collect();
        for (set_name, set) in [
            ("MP", FeatureSet::MetaPathsOnly),
            ("MPMD", FeatureSet::Full),
        ] {
            let catalog = Catalog::new(set);
            group.bench_with_input(BenchmarkId::new(set_name, name), &(), |b, _| {
                b.iter(|| {
                    let amat =
                        anchor_matrix(world.left().n_users(), world.right().n_users(), &train)
                            .unwrap();
                    let engine = CountEngine::new(world.left(), world.right(), amat).unwrap();
                    extract_features(&engine, &catalog, &candidates, Threading::Serial)
                })
            });
        }
    }
    group.finish();
}

/// Serial vs parallel extraction of the full MPMD catalog: the ISSUE-2
/// covering/feature-extraction speedup preset. Workers share the Lemma-2
/// cache; results are bit-identical at every thread count.
fn bench_extraction_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("feature_extraction_parallel");
    group.sample_size(10);
    let world = datagen::generate(&datagen::presets::small(3));
    let train: Vec<_> = world.truth().links()[..world.truth().len() / 10].to_vec();
    let candidates: Vec<_> = world.truth().iter().map(|a| (a.left, a.right)).collect();
    let catalog = Catalog::new(FeatureSet::Full);
    let amat = anchor_matrix(world.left().n_users(), world.right().n_users(), &train).unwrap();

    for (label, threading) in [
        ("serial", Threading::Serial),
        ("threads2", Threading::Threads(2)),
        ("threads4", Threading::Threads(4)),
    ] {
        group.bench_with_input(BenchmarkId::new(label, "small/MPMD"), &(), |b, _| {
            b.iter(|| {
                let engine = CountEngine::new(world.left(), world.right(), amat.clone()).unwrap();
                extract_features(&engine, &catalog, &candidates, threading)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_extraction, bench_extraction_parallel);
criterion_main!(benches);
