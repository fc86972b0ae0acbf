//! SpGEMM kernel benchmark on synthetic sparse matrices shaped like the
//! engine's adjacency products: the serial kernel (per-row accumulator
//! pick), plus the row-partitioned parallel kernel at 2/4 workers vs
//! serial.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparsela::spgemm::{spgemm, spgemm_par, Threading};
use sparsela::{CooMatrix, CsrMatrix};

fn random_sparse(rng: &mut StdRng, nrows: usize, ncols: usize, nnz_per_row: usize) -> CsrMatrix {
    let mut coo = CooMatrix::with_capacity(nrows, ncols, nrows * nnz_per_row);
    for r in 0..nrows {
        for _ in 0..nnz_per_row {
            coo.push(r, rng.gen_range(0..ncols), 1.0).unwrap();
        }
    }
    coo.to_csr()
}

fn bench_spgemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("spgemm");
    for &(n, d) in &[(500usize, 8usize), (2000, 16)] {
        let mut rng = StdRng::seed_from_u64(1);
        let a = random_sparse(&mut rng, n, n, d);
        let b = random_sparse(&mut rng, n, n, d);
        group.bench_with_input(
            BenchmarkId::new("auto", format!("{n}x{n}@{d}")),
            &(),
            |bch, _| bch.iter(|| spgemm(black_box(&a), black_box(&b)).unwrap()),
        );
    }
    group.finish();
}

fn bench_spgemm_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("spgemm_parallel");
    for &(n, d) in &[(2000usize, 16usize), (8000, 24)] {
        let mut rng = StdRng::seed_from_u64(2);
        let a = random_sparse(&mut rng, n, n, d);
        let b = random_sparse(&mut rng, n, n, d);
        group.bench_with_input(
            BenchmarkId::new("serial", format!("{n}x{n}@{d}")),
            &(),
            |bch, _| {
                bch.iter(|| spgemm_par(black_box(&a), black_box(&b), Threading::Serial).unwrap())
            },
        );
        for threads in [2usize, 4] {
            group.bench_with_input(
                BenchmarkId::new(format!("threads{threads}"), format!("{n}x{n}@{d}")),
                &(),
                |bch, _| {
                    bch.iter(|| {
                        spgemm_par(black_box(&a), black_box(&b), Threading::Threads(threads))
                            .unwrap()
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_spgemm, bench_spgemm_parallel);
criterion_main!(benches);
