//! Property tests: every sparse kernel is checked against a naive dense
//! reference implementation on randomly generated matrices.

use proptest::prelude::*;
use sparsela::spgemm::{spgemm_chain, spgemm_lowrank, spgemm_par, Threading};
use sparsela::{
    spgemm, CholeskyFactor, CooMatrix, CsrMatrix, DenseMatrix, MarginSums, RidgeSolver,
};

/// Strategy: a random sparse matrix as (nrows, ncols, dense buffer) with
/// small integer-valued entries (exact float arithmetic, no rounding noise).
fn dense_buffer(max_dim: usize) -> impl Strategy<Value = (usize, usize, Vec<f64>)> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec(
            prop_oneof![
                8 => Just(0.0),
                2 => (-4i32..=4).prop_map(|v| v as f64),
            ],
            r * c,
        )
        .prop_map(move |data| (r, c, data))
    })
}

fn pair_for_product(max_dim: usize) -> impl Strategy<Value = (CsrMatrix, CsrMatrix)> {
    (1..=max_dim, 1..=max_dim, 1..=max_dim).prop_flat_map(|(n, k, m)| {
        let lhs = proptest::collection::vec(
            prop_oneof![7 => Just(0.0), 3 => (-3i32..=3).prop_map(|v| v as f64)],
            n * k,
        );
        let rhs = proptest::collection::vec(
            prop_oneof![7 => Just(0.0), 3 => (-3i32..=3).prop_map(|v| v as f64)],
            k * m,
        );
        (lhs, rhs).prop_map(move |(a, b)| {
            (
                CsrMatrix::from_dense(n, k, &a),
                CsrMatrix::from_dense(k, m, &b),
            )
        })
    })
}

fn naive_matmul(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    a.matmul(b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn spgemm_matches_dense_reference((a, b) in pair_for_product(8)) {
        let sparse = spgemm(&a, &b).unwrap();
        let reference = naive_matmul(&a.to_dense(), &b.to_dense());
        prop_assert!(sparse.to_dense().max_abs_diff(&reference) < 1e-9);
    }

    #[test]
    fn spgemm_parallel_is_bit_equal_to_serial(
        (a, b) in pair_for_product(12),
        threads in 1usize..=6
    ) {
        let serial = spgemm(&a, &b).unwrap();
        let par = spgemm_par(&a, &b, Threading::Threads(threads)).unwrap();
        prop_assert_eq!(par, serial);
    }

    #[test]
    fn lowrank_update_is_bit_equal_to_refactored_product(
        n1 in 1usize..=7,
        n2 in 1usize..=7,
        ldata in proptest::collection::vec(prop_oneof![3 => Just(0.0), 1 => (1i32..=3).prop_map(f64::from)], 49),
        rdata in proptest::collection::vec(prop_oneof![3 => Just(0.0), 1 => (1i32..=3).prop_map(f64::from)], 49),
        edges in proptest::collection::vec((0usize..7, 0usize..7), 1..6)
    ) {
        // Nonnegative integer factors (the count-engine regime): the
        // low-rank kernel must reproduce the plain product chain exactly.
        let l = CsrMatrix::from_dense(n1, n1, &ldata[..n1 * n1]);
        let r = CsrMatrix::from_dense(n2, n2, &rdata[..n2 * n2]);
        let mut coo = CooMatrix::new(n1, n2);
        for &(i, j) in &edges {
            coo.push(i % n1, j % n2, 1.0).unwrap();
        }
        let delta = coo.to_csr().binarized();
        let full = spgemm(&spgemm(&l, &delta).unwrap(), &r).unwrap();
        let low = spgemm_lowrank(&l.transpose(), &delta, &r).unwrap();
        prop_assert_eq!(low, full);
    }

    #[test]
    fn transpose_is_involution((r, c, data) in dense_buffer(9)) {
        let m = CsrMatrix::from_dense(r, c, &data);
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn transpose_swaps_entries((r, c, data) in dense_buffer(6)) {
        let m = CsrMatrix::from_dense(r, c, &data);
        let t = m.transpose();
        for i in 0..r {
            for j in 0..c {
                prop_assert_eq!(m.get(i, j), t.get(j, i));
            }
        }
    }

    #[test]
    fn hadamard_is_pointwise((r, c, a) in dense_buffer(7), b_seed in proptest::collection::vec(-4i32..=4, 49)) {
        let ma = CsrMatrix::from_dense(r, c, &a);
        let b: Vec<f64> = (0..r * c).map(|i| f64::from(b_seed[i % b_seed.len()])).collect();
        let mb = CsrMatrix::from_dense(r, c, &b);
        let h = ma.hadamard(&mb).unwrap();
        for i in 0..r {
            for j in 0..c {
                prop_assert_eq!(h.get(i, j), a[i * c + j] * b[i * c + j]);
            }
        }
    }

    #[test]
    fn add_is_pointwise((r, c, a) in dense_buffer(7), b_seed in proptest::collection::vec(-4i32..=4, 49)) {
        let ma = CsrMatrix::from_dense(r, c, &a);
        let b: Vec<f64> = (0..r * c).map(|i| b_seed[i % b_seed.len()] as f64).collect();
        let mb = CsrMatrix::from_dense(r, c, &b);
        let s = ma.add(&mb).unwrap();
        for i in 0..r {
            for j in 0..c {
                prop_assert_eq!(s.get(i, j), a[i * c + j] + b[i * c + j]);
            }
        }
    }

    #[test]
    fn splice_add_positive_is_bit_equal_to_rebuild(
        (r, c, a) in dense_buffer(7),
        b_seed in proptest::collection::vec(-4i32..=4, 49)
    ) {
        // Base under the count-matrix invariant (all stored values > 0),
        // delta with arbitrary-signed integer entries: the in-place splice
        // must equal add + positive_part bit-for-bit, and margins
        // maintained via accumulate + retract must equal a rescan.
        let raw = CsrMatrix::from_dense(r, c, &a);
        let base = raw.positive_part().unwrap_or(raw);
        let b: Vec<f64> = (0..r * c).map(|i| f64::from(b_seed[i % b_seed.len()])).collect();
        let delta = CsrMatrix::from_dense(r, c, &b);
        let mut sums = MarginSums::of(&base);
        sums.accumulate(&delta).unwrap();
        let mut spliced = base.clone();
        spliced
            .splice_add_positive(&delta, |dr, dc, v| sums.retract(dr, dc, v))
            .unwrap();
        let merged = base.add(&delta).unwrap();
        let reference = merged.positive_part().unwrap_or(merged);
        prop_assert_eq!(&spliced, &reference);
        prop_assert!(sums.matches(&spliced));
        // The spliced matrix must still be structurally valid CSR.
        prop_assert!(CsrMatrix::try_new(
            r, c,
            spliced.indptr().to_vec(),
            spliced.indices().to_vec(),
            spliced.values().to_vec()
        ).is_ok());
    }

    #[test]
    fn splice_rows_matches_a_dense_row_rewrite(
        (r, c, a) in dense_buffer(6),
        b_seed in proptest::collection::vec(-3i32..=3, 36),
        mask in proptest::collection::vec(any::<bool>(), 6)
    ) {
        let base = CsrMatrix::from_dense(r, c, &a);
        let b: Vec<f64> = (0..r * c).map(|i| f64::from(b_seed[i % b_seed.len()])).collect();
        let repl = CsrMatrix::from_dense(r, c, &b);
        let rows: Vec<usize> = (0..r).filter(|&i| mask[i]).collect();
        let new_rows: Vec<Vec<(usize, f64)>> =
            rows.iter().map(|&i| repl.row(i).collect()).collect();
        let mut sums = MarginSums::of(&base);
        for &i in &rows {
            sums.exchange_row(i, base.row(i), repl.row(i));
        }
        let mut spliced = base.clone();
        spliced.splice_rows(&rows, &new_rows).unwrap();
        let mut expected = a.clone();
        for &i in &rows {
            expected[i * c..(i + 1) * c].copy_from_slice(&b[i * c..(i + 1) * c]);
        }
        prop_assert_eq!(&spliced, &CsrMatrix::from_dense(r, c, &expected));
        prop_assert!(sums.matches(&spliced));
    }

    #[test]
    fn coo_roundtrip_accumulates(
        triplets in proptest::collection::vec((0usize..5, 0usize..5, -3i32..=3), 0..40)
    ) {
        let mut coo = CooMatrix::new(5, 5);
        let mut dense = [0.0f64; 25];
        for &(r, c, v) in &triplets {
            coo.push(r, c, v as f64).unwrap();
            dense[r * 5 + c] += v as f64;
        }
        let csr = coo.to_csr();
        for r in 0..5 {
            for c in 0..5 {
                prop_assert_eq!(csr.get(r, c), dense[r * 5 + c]);
            }
        }
        // Structure must be valid (strictly increasing columns per row).
        prop_assert!(CsrMatrix::try_new(
            5, 5,
            csr.indptr().to_vec(),
            csr.indices().to_vec(),
            csr.values().to_vec()
        ).is_ok());
    }

    #[test]
    fn row_col_sums_match_dense((r, c, data) in dense_buffer(8)) {
        let m = CsrMatrix::from_dense(r, c, &data);
        let rs = m.row_sums();
        let cs = m.col_sums();
        for i in 0..r {
            let expect: f64 = (0..c).map(|j| data[i * c + j]).sum();
            prop_assert!((rs[i] - expect).abs() < 1e-12);
        }
        for j in 0..c {
            let expect: f64 = (0..r).map(|i| data[i * c + j]).sum();
            prop_assert!((cs[j] - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn chain_is_associative((a, b) in pair_for_product(6)) {
        // (a*b)*I == a*(b*I): exercised through spgemm_chain on three factors.
        let id = CsrMatrix::identity(b.ncols());
        let left = spgemm(&spgemm(&a, &b).unwrap(), &id).unwrap();
        let chained = spgemm_chain(&[&a, &b, &id]).unwrap();
        prop_assert_eq!(left, chained);
    }

    #[test]
    fn cholesky_solves_spd_systems(
        seed in proptest::collection::vec(-3i32..=3, 16),
        rhs in proptest::collection::vec(-5i32..=5, 4)
    ) {
        // A = BᵀB + I is always SPD.
        let b = DenseMatrix::from_rows(4, 4, seed.iter().map(|&v| v as f64).collect());
        let mut a = b.gram();
        for i in 0..4 {
            a[(i, i)] += 1.0;
        }
        let f = CholeskyFactor::factor(&a).unwrap();
        let rhs: Vec<f64> = rhs.iter().map(|&v| v as f64).collect();
        let x = f.solve(&rhs);
        let ax = a.matvec(&x);
        for (g, want) in ax.iter().zip(rhs.iter()) {
            prop_assert!((g - want).abs() < 1e-8);
        }
    }

    #[test]
    fn ridge_satisfies_normal_equations(
        xdata in proptest::collection::vec(-3i32..=3, 12),
        ydata in proptest::collection::vec(-3i32..=3, 4)
    ) {
        let x = DenseMatrix::from_rows(4, 3, xdata.iter().map(|&v| v as f64).collect());
        let y: Vec<f64> = ydata.iter().map(|&v| v as f64).collect();
        let c = 2.0;
        let solver = RidgeSolver::new(&x, c).unwrap();
        let w = solver.solve(&x, &y);
        let mut lhs = x.gram();
        for i in 0..3 {
            for j in 0..3 {
                lhs[(i, j)] *= c;
            }
            lhs[(i, i)] += 1.0;
        }
        let got = lhs.matvec(&w);
        let mut want = x.tr_matvec(&y);
        for v in &mut want {
            *v *= c;
        }
        for (g, r) in got.iter().zip(want.iter()) {
            prop_assert!((g - r).abs() < 1e-8);
        }
    }

    #[test]
    fn matvec_matches_dense_reference((r, c, data) in dense_buffer(8), xs in proptest::collection::vec(-3i32..=3, 8)) {
        let m = CsrMatrix::from_dense(r, c, &data);
        let x: Vec<f64> = (0..c).map(|i| xs[i % xs.len()] as f64).collect();
        let got = m.matvec(&x).unwrap();
        let want = m.to_dense().matvec(&x);
        for (g, w) in got.iter().zip(want.iter()) {
            prop_assert!((g - w).abs() < 1e-12);
        }
    }
}
