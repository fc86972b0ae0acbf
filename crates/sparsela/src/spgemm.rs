//! Sparse × sparse matrix multiplication (SpGEMM).
//!
//! Meta-path instance counting reduces to chains of adjacency products
//! (PathSim-style); this module provides the Gustavson row-wise kernel used
//! by the count engine. Two accumulator kernels back it:
//!
//! * a **dense accumulator** (O(ncols) scratch, fastest when output rows are
//!   moderately dense), and
//! * a **sorted-merge (heap-free) sparse accumulator** that collects
//!   `(col, val)` pairs and sorts per row — better when the right-hand side
//!   is extremely wide and rows are very sparse.
//!
//! The kernel picks one **per row** from a FLOP/width estimate (a
//! whole-matrix choice mis-picks on skewed row distributions); both produce
//! identical results (property-tested against a naive dense reference in
//! this module's unit tests, which can force either kernel).
//!
//! The product is embarrassingly parallel over rows of the left operand:
//! [`spgemm_par`] cuts the left operand into contiguous row blocks of equal
//! estimated FLOPs, runs the Gustavson accumulation per block on scoped
//! workers, and stitches the per-block CSR outputs. Because row
//! partitioning never changes the per-row computation, the parallel kernel
//! is **bit-identical** to the serial one at any thread count.

use crate::csr::CsrMatrix;
use crate::error::{Result, SparseError};
use crate::sums::MarginSums;
use std::ops::Range;

/// Strategy for the per-row accumulator. Production always runs `Auto`;
/// the fixed strategies let the unit tests force each kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(not(test), allow(dead_code))]
enum Accumulator {
    /// O(ncols) dense scratch with a touched-column list.
    Dense,
    /// Collect-then-sort sparse accumulation.
    SortMerge,
    /// Choose per output row: dense scratch unless the row is very sparse
    /// relative to a very wide output.
    Auto,
}

/// Worker-count knob for the parallel kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Threading {
    /// Single-threaded execution (no worker threads spawned).
    #[default]
    Serial,
    /// Exactly this many workers (clamped to ≥ 1).
    Threads(usize),
    /// One worker per available hardware thread
    /// ([`std::thread::available_parallelism`]).
    Auto,
}

impl Threading {
    /// The effective worker count (always ≥ 1).
    pub fn resolve(self) -> usize {
        match self {
            Threading::Serial => 1,
            Threading::Threads(n) => n.max(1),
            Threading::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }
}

/// Computes `lhs * rhs`.
///
/// # Errors
/// [`SparseError::DimMismatch`] when `lhs.ncols() != rhs.nrows()`.
pub fn spgemm(lhs: &CsrMatrix, rhs: &CsrMatrix) -> Result<CsrMatrix> {
    spgemm_par(lhs, rhs, Threading::Serial)
}

/// Row-partitioned parallel [`spgemm`]: the left operand is split into
/// contiguous row blocks carrying ≈ equal FLOP estimates, one scoped worker
/// accumulates each block, and the per-block CSR outputs are stitched.
/// Bit-identical to the serial kernel.
///
/// # Errors
/// [`SparseError::DimMismatch`] when `lhs.ncols() != rhs.nrows()`.
pub fn spgemm_par(lhs: &CsrMatrix, rhs: &CsrMatrix, threading: Threading) -> Result<CsrMatrix> {
    multiply(lhs, rhs, Accumulator::Auto, threading)
}

/// The kernel behind [`spgemm_par`] with the accumulator as a parameter —
/// the hook the unit tests use to force each strategy.
fn multiply(
    lhs: &CsrMatrix,
    rhs: &CsrMatrix,
    acc: Accumulator,
    threading: Threading,
) -> Result<CsrMatrix> {
    if lhs.ncols() != rhs.nrows() {
        return Err(SparseError::DimMismatch {
            op: "spgemm",
            lhs: lhs.shape(),
            rhs: rhs.shape(),
        });
    }
    let n = lhs.nrows();
    let workers = threading.resolve().min(n).max(1);
    if workers <= 1 {
        let block = accumulate_block(lhs, rhs, 0..n, acc, None);
        return Ok(block_into_csr(n, rhs.ncols(), block));
    }
    // Per-row FLOP estimates: needed once for the balanced cut, and reused
    // by every Auto accumulator pick instead of re-deriving them per row.
    let flops: Vec<usize> = (0..n)
        .map(|i| lhs.row(i).map(|(k, _)| rhs.row_nnz(k)).sum())
        .collect();
    let ranges = partition_flop_balanced(&flops, workers);
    Ok(run_blocks(lhs, rhs, ranges, acc, &flops))
}

/// Accumulates each row block on its own scoped worker and stitches the
/// fragments in block order.
fn run_blocks(
    lhs: &CsrMatrix,
    rhs: &CsrMatrix,
    ranges: Vec<Range<usize>>,
    acc: Accumulator,
    flops: &[usize],
) -> CsrMatrix {
    let blocks: Vec<BlockOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|rows| scope.spawn(move || accumulate_block(lhs, rhs, rows, acc, Some(flops))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("spgemm worker panicked"))
            .collect()
    });
    stitch_blocks(lhs.nrows(), rhs.ncols(), blocks)
}

/// Contiguous row blocks of near-equal row count; the last may be shorter.
/// The balanced cut's fallback when every row's FLOP estimate is zero.
fn partition_even(n: usize, workers: usize) -> Vec<Range<usize>> {
    let chunk = n.div_ceil(workers);
    (0..workers)
        .map(|w| (w * chunk).min(n)..((w + 1) * chunk).min(n))
        .filter(|r| !r.is_empty())
        .collect()
}

/// Contiguous row blocks cut so each carries ≈ `total / workers` of the
/// per-row FLOP estimates. A single hub row heavier than the fair share
/// gets a block of its own; the trailing block absorbs the remainder.
fn partition_flop_balanced(flops: &[usize], workers: usize) -> Vec<Range<usize>> {
    let n = flops.len();
    let total: usize = flops.iter().sum();
    if total == 0 {
        return partition_even(n, workers);
    }
    let mut ranges: Vec<Range<usize>> = Vec::with_capacity(workers);
    let mut start = 0usize;
    let mut cum: u128 = 0;
    for (i, &f) in flops.iter().enumerate() {
        cum += f as u128;
        // Cut after row i once this prefix has reached the next fair share;
        // the cross-multiplication avoids integer-division drift.
        if ranges.len() + 1 < workers
            && cum * workers as u128 >= total as u128 * (ranges.len() as u128 + 1)
        {
            ranges.push(start..i + 1);
            start = i + 1;
        }
    }
    ranges.push(start..n);
    ranges.into_iter().filter(|r| !r.is_empty()).collect()
}

/// One row block's CSR fragment: cumulative row ends (block-local), column
/// indices and values.
struct BlockOut {
    row_ends: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<f64>,
}

/// Turns a single whole-matrix block into a CSR matrix by moving its
/// buffers — the serial fast path pays no copy over the pre-parallel
/// kernels.
fn block_into_csr(nrows: usize, ncols: usize, block: BlockOut) -> CsrMatrix {
    let mut indptr = Vec::with_capacity(nrows + 1);
    indptr.push(0);
    indptr.extend(block.row_ends);
    CsrMatrix::from_parts_unchecked(nrows, ncols, indptr, block.indices, block.values)
}

/// Concatenates per-block fragments into one CSR matrix, offsetting each
/// block's row pointers by the nnz of the blocks before it.
fn stitch_blocks(nrows: usize, ncols: usize, blocks: Vec<BlockOut>) -> CsrMatrix {
    let total: usize = blocks.iter().map(|b| b.indices.len()).sum();
    let mut indptr = Vec::with_capacity(nrows + 1);
    let mut indices = Vec::with_capacity(total);
    let mut values = Vec::with_capacity(total);
    indptr.push(0);
    let mut base = 0usize;
    for b in blocks {
        for &end in &b.row_ends {
            indptr.push(base + end);
        }
        base += b.indices.len();
        indices.extend_from_slice(&b.indices);
        values.extend_from_slice(&b.values);
    }
    debug_assert_eq!(indptr.len(), nrows + 1);
    CsrMatrix::from_parts_unchecked(nrows, ncols, indptr, indices, values)
}

/// Below this output width the dense scratch always wins (the one-off
/// O(ncols) allocation is negligible).
const DENSE_ALWAYS_WIDTH: usize = 1 << 12;

/// Per-row strategy pick: dense scratch unless the row's FLOP estimate is a
/// vanishing fraction of a very wide output. Deciding per row (rather than
/// from whole-matrix `nnz` vs `ncols`) keeps skewed row distributions —
/// a handful of dense hub rows among thousands of near-empty ones — on the
/// right kernel for every row.
fn row_wants_dense(flops: usize, width: usize) -> bool {
    width <= DENSE_ALWAYS_WIDTH || flops >= width >> 6
}

/// Gustavson accumulation over `rows`, appending into block-local buffers.
/// `flops` optionally carries precomputed per-row FLOP estimates (indexed by
/// absolute row) so the Auto pick does not re-derive them.
fn accumulate_block(
    lhs: &CsrMatrix,
    rhs: &CsrMatrix,
    rows: Range<usize>,
    acc: Accumulator,
    flops: Option<&[usize]>,
) -> BlockOut {
    let m = rhs.ncols();
    let mut row_ends = Vec::with_capacity(rows.len());
    let mut indices: Vec<usize> = Vec::new();
    let mut values: Vec<f64> = Vec::new();

    // Dense scratch is sized lazily: an all-sort-merge block never pays the
    // O(ncols) zero fill.
    let mut scratch: Vec<f64> = Vec::new();
    let mut touched: Vec<usize> = Vec::new();
    let mut row_buf: Vec<(usize, f64)> = Vec::new();

    for i in rows {
        let use_dense = match acc {
            Accumulator::Dense => true,
            Accumulator::SortMerge => false,
            Accumulator::Auto => {
                let estimate = match flops {
                    Some(f) => f[i],
                    None => lhs.row(i).map(|(k, _)| rhs.row_nnz(k)).sum(),
                };
                row_wants_dense(estimate, m)
            }
        };
        if use_dense {
            if scratch.is_empty() && m > 0 {
                scratch = vec![0f64; m];
            }
            touched.clear();
            for (k, lv) in lhs.row(i) {
                for (j, rv) in rhs.row(k) {
                    // srclint: allow(float_eq, reason = "0.0 marks an untouched scratch slot; the touched list depends on it")
                    if scratch[j] == 0.0 {
                        touched.push(j);
                    }
                    scratch[j] += lv * rv;
                }
            }
            touched.sort_unstable();
            for &j in &touched {
                let v = scratch[j];
                scratch[j] = 0.0;
                // srclint: allow(float_eq, reason = "dropping exact-zero accumulation results keeps the output sparse")
                if v != 0.0 {
                    indices.push(j);
                    values.push(v);
                }
            }
        } else {
            row_buf.clear();
            for (k, lv) in lhs.row(i) {
                for (j, rv) in rhs.row(k) {
                    row_buf.push((j, lv * rv));
                }
            }
            row_buf.sort_unstable_by_key(|&(j, _)| j);
            let mut it = row_buf.iter().copied();
            if let Some((mut cur_j, mut cur_v)) = it.next() {
                for (j, v) in it {
                    if j == cur_j {
                        cur_v += v;
                    } else {
                        // srclint: allow(float_eq, reason = "dropping exact-zero accumulation results keeps the output sparse")
                        if cur_v != 0.0 {
                            indices.push(cur_j);
                            values.push(cur_v);
                        }
                        cur_j = j;
                        cur_v = v;
                    }
                }
                // srclint: allow(float_eq, reason = "dropping exact-zero accumulation results keeps the output sparse")
                if cur_v != 0.0 {
                    indices.push(cur_j);
                    values.push(cur_v);
                }
            }
        }
        row_ends.push(indices.len());
    }
    BlockOut {
        row_ends,
        indices,
        values,
    }
}

/// Computes the sparse low-rank product `L·Δ·R` given the **transpose**
/// `Lᵀ` of the left factor.
///
/// This is the kernel behind incremental anchor updates: a count matrix of
/// the form `C = L·A·R` changes by exactly `L·ΔA·R` when the anchor matrix
/// gains the entries of `ΔA`, and `ΔA` carries a handful of nonzeros (the
/// newly confirmed anchors). Contracting `Δᵀ` against `Lᵀ` row-wise touches
/// only the columns of `L` that the new anchors select, so the cost scales
/// with `nnz(Δ) · degree` — not with `nnz(L)` or the catalog size. All
/// arithmetic is the same exact integer-valued f64 math as the full
/// product, so `(L·A·R) + (L·ΔA·R)` is **bit-equal** to `L·(A+ΔA)·R` for
/// the nonnegative count matrices this library manipulates.
///
/// # Errors
/// [`SparseError::DimMismatch`] when the shapes are inconsistent
/// (`Lᵀ` is `k×n`, `Δ` must be `n×m`, `R` must be `m×p`).
pub fn spgemm_lowrank(lt: &CsrMatrix, delta: &CsrMatrix, r: &CsrMatrix) -> Result<CsrMatrix> {
    if lt.nrows() != delta.nrows() {
        return Err(SparseError::DimMismatch {
            op: "spgemm_lowrank",
            lhs: (lt.ncols(), lt.nrows()),
            rhs: delta.shape(),
        });
    }
    // L·Δ = (Δᵀ·Lᵀ)ᵀ: the left operand of the inner product has one row per
    // *column* of Δ, so only the Δ-selected rows do any work.
    let dt = delta.transpose();
    let ldt = spgemm(&dt, lt)?;
    spgemm(&ldt.transpose(), r)
}

/// [`spgemm_lowrank`] that also applies the update's row/column-sum deltas
/// to `sums` — the margins the Dice normalization divides by, maintained as
/// a first-class artifact instead of being rescanned per round.
///
/// The low-rank kernel already walks every nonzero of `L·Δ·R` once to build
/// its CSR output; folding those entries into `sums` costs one more pass
/// over `nnz(L·Δ·R)`, so the whole call stays `O(nnz(Δ) · degree)`. After
/// `C += L·Δ·R`, `sums` equals `MarginSums::of(&C)` bit-for-bit (exact
/// integer arithmetic — see [`MarginSums`]).
///
/// # Errors
/// [`SparseError::DimMismatch`] on inconsistent factor shapes, or when
/// `sums` does not match the product's shape; `sums` is untouched on error.
pub fn spgemm_lowrank_with_sums(
    lt: &CsrMatrix,
    delta: &CsrMatrix,
    r: &CsrMatrix,
    sums: &mut MarginSums,
) -> Result<CsrMatrix> {
    let dc = spgemm_lowrank(lt, delta, r)?;
    sums.accumulate(&dc)?;
    Ok(dc)
}

/// Multiplies a chain of matrices left to right: `m[0] * m[1] * … * m[k-1]`.
///
/// Meta paths of length > 2 use this. Left-to-right order is optimal for the
/// shapes that occur in practice (user-anchored chains shrink quickly).
///
/// # Errors
/// [`SparseError::DimMismatch`] on any incompatible adjacent pair;
/// [`SparseError::InvalidStructure`] when `mats` is empty.
pub fn spgemm_chain(mats: &[&CsrMatrix]) -> Result<CsrMatrix> {
    spgemm_chain_threaded(mats, Threading::Serial)
}

/// [`spgemm_chain`] with each product running on the parallel kernel.
///
/// # Errors
/// [`SparseError::DimMismatch`] on any incompatible adjacent pair;
/// [`SparseError::InvalidStructure`] when `mats` is empty.
pub fn spgemm_chain_threaded(mats: &[&CsrMatrix], threading: Threading) -> Result<CsrMatrix> {
    let (first, rest) = mats
        .split_first()
        .ok_or_else(|| SparseError::InvalidStructure("empty spgemm chain".into()))?;
    let mut acc = (*first).clone();
    for m in rest {
        acc = spgemm_par(&acc, m, threading)?;
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseMatrix;
    use proptest::prelude::*;

    /// The serial product with the accumulator forced to `acc`.
    fn forced(lhs: &CsrMatrix, rhs: &CsrMatrix, acc: Accumulator) -> CsrMatrix {
        multiply(lhs, rhs, acc, Threading::Serial).unwrap()
    }

    fn a() -> CsrMatrix {
        CsrMatrix::from_dense(2, 3, &[1.0, 0.0, 2.0, 0.0, 3.0, 0.0])
    }

    fn b() -> CsrMatrix {
        CsrMatrix::from_dense(3, 2, &[0.0, 1.0, 4.0, 0.0, 0.0, 5.0])
    }

    #[test]
    fn small_product_matches_hand_computation() {
        // a*b = [[0, 11], [12, 0]]
        let p = spgemm(&a(), &b()).unwrap();
        assert_eq!(p.shape(), (2, 2));
        assert_eq!(p.get(0, 0), 0.0);
        assert_eq!(p.get(0, 1), 11.0);
        assert_eq!(p.get(1, 0), 12.0);
        assert_eq!(p.get(1, 1), 0.0);
    }

    #[test]
    fn both_accumulators_agree() {
        let d = forced(&a(), &b(), Accumulator::Dense);
        let s = forced(&a(), &b(), Accumulator::SortMerge);
        assert_eq!(d, s);
    }

    #[test]
    fn dim_mismatch_rejected() {
        let err = spgemm(&a(), &a()).unwrap_err();
        assert!(matches!(err, SparseError::DimMismatch { op: "spgemm", .. }));
        let err = spgemm_par(&a(), &a(), Threading::Threads(4)).unwrap_err();
        assert!(matches!(err, SparseError::DimMismatch { op: "spgemm", .. }));
    }

    #[test]
    fn identity_is_neutral() {
        let m = a();
        let l = spgemm(&CsrMatrix::identity(2), &m).unwrap();
        let r = spgemm(&m, &CsrMatrix::identity(3)).unwrap();
        assert_eq!(l, m);
        assert_eq!(r, m);
    }

    #[test]
    fn zero_factor_gives_zero() {
        let z = CsrMatrix::zeros(3, 4);
        let p = spgemm(&a(), &z).unwrap();
        assert_eq!(p.nnz(), 0);
        assert_eq!(p.shape(), (2, 4));
    }

    #[test]
    fn cancellation_produces_no_stored_zero() {
        // Row picks +1 and -1 contributions that cancel exactly.
        let l = CsrMatrix::from_dense(1, 2, &[1.0, 1.0]);
        let r = CsrMatrix::from_dense(2, 1, &[1.0, -1.0]);
        let p = spgemm(&l, &r).unwrap();
        assert_eq!(p.nnz(), 0);
        let p2 = forced(&l, &r, Accumulator::SortMerge);
        assert_eq!(p2.nnz(), 0);
    }

    #[test]
    fn chain_multiplies_left_to_right() {
        let m1 = a();
        let m2 = b();
        let m3 = CsrMatrix::from_dense(2, 1, &[1.0, 1.0]);
        let chained = spgemm_chain(&[&m1, &m2, &m3]).unwrap();
        let manual = spgemm(&spgemm(&m1, &m2).unwrap(), &m3).unwrap();
        assert_eq!(chained, manual);
    }

    #[test]
    fn chain_rejects_empty() {
        assert!(spgemm_chain(&[]).is_err());
    }

    #[test]
    fn chain_of_one_clones() {
        let m = a();
        assert_eq!(spgemm_chain(&[&m]).unwrap(), m);
    }

    #[test]
    fn threading_resolves_to_at_least_one_worker() {
        assert_eq!(Threading::Serial.resolve(), 1);
        assert_eq!(Threading::Threads(0).resolve(), 1);
        assert_eq!(Threading::Threads(6).resolve(), 6);
        assert!(Threading::Auto.resolve() >= 1);
        assert_eq!(Threading::default(), Threading::Serial);
    }

    #[test]
    fn parallel_equals_serial_on_small_product() {
        let serial = spgemm(&a(), &b()).unwrap();
        for t in [1, 2, 3, 8] {
            let par = spgemm_par(&a(), &b(), Threading::Threads(t)).unwrap();
            assert_eq!(par, serial, "threads = {t}");
        }
        let auto = spgemm_par(&a(), &b(), Threading::Auto).unwrap();
        assert_eq!(auto, serial);
    }

    #[test]
    fn parallel_handles_more_workers_than_rows() {
        let l = CsrMatrix::from_dense(1, 2, &[1.0, 2.0]);
        let r = CsrMatrix::from_dense(2, 2, &[1.0, 0.0, 0.0, 1.0]);
        let p = spgemm_par(&l, &r, Threading::Threads(16)).unwrap();
        assert_eq!(p, spgemm(&l, &r).unwrap());
    }

    #[test]
    fn parallel_handles_empty_rows_between_blocks() {
        // 5 rows, middle ones empty; 3 workers put block boundaries inside
        // the empty stretch.
        let l = CsrMatrix::from_dense(5, 2, &[1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0]);
        let r = CsrMatrix::from_dense(2, 3, &[1.0, 2.0, 0.0, 0.0, 1.0, 3.0]);
        let p = spgemm_par(&l, &r, Threading::Threads(3)).unwrap();
        assert_eq!(p, spgemm(&l, &r).unwrap());
    }

    #[test]
    fn parallel_chain_matches_serial_chain() {
        let m1 = a();
        let m2 = b();
        let m3 = CsrMatrix::from_dense(2, 1, &[1.0, 1.0]);
        let serial = spgemm_chain(&[&m1, &m2, &m3]).unwrap();
        let par = spgemm_chain_threaded(&[&m1, &m2, &m3], Threading::Threads(2)).unwrap();
        assert_eq!(par, serial);
    }

    #[test]
    fn flop_balanced_partition_isolates_hub_rows() {
        // One hub row carrying ~all the FLOPs: the cut closes the hub's
        // block right after it (the even split 0..2|2..4|4..6 would instead
        // pair the hub with a light row and starve the last worker).
        let flops = [0usize, 1, 900, 1, 1, 1];
        let ranges = partition_flop_balanced(&flops, 3);
        assert_eq!(ranges, vec![0..3, 3..4, 4..6]);
        // Coverage: the blocks tile 0..6 in order.
        let flat: Vec<usize> = ranges.iter().flat_map(|r| r.clone()).collect();
        assert_eq!(flat, (0..6).collect::<Vec<_>>());
        // All-zero estimates fall back to the even split.
        assert_eq!(partition_flop_balanced(&[0; 6], 3), partition_even(6, 3));
    }

    #[test]
    fn partition_strategies_are_bit_equal() {
        let serial = spgemm(&a(), &b()).unwrap();
        let (l, r) = (a(), b());
        let flops: Vec<usize> = (0..l.nrows())
            .map(|i| l.row(i).map(|(k, _)| r.row_nnz(k)).sum())
            .collect();
        for ranges in [partition_even(2, 2), partition_flop_balanced(&flops, 2)] {
            let p = run_blocks(&l, &r, ranges.clone(), Accumulator::Auto, &flops);
            assert_eq!(p, serial, "{ranges:?} diverged");
        }
    }

    #[test]
    fn lowrank_update_matches_full_product() {
        // L (3×3), Δ (3×2) with one entry, R (2×2).
        let l = CsrMatrix::from_dense(3, 3, &[1.0, 2.0, 0.0, 0.0, 1.0, 3.0, 4.0, 0.0, 1.0]);
        let delta = CsrMatrix::from_dense(3, 2, &[0.0, 0.0, 1.0, 0.0, 0.0, 0.0]);
        let r = CsrMatrix::from_dense(2, 2, &[1.0, 2.0, 3.0, 0.0]);
        let full = spgemm(&spgemm(&l, &delta).unwrap(), &r).unwrap();
        let low = spgemm_lowrank(&l.transpose(), &delta, &r).unwrap();
        assert_eq!(low, full);
    }

    #[test]
    fn lowrank_with_sums_maintains_margins_exactly() {
        let l = CsrMatrix::from_dense(3, 3, &[1.0, 2.0, 0.0, 0.0, 1.0, 3.0, 4.0, 0.0, 1.0]);
        let r = CsrMatrix::from_dense(2, 2, &[1.0, 2.0, 3.0, 0.0]);
        let a = CsrMatrix::from_dense(3, 2, &[1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        let c = spgemm(&spgemm(&l, &a).unwrap(), &r).unwrap();
        let mut sums = MarginSums::of(&c);
        let delta = CsrMatrix::from_dense(3, 2, &[0.0, 0.0, 1.0, 0.0, 0.0, 0.0]);
        let dc = spgemm_lowrank_with_sums(&l.transpose(), &delta, &r, &mut sums).unwrap();
        assert_eq!(dc, spgemm_lowrank(&l.transpose(), &delta, &r).unwrap());
        let merged = c.add(&dc).unwrap();
        assert!(sums.matches(&merged), "maintained sums must equal a rescan");
        // Shape errors leave the sums untouched.
        let before = sums.clone();
        assert!(spgemm_lowrank_with_sums(&l, &CsrMatrix::zeros(4, 2), &r, &mut sums).is_err());
        assert_eq!(sums, before);
    }

    #[test]
    fn lowrank_rejects_bad_shapes() {
        let l = CsrMatrix::identity(3);
        let delta = CsrMatrix::zeros(4, 2);
        let r = CsrMatrix::identity(2);
        let err = spgemm_lowrank(&l, &delta, &r).unwrap_err();
        assert!(matches!(
            err,
            SparseError::DimMismatch {
                op: "spgemm_lowrank",
                ..
            }
        ));
        // Δ/R mismatch surfaces from the inner product.
        let delta = CsrMatrix::zeros(3, 5);
        assert!(spgemm_lowrank(&l, &delta, &r).is_err());
    }

    #[test]
    fn auto_picks_per_row_on_skewed_matrices() {
        // A wide output (> 2^12 cols) with one dense hub row and many
        // near-empty rows: the whole-matrix heuristic would force one
        // strategy everywhere; the per-row pick must still be exact.
        let width = (1 << 12) + 50;
        let mut hub = vec![0.0; width];
        for (j, slot) in hub.iter_mut().enumerate() {
            if j % 2 == 0 {
                *slot = 1.0;
            }
        }
        let mut rows = hub.clone();
        let mut sparse_row = vec![0.0; width];
        sparse_row[17] = 3.0;
        rows.extend_from_slice(&sparse_row);
        let l = CsrMatrix::from_dense(2, width, &rows);
        let r = CsrMatrix::identity(width);
        let auto = forced(&l, &r, Accumulator::Auto);
        let dense = forced(&l, &r, Accumulator::Dense);
        let sm = forced(&l, &r, Accumulator::SortMerge);
        assert_eq!(auto, dense);
        assert_eq!(auto, sm);
    }

    /// A random product pair with small integer entries (exact float
    /// arithmetic); rows mix empty, light and hub-like patterns.
    fn pair_for_product(max_dim: usize) -> impl Strategy<Value = (CsrMatrix, CsrMatrix)> {
        (1..=max_dim, 1..=max_dim, 1..=max_dim).prop_flat_map(|(n, k, m)| {
            let entry = || prop_oneof![7 => Just(0.0), 3 => (-3i32..=3).prop_map(f64::from)];
            (
                proptest::collection::vec(entry(), n * k),
                proptest::collection::vec(entry(), k * m),
            )
                .prop_map(move |(a, b)| {
                    (
                        CsrMatrix::from_dense(n, k, &a),
                        CsrMatrix::from_dense(k, m, &b),
                    )
                })
        })
    }

    fn naive(lhs: &CsrMatrix, rhs: &CsrMatrix) -> DenseMatrix {
        lhs.to_dense().matmul(&rhs.to_dense())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn spgemm_accumulators_agree((l, r) in pair_for_product(8)) {
            // Each forced kernel matches the naive dense product, and the
            // per-row Auto pick is bit-equal to both fixed strategies.
            let reference = naive(&l, &r);
            let dense = forced(&l, &r, Accumulator::Dense);
            let sort_merge = forced(&l, &r, Accumulator::SortMerge);
            prop_assert!(dense.to_dense().max_abs_diff(&reference) < 1e-9);
            prop_assert!(sort_merge.to_dense().max_abs_diff(&reference) < 1e-9);
            prop_assert_eq!(&dense, &sort_merge);
            prop_assert_eq!(&forced(&l, &r, Accumulator::Auto), &dense);
        }

        #[test]
        fn flop_balanced_partition_is_bit_equal_to_serial(
            (l, r) in pair_for_product(12),
            threads in 2usize..=6,
            acc_pick in 0usize..3
        ) {
            // The FLOP-weighted cut must be invisible in the output for
            // every accumulator: skewed rows (hubs next to empty rows) are
            // common in these pairs.
            let acc = [Accumulator::Dense, Accumulator::SortMerge, Accumulator::Auto][acc_pick];
            let serial = forced(&l, &r, acc);
            let balanced = multiply(&l, &r, acc, Threading::Threads(threads)).unwrap();
            prop_assert_eq!(balanced, serial);
        }
    }
}
