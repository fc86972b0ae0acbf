//! Feature-matrix extraction for candidate anchor links.
//!
//! For every catalog entry, the count engine produces the instance count
//! matrix, [`crate::proximity::dice_proximity`] normalizes it, and the
//! candidate pairs gather their scores into a dense row — one row per
//! candidate anchor link, one column per meta diagram. This matrix (plus a
//! bias column added by the model layer) is the `X` of the paper's joint
//! objective.
//!
//! Extraction parallelizes on two axes, both controlled by one
//! [`Threading`] budget and both **bit-identical** to a single worker:
//!
//! * **diagram fan-out** — catalog entries are scheduled over the
//!   strict-subset dependency DAG ([`crate::covering::plan_dag`]): a
//!   diagram starts the moment its own covering-set factors are counted,
//!   while workers share the engine's Lemma-2 cache. One worker walks the
//!   DAG's topological order ([`crate::covering::plan_order`]);
//! * **candidate fan-out** — the gather into the dense feature matrix is
//!   split over contiguous candidate batches.

use crate::catalog::Catalog;
use crate::count::CountEngine;
use crate::covering::{plan_dag, run_dag};
use crate::proximity::dice_proximity;
use hetnet::UserId;
use sparsela::{CsrMatrix, DenseMatrix, Threading};

/// The extracted feature matrix with column names.
#[derive(Debug, Clone)]
pub struct FeatureMatrix {
    /// `candidates.len() × catalog.len()` dense matrix of proximities.
    pub x: DenseMatrix,
    /// Column names, aligned with `x`'s columns.
    pub names: Vec<String>,
}

impl FeatureMatrix {
    /// Number of candidate rows.
    pub fn n_rows(&self) -> usize {
        self.x.nrows()
    }

    /// Number of feature columns.
    pub fn n_features(&self) -> usize {
        self.x.ncols()
    }
}

/// Computes the per-diagram proximity matrices for the whole catalog,
/// fanned out over `threading` workers along the covering dependency DAG.
///
/// A diagram runs only after its strict covering subsets are counted, so
/// endpoint stackings find their factors cached (Lemma 2 reuse); one
/// worker walks [`crate::covering::plan_order`]. The engine's per-diagram
/// gates make any interleaving produce the same cached counts, so the
/// matrices — returned in *catalog order* — are bit-identical at any
/// worker count.
pub fn proximity_matrices(
    engine: &CountEngine<'_>,
    catalog: &Catalog,
    threading: Threading,
) -> Vec<CsrMatrix> {
    run_dag(
        &plan_dag(&catalog.coverings()),
        threading.resolve(),
        |idx| dice_proximity(&engine.count(&catalog.entries()[idx].diagram)),
    )
}

/// Extracts the dense feature matrix for `candidates`, with diagram
/// counting *and* the candidate gather fanned out over `threading`
/// workers. Bit-identical at any worker count.
///
/// Candidates are `(left user, right user)` pairs; rows follow their order.
pub fn extract_features(
    engine: &CountEngine<'_>,
    catalog: &Catalog,
    candidates: &[(UserId, UserId)],
    threading: Threading,
) -> FeatureMatrix {
    let proxies = proximity_matrices(engine, catalog, threading);
    let names = catalog.names().into_iter().map(String::from).collect();
    gather_features(&proxies, names, candidates, threading)
}

/// Gathers per-candidate feature rows from already-computed proximity
/// matrices (one per feature column, in column order; owned or borrowed —
/// the session's partial column refresh passes `&[&CsrMatrix]`). This is
/// the shared tail of [`extract_features`] and of the session API's
/// featurization, so both produce bit-identical matrices by construction.
/// The gather is split over contiguous candidate batches when `threading`
/// allows; results are identical at any worker count.
pub fn gather_features<M>(
    proxies: &[M],
    names: Vec<String>,
    candidates: &[(UserId, UserId)],
    threading: Threading,
) -> FeatureMatrix
where
    M: std::borrow::Borrow<CsrMatrix> + Sync,
{
    assert_eq!(proxies.len(), names.len(), "one proximity per column");
    let ncols = proxies.len();
    let mut x = DenseMatrix::zeros(candidates.len(), ncols);
    let workers = threading.resolve().min(candidates.len()).max(1);
    if workers <= 1 {
        for (col, prox) in proxies.iter().enumerate() {
            for (row, &(l, r)) in candidates.iter().enumerate() {
                let v = prox.borrow().get(l.index(), r.index());
                // srclint: allow(float_eq, reason = "exact sparsity test: skips explicitly-stored zeros, no arithmetic involved")
                if v != 0.0 {
                    x[(row, col)] = v;
                }
            }
        }
    } else {
        // Contiguous candidate batches; each worker fills a private buffer
        // that is copied into the shared matrix after the join.
        let per_worker = candidates.len().div_ceil(workers);
        let blocks: Vec<(usize, Vec<f64>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = candidates
                .chunks(per_worker)
                .enumerate()
                .map(|(block, batch)| {
                    scope.spawn(move || {
                        let mut buf = vec![0f64; batch.len() * ncols];
                        for (col, prox) in proxies.iter().enumerate() {
                            for (row, &(l, r)) in batch.iter().enumerate() {
                                let v = prox.borrow().get(l.index(), r.index());
                                // srclint: allow(float_eq, reason = "exact sparsity test: skips explicitly-stored zeros, no arithmetic involved")
                                if v != 0.0 {
                                    buf[row * ncols + col] = v;
                                }
                            }
                        }
                        (block * per_worker, buf)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("gather worker panicked"))
                .collect()
        });
        for (first_row, buf) in blocks {
            for (i, row_buf) in buf.chunks(ncols).enumerate() {
                x.row_mut(first_row + i).copy_from_slice(row_buf);
            }
        }
    }
    FeatureMatrix { x, names }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::FeatureSet;
    use datagen::presets;
    use hetnet::aligned::anchor_matrix;

    fn setup() -> (datagen::GeneratedWorld, Vec<hetnet::AnchorLink>) {
        let w = datagen::generate(&presets::tiny(21));
        // Use the first half of the anchors as "training" anchors.
        let train: Vec<_> = w.truth().links()[..15].to_vec();
        (w, train)
    }

    #[test]
    fn feature_matrix_shape_and_names() {
        let (w, train) = setup();
        let a = anchor_matrix(w.left().n_users(), w.right().n_users(), &train).unwrap();
        let engine = CountEngine::new(w.left(), w.right(), a).unwrap();
        let catalog = Catalog::new(FeatureSet::Full);
        let candidates: Vec<_> = w
            .truth()
            .iter()
            .map(|l| (l.left, l.right))
            .take(10)
            .collect();
        let fm = extract_features(&engine, &catalog, &candidates, Threading::Serial);
        assert_eq!(fm.n_rows(), 10);
        assert_eq!(fm.n_features(), 31);
        assert_eq!(fm.names.len(), 31);
        // Every value is a valid Dice proximity.
        for v in fm.x.data() {
            assert!((0.0..=1.0).contains(v), "proximity {v} out of range");
        }
    }

    #[test]
    fn true_pairs_score_higher_than_mismatched_pairs_on_average() {
        let (w, train) = setup();
        let a = anchor_matrix(w.left().n_users(), w.right().n_users(), &train).unwrap();
        let engine = CountEngine::new(w.left(), w.right(), a).unwrap();
        let catalog = Catalog::new(FeatureSet::Full);

        // Held-out true pairs vs deliberately shifted (wrong) pairs.
        let held_out: Vec<_> = w.truth().links()[15..].to_vec();
        let true_cands: Vec<_> = held_out.iter().map(|l| (l.left, l.right)).collect();
        let wrong_cands: Vec<_> = held_out
            .iter()
            .zip(held_out.iter().cycle().skip(1))
            .map(|(a, b)| (a.left, b.right))
            .collect();

        let ft = extract_features(&engine, &catalog, &true_cands, Threading::Serial);
        let fw = extract_features(&engine, &catalog, &wrong_cands, Threading::Serial);
        let mean = |m: &DenseMatrix| m.data().iter().sum::<f64>() / m.data().len() as f64;
        assert!(
            mean(&ft.x) > mean(&fw.x),
            "true pairs {:.4} should outscore wrong pairs {:.4}",
            mean(&ft.x),
            mean(&fw.x)
        );
    }

    #[test]
    fn plan_order_equals_naive_order_in_results() {
        // Extraction must be independent of evaluation order.
        let (w, train) = setup();
        let a = anchor_matrix(w.left().n_users(), w.right().n_users(), &train).unwrap();
        let catalog = Catalog::new(FeatureSet::Full);
        let candidates: Vec<_> = w.truth().iter().map(|l| (l.left, l.right)).collect();

        let engine = CountEngine::new(w.left(), w.right(), a.clone()).unwrap();
        let planned = extract_features(&engine, &catalog, &candidates, Threading::Serial);

        // Naive: count each diagram in catalog order with a fresh engine.
        let fresh = CountEngine::new(w.left(), w.right(), a).unwrap();
        let mut x = DenseMatrix::zeros(candidates.len(), catalog.len());
        for (col, e) in catalog.entries().iter().enumerate() {
            let prox = dice_proximity(&fresh.count(&e.diagram));
            for (row, &(l, r)) in candidates.iter().enumerate() {
                x[(row, col)] = prox.get(l.index(), r.index());
            }
        }
        assert!(planned.x.max_abs_diff(&x) < 1e-12);
    }

    #[test]
    fn parallel_extraction_is_bit_equal_to_serial() {
        let (w, train) = setup();
        let a = anchor_matrix(w.left().n_users(), w.right().n_users(), &train).unwrap();
        let catalog = Catalog::new(FeatureSet::Full);
        let candidates: Vec<_> = w.truth().iter().map(|l| (l.left, l.right)).collect();

        let serial_engine = CountEngine::new(w.left(), w.right(), a.clone()).unwrap();
        let serial = extract_features(&serial_engine, &catalog, &candidates, Threading::Serial);

        for threads in [2usize, 3, 8] {
            let engine = CountEngine::new(w.left(), w.right(), a.clone()).unwrap();
            let par = extract_features(&engine, &catalog, &candidates, Threading::Threads(threads));
            assert_eq!(par.names, serial.names);
            assert_eq!(
                par.x.data(),
                serial.x.data(),
                "parallel ({threads} threads) diverged from serial"
            );
        }
    }

    #[test]
    fn parallel_proximity_matrices_match_serial() {
        let (w, train) = setup();
        let a = anchor_matrix(w.left().n_users(), w.right().n_users(), &train).unwrap();
        let catalog = Catalog::new(FeatureSet::Full);
        let serial_engine = CountEngine::new(w.left(), w.right(), a.clone()).unwrap();
        let serial = proximity_matrices(&serial_engine, &catalog, Threading::Serial);
        let engine = CountEngine::new(w.left(), w.right(), a).unwrap();
        let par = proximity_matrices(&engine, &catalog, Threading::Threads(4));
        assert_eq!(par, serial);
        // The shared cache must have been reused across workers: stacked
        // diagrams only pay a Hadamard once their factors are cached, so
        // misses equal the number of distinct diagrams (factors included).
        assert!(engine.stats().cache_misses >= catalog.len());
    }

    #[test]
    fn dag_schedule_is_bit_equal_to_catalog_order_oracle() {
        let (w, train) = setup();
        let a = anchor_matrix(w.left().n_users(), w.right().n_users(), &train).unwrap();
        let catalog = Catalog::new(FeatureSet::Full);
        // Oracle: each diagram counted in catalog order, no scheduler.
        let fresh = CountEngine::new(w.left(), w.right(), a.clone()).unwrap();
        let oracle: Vec<CsrMatrix> = catalog
            .entries()
            .iter()
            .map(|e| dice_proximity(&fresh.count(&e.diagram)))
            .collect();
        for threads in [1usize, 2, 8] {
            let engine = CountEngine::new(w.left(), w.right(), a.clone()).unwrap();
            let got = proximity_matrices(&engine, &catalog, Threading::Threads(threads));
            assert_eq!(got, oracle, "DAG at {threads} threads diverged");
            // The shared cache still guarantees compute-exactly-once.
            assert_eq!(engine.stats().cache_misses, catalog.len());
        }
    }

    #[test]
    fn empty_candidates_yield_empty_matrix() {
        let (w, train) = setup();
        let a = anchor_matrix(w.left().n_users(), w.right().n_users(), &train).unwrap();
        let engine = CountEngine::new(w.left(), w.right(), a).unwrap();
        let catalog = Catalog::new(FeatureSet::MetaPathsOnly);
        let fm = extract_features(&engine, &catalog, &[], Threading::Serial);
        assert_eq!(fm.n_rows(), 0);
        assert_eq!(fm.n_features(), 6);
    }
}
