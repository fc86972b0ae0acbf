//! The builder and the typed session stages.
//!
//! An anchor update on a featurized session takes one path: the counts
//! absorb the low-rank delta, each changed proximity is patched in its
//! touched rows and columns, and only the affected feature entries are
//! re-gathered. [`AlignmentSession::recount_anchors`] instead recounts
//! from the full merged anchor matrix and re-normalizes the changed
//! matrices wholesale. Both are tested against a fresh [`SessionBuilder`]
//! over the merged anchors.

use crate::{AnchorEdge, SessionError};
use activeiter::driver::ActiveLoop;
use activeiter::{AlignmentInstance, ModelConfig, Oracle, QueryStrategy};
use hetnet::aligned::anchor_matrix;
use hetnet::{HetNet, UserId};
use metadiagram::delta::{DeltaCatalogCounts, DeltaOutcome, DeltaStats};
use metadiagram::{
    dice_proximity, dice_proximity_delta, gather_features, touch_is_dense, Catalog, FeatureMatrix,
    FeatureSet,
};
use sparsela::{CsrMatrix, Threading};

/// Configures and opens an [`AlignmentSession`].
///
/// The builder borrows the two networks only until
/// [`SessionBuilder::count`]; every later stage owns its artifacts outright
/// (anchor matrix, count matrices, factor chains, features, model) and
/// never touches the networks again.
///
/// ```
/// use session::SessionBuilder;
/// use metadiagram::FeatureSet;
/// use sparsela::Threading;
///
/// let world = datagen::generate(&datagen::presets::tiny(3));
/// let session = SessionBuilder::new(world.left(), world.right())
///     .anchors(world.truth().links()[..8].to_vec())
///     .feature_set(FeatureSet::MetaPathsOnly)
///     .threading(Threading::Threads(2))
///     .count()
///     .expect("generated networks share attribute universes");
/// assert_eq!(session.n_anchors(), 8);
/// assert_eq!(session.catalog().len(), 6);
/// ```
#[derive(Debug)]
pub struct SessionBuilder<'w> {
    left: &'w HetNet,
    right: &'w HetNet,
    anchors: Vec<AnchorEdge>,
    feature_set: FeatureSet,
    threading: Threading,
}

impl<'w> SessionBuilder<'w> {
    /// A builder over one aligned pair, with the full 31-feature catalog,
    /// no anchors and serial counting.
    pub fn new(left: &'w HetNet, right: &'w HetNet) -> Self {
        SessionBuilder {
            left,
            right,
            anchors: Vec::new(),
            feature_set: FeatureSet::Full,
            threading: Threading::Serial,
        }
    }

    /// The **training** anchors the counts start from. Passing ground-truth
    /// test anchors here leaks labels into the features — callers hold
    /// these to the training fold, exactly as with
    /// [`metadiagram::CountEngine::new`].
    #[must_use]
    pub fn anchors(mut self, anchors: Vec<AnchorEdge>) -> Self {
        self.anchors = anchors;
        self
    }

    /// Selects the feature-catalog slice (default: [`FeatureSet::Full`]).
    #[must_use]
    pub fn feature_set(mut self, set: FeatureSet) -> Self {
        self.feature_set = set;
        self
    }

    /// Worker threading for the initial catalog count and the feature
    /// gather. Results are bit-identical at any setting.
    #[must_use]
    pub fn threading(mut self, threading: Threading) -> Self {
        self.threading = threading;
        self
    }

    /// Performs the session's one full catalog count and harvests the
    /// `L`/`Lᵀ`/`R` factor chains that make later updates incremental.
    ///
    /// # Errors
    /// [`SessionError::Anchors`] when an anchor endpoint is out of range;
    /// [`SessionError::Engine`] when the networks disagree on a shared
    /// attribute universe.
    pub fn count(self) -> Result<AlignmentSession<Counted>, SessionError> {
        let anchor = anchor_matrix(self.left.n_users(), self.right.n_users(), &self.anchors)?;
        let catalog = Catalog::new(self.feature_set);
        let counts =
            DeltaCatalogCounts::build(self.left, self.right, anchor, &catalog, self.threading)?;
        Ok(AlignmentSession {
            catalog,
            counts,
            threading: self.threading,
            stage: Counted(()),
        })
    }
}

/// A staged alignment pipeline; see the [crate docs](crate) for the stage
/// diagram. `S` is one of [`Counted`], [`Featurized`], [`Fitted`].
///
/// Sessions are plain values: `Clone` duplicates every owned artifact, so
/// a caller can checkpoint a stage and explore updates (or fits) from it
/// without re-counting.
#[derive(Debug, Clone)]
pub struct AlignmentSession<S> {
    pub(crate) catalog: Catalog,
    pub(crate) counts: DeltaCatalogCounts,
    pub(crate) threading: Threading,
    pub(crate) stage: S,
}

/// Stage 1: count matrices and factor chains exist; no features yet.
#[derive(Debug, Clone)]
pub struct Counted(());

impl Counted {
    /// Stage marker for sessions restored by [`crate::snapshot`].
    pub(crate) fn new() -> Self {
        Counted(())
    }
}

/// Stage 2: [`Counted`] plus per-feature proximity matrices and the dense
/// candidate feature matrix.
#[derive(Debug, Clone)]
pub struct Featurized {
    pub(crate) candidates: Vec<(UserId, UserId)>,
    pub(crate) proximities: Vec<CsrMatrix>,
    pub(crate) features: FeatureMatrix,
}

/// Stage 3: [`Featurized`] plus a fitted model.
#[derive(Debug, Clone)]
pub struct Fitted {
    pub(crate) featurized: Featurized,
    pub(crate) report: activeiter::FitReport,
}

impl<S> AlignmentSession<S> {
    /// The feature catalog this session counts.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The current (merged) anchor matrix.
    pub fn anchor(&self) -> &CsrMatrix {
        self.counts.anchor()
    }

    /// Number of anchors currently counted against.
    pub fn n_anchors(&self) -> usize {
        self.counts.n_anchors()
    }

    /// The count matrix of catalog feature `i`.
    pub fn count_of(&self, i: usize) -> &CsrMatrix {
        self.counts.catalog_count(i)
    }

    /// Work counters: how many full catalog counts this session has paid
    /// for (1 unless a caller explicitly asked for full recounts) and how
    /// many incremental updates it applied.
    pub fn stats(&self) -> DeltaStats {
        self.counts.stats()
    }

    /// The worker threading the session was built with.
    pub fn threading(&self) -> Threading {
        self.threading
    }
}

impl AlignmentSession<Counted> {
    /// Applies newly confirmed anchors as the low-rank delta recount
    /// `C += L·ΔA·R`. Already-known links and in-batch duplicates are
    /// skipped; returns the number of genuinely new anchors merged.
    ///
    /// # Errors
    /// [`SessionError::Delta`] on out-of-range endpoints (nothing changes).
    pub fn update_anchors(&mut self, edges: &[AnchorEdge]) -> Result<usize, SessionError> {
        Ok(self.counts.update_anchors(edges)?.applied)
    }

    /// Advances to [`Featurized`]: computes the per-feature Dice proximity
    /// matrices and gathers the dense `candidates × catalog` feature
    /// matrix. Bit-identical to
    /// [`metadiagram::extract_features`] over the same anchors.
    pub fn featurize(self, candidates: Vec<(UserId, UserId)>) -> AlignmentSession<Featurized> {
        let proximities: Vec<CsrMatrix> = (0..self.catalog.len())
            .map(|i| dice_proximity(self.counts.catalog_count(i)))
            .collect();
        let names = self.catalog.names().into_iter().map(String::from).collect();
        let features = gather_features(&proximities, names, &candidates, self.threading);
        AlignmentSession {
            catalog: self.catalog,
            counts: self.counts,
            threading: self.threading,
            stage: Featurized {
                candidates,
                proximities,
                features,
            },
        }
    }
}

impl AlignmentSession<Featurized> {
    /// The candidate links the features describe (row order).
    pub fn candidates(&self) -> &[(UserId, UserId)] {
        &self.stage.candidates
    }

    /// The dense feature matrix (no bias column — models append their own).
    pub fn features(&self) -> &FeatureMatrix {
        &self.stage.features
    }

    /// The Dice proximity matrix of catalog feature `i`.
    pub fn proximity_of(&self, i: usize) -> &CsrMatrix {
        &self.stage.proximities[i]
    }

    /// Builds an [`AlignmentInstance`] over this session's candidates and
    /// features (bias appended), with `labeled_pos` as the labeled set.
    pub fn instance(&self, labeled_pos: Vec<usize>) -> AlignmentInstance {
        AlignmentInstance::new(
            self.stage.candidates.clone(),
            &self.stage.features.x,
            labeled_pos,
        )
    }

    /// Applies newly confirmed anchors incrementally and refreshes exactly
    /// the downstream artifacts that depend on them: the changed count
    /// matrices (`C += L·ΔA·R`), the touched rows/columns of their
    /// proximity matrices, and the affected feature *entries* — only
    /// candidates whose left user sits in a touched row or whose right
    /// user sits in a touched column are re-gathered. Anchor-free
    /// attribute features are untouched. Returns the number of genuinely
    /// new anchors merged.
    ///
    /// # Errors
    /// [`SessionError::Delta`] on out-of-range endpoints (nothing changes).
    pub fn update_anchors(&mut self, edges: &[AnchorEdge]) -> Result<usize, SessionError> {
        let outcome = self.counts.update_anchors(edges)?;
        self.refresh(&outcome);
        Ok(outcome.applied)
    }

    /// Like [`AlignmentSession::update_anchors`], but recounts the changed
    /// chains **from the full merged anchor matrix** instead of applying
    /// the delta — the reference path incremental updates are benchmarked
    /// against. Results are bit-identical; only the cost differs.
    ///
    /// # Errors
    /// [`SessionError::Delta`] on out-of-range endpoints (nothing changes).
    pub fn recount_anchors(&mut self, edges: &[AnchorEdge]) -> Result<usize, SessionError> {
        let outcome = self.counts.recount_anchors(edges)?;
        self.refresh(&outcome);
        Ok(outcome.applied)
    }

    /// Re-derives proximities and feature values for the changed catalog
    /// entries.
    ///
    /// With a known touched region, each changed proximity is patched in
    /// its touched rows/columns ([`dice_proximity_delta`] over the store's
    /// maintained margins) and only the affected candidates re-gather — a candidate `(l, r)` can
    /// change in column `c` only when `l` is a touched row or `r` a
    /// touched column of `c`'s counts. Columns refreshed without region
    /// info (the full-recount path) re-normalize from scratch and
    /// re-gather wholesale through the same [`gather_features`] kernel
    /// featurization uses. Both paths are bit-identical to a fresh
    /// featurization.
    fn refresh(&mut self, outcome: &DeltaOutcome) {
        if outcome.changed.is_empty() {
            return;
        }
        let mut full_cols: Vec<usize> = Vec::new();
        for chg in &outcome.changed {
            let col = chg.catalog_pos;
            let region = match &chg.touched {
                Some(region)
                    if !touch_is_dense(
                        self.counts.catalog_count(col),
                        &region.rows,
                        &region.cols,
                    ) =>
                {
                    region
                }
                // No region info (full-recount path), or a region dense
                // enough that per-entry patching would cost more than the
                // wholesale refresh.
                _ => {
                    self.stage.proximities[col] = dice_proximity(self.counts.catalog_count(col));
                    full_cols.push(col);
                    continue;
                }
            };
            if region.is_empty() {
                // The update's low-rank product vanished for this chain:
                // counts, sums, proximity and features are all unchanged.
                continue;
            }
            let refreshed = dice_proximity_delta(
                self.counts.catalog_count(col),
                self.counts.catalog_sums(col),
                &region.rows,
                &region.cols,
                &self.stage.proximities[col],
            );
            self.stage.proximities[col] = refreshed;
            let prox = &self.stage.proximities[col];
            for (row, &(l, r)) in self.stage.candidates.iter().enumerate() {
                if region.rows.binary_search(&l.index()).is_ok()
                    || region.cols.binary_search(&r.index()).is_ok()
                {
                    self.stage.features.x[(row, col)] = prox.get(l.index(), r.index());
                }
            }
        }
        if full_cols.is_empty() {
            return;
        }
        let changed_prox: Vec<&CsrMatrix> = full_cols
            .iter()
            .map(|&col| &self.stage.proximities[col])
            .collect();
        let sub = gather_features(
            &changed_prox,
            vec![String::new(); changed_prox.len()],
            &self.stage.candidates,
            self.threading,
        );
        for (k, &col) in full_cols.iter().enumerate() {
            for row in 0..self.stage.candidates.len() {
                self.stage.features.x[(row, col)] = sub.x[(row, k)];
            }
        }
    }

    /// Advances to [`Fitted`] by running the paper's alternating
    /// optimization over a **fixed** feature matrix (the batch semantics of
    /// `eval::run_fold`): converge, query `strategy`, apply the oracle's
    /// answers, repeat until the budget is spent. Confirmed anchors do
    /// *not* flow back into the counts here — use
    /// [`AlignmentSession::run_active`] for the incremental loop.
    pub fn fit(
        self,
        labeled_pos: Vec<usize>,
        oracle: &dyn Oracle,
        config: &ModelConfig,
        strategy: &mut dyn QueryStrategy,
    ) -> AlignmentSession<Fitted> {
        let mut drv = ActiveLoop::new(self.instance(labeled_pos), config.clone());
        loop {
            drv.converge();
            if drv.remaining() == 0 {
                break;
            }
            let selection = drv.select_queries(strategy);
            if selection.is_empty() {
                break;
            }
            for idx in selection {
                drv.apply_answer(idx, oracle.label(idx));
            }
        }
        let report = drv.finish();
        AlignmentSession {
            catalog: self.catalog,
            counts: self.counts,
            threading: self.threading,
            stage: Fitted {
                featurized: self.stage,
                report,
            },
        }
    }
}

impl AlignmentSession<Fitted> {
    /// The fitted model's report.
    pub fn report(&self) -> &activeiter::FitReport {
        &self.stage.report
    }

    /// The candidate links the fit scored (row order).
    pub fn candidates(&self) -> &[(UserId, UserId)] {
        &self.stage.featurized.candidates
    }

    /// The feature matrix the fit was trained on.
    pub fn features(&self) -> &FeatureMatrix {
        &self.stage.featurized.features
    }

    /// Invalidates the fit and steps back to [`Featurized`] — the only way
    /// to apply further anchor updates, which is exactly the point: a
    /// fitted model can never silently coexist with counts it was not
    /// trained on.
    pub fn invalidate_fit(self) -> AlignmentSession<Featurized> {
        AlignmentSession {
            catalog: self.catalog,
            counts: self.counts,
            threading: self.threading,
            stage: self.stage.featurized,
        }
    }

    /// Consumes the session into the fit report alone.
    pub fn into_report(self) -> activeiter::FitReport {
        self.stage.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use activeiter::query::ConflictQuery;
    use activeiter::VecOracle;
    use hetnet::aligned::anchor_matrix;
    use metadiagram::{extract_features, CountEngine};

    fn world() -> datagen::GeneratedWorld {
        datagen::generate(&datagen::presets::tiny(23))
    }

    #[test]
    fn featurize_is_bit_equal_to_extract_features() {
        let w = world();
        let train = w.truth().links()[..12].to_vec();
        let candidates: Vec<_> = w.truth().iter().map(|l| (l.left, l.right)).collect();
        for threading in [Threading::Serial, Threading::Threads(3)] {
            let session = SessionBuilder::new(w.left(), w.right())
                .anchors(train.clone())
                .threading(threading)
                .count()
                .unwrap()
                .featurize(candidates.clone());
            let a = anchor_matrix(w.left().n_users(), w.right().n_users(), &train).unwrap();
            let engine = CountEngine::new(w.left(), w.right(), a).unwrap();
            let reference = extract_features(&engine, session.catalog(), &candidates, threading);
            assert_eq!(session.features().names, reference.names);
            assert_eq!(session.features().x.data(), reference.x.data());
        }
    }

    #[test]
    fn featurized_update_matches_fresh_featurization() {
        let w = world();
        let train = w.truth().links()[..10].to_vec();
        let extra = w.truth().links()[10..20].to_vec();
        let candidates: Vec<_> = w.truth().iter().map(|l| (l.left, l.right)).collect();

        let mut incremental = SessionBuilder::new(w.left(), w.right())
            .anchors(train.clone())
            .count()
            .unwrap()
            .featurize(candidates.clone());
        assert_eq!(incremental.update_anchors(&extra).unwrap(), extra.len());

        let merged: Vec<_> = train.iter().chain(extra.iter()).copied().collect();
        let fresh = SessionBuilder::new(w.left(), w.right())
            .anchors(merged)
            .count()
            .unwrap()
            .featurize(candidates);
        assert_eq!(incremental.features().x.data(), fresh.features().x.data());
        for i in 0..incremental.catalog().len() {
            assert_eq!(incremental.proximity_of(i), fresh.proximity_of(i));
            assert_eq!(incremental.count_of(i), fresh.count_of(i));
        }
        // One full count at build; the update went through the delta path.
        assert_eq!(incremental.stats().full_counts, 1);
        assert_eq!(incremental.stats().delta_updates, 1);
        assert_eq!(fresh.stats().full_counts, 1);
    }

    /// The delta proximity refresh against the full one — a fresh session
    /// over the merged anchors — after every batch, not just the last.
    #[test]
    fn delta_and_full_proximity_refresh_are_bit_identical() {
        let w = world();
        let train = w.truth().links()[..8].to_vec();
        let extra = w.truth().links()[8..20].to_vec();
        let candidates: Vec<_> = w.truth().iter().map(|l| (l.left, l.right)).collect();
        let open = |anchors: Vec<AnchorEdge>| {
            SessionBuilder::new(w.left(), w.right())
                .anchors(anchors)
                .count()
                .unwrap()
                .featurize(candidates.clone())
        };
        let mut delta = open(train.clone());
        let mut merged = train;
        for batch in extra.chunks(4) {
            assert_eq!(delta.update_anchors(batch).unwrap(), batch.len());
            merged.extend_from_slice(batch);
            let full = open(merged.clone());
            assert_eq!(delta.features().x.data(), full.features().x.data());
            for i in 0..delta.catalog().len() {
                assert_eq!(delta.proximity_of(i), full.proximity_of(i), "prox {i}");
            }
        }
        // Counting stayed on the incremental path throughout.
        assert_eq!(delta.stats().full_counts, 1);
    }

    #[test]
    fn counted_stage_accepts_updates_before_featurization() {
        let w = world();
        let train = w.truth().links()[..5].to_vec();
        let extra = w.truth().links()[5..15].to_vec();
        let candidates: Vec<_> = w.truth().iter().map(|l| (l.left, l.right)).collect();

        let mut counted = SessionBuilder::new(w.left(), w.right())
            .anchors(train.clone())
            .count()
            .unwrap();
        assert_eq!(counted.update_anchors(&extra).unwrap(), extra.len());
        assert_eq!(counted.n_anchors(), 15);
        let session = counted.featurize(candidates.clone());

        let merged: Vec<_> = train.iter().chain(extra.iter()).copied().collect();
        let fresh = SessionBuilder::new(w.left(), w.right())
            .anchors(merged)
            .count()
            .unwrap()
            .featurize(candidates);
        assert_eq!(session.features().x.data(), fresh.features().x.data());
    }

    #[test]
    fn fit_stage_produces_a_report_and_invalidates_cleanly() {
        let w = world();
        let train = w.truth().links()[..10].to_vec();
        let candidates: Vec<_> = w.truth().iter().map(|l| (l.left, l.right)).collect();
        let truth = vec![true; candidates.len()];
        let session = SessionBuilder::new(w.left(), w.right())
            .anchors(train)
            .count()
            .unwrap()
            .featurize(candidates);
        let labeled: Vec<usize> = (0..10).collect();
        let config = ModelConfig {
            budget: 5,
            ..Default::default()
        };
        let mut strategy = ConflictQuery::new(config.similar_tau, config.margin_delta);
        let fitted = session.fit(labeled, &VecOracle::new(truth), &config, &mut strategy);
        assert!(fitted.report().queried.len() <= 5);
        assert_eq!(fitted.candidates().len(), fitted.features().n_rows());
        // Stepping back re-exposes update_anchors; the fit is gone.
        let mut featurized = fitted.invalidate_fit();
        assert_eq!(featurized.update_anchors(&[]).unwrap(), 0);
    }

    #[test]
    fn builder_surfaces_validation_errors() {
        let w = world();
        let bad = vec![AnchorEdge::new(UserId(u32::MAX), UserId(0))];
        let err = SessionBuilder::new(w.left(), w.right())
            .anchors(bad)
            .count()
            .unwrap_err();
        assert!(matches!(err, SessionError::Anchors(_)));
        assert!(err.to_string().contains("anchor"));
    }
}
