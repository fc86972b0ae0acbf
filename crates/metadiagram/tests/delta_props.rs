//! Property tests for the incremental anchor-update path: applying random
//! `ΔA` batches through [`DeltaCatalogCounts::update_anchors`] must be
//! **bit-equal** to a full recount from the merged anchor set — across
//! random batch shapes (truth links, arbitrary pairs, duplicates), build
//! thread counts, and every path template P1–P6 plus all stacked families
//! of the full 31-feature catalog.

use hetnet::aligned::anchor_matrix;
use hetnet::{AnchorLink, UserId};
use metadiagram::{Catalog, CountEngine, DeltaCatalogCounts, Diagram, FeatureSet, Threading};
use proptest::prelude::*;

fn world(seed: u64) -> datagen::GeneratedWorld {
    datagen::generate(&datagen::presets::tiny(seed))
}

/// Random anchor batches: a mix of held-out ground-truth links and
/// arbitrary user pairs (the counting algebra does not require anchors to
/// be true or one-to-one), with duplicates allowed on purpose.
fn batches_strategy() -> impl Strategy<Value = Vec<Vec<(u32, u32)>>> {
    proptest::collection::vec(proptest::collection::vec((0u32..38, 0u32..40), 1..8), 1..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn update_anchors_is_bit_equal_to_full_recount(
        seed in 0u64..3,
        initial_k in 1usize..20,
        batches in batches_strategy(),
        threads in 1usize..4
    ) {
        let w = world(11 + seed * 7);
        let initial: Vec<AnchorLink> = w.truth().links()[..initial_k].to_vec();
        let base = anchor_matrix(w.left().n_users(), w.right().n_users(), &initial).unwrap();
        let catalog = Catalog::new(FeatureSet::Full);
        let mut store = DeltaCatalogCounts::build(
            w.left(),
            w.right(),
            base,
            &catalog,
            Threading::Threads(threads),
        )
        .unwrap();

        // Drive the incremental path batch by batch.
        let mut merged = initial.clone();
        for batch in &batches {
            let links: Vec<AnchorLink> = batch
                .iter()
                .map(|&(l, r)| AnchorLink::new(UserId(l), UserId(r)))
                .collect();
            store.update_anchors(&links).unwrap();
            merged.extend(links);
        }

        // Reference: a fresh engine over the merged anchor matrix. The
        // merged list may contain duplicates; anchor_matrix binarizes.
        let full = anchor_matrix(w.left().n_users(), w.right().n_users(), &merged).unwrap();
        let engine = CountEngine::new(w.left(), w.right(), full).unwrap();
        for (i, entry) in catalog.entries().iter().enumerate() {
            let want = engine.count(&entry.diagram);
            prop_assert_eq!(
                store.catalog_count(i),
                &*want,
                "template {} diverged after {} batches",
                &entry.name,
                batches.len()
            );
        }
        // The store never fell back to full counting.
        prop_assert_eq!(store.stats().full_counts, 1);
    }

    /// End-to-end region soundness and tightness: after every random
    /// batch, each changed entry's reported [`metadiagram::TouchedRegion`]
    /// covers every row that actually changed and every column whose sum
    /// moved — and every stack's region lies within the union of its
    /// parts' regions from the same outcome, the region a whole-stack
    /// re-Hadamard would report. Every stack part of the `Full` catalog is
    /// itself a catalog entry; an anchor-free part is never reported and
    /// contributes nothing to the union.
    #[test]
    fn touched_regions_are_sound_and_exact_is_within_union(
        seed in 0u64..3,
        initial_k in 1usize..20,
        batches in batches_strategy(),
    ) {
        let w = world(29 + seed * 5);
        let base = anchor_matrix(
            w.left().n_users(),
            w.right().n_users(),
            &w.truth().links()[..initial_k],
        )
        .unwrap();
        let catalog = Catalog::new(FeatureSet::Full);
        let position = |d: &Diagram| {
            catalog
                .entries()
                .iter()
                .position(|e| &e.diagram == d)
                .expect("stack parts are catalog entries")
        };
        let mut store = DeltaCatalogCounts::build(
            w.left(),
            w.right(),
            base,
            &catalog,
            Threading::Serial,
        )
        .unwrap();

        for batch in &batches {
            let links: Vec<AnchorLink> = batch
                .iter()
                .map(|&(l, r)| AnchorLink::new(UserId(l), UserId(r)))
                .collect();
            let before: Vec<_> = (0..store.len())
                .map(|i| store.catalog_count(i).clone())
                .collect();
            let outcome = store.update_anchors(&links).unwrap();
            let region_of = |pos: usize| {
                outcome
                    .changed
                    .iter()
                    .find(|c| c.catalog_pos == pos)
                    .and_then(|c| c.touched.clone())
            };

            for chg in &outcome.changed {
                let region = chg.touched.as_ref().unwrap();
                // Tightness: a stack's region ⊆ the union of its parts'.
                if let Diagram::Stack(parts) = &catalog.entries()[chg.catalog_pos].diagram {
                    let (mut rows, mut cols) = (Vec::new(), Vec::new());
                    for part in parts {
                        if let Some(part_region) = region_of(position(part)) {
                            rows.extend(part_region.rows);
                            cols.extend(part_region.cols);
                        }
                    }
                    prop_assert!(region.rows.iter().all(|r| rows.contains(r)));
                    prop_assert!(region.cols.iter().all(|c| cols.contains(c)));
                }
                // Soundness of the region against the actual diff.
                let (old, new) = (&before[chg.catalog_pos], store.catalog_count(chg.catalog_pos));
                for i in 0..new.nrows() {
                    if region.rows.binary_search(&i).is_err() {
                        let old_row: Vec<_> = old.row(i).collect();
                        let new_row: Vec<_> = new.row(i).collect();
                        prop_assert_eq!(old_row, new_row, "row {} escaped the region", i);
                    }
                }
                let (old_cols, new_cols) = (old.col_sums(), new.col_sums());
                for j in 0..new.ncols() {
                    if region.cols.binary_search(&j).is_err() {
                        prop_assert_eq!(
                            old_cols[j],
                            new_cols[j],
                            "col {} sum escaped the region",
                            j
                        );
                    }
                }
            }
        }
    }
}
