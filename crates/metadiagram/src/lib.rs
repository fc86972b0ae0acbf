//! # metadiagram — inter-network meta paths, meta diagrams and proximity features
//!
//! This crate implements the feature machinery that is the heart of the
//! paper's contribution (§III-B):
//!
//! * [`path`] — **inter-network meta paths** (Definition 4): typed walks
//!   from a left-network user to a right-network user through follow,
//!   write, at, checkin and anchor links. The paper's P1–P6 are provided as
//!   constants; arbitrary schema-valid paths can be built and validated.
//! * [`diagram`] — **inter-network meta diagrams** (Definition 5): DAG
//!   stackings of meta paths. Three stacking forms cover the paper's whole
//!   catalog: middle-stacking of two social paths at the shared anchor pair
//!   (Ψf²), middle-stacking of two attribute paths at the shared post pair
//!   (Ψa² — the "same place *and* same time" semantics), and endpoint
//!   stacking of arbitrary sub-diagrams (the × operator of §III-B.2).
//! * [`covering`] — **covering sets** (Definition 7) and the Lemma-2 reuse
//!   planner.
//! * [`count`] — the count engine: SpGEMM chains for paths, Hadamard
//!   stacking for diagrams, a memoizing cache exploiting covering-set
//!   containment, and the composite-key optimization that counts Ψa²
//!   without materializing post × post products.
//! * [`delta`] — incremental catalog recounting: anchor-chain counts are
//!   low-rank updates `L·ΔA·R` in the newly confirmed anchors, so active
//!   query rounds pay `O(|ΔA|)` instead of a full recount.
//! * [`codec`] — binary encode/decode of the delta store and catalog
//!   types, the payload layer of the session snapshot format.
//! * [`proximity`] — the Dice-style meta diagram proximity of Definition 6.
//! * [`catalog`] — assembly of the full feature catalog
//!   Φ = P ∪ Ψf² ∪ Ψa² ∪ Ψf,a ∪ Ψf,a² ∪ Ψf²,a² (31 features).
//! * [`features`] — extraction of the dense feature matrix for a candidate
//!   anchor-link set.
//! * [`bruteforce`] — exhaustive enumerators used to verify the engine
//!   (Lemma 1 and count equality are property-tested against these).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bruteforce;
pub mod catalog;
pub mod codec;
pub mod count;
pub mod covering;
pub mod delta;
pub mod diagram;
pub mod features;
pub mod path;
pub mod proximity;

pub use catalog::{Catalog, CatalogEntry, FeatureSet};
pub use count::{AttrCountStrategy, CountEngine};
pub use covering::{plan_dag, run_dag, CoveringSet, DagPlan};
pub use delta::{
    ChangedCount, DeltaCatalogCounts, DeltaError, DeltaOutcome, DeltaStats, TouchedRegion,
};
pub use diagram::{AttrPathId, Diagram, SocialPathId};
pub use features::{extract_features, gather_features, proximity_matrices, FeatureMatrix};
pub use path::{MetaPath, Step};
pub use proximity::{dice_proximity, dice_proximity_delta, touch_is_dense};
pub use sparsela::Threading;
