//! # sparsela — sparse and dense linear algebra substrate
//!
//! A small, dependency-free linear algebra layer purpose-built for the
//! ActiveIter reproduction (ICDE 2019, "Meta Diagram based Active Social
//! Networks Alignment"). Everything the paper's pipeline needs is here:
//!
//! * [`CooMatrix`] — triplet builder used when extracting typed adjacency
//!   matrices from heterogeneous networks;
//! * [`CsrMatrix`] — compressed sparse row storage with the operations the
//!   meta-path/meta-diagram count engine relies on: [`spgemm()`] (Gustavson
//!   sparse × sparse product, with a row-partitioned parallel variant
//!   [`spgemm_par`] controlled by the [`Threading`] knob),
//!   [`CsrMatrix::hadamard`] (the stacking operator
//!   of meta diagrams), transposition, and row/column reductions;
//! * [`DenseMatrix`] / dense vectors — the per-candidate feature matrix `X`;
//! * [`CholeskyFactor`] and [`RidgeSolver`] — the paper's closed-form inner
//!   update `w = c (I + c XᵀX)⁻¹ Xᵀ y` (Section III-D, step 1-1).
//!
//! The crate is deliberately free of `unsafe`; its only dependency is the
//! vendored `serde` stand-in's byte codec, which [`codec`] builds on to
//! persist matrices and margins for the snapshot subsystem. Correctness is
//! established by unit tests in every module plus property tests against
//! naive dense references.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chol;
pub mod codec;
pub mod coo;
pub mod csr;
pub mod dense;
pub mod error;
pub mod ops;
pub mod ridge;
pub mod spgemm;
pub mod sums;

pub use chol::CholeskyFactor;
pub use coo::CooMatrix;
pub use csr::CsrMatrix;
pub use dense::DenseMatrix;
pub use error::{Result, SparseError};
pub use ridge::RidgeSolver;
pub use spgemm::{spgemm, spgemm_lowrank, spgemm_lowrank_with_sums, spgemm_par, Threading};
pub use sums::MarginSums;
