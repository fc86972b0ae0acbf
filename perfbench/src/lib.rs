//! # perfbench — helpers of the repository's end-to-end benchmark
//!
//! The benchmark itself is the `perfbench` binary (`src/bin/perfbench/`);
//! this library holds what its tests check on their own: the percentile
//! and failure-accounting helpers and the metric catalogue with the JSON
//! result line. See `METRICS.md` beside this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
pub mod stats;
