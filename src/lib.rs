//! # freesketch-suite
//!
//! Umbrella crate for the FreeBS/FreeRS reproduction workspace. It exists to
//! host the cross-crate integration tests (`tests/`) and runnable examples
//! (`examples/`); the actual functionality lives in the member crates, all of
//! which are re-exported here for convenience:
//!
//! * [`hashkit`] — hashing substrate.
//! * [`bitpack`] — bit arrays and packed register arrays.
//! * [`cardsketch`] — single-stream sketches (LPC, HLL, HLL++).
//! * [`graphstream`] — graph-stream substrate and synthetic workloads.
//! * [`freesketch`] — the paper's estimators (FreeBS, FreeRS) and the shared
//!   baselines (CSE, vHLL), plus super-spreader detection.
//! * [`metrics`] — evaluation metrics (RSE, CCDF, FNR/FPR) and reporting.

#![forbid(unsafe_code)]

pub use bitpack;
pub use cardsketch;
pub use freesketch;
pub use graphstream;
pub use hashkit;
pub use metrics;
