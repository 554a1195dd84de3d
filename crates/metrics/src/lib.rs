//! # metrics — evaluation metrics and reporting for the reproduction
//!
//! Implements exactly the measurements the paper's evaluation section
//! reports:
//!
//! * [`RseBins`] — the relative standard error `RSE(n)` of §V-C, grouped by
//!   actual cardinality (log-binned so synthetic datasets with many distinct
//!   cardinalities produce readable series like Fig. 5);
//! * [`ccdf`] — complementary CDFs of user cardinalities (Fig. 2);
//! * [`DetectionOutcome`] — FNR/FPR confusion counts for super-spreader
//!   detection (Fig. 6, Table II).
//!
//! The `repro` binary of `freesketch-bench` records all three in
//! `REPRO.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ccdf;
mod detect;
mod rse;

pub use ccdf::{ccdf, CcdfPoint};
pub use detect::DetectionOutcome;
pub use rse::{RseBin, RseBins};
