//! # graphstream — the graph-stream substrate
//!
//! The paper's input model (§II): a bipartite graph stream
//! `Γ = e(1) e(2) …` of user–item pairs, possibly containing duplicates.
//! This crate provides:
//!
//! * [`Edge`] and replayable in-memory streams;
//! * [`GroundTruth`] — an exact (hash-set based) per-user cardinality
//!   tracker used as the oracle in every experiment;
//! * [`synth`] — seeded synthetic workload generation with bounded-Zipf
//!   (discrete power-law) cardinality distributions, duplicate injection and
//!   temporal interleaving;
//! * [`profiles`] — per-dataset generator configurations calibrated to
//!   Table I of the paper (user count, max cardinality, total cardinality),
//!   standing in for the CAIDA traces and OSN edge lists we cannot ship
//!   (substitutions listed in README.md, "Reproduction status");
//! * [`fedge`] — the binary on-disk edge format (magic + version header,
//!   fixed 16-byte LE records) with streaming encoder/decoder;
//! * [`tsv`] — the streaming text reader (`user <ws> item` lines, string
//!   ids hashed to `u64` under a fixed seed);
//! * [`source`] — the [`EdgeSource`] chunk-at-a-time streaming trait, so
//!   traces far larger than memory flow to the estimators through a
//!   bounded buffer;
//! * [`snapshot`] — the checksummed `FSNP` snapshot container (sectioned,
//!   per-section CRC32, typed [`SnapshotError`]) that sketch state
//!   persists through;
//! * [`fault`] — [`FaultWriter`]/[`FaultReader`] fault injection (torn
//!   writes, truncation, bit flips) for durability tests;
//! * [`replace_file`] — the one way a written file reaches its final
//!   name: staged at `{path}.part`, fsynced, renamed over `path` (after
//!   rotating the old file, on request), and its directory fsynced.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod fedge;
pub mod profiles;
mod replace;
pub mod snapshot;
pub mod source;
pub mod synth;
mod truth;
pub mod tsv;

pub use fault::{Fault, FaultReader, FaultWriter};
pub use fedge::{FedgeError, FedgeReader, FedgeWriter};
pub use profiles::{DatasetProfile, PROFILES};
pub use replace::replace_file;
pub use snapshot::SnapshotError;
pub use source::{CycleSource, EdgeSource, EdgeStreamError, SliceSource};
pub use synth::{SynthConfig, SynthStream};
pub use truth::GroundTruth;
pub use tsv::TsvEdgeSource;

/// One stream element `e(t) = (s(t), d(t))`: user `s` connected to item `d`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Edge {
    /// The user (source) identifier.
    pub user: u64,
    /// The item (destination) identifier.
    pub item: u64,
}

impl Edge {
    /// Convenience constructor.
    #[must_use]
    pub fn new(user: u64, item: u64) -> Self {
        Self { user, item }
    }

    /// The edge as a bare `(user, item)` pair — the element type of the
    /// batched ingest API (`CardinalityEstimator::process_batch`).
    #[must_use]
    pub fn pair(self) -> (u64, u64) {
        (self.user, self.item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_round_trip() {
        let e = Edge::new(3, 9);
        assert_eq!(e.user, 3);
        assert_eq!(e.item, 9);
        assert_eq!(e, Edge { user: 3, item: 9 });
        assert_eq!(e.pair(), (3, 9));
    }
}
