//! Dataset profiles calibrated to Table I of the paper.
//!
//! | dataset     | #users     | max-card  | total card    |
//! |-------------|------------|-----------|---------------|
//! | sanjose     | 8,387,347  | 313,772   | 23,073,907    |
//! | chicago     | 1,966,677  | 106,026   | 9,910,287     |
//! | Twitter     | 40,103,281 | 2,997,496 | 1,468,365,182 |
//! | Flickr      | 1,441,431  | 26,185    | 22,613,980    |
//! | Orkut       | 2,997,376  | 31,949    | 223,534,301   |
//! | LiveJournal | 4,590,650  | 9,186     | 76,937,805    |
//!
//! [`DatasetProfile::scaled`] divides the user count and the max cardinality
//! by a scale factor while keeping the *mean* cardinality (and therefore the
//! per-user cardinality distribution) fixed, so experiments shrink linearly.
//! The estimators' relative error is a function of `n/M`, so the experiment
//! drivers shrink the memory budget `M` by the same factor and the paper's
//! error regime is preserved (substitutions listed in README.md,
//! "Reproduction status").

use crate::synth::SynthConfig;
use hashkit::xxhash64;

/// Published Table I statistics for one dataset, plus generator knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetProfile {
    /// Dataset name as printed in the paper.
    pub name: &'static str,
    /// Published number of users.
    pub users: u64,
    /// Published maximum user cardinality.
    pub max_cardinality: u64,
    /// Published total cardinality (Σ_s n_s).
    pub total_cardinality: u64,
    /// Stream duplication factor used when synthesizing (traffic traces
    /// repeat edges heavily; social edge lists mildly).
    pub duplication: f64,
    /// Default down-scale factor giving a laptop-sized stream
    /// (~0.5–1.5 M distinct edges).
    pub default_scale: u64,
}

impl DatasetProfile {
    /// Mean user cardinality implied by Table I.
    #[must_use]
    pub fn mean_cardinality(&self) -> f64 {
        self.total_cardinality as f64 / self.users as f64
    }

    /// A generator configuration at the profile's default scale.
    #[must_use]
    pub fn config(&self) -> SynthConfig {
        self.scaled(self.default_scale)
    }

    /// A generator configuration scaled down by `scale` (1 = full size).
    ///
    /// # Panics
    /// Panics if `scale == 0`.
    #[must_use]
    pub fn scaled(&self, scale: u64) -> SynthConfig {
        assert!(scale > 0, "scale must be positive");
        let users = (self.users / scale).max(100) as usize;
        let mean = self.mean_cardinality();
        // Keep the mean fixed; truncate the tail proportionally, but never
        // below the mean itself.
        let max_cardinality = (self.max_cardinality / scale).max(mean.ceil() as u64 * 4);
        SynthConfig {
            users,
            max_cardinality,
            mean_cardinality: mean,
            duplication: self.duplication,
            seed: xxhash64(0x0DA7_A5E7, self.name.as_bytes()),
        }
    }

    /// The paper's shared-memory budget (`M = 5·10⁸` bits) reduced by the
    /// same factor as the stream, in bits.
    #[must_use]
    pub fn scaled_memory_bits(&self, scale: u64) -> usize {
        assert!(scale > 0, "scale must be positive");
        ((5_000_000_000u64 / 10) / scale).max(1 << 16) as usize
    }
}

/// All six datasets of Table I, in paper order.
pub static PROFILES: [DatasetProfile; 6] = [
    DatasetProfile {
        name: "sanjose",
        users: 8_387_347,
        max_cardinality: 313_772,
        total_cardinality: 23_073_907,
        duplication: 1.8,
        default_scale: 40,
    },
    DatasetProfile {
        name: "chicago",
        users: 1_966_677,
        max_cardinality: 106_026,
        total_cardinality: 9_910_287,
        duplication: 1.8,
        default_scale: 20,
    },
    DatasetProfile {
        name: "twitter",
        users: 40_103_281,
        max_cardinality: 2_997_496,
        total_cardinality: 1_468_365_182,
        duplication: 1.2,
        default_scale: 1_000,
    },
    DatasetProfile {
        name: "flickr",
        users: 1_441_431,
        max_cardinality: 26_185,
        total_cardinality: 22_613_980,
        duplication: 1.2,
        default_scale: 20,
    },
    DatasetProfile {
        name: "orkut",
        users: 2_997_376,
        max_cardinality: 31_949,
        total_cardinality: 223_534_301,
        duplication: 1.2,
        default_scale: 200,
    },
    DatasetProfile {
        name: "livejournal",
        users: 4_590_650,
        max_cardinality: 9_186,
        total_cardinality: 76_937_805,
        duplication: 1.2,
        default_scale: 80,
    },
];

/// Looks a profile up by (case-insensitive) name.
#[must_use]
pub fn by_name(name: &str) -> Option<&'static DatasetProfile> {
    PROFILES.iter().find(|p| p.name.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GroundTruth;

    #[test]
    fn published_means() {
        let means: Vec<f64> = PROFILES
            .iter()
            .map(DatasetProfile::mean_cardinality)
            .collect();
        // Spot-check against hand-computed Table I ratios.
        assert!((means[0] - 2.751).abs() < 0.01, "sanjose {}", means[0]);
        assert!((means[2] - 36.615).abs() < 0.01, "twitter {}", means[2]);
        assert!((means[4] - 74.577).abs() < 0.01, "orkut {}", means[4]);
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(by_name("Orkut").map(|p| p.name), Some("orkut"));
        assert_eq!(by_name("TWITTER").map(|p| p.name), Some("twitter"));
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn scaled_configs_are_valid_and_generate() {
        // Use an extra-aggressive scale so this stays a unit test.
        for p in &PROFILES {
            let cfg = p.scaled(p.default_scale * 50);
            let s = cfg.generate();
            assert!(!s.is_empty(), "{} generated empty stream", p.name);
            let mut g = GroundTruth::new();
            for &e in s.edges() {
                g.observe(e);
            }
            let emp_mean = g.total_cardinality() as f64 / g.user_count() as f64;
            assert!(
                (emp_mean / p.mean_cardinality() - 1.0).abs() < 0.25,
                "{}: empirical mean {emp_mean} vs published {}",
                p.name,
                p.mean_cardinality()
            );
        }
    }

    #[test]
    fn scaled_memory_shrinks_with_scale() {
        let p = &PROFILES[0];
        assert!(p.scaled_memory_bits(1) > p.scaled_memory_bits(40));
        assert_eq!(p.scaled_memory_bits(1), 500_000_000);
        assert!(p.scaled_memory_bits(1_000_000) >= 1 << 16);
    }

    #[test]
    fn profile_seeds_differ() {
        let seeds: std::collections::HashSet<u64> =
            PROFILES.iter().map(|p| p.config().seed).collect();
        assert_eq!(seeds.len(), PROFILES.len());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_scale_rejected() {
        let _ = PROFILES[0].scaled(0);
    }
}
