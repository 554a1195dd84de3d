//! Empirical bias correction for the HLL++ raw estimator.
//!
//! Heule et al. observed that the raw HLL estimate `α_m m²/Σ2^{-R}` is
//! biased in the window between the linear-counting regime and `~5m`, and
//! shipped per-precision empirical tables mapping raw estimate → bias.
//! Their tables are data files extracted from Google-internal runs; we
//! regenerate equivalent tables with our own simulation
//! (`cargo run -p bench --release --bin gen_bias`), which measures
//! `mean(raw) − n` over many trials at log-spaced true cardinalities and
//! emits the `(raw, bias)` interpolation anchors below. This is one of the
//! substitutions listed in README.md, "Reproduction status".
//!
//! At query time [`estimate_bias`] linearly interpolates between the two
//! anchors bracketing the observed raw estimate; outside the table range the
//! bias is taken as the nearest endpoint (clamped), matching the reference
//! implementation's nearest-neighbor fallback.

/// One `(raw_estimate, bias)` anchor.
type Anchor = (f64, f64);

/// Returns the interpolation anchors for a precision, if we generated them.
fn table(precision: u8) -> Option<&'static [Anchor]> {
    match precision {
        4 => Some(&generated::P4),
        5 => Some(&generated::P5),
        6 => Some(&generated::P6),
        7 => Some(&generated::P7),
        8 => Some(&generated::P8),
        9 => Some(&generated::P9),
        10 => Some(&generated::P10),
        11 => Some(&generated::P11),
        12 => Some(&generated::P12),
        13 => Some(&generated::P13),
        14 => Some(&generated::P14),
        _ => None,
    }
}

/// Interpolated bias of the raw estimator at `raw` for the given precision.
///
/// Returns `0.0` for precisions without a generated table (15..=18), where
/// the relative bias is small enough that plain HLL behaviour is acceptable;
/// the evaluation harness only instantiates per-user HLL++ at small
/// precisions.
#[must_use]
pub fn estimate_bias(precision: u8, raw: f64) -> f64 {
    let Some(anchors) = table(precision) else {
        return 0.0;
    };
    debug_assert!(anchors.len() >= 2);
    if raw <= anchors[0].0 {
        return anchors[0].1;
    }
    if raw >= anchors[anchors.len() - 1].0 {
        return anchors[anchors.len() - 1].1;
    }
    // Binary search for the bracketing pair.
    let mut lo = 0usize;
    let mut hi = anchors.len() - 1;
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if anchors[mid].0 <= raw {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let (x0, y0) = anchors[lo];
    let (x1, y1) = anchors[hi];
    let t = (raw - x0) / (x1 - x0);
    y0 + t * (y1 - y0)
}

/// Simulation-generated anchors. Regenerate with
/// `cargo run -p bench --release --bin gen_bias > crates/cardsketch/src/hllpp/bias_tables.rs`.
mod generated {
    include!("bias_tables.rs");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_exist_for_supported_precisions() {
        for p in 4..=14u8 {
            let t = table(p).expect("table present");
            assert!(t.len() >= 2, "precision {p} table too small");
            // Anchors sorted by raw estimate.
            for w in t.windows(2) {
                assert!(w[0].0 < w[1].0, "precision {p} anchors unsorted");
            }
        }
        assert!(table(15).is_none());
    }

    #[test]
    fn bias_positive_in_low_window() {
        // The raw estimator overestimates below ~2.5m; bias must be positive
        // there for every generated precision.
        for p in 4..=14u8 {
            let m = f64::from(1u32 << p);
            let b = estimate_bias(p, 1.5 * m);
            assert!(
                b > 0.0,
                "precision {p}: bias {b} at 1.5m should be positive"
            );
        }
    }

    #[test]
    fn bias_small_near_five_m() {
        for p in 4..=14u8 {
            let m = f64::from(1u32 << p);
            let b = estimate_bias(p, 5.0 * m);
            assert!(
                b.abs() < 0.15 * m,
                "precision {p}: bias {b} at 5m should be fading out"
            );
        }
    }

    #[test]
    fn interpolation_is_continuous() {
        let p = 10u8;
        let t = table(p).expect("table");
        for w in t.windows(2) {
            let mid = (w[0].0 + w[1].0) / 2.0;
            let b = estimate_bias(p, mid);
            let lo = w[0].1.min(w[1].1);
            let hi = w[0].1.max(w[1].1);
            assert!(b >= lo - 1e-9 && b <= hi + 1e-9);
        }
    }

    #[test]
    fn clamps_outside_range() {
        let p = 8u8;
        let t = table(p).expect("table");
        assert_eq!(estimate_bias(p, 0.0), t[0].1);
        assert_eq!(estimate_bias(p, 1e12), t[t.len() - 1].1);
    }

    #[test]
    fn unsupported_precision_is_zero() {
        assert_eq!(estimate_bias(15, 1000.0), 0.0);
        assert_eq!(estimate_bias(18, 1000.0), 0.0);
    }
}
