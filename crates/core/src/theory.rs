//! Closed-form error formulas from the paper, used as statistical oracles
//! in tests and printed by the ablation experiments.
//!
//! Everything here is a direct transcription of §III and §IV:
//! LPC bias (Whang et al., quoted in §III-A1), the `E[1/q]`
//! approximations of Theorems 1 and 2, the variance *bounds* of both
//! theorems, and the approximate variances of CSE and vHLL quoted in
//! §III-B/§IV-C.

/// LPC estimator bias at true cardinality `n` with `m` bits (§III-A1):
/// `E[n̂] − n ≈ (e^{n/m} − n/m − 1)/2`.
#[must_use]
pub fn lpc_bias(n: f64, m: f64) -> f64 {
    let t = n / m;
    0.5 * (t.exp() - t - 1.0)
}

/// Theorem 1's approximation of `E[1/q_B]` when `n` distinct pairs have
/// been absorbed by an `M`-bit FreeBS array:
/// `E[1/q_B] ≈ e^{n/M} (1 + (e^{n/M} − n/M − 1)/M)`.
#[must_use]
pub fn freebs_e_inv_q(n: f64, m_bits: f64) -> f64 {
    let t = n / m_bits;
    t.exp() * (1.0 + (t.exp() - t - 1.0) / m_bits)
}

/// Theorem 1's variance bound for a user with cardinality `n_s` when the
/// stream has absorbed `n` distinct pairs in total:
/// `Var(n̂_s) ≤ n_s (E[1/q_B(t)] − 1)`.
#[must_use]
pub fn freebs_variance_bound(n_s: f64, n: f64, m_bits: f64) -> f64 {
    n_s * (freebs_e_inv_q(n, m_bits) - 1.0)
}

/// Theorem 2's approximation of `E[1/q_R]` for FreeRS with `M` registers:
/// `≈ 1.386·n/M` for `n > 2.5M` (i.e. `n/(α_∞ M)`). Below that, where
/// many registers are still zero, it is `1/E[q_R]` with `E[q_R]` under
/// Poisson arrivals of `λ = n/M` distinct pairs per register:
/// `E[q_R] = e^{-λ} + Σ_{r≥1} 2^{-r}(e^{-λ/2^r} − e^{-λ/2^{r-1}})`, since a
/// register holds `R ≤ r` with probability `e^{-λ/2^r}`. The two meet near
/// `n = 2.5M` (3.55 against 3.47).
#[must_use]
pub fn freers_e_inv_q(n: f64, m_regs: f64) -> f64 {
    let lambda = n / m_regs;
    if lambda > 2.5 {
        return 1.386 * lambda;
    }
    let at_most = |r: i32| (-lambda / 2f64.powi(r)).exp();
    let e_q: f64 = (1..64)
        .map(|r| 2f64.powi(-r) * (at_most(r) - at_most(r - 1)))
        .sum();
    1.0 / (e_q + at_most(0))
}

/// Theorem 2's variance bound: `Var(n̂_s) ≤ n_s (E[1/q_R(t)] − 1)`.
#[must_use]
pub fn freers_variance_bound(n_s: f64, n: f64, m_regs: f64) -> f64 {
    n_s * (freers_e_inv_q(n, m_regs) - 1.0)
}

/// CSE variance (§IV-C, from reference \[39\] of the paper):
/// `Var(n̂_s) ≈ m (E[1/q] e^{n_s/m} − n_s/m − 1)` with `E[1/q] ≈ e^{n/M}`.
#[must_use]
pub fn cse_variance(n_s: f64, n: f64, m: f64, m_bits: f64) -> f64 {
    let e_inv_q = (n / m_bits).exp();
    m * (e_inv_q * (n_s / m).exp() - n_s / m - 1.0)
}

/// vHLL variance (§III-B2):
/// `Var(n̂_s) ≈ (M/(M−m))² [ (1.04²/m)(n_s + (n−n_s)·m/M)² +
/// (n−n_s)·(m/M)(1−m/M) + (1.04·n·m)²/M³ ]`.
#[must_use]
pub fn vhll_variance(n_s: f64, n: f64, m: f64, m_regs: f64) -> f64 {
    let ratio = m_regs / (m_regs - m);
    let noise = (n - n_s) * m / m_regs;
    ratio
        * ratio
        * ((1.04 * 1.04 / m) * (n_s + noise).powi(2)
            + (n - n_s) * (m / m_regs) * (1.0 - m / m_regs)
            + (1.04 * n * m).powi(2) / m_regs.powi(3))
}

/// The paper's §IV-C comparison bound for vHLL in the shared regime:
/// `Var(n̂_s) ⪆ 2.163·n·n_s/(M−m)`.
#[must_use]
pub fn vhll_variance_lower(n_s: f64, n: f64, m: f64, m_regs: f64) -> f64 {
    2.163 * n * n_s / (m_regs - m)
}

/// The paper's §IV-C upper estimate for FreeRS in the same regime:
/// `Var(n̂_s) ⪅ 1.386·n·n_s/M`.
#[must_use]
pub fn freers_variance_upper(n_s: f64, n: f64, m_regs: f64) -> f64 {
    1.386 * n * n_s / m_regs
}

/// FreeBS's estimation-range ceiling `M ln M` (§IV-C): the expected total
/// distinct count at which the bit array saturates.
#[must_use]
pub fn freebs_range(m_bits: f64) -> f64 {
    m_bits * m_bits.ln()
}

/// CSE's estimation-range ceiling `m ln m`.
#[must_use]
pub fn cse_range(m: f64) -> f64 {
    m * m.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lpc_bias_vanishes_for_light_load() {
        assert!(lpc_bias(10.0, 1e6) < 1e-3);
        // and grows with load
        assert!(lpc_bias(2e6, 1e6) > 1.0);
    }

    #[test]
    fn freebs_e_inv_q_at_zero_is_one() {
        assert!((freebs_e_inv_q(0.0, 1e6) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn freebs_variance_bound_grows_with_load() {
        let m = 1e5;
        let v1 = freebs_variance_bound(100.0, 1e4, m);
        let v2 = freebs_variance_bound(100.0, 1e5, m);
        assert!(v2 > v1);
        assert!(v1 >= 0.0);
    }

    #[test]
    fn freers_e_inv_q_branches_agree_at_crossover() {
        // Continuity sanity: the two branches should be within a small
        // factor near n = 2.5M.
        let m = 1e4;
        let below = freers_e_inv_q(2.49 * m, m);
        let above = freers_e_inv_q(2.51 * m, m);
        assert!(
            above / below < 1.5 && below / above < 1.5,
            "{below} vs {above}"
        );
    }

    #[test]
    fn freers_e_inv_q_is_the_poissonized_inverse_below_2_5m() {
        let m = 1e5;
        for (lambda, want) in [(0.227, 1.16), (0.766, 1.60)] {
            let got = freers_e_inv_q(lambda * m, m);
            assert!((got - want).abs() < 0.005, "λ = {lambda}: {got} vs {want}");
        }
        assert_eq!(freers_e_inv_q(0.0, m), 1.0);
        assert!(freers_variance_bound(100.0, 0.1 * m, m) > 0.0);
    }

    #[test]
    fn paper_claim_freers_beats_vhll_variance() {
        // §IV-C: FreeRS's bound 1.386·n·n_s/M is below vHLL's 2.163·n·n_s/(M−m).
        let (n_s, n, m, m_regs) = (1e3, 1e6, 1024.0, 1e5);
        assert!(freers_variance_upper(n_s, n, m_regs) < vhll_variance_lower(n_s, n, m, m_regs));
    }

    #[test]
    fn paper_claim_freebs_range_exceeds_cse_range() {
        assert!(freebs_range(1e8) > cse_range(1024.0) * 1e3);
    }

    #[test]
    fn vhll_variance_positive_and_scales() {
        let v_small = vhll_variance(100.0, 1e5, 512.0, 1e5);
        let v_big = vhll_variance(100.0, 1e6, 512.0, 1e5);
        assert!(v_small > 0.0);
        assert!(v_big > v_small, "more noise, more variance");
    }

    #[test]
    fn cse_variance_increases_with_global_noise() {
        let a = cse_variance(50.0, 1e5, 512.0, 1e7);
        let b = cse_variance(50.0, 5e6, 512.0, 1e7);
        assert!(b > a);
    }
}
