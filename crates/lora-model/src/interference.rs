//! Cumulative interference: mean-field sums and the PPP Laplace transform.
//!
//! Evaluating the exact interference on device `i` requires every
//! co-group device's power and distance. The paper offers two levels:
//!
//! * the **mean-field** sum `Ī_{i,k} = Σ_{j∈group, j≠i} p_j·a(d_{j,k})`
//!   (the expectation of Eq. 16's numerator under unit-mean fading), which
//!   this crate maintains incrementally per (group, gateway);
//! * the **Laplace-transform reduction** (Eq. 18–20): when devices form a
//!   Poisson point process of density `λ_{s,c}`, the Laplace transform of
//!   the cumulative interference has the closed form
//!   `L_I(s) = exp(−2πλ(s·p)^{2/β}·C(β))` with
//!   `C(β) = (π/β)/sin(2π/β)` for `β > 2`, removing the per-device sum.

use std::f64::consts::PI;

/// The geometry constant `C(β) = ∫₀^∞ r/(1+r^β) dr = (π/β)/sin(2π/β)`,
/// finite for `β > 2` (paper Eq. 19's inner double integral).
///
/// # Panics
///
/// Panics if `beta <= 2`, where the integral diverges — the caller must
/// not use the PPP reduction for free-space-like exponents.
///
/// ```
/// let c = lora_model::interference::geometry_constant(4.0);
/// assert!((c - std::f64::consts::PI / 4.0).abs() < 1e-12);
/// ```
pub fn geometry_constant(beta: f64) -> f64 {
    assert!(
        beta > 2.0,
        "PPP interference integral diverges for beta <= 2"
    );
    (PI / beta) / (2.0 * PI / beta).sin()
}

/// The Laplace transform of the PPP cumulative interference evaluated at
/// `s` (paper Eq. 19): `exp(−2πλ(s·p)^{2/β}·C(β))`, where `λ` is the
/// density of co-group devices per square metre and `p` their (common)
/// transmit power in milliwatts.
///
/// Returns a value in `(0, 1]`; `λ = 0` (no contenders) gives exactly 1.
pub fn laplace_transform(s: f64, power_mw: f64, beta: f64, density_per_m2: f64) -> f64 {
    debug_assert!(s >= 0.0 && power_mw >= 0.0 && density_per_m2 >= 0.0);
    if s == 0.0 || density_per_m2 == 0.0 || power_mw == 0.0 {
        return 1.0;
    }
    let c = geometry_constant(beta);
    (-2.0 * PI * density_per_m2 * (s * power_mw).powf(2.0 / beta) * c).exp()
}

/// The density `λ_{s,c} = λ·N_{s,c}/N` of a contention group when `n_group`
/// of the `n_total` devices (deployed with overall density
/// `density_per_m2`) share the group (paper Eq. 20).
pub fn group_density(density_per_m2: f64, n_group: usize, n_total: usize) -> f64 {
    if n_total == 0 {
        0.0
    } else {
        density_per_m2 * n_group as f64 / n_total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Numerical evaluation of `∫₀^∞ r/(1+r^β) dr` by composite Simpson
    /// on a transformed domain, the reference for [`geometry_constant`].
    fn geometry_constant_numeric(beta: f64) -> f64 {
        assert!(beta > 2.0);
        // Substitute r = t/(1−t) mapping (0,1) → (0,∞):
        // dr = dt/(1−t)², integrand r/(1+r^β)·dr.
        let f = |t: f64| {
            if t <= 0.0 || t >= 1.0 {
                return 0.0;
            }
            let r = t / (1.0 - t);
            (r / (1.0 + r.powf(beta))) / (1.0 - t).powi(2)
        };
        // Composite Simpson with a fine grid; the integrand is smooth.
        let n = 20_000;
        let h = 1.0 / n as f64;
        let mut acc = 0.0;
        for i in 0..n {
            let a = i as f64 * h;
            acc += (f(a) + 4.0 * f(a + h / 2.0) + f(a + h)) * h / 6.0;
        }
        acc
    }

    #[test]
    fn closed_form_matches_quadrature() {
        for beta in [2.5, 2.7, 3.0, 3.2, 3.7, 4.0, 4.3] {
            let closed = geometry_constant(beta);
            let numeric = geometry_constant_numeric(beta);
            assert!(
                (closed - numeric).abs() / closed < 1e-2,
                "beta={beta}: {closed} vs {numeric}"
            );
        }
    }

    #[test]
    fn beta_4_special_value() {
        // ∫ r/(1+r⁴) dr = π/4.
        assert!((geometry_constant(4.0) - PI / 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "diverges")]
    fn beta_2_diverges() {
        let _ = geometry_constant(2.0);
    }

    #[test]
    fn laplace_is_a_probability_like_factor() {
        for s in [1e-9, 1e-3, 1.0, 1e3] {
            for lambda in [0.0, 1e-8, 1e-6, 1e-4] {
                let v = laplace_transform(s, 25.0, 3.5, lambda);
                assert!((0.0..=1.0).contains(&v), "s={s} λ={lambda}: {v}");
            }
        }
    }

    #[test]
    fn laplace_decreases_with_density_and_s() {
        let base = laplace_transform(1.0, 25.0, 3.5, 1e-6);
        assert!(laplace_transform(1.0, 25.0, 3.5, 2e-6) < base);
        assert!(laplace_transform(2.0, 25.0, 3.5, 1e-6) < base);
        assert_eq!(laplace_transform(0.0, 25.0, 3.5, 1e-6), 1.0);
        assert_eq!(laplace_transform(1.0, 25.0, 3.5, 0.0), 1.0);
    }

    #[test]
    fn group_density_is_proportional() {
        let d = group_density(1e-4, 25, 100);
        assert!((d - 2.5e-5).abs() < 1e-18);
        assert_eq!(group_density(1e-4, 5, 0), 0.0);
    }
}
