//! The far-field interference pricer (paper Eq. 17–20, localized).
//!
//! The paper's PPP reduction replaces the pairwise interference sum with
//! a Laplace transform over a Poisson point process of group density
//! `λ_{s,c} = λ·N_{s,c}/N` (Eq. 20). The cell-sharded allocator uses the
//! same license in *truncated* form: devices inside a cell's boundary
//! ring keep their exact pairwise terms, and everything beyond the ring
//! is priced as a PPP annulus `[r_min, r_max]` around the cell:
//!
//! * [`FarFieldPricer::interference_kernel`] — the first moment
//!   `2π ∫ ā(r)·r dr` of the annulus attenuation, which multiplied by
//!   `λ_g·p̄_g` gives the *mean* far-field interference power. The
//!   allocator's PDR form consumes mean interference (the expectation of
//!   Eq. 16's numerator), so the first moment is the term that composes
//!   with the exact local sums;
//! * [`FarFieldPricer::occupancy_kernel`] — the annulus contribution to
//!   a gateway's expected demodulator occupancy `Λ` (Eq. 12's mean),
//!   with the Rayleigh detection probability folded in;
//! * [`FarFieldPricer::truncated_laplace`] — the full Laplace transform
//!   of the annulus interference under Rayleigh fading, the literal
//!   Eq. 18–19 restricted to `[r_min, r_max]`; it reduces to
//!   `lora_model::interference::laplace_transform` as the annulus grows
//!   to the whole plane.
//!
//! All kernels average over the LoS/NLoS environment mixture the way the
//! deployment samples it (probability `p_los`), and integrate the *real*
//! configured path-loss curve by composite Simpson — no closed-form
//! exponent assumptions, so log-distance models price correctly too. A
//! pricer is built for one annulus and evaluates the path loss at its
//! Simpson nodes once, so a kernel costs only its own integrand.

use lora_sim::SimConfig;

/// Simpson panels per kernel evaluation; the integrands are smooth and
/// monotone, so a fixed fine grid is deterministic and accurate.
const PANELS: usize = 256;

/// Annulus pricing kernels for one deployment's propagation model and one
/// annulus `[r_min, r_max]`.
///
/// Every kernel integrates over the same Simpson nodes, and the path loss
/// at a node depends only on its radius and environment, so the pricer
/// evaluates each node's LoS and NLoS attenuation once, when it is built.
/// A kernel then runs only its own integrand over the cached values.
#[derive(Debug, Clone, PartialEq)]
pub struct FarFieldPricer {
    p_los: f64,
    /// The annulus inner radius, clamped at 0, metres.
    r_min: f64,
    r_max: f64,
    /// Panel width, metres.
    h: f64,
    /// Each panel's Simpson nodes: its start, midpoint and end. Empty for
    /// an empty annulus (`r_min ≥ r_max`).
    panels: Vec<[Node; 3]>,
}

/// One Simpson node: its radius and the path loss there in each
/// environment.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Node {
    r: f64,
    los: f64,
    nlos: f64,
}

impl FarFieldPricer {
    /// Builds the pricer for `config`'s propagation model over the annulus
    /// `[r_min_m, r_max_m]`: `r_min_m` is the exclusion radius inside which
    /// interferers are counted exactly, and `r_max_m` the far edge
    /// (typically the deployment diameter — a finite deployment has no
    /// interferers beyond it). A negative `r_min_m` counts as 0. An empty
    /// annulus (`r_min_m ≥ r_max_m`) prices nothing: its kernels and area
    /// are 0 and its Laplace transform is 1.
    ///
    /// # Panics
    ///
    /// Panics when `r_max_m` is not a positive finite number.
    pub fn new(config: &SimConfig, r_min_m: f64, r_max_m: f64) -> Self {
        assert!(
            r_max_m.is_finite() && r_max_m > 0.0,
            "far-field outer radius must be positive, got {r_max_m}"
        );
        let (path_loss, betas) = (config.path_loss, config.betas);
        let node = |r: f64| Node {
            r,
            los: path_loss.attenuation(r, betas.los),
            nlos: path_loss.attenuation(r, betas.nlos),
        };
        let lo = r_min_m.max(0.0);
        let (h, panels) = if lo >= r_max_m {
            (0.0, Vec::new())
        } else {
            let h = (r_max_m - lo) / PANELS as f64;
            let panels = (0..PANELS)
                .map(|i| {
                    let a = lo + i as f64 * h;
                    let m = a + 0.5 * h;
                    let b = a + h;
                    [node(a), node(m), node(b)]
                })
                .collect();
            (h, panels)
        };
        FarFieldPricer {
            p_los: config.p_los.clamp(0.0, 1.0),
            r_min: lo,
            r_max: r_max_m,
            h,
            panels,
        }
    }

    /// The annulus outer radius, metres.
    pub fn r_max_m(&self) -> f64 {
        self.r_max
    }

    /// Environment-mixture expectation of `f(a(r))` at `node`.
    #[inline]
    fn mix(&self, node: &Node, f: impl Fn(f64) -> f64) -> f64 {
        self.p_los * f(node.los) + (1.0 - self.p_los) * f(node.nlos)
    }

    /// Composite Simpson of `g(r)·r` over the annulus (the radial part of
    /// a polar area integral, without the `2π`), with `g` evaluated at a
    /// node.
    fn radial_integral(&self, g: impl Fn(&Node) -> f64) -> f64 {
        let h = self.h;
        let mut acc = 0.0;
        for [a, m, b] in &self.panels {
            acc += (g(a) * a.r + 4.0 * g(m) * m.r + g(b) * b.r) * h / 6.0;
        }
        acc
    }

    /// `2π ∫_{r_min}^{r_max} ā(r)·r dr` — multiply by the group density
    /// `λ_g` (per m²) and the group's mean transmit power `p̄_g` (mW) to
    /// get the mean far-field interference power at a point, mW.
    pub fn interference_kernel(&self) -> f64 {
        2.0 * std::f64::consts::PI * self.radial_integral(|node| self.mix(node, |a| a))
    }

    /// `2π ∫_{r_min}^{r_max} ā_det(r)·r dr` with
    /// `ā_det(r) = E_env[exp(−sens/(p̄·a(r)))]` — multiply by `λ_sf·α_sf`
    /// (group density times duty cycle) to get the annulus contribution
    /// to a gateway's expected occupancy `Λ`.
    pub fn occupancy_kernel(&self, sens_mw: f64, p_mw: f64) -> f64 {
        if p_mw <= 0.0 {
            return 0.0;
        }
        2.0 * std::f64::consts::PI
            * self.radial_integral(|node| {
                self.mix(node, |a| {
                    let mean_rx = p_mw * a;
                    if mean_rx <= 0.0 {
                        0.0
                    } else {
                        (-sens_mw / mean_rx).exp()
                    }
                })
            })
    }

    /// Area of the annulus, m² — the far-field count of a group is `λ_g`
    /// times this.
    pub fn ring_area_m2(&self) -> f64 {
        let lo = self.r_min.min(self.r_max);
        std::f64::consts::PI * (self.r_max * self.r_max - lo * lo)
    }

    /// The Laplace transform of the annulus interference at `s` under
    /// Rayleigh-faded interferers of density `lambda_per_m2` and transmit
    /// power `p_mw` — paper Eq. 18–19 truncated to `[r_min, r_max]`:
    /// `exp(−2πλ ∫ (1 − E_env[1/(1 + s·p·a(r))])·r dr)`.
    ///
    /// Returns a value in `(0, 1]`; as `r_min → 0`, `r_max → ∞` this
    /// approaches the closed form of
    /// `lora_model::interference::laplace_transform`.
    pub fn truncated_laplace(&self, s: f64, p_mw: f64, lambda_per_m2: f64) -> f64 {
        debug_assert!(s >= 0.0 && p_mw >= 0.0 && lambda_per_m2 >= 0.0);
        if s == 0.0 || p_mw == 0.0 || lambda_per_m2 == 0.0 {
            return 1.0;
        }
        let exponent = self.radial_integral(|node| {
            self.mix(node, |a| {
                let x = s * p_mw * a;
                1.0 - 1.0 / (1.0 + x)
            })
        });
        (-2.0 * std::f64::consts::PI * lambda_per_m2 * exponent).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lora_phy::path_loss::{BetaProfile, PathLossModel};
    use proptest::prelude::*;
    use std::f64::consts::PI;

    fn pricer(r_min: f64, r_max: f64) -> FarFieldPricer {
        FarFieldPricer::new(&SimConfig::default(), r_min, r_max)
    }

    /// The kernels as they were computed before the pricer cached its
    /// nodes: one pricer for every annulus with the same outer edge, the
    /// inner radius passed to each call and the path loss evaluated at
    /// every node of every call. The oracle the cached kernels must equal
    /// bit for bit.
    struct PerRadius {
        path_loss: PathLossModel,
        betas: BetaProfile,
        p_los: f64,
        r_max: f64,
    }

    impl PerRadius {
        fn new(config: &SimConfig, r_max: f64) -> Self {
            PerRadius {
                path_loss: config.path_loss,
                betas: config.betas,
                p_los: config.p_los.clamp(0.0, 1.0),
                r_max,
            }
        }

        fn mix(&self, r: f64, f: impl Fn(f64) -> f64) -> f64 {
            let a_los = self.path_loss.attenuation(r, self.betas.los);
            let a_nlos = self.path_loss.attenuation(r, self.betas.nlos);
            self.p_los * f(a_los) + (1.0 - self.p_los) * f(a_nlos)
        }

        fn radial_integral(&self, r_min: f64, g: impl Fn(f64) -> f64) -> f64 {
            let lo = r_min.max(0.0);
            if lo >= self.r_max {
                return 0.0;
            }
            let h = (self.r_max - lo) / PANELS as f64;
            let mut acc = 0.0;
            for i in 0..PANELS {
                let a = lo + i as f64 * h;
                let m = a + 0.5 * h;
                let b = a + h;
                acc += (g(a) * a + 4.0 * g(m) * m + g(b) * b) * h / 6.0;
            }
            acc
        }

        fn interference_kernel(&self, r_min: f64) -> f64 {
            2.0 * PI * self.radial_integral(r_min, |r| self.mix(r, |a| a))
        }

        fn occupancy_kernel(&self, sens_mw: f64, p_mw: f64, r_min: f64) -> f64 {
            if p_mw <= 0.0 {
                return 0.0;
            }
            2.0 * PI
                * self.radial_integral(r_min, |r| {
                    self.mix(r, |a| {
                        let mean_rx = p_mw * a;
                        if mean_rx <= 0.0 {
                            0.0
                        } else {
                            (-sens_mw / mean_rx).exp()
                        }
                    })
                })
        }

        fn ring_area_m2(&self, r_min: f64) -> f64 {
            let lo = r_min.max(0.0).min(self.r_max);
            PI * (self.r_max * self.r_max - lo * lo)
        }

        fn truncated_laplace(&self, s: f64, p_mw: f64, lambda_per_m2: f64, r_min: f64) -> f64 {
            if s == 0.0 || p_mw == 0.0 || lambda_per_m2 == 0.0 {
                return 1.0;
            }
            let exponent = self.radial_integral(r_min, |r| {
                self.mix(r, |a| {
                    let x = s * p_mw * a;
                    1.0 - 1.0 / (1.0 + x)
                })
            });
            (-2.0 * PI * lambda_per_m2 * exponent).exp()
        }
    }

    /// A propagation model drawn from `draw`: either path-loss model at a
    /// random carrier (and reference distance), a uniform or a split β
    /// profile, and a LoS probability that is sometimes exactly 0 or 1 and
    /// sometimes outside `[0, 1]` (the pricer clamps it).
    fn drawn_config(draw: [f64; 6]) -> SimConfig {
        let f_hz = 400e6 + draw[0] * 600e6;
        let path_loss = if draw[1] < 0.5 {
            PathLossModel::friis_exponent(f_hz)
        } else {
            PathLossModel::log_distance(f_hz, 1.0 + draw[1] * 200.0)
        };
        let los = 2.05 + 2.5 * draw[2];
        let betas = if draw[3] < 0.3 {
            BetaProfile::uniform(los)
        } else {
            BetaProfile::new(los, 2.05 + 2.5 * draw[3])
        };
        let p_los = match (draw[4] * 5.0) as u32 {
            0 => 0.0,
            1 => 1.0,
            2 => -0.2 + 1.4 * draw[5],
            _ => draw[5],
        };
        SimConfig::builder()
            .path_loss(path_loss)
            .betas(betas)
            .p_los(p_los)
            .build()
    }

    /// An inner radius for an annulus reaching `r_max`: 0, negative, inside
    /// the annulus, exactly `r_max` or beyond it.
    fn drawn_r_min(r_max: f64, pick: f64, u: f64) -> f64 {
        match (pick * 5.0) as u32 {
            0 => 0.0,
            1 => -u * r_max,
            2 => r_max,
            3 => r_max * (1.0 + u),
            _ => u * r_max,
        }
    }

    /// A power, mW: 0, negative or positive over six decades.
    fn drawn_power(pick: f64, u: f64) -> f64 {
        match (pick * 5.0) as u32 {
            0 => 0.0,
            1 => -10f64.powf(3.0 * u - 2.0),
            _ => 10f64.powf(6.0 * u - 3.0),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn cached_kernels_equal_the_per_radius_integral(
            draw in any::<[f64; 6]>(),
            (r_max, pick_r, u_r) in (1.0f64..40_000.0, any::<f64>(), any::<f64>()),
            (sens_exp, pick_p, u_p) in (-16.0f64..-8.0, any::<f64>(), any::<f64>()),
            (s_exp, lambda_exp, zero) in (-6.0f64..12.0, -12.0f64..-3.0, 0u32..8),
        ) {
            let config = drawn_config(draw);
            let r_min = drawn_r_min(r_max, pick_r, u_r);
            let cached = FarFieldPricer::new(&config, r_min, r_max);
            let oracle = PerRadius::new(&config, r_max);
            let bits = |x: f64| x.to_bits();

            prop_assert_eq!(
                bits(cached.interference_kernel()),
                bits(oracle.interference_kernel(r_min)),
                "interference kernel, r_min {} r_max {}", r_min, r_max
            );
            prop_assert_eq!(bits(cached.ring_area_m2()), bits(oracle.ring_area_m2(r_min)));
            let sens = 10f64.powf(sens_exp);
            let p_mw = drawn_power(pick_p, u_p);
            prop_assert_eq!(
                bits(cached.occupancy_kernel(sens, p_mw)),
                bits(oracle.occupancy_kernel(sens, p_mw, r_min)),
                "occupancy kernel, sens {} p {} r_min {} r_max {}", sens, p_mw, r_min, r_max
            );
            // The Laplace transform takes non-negative arguments; each of
            // them is sometimes exactly 0.
            let p_mw = p_mw.abs();
            let s = if zero == 1 { 0.0 } else { 10f64.powf(s_exp) };
            let lambda = if zero == 2 { 0.0 } else { 10f64.powf(lambda_exp) };
            prop_assert_eq!(
                bits(cached.truncated_laplace(s, p_mw, lambda)),
                bits(oracle.truncated_laplace(s, p_mw, lambda, r_min)),
                "Laplace, s {} p {} λ {} r_min {} r_max {}", s, p_mw, lambda, r_min, r_max
            );
        }
    }

    #[test]
    fn an_empty_annulus_prices_nothing() {
        for r_min in [10_000.0, 20_000.0] {
            let p = pricer(r_min, 10_000.0);
            assert_eq!(p.interference_kernel(), 0.0);
            assert_eq!(p.occupancy_kernel(1e-12, 25.0), 0.0);
            assert_eq!(p.ring_area_m2(), 0.0);
            assert_eq!(p.truncated_laplace(1.0, 25.0, 1e-7), 1.0);
        }
    }

    #[test]
    fn kernels_shrink_with_exclusion_radius() {
        let kernel = |r_min: f64| pricer(r_min, 10_000.0).interference_kernel();
        let (full, cut, far) = (kernel(0.0), kernel(1_000.0), kernel(8_000.0));
        assert!(full > cut && cut > far && far > 0.0);
        assert_eq!(kernel(10_000.0), 0.0);
        assert_eq!(kernel(20_000.0), 0.0);
    }

    #[test]
    fn mean_far_interference_is_below_noise_scale() {
        // The whole point of the horizon: with the exclusion at the
        // horizon, far devices contribute less than noise even at
        // metropolitan densities.
        let config = SimConfig::default();
        let horizon = crate::horizon::attenuation_horizon_m(&config, 1e-2);
        let p = pricer(horizon, 10_000.0);
        let lambda = 1_000_000.0 / (PI * 5_000.0f64.powi(2)); // 1M in 5 km
        let mean_i = lambda * 25.0 * p.interference_kernel();
        let noise = lora_phy::dbm_to_mw(lora_phy::link::noise_floor_dbm(
            lora_phy::Bandwidth::Bw125,
            config.noise_figure_db,
        ));
        assert!(
            mean_i < noise * 1_000.0,
            "far field stays noise-scale: {mean_i} vs noise {noise}"
        );
    }

    #[test]
    fn occupancy_kernel_bounded_by_ring_area() {
        // The detection probability is ≤ 1, so the kernel is at most the
        // annulus area.
        for r_min in [0.0, 500.0, 3_000.0] {
            let p = pricer(r_min, 6_000.0);
            let k = p.occupancy_kernel(1e-12, 25.0);
            assert!(k >= 0.0 && k <= p.ring_area_m2() * (1.0 + 1e-12));
        }
        assert_eq!(pricer(0.0, 6_000.0).occupancy_kernel(1e-12, 0.0), 0.0);
    }

    #[test]
    fn truncated_laplace_is_probability_like_and_monotone() {
        let p = pricer(100.0, 10_000.0);
        for s in [1e-3, 1.0, 1e3] {
            for lambda in [0.0, 1e-8, 1e-5] {
                let v = p.truncated_laplace(s, 25.0, lambda);
                assert!((0.0..=1.0).contains(&v), "s={s} λ={lambda}: {v}");
            }
        }
        let base = p.truncated_laplace(1.0, 25.0, 1e-7);
        assert!(p.truncated_laplace(1.0, 25.0, 2e-7) < base);
        assert!(p.truncated_laplace(2.0, 25.0, 1e-7) < base);
        assert!(pricer(2_000.0, 10_000.0).truncated_laplace(1.0, 25.0, 1e-7) > base);
        assert_eq!(p.truncated_laplace(0.0, 25.0, 1e-7), 1.0);
    }

    #[test]
    fn truncated_laplace_approaches_the_closed_form() {
        // Friis kernel with a uniform exponent: a(r) = K·r^{−β} for
        // r ≥ 1, so the untruncated transform has the closed form
        // exp(−2πλ·(s·p·K)^{2/β}·C(β)) with C(β) = (π/β)/sin(2π/β).
        let beta = 3.5;
        let f_hz = 903e6;
        let config = SimConfig::builder()
            .path_loss(PathLossModel::friis_exponent(f_hz))
            .betas(BetaProfile::uniform(beta))
            .build();
        let p = FarFieldPricer::new(&config, 0.0, 2_000_000.0);
        let k = config.path_loss.attenuation(1.0, beta); // a(1) = K
        let (s, p_mw, lambda) = (5e9, 25.0, 1e-9);
        let c_beta = (PI / beta) / (2.0 * PI / beta).sin();
        let closed = (-2.0 * PI * lambda * (s * p_mw * k).powf(2.0 / beta) * c_beta).exp();
        let numeric = p.truncated_laplace(s, p_mw, lambda);
        assert!(
            (numeric - closed).abs() < 0.05 * closed.max(1e-3),
            "numeric {numeric} vs closed {closed}"
        );
    }
}
