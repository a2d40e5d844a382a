//! Spatial point processes: seed-deterministic device-position samplers.
//!
//! Every sampler draws from a `ChaCha12Rng` seeded as
//! `spec.seed ^ SPATIAL_TAG`, independent of the simulation and placement
//! streams, so the same spec re-simulates under different channel
//! randomness with identical geometry (the discipline
//! [`lora_sim::Topology::try_disc`] established).
//!
//! The legacy shape — [`SpatialSpec::UniformDisc`] with grid gateways and
//! no classes — never reaches this module: [`crate::compile()`] delegates it
//! to `Topology::try_disc` so the historical byte-identical stream is
//! preserved.

use rand::Rng;
use rand_chacha::ChaCha12Rng;

use lora_sim::Position;

use crate::error::ScenarioError;
use crate::spec::{HotspotSpec, SpatialSpec};

/// Seed tag of the spatial stream ("spatials").
pub(crate) const SPATIAL_TAG: u64 = 0x7370_6174_6961_6c73;

/// Poisson means are sampled in chunks of at most this value: a
/// `Poisson(λ)` draw is the sum of independent `Poisson(λᵢ)` draws with
/// `Σλᵢ = λ`, and Knuth's product-of-uniforms needs `exp(-λᵢ)` to stay
/// comfortably above `f64` underflow (`exp(-500) ≈ 7e-218`).
const POISSON_CHUNK: f64 = 500.0;

/// Draws a Poisson-distributed count with mean `lambda` (Knuth's
/// product-of-uniforms, λ-chunked so large means never underflow).
pub fn poisson_count(rng: &mut ChaCha12Rng, lambda: f64) -> usize {
    debug_assert!(lambda.is_finite() && lambda >= 0.0);
    let mut remaining = lambda;
    let mut total = 0usize;
    while remaining > 0.0 {
        let chunk = remaining.min(POISSON_CHUNK);
        remaining -= chunk;
        let threshold = (-chunk).exp();
        let mut product = rng.gen::<f64>();
        while product > threshold {
            total += 1;
            product *= rng.gen::<f64>();
        }
    }
    total
}

/// One position uniform in the disc of radius `radius_m` centred at the
/// origin (`r = R·√u`, θ uniform — the legacy generator's parameterisation).
pub fn uniform_disc_point(rng: &mut ChaCha12Rng, radius_m: f64) -> Position {
    let r = radius_m * rng.gen::<f64>().sqrt();
    let theta = rng.gen::<f64>() * std::f64::consts::TAU;
    Position::new(r * theta.cos(), r * theta.sin())
}

/// How many times a cluster daughter is re-drawn before being radially
/// clamped into the region. Bounds the rejection loop for hotspots whose
/// scatter disc pokes far outside the region (a hotspot centred on the
/// boundary still terminates).
const DAUGHTER_ATTEMPTS: usize = 64;

/// One daughter position: uniform in the disc of `scatter_m` around
/// `parent`, re-drawn while it lands outside the region and radially
/// clamped onto the boundary after [`DAUGHTER_ATTEMPTS`] rejections.
fn daughter_point(
    rng: &mut ChaCha12Rng,
    parent: Position,
    scatter_m: f64,
    region_m: f64,
) -> Position {
    let origin = Position::default();
    let mut last = parent;
    for _ in 0..DAUGHTER_ATTEMPTS {
        let offset = uniform_disc_point(rng, scatter_m);
        let p = Position::new(parent.x + offset.x, parent.y + offset.y);
        if p.distance_to(&origin) <= region_m {
            return p;
        }
        last = p;
    }
    let d = last.distance_to(&origin);
    if d > 0.0 {
        Position::new(last.x * region_m / d, last.y * region_m / d)
    } else {
        last
    }
}

/// Samples the device positions of a spatial process into `rng` (already
/// seeded for the spatial stream). Exposed separately from
/// [`sample_positions`] so churn joins can draw *more* positions from a
/// later point of an epoch-specific stream.
///
/// # Errors
///
/// [`ScenarioError::EmptyScenario`] when a stochastic count (PPP or a
/// cluster mixture with no background) comes up zero.
pub fn sample_positions_with(
    rng: &mut ChaCha12Rng,
    spatial: &SpatialSpec,
    radius_m: f64,
) -> Result<Vec<Position>, ScenarioError> {
    let positions = match spatial {
        SpatialSpec::UniformDisc { devices } => (0..*devices)
            .map(|_| uniform_disc_point(rng, radius_m))
            .collect(),
        SpatialSpec::Ppp { intensity_per_km2 } => {
            let area_km2 = std::f64::consts::PI * (radius_m / 1_000.0).powi(2);
            let n = poisson_count(rng, intensity_per_km2 * area_km2);
            (0..n).map(|_| uniform_disc_point(rng, radius_m)).collect()
        }
        SpatialSpec::Clusters {
            hotspots,
            background_devices,
        } => {
            let mut out = Vec::new();
            for h in hotspots {
                let parent = parent_of(rng, h, radius_m);
                let n = poisson_count(rng, h.mean_devices);
                for _ in 0..n {
                    out.push(daughter_point(rng, parent, h.radius_m, radius_m));
                }
            }
            for _ in 0..*background_devices {
                out.push(uniform_disc_point(rng, radius_m));
            }
            out
        }
        SpatialSpec::Annulus {
            devices,
            inner_m,
            outer_m,
        } => (0..*devices)
            .map(|_| {
                // Uniform in the annulus: r = √(u·(R₂²−R₁²)+R₁²).
                let u = rng.gen::<f64>();
                let r = (u * (outer_m * outer_m - inner_m * inner_m) + inner_m * inner_m).sqrt();
                let theta = rng.gen::<f64>() * std::f64::consts::TAU;
                Position::new(r * theta.cos(), r * theta.sin())
            })
            .collect(),
        SpatialSpec::Corridor {
            devices,
            length_m,
            width_m,
            angle_deg,
        } => {
            let angle = angle_deg.to_radians();
            let (sin, cos) = angle.sin_cos();
            (0..*devices)
                .map(|_| {
                    let along = (rng.gen::<f64>() - 0.5) * length_m;
                    let across = (rng.gen::<f64>() - 0.5) * width_m;
                    Position::new(along * cos - across * sin, along * sin + across * cos)
                })
                .collect()
        }
    };
    if positions.is_empty() {
        return Err(ScenarioError::EmptyScenario {
            reason: format!("spatial process {spatial:?} produced zero devices"),
        });
    }
    Ok(positions)
}

/// Samples a spatial process from a fresh spatial stream derived from the
/// scenario seed.
///
/// # Errors
///
/// See [`sample_positions_with`].
pub fn sample_positions(
    spatial: &SpatialSpec,
    radius_m: f64,
    seed: u64,
) -> Result<Vec<Position>, ScenarioError> {
    use rand::SeedableRng;
    let mut rng = ChaCha12Rng::seed_from_u64(seed ^ SPATIAL_TAG);
    sample_positions_with(&mut rng, spatial, radius_m)
}

/// Draws exactly `count` positions from the *shape* of a spatial process
/// — the churn-join sampler. Stochastic-count processes keep their
/// geometry but not their counts: a PPP join draws uniform points, a
/// cluster join picks a component weighted by its expected population
/// (background included) and scatters one daughter there.
pub fn sample_n_positions(
    rng: &mut ChaCha12Rng,
    spatial: &SpatialSpec,
    radius_m: f64,
    count: usize,
) -> Vec<Position> {
    match spatial {
        SpatialSpec::UniformDisc { .. } | SpatialSpec::Ppp { .. } => (0..count)
            .map(|_| uniform_disc_point(rng, radius_m))
            .collect(),
        SpatialSpec::Clusters {
            hotspots,
            background_devices,
        } => {
            // Component weights: each hotspot's expected population, plus
            // the uniform background.
            let weights: Vec<f64> = hotspots
                .iter()
                .map(|h| h.mean_devices)
                .chain(std::iter::once(*background_devices as f64))
                .collect();
            let total: f64 = weights.iter().sum();
            (0..count)
                .map(|_| {
                    if total <= 0.0 {
                        return uniform_disc_point(rng, radius_m);
                    }
                    let mut pick = rng.gen::<f64>() * total;
                    for (i, w) in weights.iter().enumerate() {
                        pick -= w;
                        if pick <= 0.0 {
                            if let Some(h) = hotspots.get(i) {
                                let parent = parent_of(rng, h, radius_m);
                                return daughter_point(rng, parent, h.radius_m, radius_m);
                            }
                            break;
                        }
                    }
                    uniform_disc_point(rng, radius_m)
                })
                .collect()
        }
        SpatialSpec::Annulus {
            inner_m, outer_m, ..
        } => {
            let shape = SpatialSpec::Annulus {
                devices: count.max(1),
                inner_m: *inner_m,
                outer_m: *outer_m,
            };
            fixed_count(rng, &shape, radius_m, count)
        }
        SpatialSpec::Corridor {
            length_m,
            width_m,
            angle_deg,
            ..
        } => {
            let shape = SpatialSpec::Corridor {
                devices: count.max(1),
                length_m: *length_m,
                width_m: *width_m,
                angle_deg: *angle_deg,
            };
            fixed_count(rng, &shape, radius_m, count)
        }
    }
}

/// Samples a fixed-count shape and truncates to `count` (handles the
/// `count = 0` corner the fixed-count samplers reject).
fn fixed_count(
    rng: &mut ChaCha12Rng,
    shape: &SpatialSpec,
    radius_m: f64,
    count: usize,
) -> Vec<Position> {
    if count == 0 {
        return Vec::new();
    }
    sample_positions_with(rng, shape, radius_m)
        .expect("fixed-count shape with count >= 1 cannot be empty")
}

/// The cluster parent: the declared centre, or one drawn uniformly in the
/// region when the spec omits it. Only omitted centres consume randomness,
/// so hand-placed hotspots never shift when a declared centre is edited.
fn parent_of(rng: &mut ChaCha12Rng, h: &HotspotSpec, radius_m: f64) -> Position {
    match (h.x_m, h.y_m) {
        (Some(x), Some(y)) => Position::new(x, y),
        _ => uniform_disc_point(rng, radius_m),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> ChaCha12Rng {
        ChaCha12Rng::seed_from_u64(seed)
    }

    #[test]
    fn poisson_mean_tracks_lambda() {
        // Sample mean of n draws concentrates around λ with σ = √(λ/n).
        for &lambda in &[0.5, 4.0, 87.3, 1_500.0] {
            let mut r = rng(11);
            let n = 400usize;
            let total: usize = (0..n).map(|_| poisson_count(&mut r, lambda)).sum();
            let mean = total as f64 / n as f64;
            let sigma = (lambda / n as f64).sqrt();
            assert!(
                (mean - lambda).abs() < 6.0 * sigma.max(0.05),
                "λ={lambda}: sample mean {mean}"
            );
        }
    }

    #[test]
    fn poisson_zero_lambda_is_zero() {
        let mut r = rng(1);
        assert_eq!(poisson_count(&mut r, 0.0), 0);
    }

    #[test]
    fn large_lambda_does_not_underflow() {
        // exp(-λ) underflows to 0.0 beyond λ ≈ 745; the unchunked Knuth
        // loop would then never terminate. 10 000 must come back near 10 000.
        let mut r = rng(2);
        let n = poisson_count(&mut r, 10_000.0);
        assert!((9_000..11_000).contains(&n), "Poisson(10000) draw: {n}");
    }

    #[test]
    fn uniform_disc_points_stay_inside() {
        let mut r = rng(3);
        let origin = Position::default();
        for _ in 0..1_000 {
            let p = uniform_disc_point(&mut r, 2_000.0);
            assert!(p.distance_to(&origin) <= 2_000.0 + 1e-9);
        }
    }

    #[test]
    fn ppp_count_tracks_intensity_times_area() {
        // λ = 10 /km² over a 5 km disc → mean 10·π·25 ≈ 785.
        let spec = SpatialSpec::Ppp {
            intensity_per_km2: 10.0,
        };
        let mut total = 0usize;
        let reps = 50;
        for seed in 0..reps {
            total += sample_positions(&spec, 5_000.0, seed).unwrap().len();
        }
        let mean = total as f64 / reps as f64;
        let expected = 10.0 * std::f64::consts::PI * 25.0;
        // σ of the sample mean = √(λA/reps) ≈ 3.96.
        assert!(
            (mean - expected).abs() < 6.0 * (expected / reps as f64).sqrt(),
            "PPP mean {mean}, expected {expected}"
        );
    }

    #[test]
    fn cluster_daughters_concentrate_around_their_parent() {
        let spec = SpatialSpec::Clusters {
            hotspots: vec![HotspotSpec {
                x_m: Some(1_000.0),
                y_m: Some(-500.0),
                radius_m: 250.0,
                mean_devices: 300.0,
            }],
            background_devices: 0,
        };
        let positions = sample_positions(&spec, 5_000.0, 7).unwrap();
        assert!(!positions.is_empty());
        let parent = Position::new(1_000.0, -500.0);
        for p in &positions {
            assert!(
                p.distance_to(&parent) <= 250.0 + 1e-9,
                "daughter {p:?} escaped the scatter disc"
            );
        }
    }

    #[test]
    fn boundary_hotspot_daughters_are_clamped_into_the_region() {
        // Hotspot centred on the region boundary: about half its scatter
        // disc lies outside. The sampler must terminate and keep every
        // daughter inside the region.
        let region = 5_000.0;
        let spec = SpatialSpec::Clusters {
            hotspots: vec![HotspotSpec {
                x_m: Some(region),
                y_m: Some(0.0),
                radius_m: 400.0,
                mean_devices: 200.0,
            }],
            background_devices: 0,
        };
        let positions = sample_positions(&spec, region, 9).unwrap();
        let origin = Position::default();
        for p in &positions {
            assert!(p.distance_to(&origin) <= region + 1e-6);
        }
    }

    #[test]
    fn explicit_hotspot_centres_consume_no_randomness() {
        // Two specs that differ only in a *later* hotspot's scatter radius
        // must place the first hotspot's daughters identically.
        let mk = |second_radius: f64| SpatialSpec::Clusters {
            hotspots: vec![
                HotspotSpec {
                    x_m: Some(0.0),
                    y_m: Some(0.0),
                    radius_m: 100.0,
                    mean_devices: 50.0,
                },
                HotspotSpec {
                    x_m: Some(2_000.0),
                    y_m: Some(0.0),
                    radius_m: second_radius,
                    mean_devices: 0.0,
                },
            ],
            background_devices: 1,
        };
        let a = sample_positions(&mk(100.0), 5_000.0, 21).unwrap();
        let b = sample_positions(&mk(900.0), 5_000.0, 21).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn annulus_respects_both_radii() {
        let spec = SpatialSpec::Annulus {
            devices: 800,
            inner_m: 3_000.0,
            outer_m: 4_000.0,
        };
        let positions = sample_positions(&spec, 5_000.0, 4).unwrap();
        let origin = Position::default();
        for p in &positions {
            let d = p.distance_to(&origin);
            assert!((3_000.0..=4_000.0).contains(&d), "annulus point at {d}");
        }
        // Uniform in area: the midpoint radius √((R₁²+R₂²)/2) ≈ 3 536 m
        // splits the population in half.
        let split = ((3_000.0f64.powi(2) + 4_000.0f64.powi(2)) / 2.0).sqrt();
        let outer = positions
            .iter()
            .filter(|p| p.distance_to(&origin) > split)
            .count();
        let frac = outer as f64 / positions.len() as f64;
        assert!((frac - 0.5).abs() < 0.06, "outer fraction {frac}");
    }

    #[test]
    fn corridor_is_rotated_rectangle() {
        let spec = SpatialSpec::Corridor {
            devices: 500,
            length_m: 8_000.0,
            width_m: 200.0,
            angle_deg: 90.0,
        };
        let positions = sample_positions(&spec, 5_000.0, 5).unwrap();
        for p in &positions {
            // Rotated 90°: the long axis is y, the narrow axis is x.
            assert!(p.x.abs() <= 100.0 + 1e-9, "across-corridor {}", p.x);
            assert!(p.y.abs() <= 4_000.0 + 1e-9, "along-corridor {}", p.y);
        }
    }

    #[test]
    fn sampling_is_seed_deterministic() {
        let spec = SpatialSpec::Ppp {
            intensity_per_km2: 5.0,
        };
        let a = sample_positions(&spec, 5_000.0, 42).unwrap();
        let b = sample_positions(&spec, 5_000.0, 42).unwrap();
        assert_eq!(a, b);
        let c = sample_positions(&spec, 5_000.0, 43).unwrap();
        assert_ne!(a, c);
    }
}
