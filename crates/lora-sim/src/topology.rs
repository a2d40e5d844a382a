//! Network deployments: device and gateway placement.
//!
//! The paper deploys end devices uniformly inside a disc of 5 km radius and
//! places gateways on the cross positions of a mesh over the region — one
//! gateway sits at the centre, multiple gateways form a grid scaled to the
//! coverage (Section IV).

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};

use lora_phy::path_loss::LinkEnvironment;

use crate::config::SimConfig;
use crate::error::SimError;

/// A 2-D position in metres.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Position {
    /// X coordinate, metres.
    pub x: f64,
    /// Y coordinate, metres.
    pub y: f64,
}

impl Position {
    /// Creates a position.
    pub fn new(x: f64, y: f64) -> Self {
        Position { x, y }
    }

    /// Euclidean distance to another position, metres.
    ///
    /// ```
    /// use lora_sim::Position;
    /// let d = Position::new(0.0, 0.0).distance_to(&Position::new(3.0, 4.0));
    /// assert!((d - 5.0).abs() < 1e-12);
    /// ```
    #[inline]
    pub fn distance_to(&self, other: &Position) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// One end-device site: where the device sits and how it propagates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceSite {
    /// Device position.
    pub position: Position,
    /// Line-of-sight or not — selects the path-loss exponent from the
    /// configured [`lora_phy::path_loss::BetaProfile`].
    pub environment: LinkEnvironment,
}

/// A deployment: device sites plus gateway positions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    devices: Vec<DeviceSite>,
    gateways: Vec<Position>,
    radius_m: f64,
}

impl Topology {
    /// Creates a topology from explicit sites (for tests and motivation
    /// scenarios).
    pub fn from_sites(devices: Vec<DeviceSite>, gateways: Vec<Position>, radius_m: f64) -> Self {
        Topology {
            devices,
            gateways,
            radius_m,
        }
    }

    /// Generates the paper's deployment: `n_devices` uniform in a disc of
    /// `radius_m`, `n_gateways` on a mesh grid (one gateway → centre), and
    /// LoS/NLoS environments drawn with probability `config.p_los`.
    ///
    /// The `seed` controls placement only; it is independent of the
    /// simulation seed so that the same topology can be re-simulated under
    /// different channel randomness (the paper repeats each deployment 100
    /// times).
    ///
    /// # Panics
    ///
    /// Panics on a non-finite or non-positive radius, or `config.p_los`
    /// outside `[0, 1]` — inputs that previously produced NaN positions or
    /// a skewed LoS mix silently. Use [`Topology::try_disc`] to handle the
    /// error instead.
    pub fn disc(
        n_devices: usize,
        n_gateways: usize,
        radius_m: f64,
        config: &SimConfig,
        seed: u64,
    ) -> Self {
        Self::try_disc(n_devices, n_gateways, radius_m, config, seed)
            .expect("invalid disc deployment parameters")
    }

    /// Fallible variant of [`Topology::disc`]: validates the generation
    /// parameters before sampling. For valid inputs the result is
    /// byte-identical to `disc` (same RNG stream, same draws).
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidTopology`] when `radius_m` is NaN, infinite,
    /// zero or negative, or when `config.p_los` is NaN or outside
    /// `[0, 1]` — previously those inputs sailed through and produced NaN
    /// device positions (every distance, and hence every path loss,
    /// became NaN) or an impossible LoS probability.
    pub fn try_disc(
        n_devices: usize,
        n_gateways: usize,
        radius_m: f64,
        config: &SimConfig,
        seed: u64,
    ) -> Result<Self, SimError> {
        if !radius_m.is_finite() || radius_m <= 0.0 {
            return Err(SimError::InvalidTopology {
                reason: format!("disc radius must be positive and finite, got {radius_m}"),
            });
        }
        if !config.p_los.is_finite() || !(0.0..=1.0).contains(&config.p_los) {
            return Err(SimError::InvalidTopology {
                reason: format!("p_los must lie in [0, 1], got {}", config.p_los),
            });
        }
        let mut rng = ChaCha12Rng::seed_from_u64(seed ^ 0x746f_706f_6c6f_6779); // "topology"
        let devices = (0..n_devices)
            .map(|_| {
                // Uniform in a disc: r = R·sqrt(u), θ uniform.
                let r = radius_m * rng.gen::<f64>().sqrt();
                let theta = rng.gen::<f64>() * std::f64::consts::TAU;
                let environment = if rng.gen::<f64>() < config.p_los {
                    LinkEnvironment::LineOfSight
                } else {
                    LinkEnvironment::NonLineOfSight
                };
                DeviceSite {
                    position: Position::new(r * theta.cos(), r * theta.sin()),
                    environment,
                }
            })
            .collect();
        let gateways = grid_gateways(n_gateways, radius_m);
        Ok(Topology {
            devices,
            gateways,
            radius_m,
        })
    }

    /// The device sites.
    #[inline]
    pub fn devices(&self) -> &[DeviceSite] {
        &self.devices
    }

    /// The gateway positions.
    #[inline]
    pub fn gateways(&self) -> &[Position] {
        &self.gateways
    }

    /// The deployment radius in metres.
    #[inline]
    pub fn radius_m(&self) -> f64 {
        self.radius_m
    }

    /// Number of devices.
    #[inline]
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Number of gateways.
    #[inline]
    pub fn gateway_count(&self) -> usize {
        self.gateways.len()
    }
}

/// The linear path-loss attenuation matrix `[device][gateway]`, stored
/// row-major in one contiguous allocation.
///
/// The matrix sits on the hottest loops of the whole stack — the
/// simulator's per-reception loss lookup and the analytical model's
/// per-candidate interference sums — where the former `Vec<Vec<f64>>`
/// representation cost one pointer chase per access and one heap
/// allocation per device. The flat layout makes `at(i, k)` a single
/// indexed load and lets the simulator *reuse* the matrix the model
/// already built (see [`crate::Simulation::with_attenuation`]) instead
/// of re-deriving every `powf` per repetition.
#[derive(Debug, Clone, PartialEq)]
pub struct AttenuationMatrix {
    n_gateways: usize,
    /// Row-major `[device][gateway]` linear attenuations.
    data: Vec<f64>,
}

impl AttenuationMatrix {
    /// Wraps a row-major buffer. `data.len()` must be a multiple of
    /// `n_gateways` (a zero-gateway matrix must be empty).
    ///
    /// # Panics
    ///
    /// Panics if the buffer length is not a whole number of rows.
    pub fn from_raw(n_gateways: usize, data: Vec<f64>) -> Self {
        if n_gateways == 0 {
            assert!(data.is_empty(), "zero-gateway matrix must be empty");
        } else {
            assert_eq!(data.len() % n_gateways, 0, "ragged attenuation matrix");
        }
        AttenuationMatrix { n_gateways, data }
    }

    /// Number of device rows.
    #[inline]
    pub fn device_count(&self) -> usize {
        self.data.len().checked_div(self.n_gateways).unwrap_or(0)
    }

    /// Number of gateway columns.
    #[inline]
    pub fn gateway_count(&self) -> usize {
        self.n_gateways
    }

    /// Linear attenuation between device `i` and gateway `k`.
    #[inline]
    pub fn at(&self, device: usize, gateway: usize) -> f64 {
        debug_assert!(gateway < self.n_gateways);
        self.data[device * self.n_gateways + gateway]
    }

    /// The per-gateway attenuation row of device `i`.
    #[inline]
    pub fn row(&self, device: usize) -> &[f64] {
        &self.data[device * self.n_gateways..(device + 1) * self.n_gateways]
    }

    /// Appends one row per site in `new_sites` (a batch of joining
    /// devices). Each row is produced by the same kernel
    /// ([`attenuation_row`]) as a from-scratch build, so the extended
    /// matrix is bitwise equal to rebuilding over the full population.
    pub fn extend_rows(
        &mut self,
        config: &SimConfig,
        new_sites: &[DeviceSite],
        gateways: &[Position],
    ) {
        assert_eq!(gateways.len(), self.n_gateways, "gateway count changed");
        self.data.reserve(new_sites.len() * self.n_gateways);
        for site in new_sites {
            attenuation_row(config, site, gateways, &mut self.data);
        }
    }

    /// Drops the rows of leaving devices in one compaction pass —
    /// the flat-buffer mirror of the population's `retain_kept`
    /// compaction, so row `i` of the result corresponds to the `i`-th
    /// surviving device.
    ///
    /// # Panics
    ///
    /// Panics when the mask length disagrees with the row count.
    pub fn retire_rows(&mut self, leaving: &[bool]) {
        assert_eq!(leaving.len(), self.device_count(), "leave mask shape");
        let g = self.n_gateways;
        let mut write = 0;
        for (i, &leaves) in leaving.iter().enumerate() {
            if leaves {
                continue;
            }
            if write != i {
                self.data.copy_within(i * g..(i + 1) * g, write * g);
            }
            write += 1;
        }
        self.data.truncate(write * g);
    }
}

/// Appends the per-gateway linear attenuation row of one device site to
/// `out` — the single kernel shared by the from-scratch
/// [`attenuation_matrix`] build and [`AttenuationMatrix::extend_rows`],
/// which is what makes "incrementally maintained" and "rebuilt from
/// scratch" bitwise-indistinguishable.
#[inline]
pub fn attenuation_row(
    config: &SimConfig,
    site: &DeviceSite,
    gateways: &[Position],
    out: &mut Vec<f64>,
) {
    let beta = config.betas.beta(site.environment);
    out.extend(gateways.iter().map(|gw| {
        config
            .path_loss
            .attenuation(site.position.distance_to(gw), beta)
    }));
}

/// Builds the linear path-loss attenuation matrix `[device][gateway]`
/// for a deployment — the O(devices × gateways) kernel shared by the
/// simulator and the analytical model.
///
/// Large matrices (≥ [`ATTENUATION_PARALLEL_THRESHOLD`] cells) are built
/// row-parallel by [`lora_parallel::par_map_indexed`] workers, controlled
/// by `EF_LORA_THREADS`. Each row is a pure function of its device index, so
/// the result is byte-identical for every worker count.
pub fn attenuation_matrix(
    config: &crate::config::SimConfig,
    topology: &Topology,
) -> AttenuationMatrix {
    let n_gw = topology.gateway_count();
    let cells = topology.device_count() * n_gw;
    let threads = if cells >= ATTENUATION_PARALLEL_THRESHOLD {
        lora_parallel::threads_from_env()
    } else {
        1
    };
    let row_of = |i: usize, out: &mut Vec<f64>| {
        attenuation_row(config, &topology.devices()[i], topology.gateways(), out);
    };
    let data = if threads <= 1 {
        // Serial fast path: fill the flat buffer directly, one allocation.
        let mut data = Vec::with_capacity(cells);
        for i in 0..topology.device_count() {
            row_of(i, &mut data);
        }
        data
    } else {
        // Parallel path: workers produce per-row buffers (each row is a
        // pure function of its index), concatenated in device order.
        let rows = lora_parallel::par_map_indexed(topology.device_count(), threads, |i| {
            let mut row = Vec::with_capacity(n_gw);
            row_of(i, &mut row);
            row
        });
        let mut data = Vec::with_capacity(cells);
        for row in rows {
            data.extend_from_slice(&row);
        }
        data
    };
    AttenuationMatrix::from_raw(n_gw, data)
}

/// Matrix size (device × gateway cells) above which
/// [`attenuation_matrix`] fans out across threads. Below this the scoped
/// spawn overhead outweighs the arithmetic.
pub const ATTENUATION_PARALLEL_THRESHOLD: usize = 16_384;

/// Default byte budget for [`try_attenuation_matrix`]: 2 GiB, enough for
/// any deployment the dense analytical pipeline should reasonably hold
/// in one allocation. Overridable via the `EF_LORA_ATTENUATION_BUDGET`
/// environment variable (bytes).
pub const DEFAULT_ATTENUATION_BUDGET_BYTES: u64 = 2 << 30;

/// The byte budget for dense attenuation matrices:
/// `EF_LORA_ATTENUATION_BUDGET` when set to a parseable byte count,
/// otherwise [`DEFAULT_ATTENUATION_BUDGET_BYTES`].
pub fn attenuation_budget_from_env() -> u64 {
    std::env::var("EF_LORA_ATTENUATION_BUDGET")
        .ok()
        .and_then(|raw| raw.trim().parse::<u64>().ok())
        .filter(|&b| b > 0)
        .unwrap_or(DEFAULT_ATTENUATION_BUDGET_BYTES)
}

/// Fallible front of [`attenuation_matrix`]: refuses with
/// [`SimError::TopologyTooLarge`] when the dense `[device][gateway]`
/// matrix would exceed `budget_bytes`, instead of aborting on OOM deep
/// inside the allocator. Below the budget the result is the
/// byte-identical dense build.
pub fn try_attenuation_matrix(
    config: &crate::config::SimConfig,
    topology: &Topology,
    budget_bytes: u64,
) -> Result<AttenuationMatrix, crate::error::SimError> {
    let required = topology.device_count() as u64 * topology.gateway_count() as u64 * 8;
    if required > budget_bytes {
        return Err(crate::error::SimError::TopologyTooLarge {
            devices: topology.device_count(),
            gateways: topology.gateway_count(),
            required_bytes: required,
            budget_bytes,
        });
    }
    Ok(attenuation_matrix(config, topology))
}

/// Places `n` gateways on the cross positions of a mesh over a disc of
/// radius `radius_m`: one gateway sits at the centre; otherwise a
/// `ceil(sqrt(n)) × ceil(sqrt(n))` grid is scaled to the inscribed square
/// and the first `n` cells (row-major, centred) are used.
pub fn grid_gateways(n: usize, radius_m: f64) -> Vec<Position> {
    match n {
        0 => Vec::new(),
        1 => vec![Position::new(0.0, 0.0)],
        _ => {
            let side = (n as f64).sqrt().ceil() as usize;
            // Inscribed square of the disc has half-side R/√2; grid cross
            // positions sit at the cell centres so every gateway is inside
            // the coverage.
            let half = radius_m / std::f64::consts::SQRT_2;
            let step = 2.0 * half / side as f64;
            let mut out = Vec::with_capacity(n);
            'outer: for row in 0..side {
                for col in 0..side {
                    if out.len() == n {
                        break 'outer;
                    }
                    let x = -half + step * (col as f64 + 0.5);
                    let y = -half + step * (row as f64 + 0.5);
                    out.push(Position::new(x, y));
                }
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn devices_stay_inside_disc() {
        let config = SimConfig::default();
        let topo = Topology::disc(500, 3, 5_000.0, &config, 1);
        let origin = Position::default();
        for d in topo.devices() {
            assert!(d.position.distance_to(&origin) <= 5_000.0 + 1e-9);
        }
    }

    #[test]
    fn attenuation_budget_refuses_oversize_matrices() {
        let config = SimConfig::default();
        let topo = Topology::disc(100, 2, 2_000.0, &config, 4);
        // 100 × 2 × 8 = 1600 bytes: one under the need refuses, at the
        // need succeeds with the byte-identical dense build.
        match try_attenuation_matrix(&config, &topo, 1_599) {
            Err(crate::error::SimError::TopologyTooLarge {
                devices,
                gateways,
                required_bytes,
                budget_bytes,
            }) => {
                assert_eq!((devices, gateways), (100, 2));
                assert_eq!(required_bytes, 1_600);
                assert_eq!(budget_bytes, 1_599);
            }
            other => panic!("expected TopologyTooLarge, got {other:?}"),
        }
        let fallible = try_attenuation_matrix(&config, &topo, 1_600).unwrap();
        assert_eq!(fallible, attenuation_matrix(&config, &topo));
    }

    #[test]
    fn disc_sampling_is_roughly_uniform() {
        // Half the area of a disc lies beyond r = R/√2: check the split.
        let config = SimConfig::default();
        let topo = Topology::disc(4_000, 1, 1_000.0, &config, 2);
        let origin = Position::default();
        let outer = topo
            .devices()
            .iter()
            .filter(|d| d.position.distance_to(&origin) > 1_000.0 / std::f64::consts::SQRT_2)
            .count();
        let frac = outer as f64 / 4_000.0;
        assert!((frac - 0.5).abs() < 0.03, "outer fraction {frac}");
    }

    #[test]
    fn single_gateway_is_central() {
        assert_eq!(grid_gateways(1, 5_000.0), vec![Position::new(0.0, 0.0)]);
    }

    #[test]
    fn grid_gateways_inside_disc_and_distinct() {
        for n in [2, 3, 4, 5, 9, 16, 25] {
            let gws = grid_gateways(n, 5_000.0);
            assert_eq!(gws.len(), n);
            let origin = Position::default();
            for (i, g) in gws.iter().enumerate() {
                assert!(g.distance_to(&origin) <= 5_000.0, "n={n} gw={i}");
                for other in &gws[i + 1..] {
                    assert!(g.distance_to(other) > 1.0, "n={n}: coincident gateways");
                }
            }
        }
    }

    #[test]
    fn four_gateways_form_a_symmetric_square() {
        let gws = grid_gateways(4, 1_000.0);
        let origin = Position::default();
        let d0 = gws[0].distance_to(&origin);
        for g in &gws {
            assert!((g.distance_to(&origin) - d0).abs() < 1e-9);
        }
    }

    #[test]
    fn topology_seed_is_reproducible() {
        let config = SimConfig::default();
        let a = Topology::disc(100, 3, 5_000.0, &config, 7);
        let b = Topology::disc(100, 3, 5_000.0, &config, 7);
        assert_eq!(a, b);
        let c = Topology::disc(100, 3, 5_000.0, &config, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn p_los_controls_environment_mix() {
        let mut config = SimConfig {
            p_los: 1.0,
            ..SimConfig::default()
        };
        let all_los = Topology::disc(200, 1, 1_000.0, &config, 3);
        assert!(all_los
            .devices()
            .iter()
            .all(|d| d.environment == LinkEnvironment::LineOfSight));
        config.p_los = 0.0;
        let all_nlos = Topology::disc(200, 1, 1_000.0, &config, 3);
        assert!(all_nlos
            .devices()
            .iter()
            .all(|d| d.environment == LinkEnvironment::NonLineOfSight));
    }

    #[test]
    fn try_disc_rejects_degenerate_radii() {
        let config = SimConfig::default();
        for radius in [0.0, -5_000.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let r = Topology::try_disc(10, 1, radius, &config, 1);
            assert!(
                matches!(r, Err(SimError::InvalidTopology { .. })),
                "radius {radius} must be rejected"
            );
        }
    }

    #[test]
    fn try_disc_rejects_out_of_range_p_los() {
        for p_los in [-0.1, 1.1, f64::NAN] {
            let config = SimConfig {
                p_los,
                ..SimConfig::default()
            };
            let r = Topology::try_disc(10, 1, 1_000.0, &config, 1);
            assert!(
                matches!(r, Err(SimError::InvalidTopology { .. })),
                "p_los {p_los} must be rejected"
            );
        }
    }

    #[test]
    fn try_disc_matches_disc_for_valid_inputs() {
        let config = SimConfig::default();
        let fallible = Topology::try_disc(50, 3, 4_000.0, &config, 13).unwrap();
        let infallible = Topology::disc(50, 3, 4_000.0, &config, 13);
        assert_eq!(fallible, infallible);
        // Every generated position must be a real number.
        assert!(fallible
            .devices()
            .iter()
            .all(|d| d.position.x.is_finite() && d.position.y.is_finite()));
    }

    #[test]
    #[should_panic(expected = "invalid disc deployment parameters")]
    fn disc_panics_loudly_on_nan_radius() {
        let config = SimConfig::default();
        let _ = Topology::disc(10, 1, f64::NAN, &config, 1);
    }

    #[test]
    fn extend_rows_matches_from_scratch_build() {
        let config = SimConfig::default();
        let full = Topology::disc(40, 3, 5_000.0, &config, 11);
        let want = attenuation_matrix(&config, &full);
        let head = Topology::from_sites(
            full.devices()[..25].to_vec(),
            full.gateways().to_vec(),
            5_000.0,
        );
        let mut got = attenuation_matrix(&config, &head);
        got.extend_rows(&config, &full.devices()[25..], full.gateways());
        assert_eq!(got, want);
    }

    #[test]
    fn retire_rows_matches_from_scratch_build() {
        let config = SimConfig::default();
        let full = Topology::disc(40, 3, 5_000.0, &config, 11);
        let mut got = attenuation_matrix(&config, &full);
        let leaving: Vec<bool> = (0..40).map(|i| i % 3 == 1).collect();
        got.retire_rows(&leaving);
        let kept: Vec<DeviceSite> = full
            .devices()
            .iter()
            .zip(&leaving)
            .filter(|(_, &l)| !l)
            .map(|(s, _)| *s)
            .collect();
        let survivors = Topology::from_sites(kept, full.gateways().to_vec(), 5_000.0);
        assert_eq!(got, attenuation_matrix(&config, &survivors));
    }
}
