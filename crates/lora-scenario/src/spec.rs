//! The declarative scenario specification and its validation rules.
//!
//! A [`ScenarioSpec`] is plain serde data — read it from JSON with
//! [`crate::from_json`] or assemble it with [`ScenarioSpecBuilder`] — and
//! compiles (see [`crate::compile()`]) into concrete `(Topology, SimConfig,
//! churn timeline)` inputs for the existing allocator/simulator stack.

use serde::{Deserialize, Serialize};

use lora_mac::frame::{MAC_OVERHEAD, MAX_APP_PAYLOAD};
use lora_phy::toa::MAX_PHY_PAYLOAD;
use lora_sim::Position;

use crate::error::ScenarioError;

/// Default reporting interval when neither the spec's `sim` section nor a
/// device class overrides it (the paper's `T_g` = 600 s).
pub const DEFAULT_REPORT_INTERVAL_S: f64 = 600.0;

/// Name of the implicit device class used when a spec declares none.
pub const DEFAULT_CLASS: &str = "default";

/// How device positions are drawn over the deployment region (a disc of
/// [`ScenarioSpec::radius_m`] centred at the origin).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SpatialSpec {
    /// The paper's deployment: exactly `devices` positions uniform in the
    /// disc. Combined with [`GatewaySpec::Grid`] and no device classes
    /// this compiles through [`lora_sim::Topology::try_disc`] and is
    /// byte-identical to the legacy generator.
    UniformDisc {
        /// Number of devices.
        devices: usize,
    },
    /// Homogeneous Poisson point process: the device count is drawn
    /// `Poisson(λ · area)` and positions are uniform — the paper's
    /// Eq. 17–20 density model made concrete.
    Ppp {
        /// Intensity λ in devices per km².
        intensity_per_km2: f64,
    },
    /// Matérn-style cluster mixture: each hotspot contributes a
    /// `Poisson(mean_devices)` count of daughters uniform in a small disc
    /// around its parent, plus a uniform background population.
    Clusters {
        /// The cluster parents.
        hotspots: Vec<HotspotSpec>,
        /// Devices placed uniformly over the whole region in addition to
        /// the clusters.
        background_devices: usize,
    },
    /// Devices uniform in the annulus `inner_m ≤ r ≤ outer_m` — the
    /// far-edge stress shape (nobody near the central gateway).
    Annulus {
        /// Number of devices.
        devices: usize,
        /// Inner radius, metres.
        inner_m: f64,
        /// Outer radius, metres (≤ the region radius).
        outer_m: f64,
    },
    /// Devices uniform in a rectangle (a road/rail/river corridor)
    /// centred at the origin and rotated by `angle_deg`.
    Corridor {
        /// Number of devices.
        devices: usize,
        /// Corridor length, metres.
        length_m: f64,
        /// Corridor width, metres.
        width_m: f64,
        /// Rotation of the corridor axis, degrees counter-clockwise from
        /// the x axis.
        angle_deg: f64,
    },
}

/// One cluster parent of [`SpatialSpec::Clusters`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HotspotSpec {
    /// Parent x coordinate, metres. When `None` (and `y_m` is too) the
    /// parent is drawn uniformly in the region disc.
    pub x_m: Option<f64>,
    /// Parent y coordinate, metres.
    pub y_m: Option<f64>,
    /// Daughter scatter radius, metres.
    pub radius_m: f64,
    /// Expected daughter count (Poisson mean).
    pub mean_devices: f64,
}

/// How gateway positions are chosen.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum GatewaySpec {
    /// The paper's mesh grid ([`lora_sim::topology::grid_gateways`]).
    Grid {
        /// Number of gateways.
        count: usize,
    },
    /// K-means centroids of the sampled device positions
    /// ([`ef_lora::placement::kmeans_gateways`]) — pulls gateways toward
    /// hotspots.
    KMeans {
        /// Number of gateways.
        count: usize,
        /// Lloyd iterations.
        iterations: usize,
    },
    /// Hand-placed gateway positions.
    Explicit {
        /// The gateway positions, metres.
        positions: Vec<Position>,
    },
}

/// A named device class: a traffic profile assigned to a fraction of the
/// population. Compiled to `per_device_intervals_s` entries and per-device
/// LoS/NLoS site attributes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassSpec {
    /// Class name (referenced by churn events).
    pub name: String,
    /// Fraction of the population in this class; fractions must sum to 1.
    pub fraction: f64,
    /// Reporting interval `T_g` for this class, seconds.
    pub report_interval_s: f64,
    /// Line-of-sight probability for members of this class; falls back to
    /// the scenario-wide `sim.p_los` (or the simulator default) when
    /// `None`.
    pub p_los: Option<f64>,
    /// Application payload bytes, at most
    /// [`lora_mac::frame::MAX_APP_PAYLOAD`] (242). The simulator core
    /// keeps one payload size per network, so classes that set this must
    /// agree (a typed [`ScenarioError::HeterogeneousUnsupported`]
    /// otherwise).
    pub app_payload: Option<usize>,
    /// Confirmed-uplink mode. Same global-only restriction as
    /// `app_payload`.
    pub confirmed: Option<bool>,
}

/// Optional overrides over [`lora_sim::SimConfig::default`]. Every field
/// is optional so catalog files stay minimal; `None` keeps the paper
/// default.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SimSection {
    /// Simulated seconds per epoch.
    pub duration_s: Option<f64>,
    /// Network-wide reporting interval (classes override per device).
    pub report_interval_s: Option<f64>,
    /// Offered duty cycle; `Some` switches traffic to
    /// [`lora_sim::Traffic::DutyCycleTarget`] (per-class intervals are
    /// then ignored by the simulator — validation rejects the combination
    /// when classes declare distinct intervals).
    pub duty: Option<f64>,
    /// Application payload bytes, 1 to
    /// [`lora_mac::frame::MAX_APP_PAYLOAD`] (242).
    pub app_payload: Option<usize>,
    /// Scenario-wide LoS probability.
    pub p_los: Option<f64>,
    /// Confirmed-uplink retransmissions with the LoRaWAN defaults.
    pub confirmed: Option<bool>,
}

/// What happens to the population at an epoch boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ChurnKind {
    /// `count` new devices of class `class` join, sampled from the
    /// scenario's spatial process.
    Join {
        /// Class of the newcomers.
        class: String,
        /// How many join.
        count: usize,
    },
    /// `count` devices (seed-chosen uniformly) leave the network.
    Leave {
        /// How many leave.
        count: usize,
    },
    /// `count` devices of class `from` change their traffic profile to
    /// class `to` (e.g. a firmware rollout changing report rates).
    Migrate {
        /// Source class.
        from: String,
        /// Destination class.
        to: String,
        /// How many migrate.
        count: usize,
    },
}

/// One epoch-stamped churn event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnEvent {
    /// Epoch at whose *start* the event applies (epoch 0 is the initial
    /// deployment, so events start at epoch 1).
    pub epoch: u32,
    /// What happens.
    pub event: ChurnKind,
}

/// A declarative workload: spatial process, gateway strategy, device
/// classes and churn timeline, all seed-deterministic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Scenario name (used in reports and archive file names).
    pub name: String,
    /// Master seed; all per-component streams derive from it.
    pub seed: u64,
    /// Deployment region radius, metres (the paper: 5 km).
    pub radius_m: f64,
    /// Device placement process.
    pub spatial: SpatialSpec,
    /// Gateway placement strategy.
    pub gateways: GatewaySpec,
    /// Device classes; `None`/empty declares the single implicit
    /// [`DEFAULT_CLASS`] covering everyone.
    pub classes: Option<Vec<ClassSpec>>,
    /// Simulator overrides; `None` keeps every paper default.
    pub sim: Option<SimSection>,
    /// Churn timeline; `None`/empty runs a single epoch.
    pub churn: Option<Vec<ChurnEvent>>,
}

impl ScenarioSpec {
    /// Starts a builder for programmatic construction.
    pub fn builder(name: &str) -> ScenarioSpecBuilder {
        ScenarioSpecBuilder::new(name)
    }

    /// The declared classes, or the implicit single [`DEFAULT_CLASS`]
    /// (fraction 1, interval from the `sim` section or the paper default).
    pub fn effective_classes(&self) -> Vec<ClassSpec> {
        match &self.classes {
            Some(classes) if !classes.is_empty() => classes.clone(),
            _ => vec![ClassSpec {
                name: DEFAULT_CLASS.to_string(),
                fraction: 1.0,
                report_interval_s: self
                    .sim
                    .as_ref()
                    .and_then(|s| s.report_interval_s)
                    .unwrap_or(DEFAULT_REPORT_INTERVAL_S),
                p_los: None,
                app_payload: None,
                confirmed: None,
            }],
        }
    }

    /// The churn timeline (possibly empty), sorted by epoch with the
    /// spec's declaration order preserved within an epoch.
    pub fn sorted_churn(&self) -> Vec<ChurnEvent> {
        let mut events = self.churn.clone().unwrap_or_default();
        events.sort_by_key(|e| e.epoch);
        events
    }

    /// Whether the spec is the paper's legacy shape — uniform disc, grid
    /// gateways, no device classes — which compiles through
    /// [`lora_sim::Topology::try_disc`] byte-identically to the historical
    /// generator.
    pub fn is_legacy_uniform(&self) -> bool {
        matches!(self.spatial, SpatialSpec::UniformDisc { .. })
            && matches!(self.gateways, GatewaySpec::Grid { .. })
            && self.classes.as_ref().is_none_or(|c| c.is_empty())
    }

    /// Validates every field, returning the first violation as a typed
    /// error naming the offending field.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::InvalidSpec`] for out-of-range/non-finite values,
    /// [`ScenarioError::UnknownClass`] for dangling churn class names, and
    /// [`ScenarioError::HeterogeneousUnsupported`] when classes disagree
    /// on globally-scoped fields (payload, confirmed mode).
    pub fn validate(&self) -> Result<(), ScenarioError> {
        let fail = |field: &str, reason: String| {
            Err(ScenarioError::InvalidSpec {
                field: field.to_string(),
                reason,
            })
        };
        if self.name.is_empty() {
            return fail("name", "must not be empty".into());
        }
        if !self.radius_m.is_finite() || self.radius_m <= 0.0 {
            return fail(
                "radius_m",
                format!("must be positive and finite, got {}", self.radius_m),
            );
        }
        self.validate_spatial()?;
        self.validate_gateways()?;
        self.validate_classes()?;
        self.validate_sim()?;
        self.validate_churn()?;
        Ok(())
    }

    fn validate_spatial(&self) -> Result<(), ScenarioError> {
        let fail = |field: &str, reason: String| {
            Err(ScenarioError::InvalidSpec {
                field: field.to_string(),
                reason,
            })
        };
        match &self.spatial {
            SpatialSpec::UniformDisc { devices } => {
                if *devices == 0 {
                    return fail("spatial.devices", "must be at least 1".into());
                }
            }
            SpatialSpec::Ppp { intensity_per_km2 } => {
                if !intensity_per_km2.is_finite() || *intensity_per_km2 <= 0.0 {
                    return fail(
                        "spatial.intensity_per_km2",
                        format!("must be positive and finite, got {intensity_per_km2}"),
                    );
                }
            }
            SpatialSpec::Clusters {
                hotspots,
                background_devices: _,
            } => {
                if hotspots.is_empty() {
                    return fail(
                        "spatial.hotspots",
                        "must declare at least one hotspot".into(),
                    );
                }
                for (i, h) in hotspots.iter().enumerate() {
                    let field = format!("spatial.hotspots[{i}]");
                    if !h.radius_m.is_finite() || h.radius_m <= 0.0 {
                        return fail(
                            &field,
                            format!("radius_m must be positive and finite, got {}", h.radius_m),
                        );
                    }
                    if !h.mean_devices.is_finite() || h.mean_devices < 0.0 {
                        return fail(
                            &field,
                            format!(
                                "mean_devices must be non-negative and finite, got {}",
                                h.mean_devices
                            ),
                        );
                    }
                    match (h.x_m, h.y_m) {
                        (Some(x), Some(y)) => {
                            if !x.is_finite() || !y.is_finite() {
                                return fail(&field, format!("centre ({x}, {y}) must be finite"));
                            }
                            if (x * x + y * y).sqrt() > self.radius_m {
                                return fail(
                                    &field,
                                    format!(
                                        "centre ({x}, {y}) lies outside the {} m region",
                                        self.radius_m
                                    ),
                                );
                            }
                        }
                        (None, None) => {}
                        _ => {
                            return fail(
                                &field,
                                "x_m and y_m must be given together (or both omitted)".into(),
                            )
                        }
                    }
                }
            }
            SpatialSpec::Annulus {
                devices,
                inner_m,
                outer_m,
            } => {
                if *devices == 0 {
                    return fail("spatial.devices", "must be at least 1".into());
                }
                if !inner_m.is_finite() || !outer_m.is_finite() || *inner_m < 0.0 {
                    return fail(
                        "spatial.inner_m",
                        format!("annulus radii must be finite and non-negative, got [{inner_m}, {outer_m}]"),
                    );
                }
                if inner_m >= outer_m {
                    return fail(
                        "spatial.inner_m",
                        format!("inner radius {inner_m} must be below outer radius {outer_m}"),
                    );
                }
                if *outer_m > self.radius_m {
                    return fail(
                        "spatial.outer_m",
                        format!(
                            "outer radius {outer_m} exceeds the {} m region",
                            self.radius_m
                        ),
                    );
                }
            }
            SpatialSpec::Corridor {
                devices,
                length_m,
                width_m,
                angle_deg,
            } => {
                if *devices == 0 {
                    return fail("spatial.devices", "must be at least 1".into());
                }
                if !length_m.is_finite() || *length_m <= 0.0 {
                    return fail(
                        "spatial.length_m",
                        format!("must be positive and finite, got {length_m}"),
                    );
                }
                if !width_m.is_finite() || *width_m <= 0.0 {
                    return fail(
                        "spatial.width_m",
                        format!("must be positive and finite, got {width_m}"),
                    );
                }
                if !angle_deg.is_finite() {
                    return fail(
                        "spatial.angle_deg",
                        format!("must be finite, got {angle_deg}"),
                    );
                }
            }
        }
        Ok(())
    }

    fn validate_gateways(&self) -> Result<(), ScenarioError> {
        let fail = |field: &str, reason: String| {
            Err(ScenarioError::InvalidSpec {
                field: field.to_string(),
                reason,
            })
        };
        match &self.gateways {
            GatewaySpec::Grid { count } => {
                if *count == 0 {
                    return fail("gateways.count", "must be at least 1".into());
                }
            }
            GatewaySpec::KMeans { count, iterations } => {
                if *count == 0 {
                    return fail("gateways.count", "must be at least 1".into());
                }
                if *iterations == 0 {
                    return fail("gateways.iterations", "must be at least 1".into());
                }
            }
            GatewaySpec::Explicit { positions } => {
                if positions.is_empty() {
                    return fail(
                        "gateways.positions",
                        "must place at least one gateway".into(),
                    );
                }
                for (i, p) in positions.iter().enumerate() {
                    if !p.x.is_finite() || !p.y.is_finite() {
                        return fail(
                            &format!("gateways.positions[{i}]"),
                            format!("({}, {}) must be finite", p.x, p.y),
                        );
                    }
                }
            }
        }
        Ok(())
    }

    fn validate_classes(&self) -> Result<(), ScenarioError> {
        let fail = |field: &str, reason: String| {
            Err(ScenarioError::InvalidSpec {
                field: field.to_string(),
                reason,
            })
        };
        let Some(classes) = self.classes.as_ref().filter(|c| !c.is_empty()) else {
            return Ok(());
        };
        let mut fraction_sum = 0.0f64;
        let mut payload: Option<(usize, &str)> = None;
        let mut confirmed: Option<(bool, &str)> = None;
        for (i, c) in classes.iter().enumerate() {
            let field = format!("classes[{i}]");
            if c.name.is_empty() {
                return fail(&field, "name must not be empty".into());
            }
            if classes[..i].iter().any(|other| other.name == c.name) {
                return fail(&field, format!("duplicate class name `{}`", c.name));
            }
            if !c.fraction.is_finite() || c.fraction <= 0.0 || c.fraction > 1.0 {
                return fail(
                    &field,
                    format!("fraction must lie in (0, 1], got {}", c.fraction),
                );
            }
            fraction_sum += c.fraction;
            if !c.report_interval_s.is_finite() || c.report_interval_s <= 0.0 {
                return fail(
                    &field,
                    format!(
                        "report_interval_s must be positive and finite, got {}",
                        c.report_interval_s
                    ),
                );
            }
            if let Some(p) = c.p_los {
                if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                    return fail(&field, format!("p_los must lie in [0, 1], got {p}"));
                }
            }
            if let Some(bytes) = c.app_payload {
                check_app_payload(&format!("{field}.app_payload"), bytes)?;
                match payload {
                    Some((prev, who)) if prev != bytes => {
                        return Err(ScenarioError::HeterogeneousUnsupported {
                            field: "app_payload",
                            reason: format!(
                                "class `{who}` sets {prev} bytes but class `{}` sets {bytes}; \
                                 SimConfig keeps one payload size per network",
                                c.name
                            ),
                        });
                    }
                    Some(_) => {}
                    None => payload = Some((bytes, &c.name)),
                }
            }
            if let Some(mode) = c.confirmed {
                match confirmed {
                    Some((prev, who)) if prev != mode => {
                        return Err(ScenarioError::HeterogeneousUnsupported {
                            field: "confirmed",
                            reason: format!(
                                "class `{who}` sets {prev} but class `{}` sets {mode}; \
                                 confirmed-uplink mode is network-global",
                                c.name
                            ),
                        });
                    }
                    Some(_) => {}
                    None => confirmed = Some((mode, &c.name)),
                }
            }
        }
        if (fraction_sum - 1.0).abs() > 1e-6 {
            return fail(
                "classes",
                format!("fractions must sum to 1, got {fraction_sum}"),
            );
        }
        // Per-class intervals only reach the simulator under periodic
        // traffic; a duty-cycle target overrides them silently, so reject
        // the combination when the intervals actually differ.
        if self.sim.as_ref().is_some_and(|s| s.duty.is_some()) {
            let first = classes[0].report_interval_s;
            if classes.iter().any(|c| c.report_interval_s != first) {
                return fail(
                    "sim.duty",
                    "duty-cycle-target traffic ignores per-class report intervals; \
                     remove `duty` or give every class the same interval"
                        .into(),
                );
            }
        }
        Ok(())
    }

    fn validate_sim(&self) -> Result<(), ScenarioError> {
        let fail = |field: &str, reason: String| {
            Err(ScenarioError::InvalidSpec {
                field: field.to_string(),
                reason,
            })
        };
        let Some(sim) = &self.sim else { return Ok(()) };
        if let Some(d) = sim.duration_s {
            if !d.is_finite() || d <= 0.0 {
                return fail(
                    "sim.duration_s",
                    format!("must be positive and finite, got {d}"),
                );
            }
        }
        if let Some(t) = sim.report_interval_s {
            if !t.is_finite() || t <= 0.0 {
                return fail(
                    "sim.report_interval_s",
                    format!("must be positive and finite, got {t}"),
                );
            }
        }
        if let Some(duty) = sim.duty {
            if !duty.is_finite() || duty <= 0.0 || duty > 1.0 {
                return fail("sim.duty", format!("must lie in (0, 1], got {duty}"));
            }
        }
        if let Some(bytes) = sim.app_payload {
            if bytes == 0 {
                return fail("sim.app_payload", "must be at least 1 byte".into());
            }
            check_app_payload("sim.app_payload", bytes)?;
        }
        if let Some(p) = sim.p_los {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return fail("sim.p_los", format!("must lie in [0, 1], got {p}"));
            }
        }
        Ok(())
    }

    fn validate_churn(&self) -> Result<(), ScenarioError> {
        let fail = |field: &str, reason: String| {
            Err(ScenarioError::InvalidSpec {
                field: field.to_string(),
                reason,
            })
        };
        let Some(churn) = self.churn.as_ref().filter(|c| !c.is_empty()) else {
            return Ok(());
        };
        let classes = self.effective_classes();
        let known = |name: &str| classes.iter().any(|c| c.name == name);
        for (i, e) in churn.iter().enumerate() {
            let field = format!("churn[{i}]");
            if e.epoch == 0 {
                return fail(
                    &field,
                    "epoch 0 is the initial deployment; events start at epoch 1".into(),
                );
            }
            match &e.event {
                ChurnKind::Join { class, count } => {
                    if *count == 0 {
                        return fail(&field, "join count must be at least 1".into());
                    }
                    if !known(class) {
                        return Err(ScenarioError::UnknownClass {
                            name: class.clone(),
                        });
                    }
                }
                ChurnKind::Leave { count } => {
                    if *count == 0 {
                        return fail(&field, "leave count must be at least 1".into());
                    }
                }
                ChurnKind::Migrate { from, to, count } => {
                    if *count == 0 {
                        return fail(&field, "migrate count must be at least 1".into());
                    }
                    if from == to {
                        return fail(&field, format!("migration from `{from}` to itself"));
                    }
                    for name in [from, to] {
                        if !known(name) {
                            return Err(ScenarioError::UnknownClass { name: name.clone() });
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// Rejects an application payload whose frame would not fit a LoRa PHY
/// payload: above [`MAX_APP_PAYLOAD`] the model and the simulator find no
/// time-on-air for it.
fn check_app_payload(field: &str, bytes: usize) -> Result<(), ScenarioError> {
    if bytes > MAX_APP_PAYLOAD {
        return Err(ScenarioError::InvalidSpec {
            field: field.to_string(),
            reason: format!(
                "{bytes} bytes exceed the maximum of {MAX_APP_PAYLOAD}: with {MAC_OVERHEAD} \
                 bytes of MAC overhead the frame would not fit a {MAX_PHY_PAYLOAD}-byte LoRa \
                 PHY payload"
            ),
        });
    }
    Ok(())
}

/// Builder for [`ScenarioSpec`] (non-consuming, per C-BUILDER).
#[derive(Debug, Clone)]
pub struct ScenarioSpecBuilder {
    spec: ScenarioSpec,
}

impl ScenarioSpecBuilder {
    /// Starts from the paper defaults: 5 km disc, 500 uniform devices,
    /// 3 grid gateways, no classes, no churn.
    pub fn new(name: &str) -> Self {
        ScenarioSpecBuilder {
            spec: ScenarioSpec {
                name: name.to_string(),
                seed: 0,
                radius_m: 5_000.0,
                spatial: SpatialSpec::UniformDisc { devices: 500 },
                gateways: GatewaySpec::Grid { count: 3 },
                classes: None,
                sim: None,
                churn: None,
            },
        }
    }

    /// Sets the master seed.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.spec.seed = seed;
        self
    }

    /// Sets the region radius in metres.
    pub fn radius_m(&mut self, radius_m: f64) -> &mut Self {
        self.spec.radius_m = radius_m;
        self
    }

    /// Sets the spatial process.
    pub fn spatial(&mut self, spatial: SpatialSpec) -> &mut Self {
        self.spec.spatial = spatial;
        self
    }

    /// Sets the gateway strategy.
    pub fn gateways(&mut self, gateways: GatewaySpec) -> &mut Self {
        self.spec.gateways = gateways;
        self
    }

    /// Adds a device class.
    pub fn class(&mut self, class: ClassSpec) -> &mut Self {
        self.spec.classes.get_or_insert_with(Vec::new).push(class);
        self
    }

    /// Sets the simulator overrides.
    pub fn sim(&mut self, sim: SimSection) -> &mut Self {
        self.spec.sim = Some(sim);
        self
    }

    /// Appends a churn event.
    pub fn churn(&mut self, epoch: u32, event: ChurnKind) -> &mut Self {
        self.spec
            .churn
            .get_or_insert_with(Vec::new)
            .push(ChurnEvent { epoch, event });
        self
    }

    /// Validates and returns the spec.
    ///
    /// # Errors
    ///
    /// Propagates [`ScenarioSpec::validate`] failures.
    pub fn build(&self) -> Result<ScenarioSpec, ScenarioError> {
        self.spec.validate()?;
        Ok(self.spec.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> ScenarioSpecBuilder {
        ScenarioSpec::builder("test")
    }

    #[test]
    fn builder_defaults_validate() {
        let spec = base().build().unwrap();
        assert!(spec.is_legacy_uniform());
        assert_eq!(spec.effective_classes().len(), 1);
        assert_eq!(spec.effective_classes()[0].name, DEFAULT_CLASS);
    }

    #[test]
    fn rejects_bad_radius_and_devices() {
        for r in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(base().radius_m(r).build().is_err(), "radius {r}");
        }
        assert!(base()
            .spatial(SpatialSpec::UniformDisc { devices: 0 })
            .build()
            .is_err());
        assert!(base()
            .spatial(SpatialSpec::Ppp {
                intensity_per_km2: -2.0
            })
            .build()
            .is_err());
    }

    #[test]
    fn rejects_inverted_annulus_and_offsite_hotspot() {
        assert!(base()
            .spatial(SpatialSpec::Annulus {
                devices: 10,
                inner_m: 3_000.0,
                outer_m: 2_000.0
            })
            .build()
            .is_err());
        assert!(base()
            .spatial(SpatialSpec::Clusters {
                hotspots: vec![HotspotSpec {
                    x_m: Some(9_000.0),
                    y_m: Some(0.0),
                    radius_m: 300.0,
                    mean_devices: 20.0
                }],
                background_devices: 0
            })
            .build()
            .is_err());
        // Half-specified centre.
        assert!(base()
            .spatial(SpatialSpec::Clusters {
                hotspots: vec![HotspotSpec {
                    x_m: Some(100.0),
                    y_m: None,
                    radius_m: 300.0,
                    mean_devices: 20.0
                }],
                background_devices: 0
            })
            .build()
            .is_err());
    }

    #[test]
    fn class_fractions_must_sum_to_one() {
        let c = |name: &str, fraction: f64| ClassSpec {
            name: name.into(),
            fraction,
            report_interval_s: 600.0,
            p_los: None,
            app_payload: None,
            confirmed: None,
        };
        assert!(base().class(c("a", 0.5)).class(c("b", 0.5)).build().is_ok());
        assert!(base()
            .class(c("a", 0.5))
            .class(c("b", 0.4))
            .build()
            .is_err());
        assert!(base()
            .class(c("a", 0.5))
            .class(c("a", 0.5))
            .build()
            .is_err());
    }

    #[test]
    fn heterogeneous_payload_is_a_typed_error() {
        let mut b = base();
        b.class(ClassSpec {
            name: "a".into(),
            fraction: 0.5,
            report_interval_s: 600.0,
            p_los: None,
            app_payload: Some(8),
            confirmed: None,
        });
        b.class(ClassSpec {
            name: "b".into(),
            fraction: 0.5,
            report_interval_s: 600.0,
            p_los: None,
            app_payload: Some(16),
            confirmed: None,
        });
        assert!(matches!(
            b.build(),
            Err(ScenarioError::HeterogeneousUnsupported {
                field: "app_payload",
                ..
            })
        ));
    }

    #[test]
    fn churn_validation_catches_dangling_names_and_epoch_zero() {
        assert!(matches!(
            base()
                .churn(
                    1,
                    ChurnKind::Join {
                        class: "nope".into(),
                        count: 5
                    }
                )
                .build(),
            Err(ScenarioError::UnknownClass { .. })
        ));
        assert!(base()
            .churn(0, ChurnKind::Leave { count: 5 })
            .build()
            .is_err());
        // The implicit default class is addressable.
        assert!(base()
            .churn(
                1,
                ChurnKind::Join {
                    class: DEFAULT_CLASS.into(),
                    count: 5
                }
            )
            .build()
            .is_ok());
    }

    #[test]
    fn duty_with_distinct_class_intervals_is_rejected() {
        let c = |name: &str, interval: f64| ClassSpec {
            name: name.into(),
            fraction: 0.5,
            report_interval_s: interval,
            p_los: None,
            app_payload: None,
            confirmed: None,
        };
        let mut b = base();
        b.class(c("slow", 600.0))
            .class(c("fast", 60.0))
            .sim(SimSection {
                duty: Some(0.01),
                ..SimSection::default()
            });
        assert!(b.build().is_err());
        // Same intervals are fine (duty just drives everyone).
        let mut b = base();
        b.class(c("a", 600.0)).class(c("b", 600.0)).sim(SimSection {
            duty: Some(0.01),
            ..SimSection::default()
        });
        assert!(b.build().is_ok());
    }

    #[test]
    fn sorted_churn_is_stable_within_an_epoch() {
        let mut b = base();
        b.churn(2, ChurnKind::Leave { count: 1 })
            .churn(1, ChurnKind::Leave { count: 2 })
            .churn(2, ChurnKind::Leave { count: 3 });
        let spec = b.build().unwrap();
        let sorted = spec.sorted_churn();
        let counts: Vec<u32> = sorted
            .iter()
            .map(|e| match e.event {
                ChurnKind::Leave { count } => count as u32,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(counts, vec![2, 1, 3]);
    }
}
