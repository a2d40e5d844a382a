//! Compiling a [`ScenarioSpec`] into concrete simulator inputs.
//!
//! The output of [`compile`] is everything the existing stack consumes: a
//! [`lora_sim::Topology`], a [`lora_sim::SimConfig`] (with per-device
//! reporting intervals when classes differ) and the sorted churn timeline.
//!
//! The paper's own shape — uniform disc, grid gateways, one device class —
//! takes a dedicated fast path through [`Topology::try_disc`] so the
//! compiled topology is *byte-identical* to what every earlier experiment
//! generated; the general samplers never touch that RNG stream.

use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};

use ef_lora::placement::kmeans_gateways;
use lora_phy::path_loss::LinkEnvironment;
use lora_sim::topology::grid_gateways;
use lora_sim::{DeviceSite, Position, SimConfig, Topology, Traffic};

use crate::error::ScenarioError;
use crate::spatial::sample_positions;
use crate::spec::{ChurnEvent, ClassSpec, GatewaySpec, ScenarioSpec, SpatialSpec};

/// Seed tag of the class-assignment shuffle stream ("classmix").
pub(crate) const CLASS_TAG: u64 = 0x636c_6173_736d_6978;
/// Seed tag of the per-device LoS/NLoS draw stream ("environs").
pub(crate) const ENV_TAG: u64 = 0x656e_7669_726f_6e73;

/// A scenario compiled to concrete inputs: the deployment, the simulator
/// configuration, the class assignment and the churn timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompiledScenario {
    /// The validated source spec (carried along because churn needs the
    /// spatial process and class table at run time).
    pub spec: ScenarioSpec,
    /// The initial deployment (epoch 0).
    pub topology: Topology,
    /// Simulator configuration, including `per_device_intervals_s` when
    /// classes declare distinct reporting rates.
    pub config: SimConfig,
    /// Class index (into [`CompiledScenario::class_names`]) of each device.
    pub class_of: Vec<usize>,
    /// Class names, in spec declaration order.
    pub class_names: Vec<String>,
    /// Churn events sorted by epoch (spec order preserved within one).
    pub timeline: Vec<ChurnEvent>,
}

impl CompiledScenario {
    /// Number of devices in the initial deployment.
    pub fn device_count(&self) -> usize {
        self.topology.device_count()
    }

    /// Devices per class, in class declaration order.
    pub fn class_histogram(&self) -> Vec<(String, usize)> {
        let mut counts = vec![0usize; self.class_names.len()];
        for &c in &self.class_of {
            counts[c] += 1;
        }
        self.class_names.iter().cloned().zip(counts).collect()
    }

    /// Number of epochs the scenario spans: 1 (the initial deployment)
    /// plus everything the timeline reaches.
    pub fn epoch_count(&self) -> u32 {
        1 + self.timeline.iter().map(|e| e.epoch).max().unwrap_or(0)
    }
}

/// Compiles a spec into simulator inputs.
///
/// # Errors
///
/// Propagates [`ScenarioSpec::validate`] failures, and
/// [`ScenarioError::EmptyScenario`] when a stochastic device count comes
/// up zero.
pub fn compile(spec: &ScenarioSpec) -> Result<CompiledScenario, ScenarioError> {
    spec.validate()?;
    let classes = spec.effective_classes();
    let config = base_config(spec, &classes);

    let (topology, class_of) = if spec.is_legacy_uniform() {
        // Byte-identical legacy path: same RNG stream as every historical
        // experiment (the generic samplers would consume draws in a
        // different order).
        let (SpatialSpec::UniformDisc { devices }, GatewaySpec::Grid { count }) =
            (&spec.spatial, &spec.gateways)
        else {
            unreachable!("is_legacy_uniform checked the variants");
        };
        let topology = Topology::try_disc(*devices, *count, spec.radius_m, &config, spec.seed)?;
        (topology, vec![0; *devices])
    } else {
        let positions = sample_positions(&spec.spatial, spec.radius_m, spec.seed)?;
        let n = positions.len();
        let class_of = assign_classes(n, &classes, spec.seed);
        let environments = draw_environments(&class_of, &classes, config.p_los, spec.seed);
        let sites: Vec<DeviceSite> = positions
            .into_iter()
            .zip(environments)
            .map(|(position, environment)| DeviceSite {
                position,
                environment,
            })
            .collect();
        let gateways = place_gateways(&spec.gateways, &sites, spec.radius_m, spec.seed);
        (
            Topology::from_sites(sites, gateways, spec.radius_m),
            class_of,
        )
    };

    let config = with_class_intervals(config, &class_of, &classes);
    Ok(CompiledScenario {
        spec: spec.clone(),
        topology,
        config,
        class_of,
        class_names: classes.into_iter().map(|c| c.name).collect(),
        timeline: spec.sorted_churn(),
    })
}

/// The simulator configuration before class intervals are attached: the
/// paper defaults, overridden by the spec's `sim` section and the classes'
/// agreed global fields (payload, confirmed mode).
fn base_config(spec: &ScenarioSpec, classes: &[ClassSpec]) -> SimConfig {
    let sim = spec.sim.clone().unwrap_or_default();
    let mut config = SimConfig {
        seed: spec.seed,
        ..SimConfig::default()
    };
    if let Some(d) = sim.duration_s {
        config.duration_s = d;
    }
    if let Some(t) = sim.report_interval_s {
        config.report_interval_s = t;
    }
    if let Some(duty) = sim.duty {
        config.traffic = Traffic::DutyCycleTarget { duty };
    }
    if let Some(bytes) = sim.app_payload {
        config.app_payload = bytes;
    }
    if let Some(p) = sim.p_los {
        config.p_los = p;
    }
    apply_confirmed(&mut config, sim.confirmed);
    // Classes agree on these (validation enforced it); a class value
    // overrides the sim section.
    if let Some(bytes) = classes.iter().find_map(|c| c.app_payload) {
        config.app_payload = bytes;
    }
    apply_confirmed(&mut config, classes.iter().find_map(|c| c.confirmed));
    config
}

fn apply_confirmed(config: &mut SimConfig, confirmed: Option<bool>) {
    match confirmed {
        Some(true) => config.confirmed = Some(lora_sim::ConfirmedTraffic::default()),
        Some(false) => config.confirmed = None,
        None => {}
    }
}

/// Attaches reporting intervals: a single class folds into the global
/// `report_interval_s`; multiple classes compile to per-device overrides.
fn with_class_intervals(
    mut config: SimConfig,
    class_of: &[usize],
    classes: &[ClassSpec],
) -> SimConfig {
    if classes.len() == 1 {
        config.report_interval_s = classes[0].report_interval_s;
        config.per_device_intervals_s = None;
    } else {
        config.per_device_intervals_s = Some(
            class_of
                .iter()
                .map(|&c| classes[c].report_interval_s)
                .collect(),
        );
    }
    config
}

/// Splits `n` devices over class fractions by largest-remainder
/// apportionment: exact totals, deterministic tie-breaking by declaration
/// order.
pub(crate) fn apportion(n: usize, fractions: &[f64]) -> Vec<usize> {
    let mut counts: Vec<usize> = fractions.iter().map(|f| (f * n as f64) as usize).collect();
    let assigned: usize = counts.iter().sum();
    let mut order: Vec<usize> = (0..fractions.len()).collect();
    order.sort_by(|&a, &b| {
        let fa = fractions[a] * n as f64 - counts[a] as f64;
        let fb = fractions[b] * n as f64 - counts[b] as f64;
        fb.total_cmp(&fa).then(a.cmp(&b))
    });
    for i in 0..n.saturating_sub(assigned) {
        counts[order[i % order.len()]] += 1;
    }
    counts
}

/// Assigns each of `n` devices a class index: exact largest-remainder
/// counts, then a seeded Fisher–Yates shuffle so classes mix through the
/// deployment instead of forming index-contiguous blocks.
pub(crate) fn assign_classes(n: usize, classes: &[ClassSpec], seed: u64) -> Vec<usize> {
    if classes.len() == 1 {
        return vec![0; n];
    }
    let fractions: Vec<f64> = classes.iter().map(|c| c.fraction).collect();
    let counts = apportion(n, &fractions);
    let mut class_of = Vec::with_capacity(n);
    for (class, &count) in counts.iter().enumerate() {
        class_of.extend(std::iter::repeat_n(class, count));
    }
    let mut rng = ChaCha12Rng::seed_from_u64(seed ^ CLASS_TAG);
    class_of.shuffle(&mut rng);
    class_of
}

/// Draws each device's LoS/NLoS environment from its class's `p_los`
/// (falling back to the scenario-wide probability), in device-index order
/// from a dedicated stream.
pub(crate) fn draw_environments(
    class_of: &[usize],
    classes: &[ClassSpec],
    default_p_los: f64,
    seed: u64,
) -> Vec<LinkEnvironment> {
    let mut rng = ChaCha12Rng::seed_from_u64(seed ^ ENV_TAG);
    class_of
        .iter()
        .map(|&c| {
            let p = classes[c].p_los.unwrap_or(default_p_los);
            if rng.gen::<f64>() < p {
                LinkEnvironment::LineOfSight
            } else {
                LinkEnvironment::NonLineOfSight
            }
        })
        .collect()
}

/// Places gateways per the spec: the paper's mesh grid, k-means centroids
/// of the sampled devices, or hand-placed positions.
fn place_gateways(
    spec: &GatewaySpec,
    sites: &[DeviceSite],
    radius_m: f64,
    seed: u64,
) -> Vec<Position> {
    match spec {
        GatewaySpec::Grid { count } => grid_gateways(*count, radius_m),
        GatewaySpec::KMeans { count, iterations } => {
            kmeans_gateways(sites, *count, *iterations, seed)
        }
        GatewaySpec::Explicit { positions } => positions.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{HotspotSpec, ScenarioSpec, SimSection};

    fn class(name: &str, fraction: f64, interval: f64) -> ClassSpec {
        ClassSpec {
            name: name.into(),
            fraction,
            report_interval_s: interval,
            p_los: None,
            app_payload: None,
            confirmed: None,
        }
    }

    #[test]
    fn legacy_spec_compiles_byte_identical_to_disc() {
        let spec = ScenarioSpec::builder("legacy").seed(7).build().unwrap();
        let compiled = compile(&spec).unwrap();
        let expected = Topology::disc(500, 3, 5_000.0, &compiled.config, 7);
        assert_eq!(compiled.topology, expected);
        assert_eq!(compiled.class_of, vec![0; 500]);
        assert_eq!(compiled.config.per_device_intervals_s, None);
        assert_eq!(compiled.config.seed, 7);
    }

    #[test]
    fn apportionment_is_exact_and_deterministic() {
        assert_eq!(apportion(10, &[0.5, 0.5]), vec![5, 5]);
        assert_eq!(apportion(10, &[0.34, 0.33, 0.33]), vec![4, 3, 3]);
        assert_eq!(apportion(1, &[0.5, 0.5]), vec![1, 0]);
        assert_eq!(apportion(0, &[0.7, 0.3]), vec![0, 0]);
        let counts = apportion(997, &[0.6, 0.25, 0.15]);
        assert_eq!(counts.iter().sum::<usize>(), 997);
    }

    #[test]
    fn class_assignment_matches_apportionment_and_mixes() {
        let classes = vec![class("a", 0.7, 600.0), class("b", 0.3, 60.0)];
        let class_of = assign_classes(100, &classes, 5);
        assert_eq!(class_of.iter().filter(|&&c| c == 0).count(), 70);
        assert_eq!(class_of.iter().filter(|&&c| c == 1).count(), 30);
        // Shuffled, not a contiguous block.
        assert_ne!(&class_of[..70], vec![0; 70].as_slice());
        // Deterministic per seed.
        assert_eq!(class_of, assign_classes(100, &classes, 5));
        assert_ne!(class_of, assign_classes(100, &classes, 6));
    }

    #[test]
    fn multi_class_spec_compiles_per_device_intervals() {
        let mut b = ScenarioSpec::builder("mix");
        b.seed(3)
            .spatial(SpatialSpec::UniformDisc { devices: 40 })
            .gateways(GatewaySpec::Grid { count: 1 })
            .class(class("slow", 0.5, 600.0))
            .class(class("fast", 0.5, 60.0));
        let compiled = compile(&b.build().unwrap()).unwrap();
        let intervals = compiled.config.per_device_intervals_s.as_ref().unwrap();
        assert_eq!(intervals.len(), 40);
        for (i, &c) in compiled.class_of.iter().enumerate() {
            let expected = if c == 0 { 600.0 } else { 60.0 };
            assert_eq!(intervals[i], expected);
        }
        assert_eq!(
            compiled.class_histogram(),
            vec![("slow".to_string(), 20), ("fast".to_string(), 20)]
        );
    }

    #[test]
    fn single_declared_class_folds_into_global_interval() {
        let mut b = ScenarioSpec::builder("single");
        b.spatial(SpatialSpec::UniformDisc { devices: 10 })
            .gateways(GatewaySpec::Grid { count: 1 })
            .class(class("only", 1.0, 120.0));
        let compiled = compile(&b.build().unwrap()).unwrap();
        assert_eq!(compiled.config.report_interval_s, 120.0);
        assert_eq!(compiled.config.per_device_intervals_s, None);
        // Declaring one class forces the generic sampling path.
        assert!(!compiled.spec.is_legacy_uniform());
    }

    #[test]
    fn class_p_los_drives_environment_mix() {
        let mut los = class("los", 0.5, 600.0);
        los.p_los = Some(1.0);
        let mut nlos = class("nlos", 0.5, 600.0);
        nlos.p_los = Some(0.0);
        let mut b = ScenarioSpec::builder("env");
        b.spatial(SpatialSpec::UniformDisc { devices: 60 })
            .gateways(GatewaySpec::Grid { count: 1 })
            .class(los)
            .class(nlos);
        let compiled = compile(&b.build().unwrap()).unwrap();
        for (site, &c) in compiled.topology.devices().iter().zip(&compiled.class_of) {
            let expected = if c == 0 {
                LinkEnvironment::LineOfSight
            } else {
                LinkEnvironment::NonLineOfSight
            };
            assert_eq!(site.environment, expected);
        }
    }

    #[test]
    fn explicit_gateways_pass_through_and_kmeans_finds_hotspots() {
        let mut b = ScenarioSpec::builder("explicit");
        b.spatial(SpatialSpec::UniformDisc { devices: 10 })
            .gateways(GatewaySpec::Explicit {
                positions: vec![Position::new(1.0, 2.0), Position::new(-3.0, 4.0)],
            });
        let compiled = compile(&b.build().unwrap()).unwrap();
        assert_eq!(
            compiled.topology.gateways(),
            &[Position::new(1.0, 2.0), Position::new(-3.0, 4.0)]
        );

        let mut b = ScenarioSpec::builder("kmeans");
        b.seed(11)
            .spatial(SpatialSpec::Clusters {
                hotspots: vec![
                    HotspotSpec {
                        x_m: Some(-3_000.0),
                        y_m: Some(0.0),
                        radius_m: 200.0,
                        mean_devices: 40.0,
                    },
                    HotspotSpec {
                        x_m: Some(3_000.0),
                        y_m: Some(0.0),
                        radius_m: 200.0,
                        mean_devices: 40.0,
                    },
                ],
                background_devices: 0,
            })
            .gateways(GatewaySpec::KMeans {
                count: 2,
                iterations: 32,
            });
        let compiled = compile(&b.build().unwrap()).unwrap();
        let mut xs: Vec<f64> = compiled.topology.gateways().iter().map(|g| g.x).collect();
        xs.sort_by(f64::total_cmp);
        assert!((xs[0] + 3_000.0).abs() < 300.0, "left gateway at {}", xs[0]);
        assert!(
            (xs[1] - 3_000.0).abs() < 300.0,
            "right gateway at {}",
            xs[1]
        );
    }

    #[test]
    fn compile_is_deterministic_per_seed() {
        let mut b = ScenarioSpec::builder("det");
        b.seed(9).spatial(SpatialSpec::Ppp {
            intensity_per_km2: 3.0,
        });
        let spec = b.build().unwrap();
        let a = compile(&spec).unwrap();
        let b2 = compile(&spec).unwrap();
        assert_eq!(a, b2);
    }

    #[test]
    fn sim_section_overrides_apply() {
        let mut b = ScenarioSpec::builder("sim");
        b.sim(SimSection {
            duration_s: Some(1_200.0),
            report_interval_s: Some(300.0),
            duty: Some(0.01),
            app_payload: Some(16),
            p_los: Some(0.9),
            confirmed: Some(true),
        });
        let compiled = compile(&b.build().unwrap()).unwrap();
        assert_eq!(compiled.config.duration_s, 1_200.0);
        assert_eq!(compiled.config.report_interval_s, 300.0);
        assert_eq!(
            compiled.config.traffic,
            Traffic::DutyCycleTarget { duty: 0.01 }
        );
        assert_eq!(compiled.config.app_payload, 16);
        assert_eq!(compiled.config.p_los, 0.9);
        assert!(compiled.config.confirmed.is_some());
    }

    #[test]
    fn app_payload_must_fit_a_lora_frame() {
        let rejected_field = |spec: &ScenarioSpec| match compile(spec) {
            Err(ScenarioError::InvalidSpec { field, .. }) => field,
            other => panic!("expected an invalid-spec error, got {other:?}"),
        };

        // 242 B of application payload plus 13 B of MAC overhead fill the
        // 255-byte PHY payload exactly, and the model accepts it.
        let mut b = ScenarioSpec::builder("payload");
        b.spatial(SpatialSpec::UniformDisc { devices: 50 })
            .sim(SimSection {
                app_payload: Some(242),
                ..SimSection::default()
            });
        let mut spec = b.build().unwrap();
        let compiled = compile(&spec).unwrap();
        assert_eq!(compiled.config.phy_payload_len(), 255);
        assert!(lora_model::NetworkModel::try_new(&compiled.config, &compiled.topology).is_ok());
        spec.sim.as_mut().unwrap().app_payload = Some(243);
        assert_eq!(rejected_field(&spec), "sim.app_payload");

        let mut big = class("big", 1.0, 600.0);
        big.app_payload = Some(242);
        let mut b = ScenarioSpec::builder("payload");
        b.spatial(SpatialSpec::UniformDisc { devices: 50 })
            .class(big);
        let mut spec = b.build().unwrap();
        assert_eq!(compile(&spec).unwrap().config.app_payload, 242);
        spec.classes.as_mut().unwrap()[0].app_payload = Some(243);
        assert_eq!(rejected_field(&spec), "classes[0].app_payload");
    }
}
