//! Shared experiment pipeline: deploy → allocate → simulate → aggregate.
//!
//! The paper repeats every parameter set 100 times on NS-3 and reports
//! averages; this harness does the same with a configurable repetition
//! count (the topology stays fixed per deployment seed; repetitions vary
//! the channel/traffic randomness, mirroring the paper's methodology).

use serde::Serialize;

use ef_lora::{AllocationContext, Strategy};
use lora_model::NetworkModel;
use lora_sim::metrics::{jain_index, mean, minimum, percentile};
use lora_sim::{SimConfig, Simulation, Topology, Traffic};

/// Which scale preset is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleKind {
    /// Seconds-long runs for CI and tests.
    Smoke,
    /// The default: paper shapes at ~1/5 population, minutes per figure.
    Small,
    /// The paper's full deployments (3000–5000 devices, up to 25 gateways).
    Paper,
}

/// Experiment sizing knobs derived from `EF_LORA_SCALE`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// The preset in effect.
    pub kind: ScaleKind,
    /// Simulation repetitions per deployment (the paper uses 100).
    pub reps: u64,
    /// Simulated seconds per repetition.
    pub duration_s: f64,
    /// Multiplier applied to the paper's device counts.
    pub device_factor: f64,
    /// Per-device offered duty cycle. Scaled inversely with the device
    /// factor so the *per-gateway Erlang load* — what actually binds
    /// against the SX1301's eight demodulators — matches across presets:
    /// at full population a 1 % duty would offer 30 concurrent
    /// transmissions to 24 demodulator-servers and flatline every
    /// strategy at θ ≈ 0.
    pub duty: f64,
    /// Worker threads for the replication fan-out (`EF_LORA_THREADS`).
    /// Results are byte-identical for every value — per-repetition seeds
    /// are derived up front and repetitions reduce in index order — so
    /// this is purely a wall-clock knob. `1` reproduces the historical
    /// serial loop exactly.
    pub threads: usize,
}

/// Parses an `EF_LORA_REPS`-style value: a positive integer. Zero is
/// rejected explicitly — every aggregate divides by the repetition count,
/// so `reps = 0` would previously sail through and poison all metrics
/// with a silent divide-by-zero NaN.
///
/// # Errors
///
/// Returns a human-readable message for malformed or zero values.
pub fn parse_reps(raw: &str) -> Result<u64, String> {
    match raw.trim().parse::<u64>() {
        Ok(0) => Err(format!("EF_LORA_REPS={raw:?} must be at least 1")),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("EF_LORA_REPS={raw:?} is not a positive integer")),
    }
}

/// Parses an `EF_LORA_DURATION`-style value: a finite number of simulated
/// seconds, strictly positive.
///
/// # Errors
///
/// Returns a human-readable message for malformed or non-positive values.
pub fn parse_duration(raw: &str) -> Result<f64, String> {
    match raw.trim().parse::<f64>() {
        Ok(d) if d.is_finite() && d > 0.0 => Ok(d),
        Ok(_) => Err(format!(
            "EF_LORA_DURATION={raw:?} must be a positive, finite number"
        )),
        Err(_) => Err(format!("EF_LORA_DURATION={raw:?} is not a number")),
    }
}

impl Scale {
    /// Reads `EF_LORA_SCALE` (`smoke`/`small`/`paper`), defaulting to
    /// `small`; `EF_LORA_REPS`, `EF_LORA_DURATION` and `EF_LORA_THREADS`
    /// override the preset's repetition count, simulated seconds and
    /// worker count. Malformed overrides are rejected with a warning on
    /// stderr and the preset value is kept — previously they were
    /// silently ignored, and `EF_LORA_REPS=0` was silently *accepted*,
    /// turning every averaged metric into NaN.
    pub fn from_env() -> Scale {
        let mut scale = match std::env::var("EF_LORA_SCALE").as_deref() {
            Ok("smoke") => Scale::smoke(),
            Ok("paper") => Scale::paper(),
            _ => Scale::small(),
        };
        if let Ok(raw) = std::env::var("EF_LORA_REPS") {
            match parse_reps(&raw) {
                Ok(reps) => scale.reps = reps,
                Err(msg) => eprintln!("warning: {msg}; keeping reps={}", scale.reps),
            }
        }
        if let Ok(raw) = std::env::var("EF_LORA_DURATION") {
            match parse_duration(&raw) {
                Ok(duration) => scale.duration_s = duration,
                Err(msg) => {
                    eprintln!("warning: {msg}; keeping duration={}", scale.duration_s);
                }
            }
        }
        scale.threads = lora_parallel::threads_from_env();
        scale
    }

    /// CI-sized preset.
    pub fn smoke() -> Scale {
        Scale {
            kind: ScaleKind::Smoke,
            reps: 1,
            duration_s: 3_000.0,
            device_factor: 0.02,
            duty: 0.01,
            threads: lora_parallel::available_threads(),
        }
    }

    /// Default preset.
    pub fn small() -> Scale {
        Scale {
            kind: ScaleKind::Small,
            reps: 3,
            duration_s: 6_000.0,
            device_factor: 0.2,
            duty: 0.01,
            threads: lora_parallel::available_threads(),
        }
    }

    /// Full paper-sized preset: five times the population at one fifth the
    /// per-device duty, so the Erlang load per gateway matches `small`.
    pub fn paper() -> Scale {
        Scale {
            kind: ScaleKind::Paper,
            reps: 10,
            duration_s: 30_000.0,
            device_factor: 1.0,
            duty: 0.002,
            threads: lora_parallel::available_threads(),
        }
    }

    /// Returns the scale with an explicit worker count (`0` = available
    /// parallelism). Tests use this instead of `EF_LORA_THREADS` to avoid
    /// process-global environment races.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Scale {
        self.threads = if threads == 0 {
            lora_parallel::available_threads()
        } else {
            threads
        };
        self
    }

    /// Scales one of the paper's device counts, keeping at least 10.
    pub fn devices(&self, paper_count: usize) -> usize {
        ((paper_count as f64 * self.device_factor).round() as usize).max(10)
    }

    /// A banner line describing the preset.
    pub fn banner(&self) -> String {
        format!(
            "scale={:?} (device factor {}, {} repetitions of {} simulated seconds on {} thread(s); set EF_LORA_SCALE=paper for full size)",
            self.kind, self.device_factor, self.reps, self.duration_s, self.threads
        )
    }
}

/// The paper's Section IV configuration: every device offers a fixed duty
/// cycle (`Traffic::DutyCycleTarget`), which puts the network in the
/// contention-dominated regime the paper's figures show. The duty comes
/// from the scale preset so the per-gateway load stays fixed as the
/// population scales (see [`Scale::duty`]).
pub fn paper_config_at(scale: &Scale) -> SimConfig {
    SimConfig {
        traffic: Traffic::DutyCycleTarget { duty: scale.duty },
        ..SimConfig::default()
    }
}

/// [`paper_config_at`] with the ETSI 1 % duty — the `small`-preset regime.
pub fn paper_config() -> SimConfig {
    SimConfig {
        traffic: Traffic::DutyCycleTarget { duty: 0.01 },
        ..SimConfig::default()
    }
}

/// One deployment to run strategies against.
#[derive(Debug, Clone, Copy)]
pub struct Deployment {
    /// Number of end devices.
    pub n_devices: usize,
    /// Number of gateways.
    pub n_gateways: usize,
    /// Disc radius in metres (the paper: 5 km).
    pub radius_m: f64,
    /// Topology seed.
    pub seed: u64,
}

impl Deployment {
    /// The paper's 5 km disc.
    pub fn disc(n_devices: usize, n_gateways: usize, seed: u64) -> Self {
        Deployment {
            n_devices,
            n_gateways,
            radius_m: 5_000.0,
            seed,
        }
    }
}

/// Aggregated outcome of one (deployment, strategy) pair.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StrategyOutcome {
    /// Strategy name.
    pub strategy: String,
    /// Minimum per-device EE (bits/mJ), averaged per device across
    /// repetitions first — the paper's energy-fairness metric.
    pub min_ee: f64,
    /// Mean per-device EE, bits/mJ.
    pub mean_ee: f64,
    /// Jain's fairness index over per-device EE.
    pub jain: f64,
    /// Mean packet reception ratio.
    pub mean_prr: f64,
    /// Network lifetime in years (10 % dead) under plain energy
    /// accounting — battery divided by the measured average power draw
    /// (TX + overhead + sleep), the paper's Section IV definition.
    pub lifetime_years: f64,
    /// Network lifetime in years (10 % dead) under ETX accounting
    /// (delivering a packet costs `E_s/PRR`, paper Eq. 2) — punishes
    /// lossy devices that would retransmit.
    pub etx_lifetime_years: f64,
    /// Model-predicted minimum EE for the same allocation (cross-check).
    pub model_min_ee: f64,
    /// Per-device EE averaged across repetitions (for Fig. 4/5).
    pub ee_per_device: Vec<f64>,
}

/// Per-device lifetime in years under the paper's retransmission (ETX)
/// energy accounting: delivering one packet costs `E_s / PRR` (paper
/// Eq. 2), so a device that consumed `energy_j` over `duration_s` of
/// simulated time at reception ratio `PRR` drains its battery after
/// `battery · PRR · duration / energy` seconds. A device that delivered
/// nothing has lifetime 0 (it would retransmit forever). The formulation
/// is interval-agnostic, so it holds for heterogeneous rates and the
/// duty-cycle-target traffic model alike.
pub fn etx_lifetime_years(
    battery_j: f64,
    duration_s: f64,
    attempts: u32,
    delivered: u32,
    energy_j: f64,
) -> f64 {
    if attempts == 0 || energy_j <= 0.0 {
        return 0.0;
    }
    let prr = f64::from(delivered) / f64::from(attempts);
    battery_j * prr * duration_s / energy_j / (365.25 * 24.0 * 3_600.0)
}

/// Per-device metrics from a single simulation repetition, computed on a
/// worker thread and reduced sequentially in repetition order.
struct RepMetrics {
    ee: Vec<f64>,
    prr: Vec<f64>,
    lifetime: Vec<f64>,
    etx: Vec<f64>,
}

/// Runs `strategy` on the deployment: allocate once, simulate `reps`
/// times with distinct seeds, average per device.
///
/// Repetitions fan out across `scale.threads` workers. Determinism is
/// preserved by construction: each repetition's simulator seed is derived
/// from the master seed and the repetition index *before* any work is
/// scheduled, and per-device accumulators fold the repetition results in
/// strict index order — so float addition happens in the same order the
/// old serial loop used, and results are byte-identical for any worker
/// count.
pub fn run_strategy(
    config: &SimConfig,
    topology: &Topology,
    model: &NetworkModel,
    strategy: &dyn Strategy,
    scale: &Scale,
) -> StrategyOutcome {
    let ctx = AllocationContext::new(config, topology, model);
    let alloc = strategy.allocate(&ctx).expect("allocation must succeed");
    let model_ee = model.evaluate(alloc.as_slice());

    let n = topology.device_count();
    let year = 365.25 * 24.0 * 3_600.0;
    // One simulator seed per repetition, all derived up front from the
    // master seed (same formula the serial loop used).
    let rep_seeds: Vec<u64> = (0..scale.reps)
        .map(|rep| config.seed ^ (rep.wrapping_mul(0x9e37_79b9) + 1))
        .collect();

    let simulate_rep = |rep: usize| -> RepMetrics {
        let mut cfg = config.clone();
        cfg.seed = rep_seeds[rep];
        cfg.duration_s = scale.duration_s;
        // Reuse the model's attenuation matrix instead of rebuilding the
        // O(devices × gateways) path-loss grid every repetition; the
        // matrix is a pure function of (config, topology), both fixed
        // across repetitions, so the simulation output is byte-identical.
        let sim = Simulation::with_attenuation(
            cfg,
            topology.clone(),
            alloc.as_slice().to_vec(),
            model.shared_attenuation().clone(),
        )
        .expect("validated allocation");
        let report = sim.run();
        let mut m = RepMetrics {
            ee: Vec::with_capacity(n),
            prr: Vec::with_capacity(n),
            lifetime: Vec::with_capacity(n),
            etx: Vec::with_capacity(n),
        };
        for d in &report.devices {
            m.ee.push(d.ee_bits_per_mj);
            m.prr.push(d.prr());
            m.lifetime.push(if d.energy_j > 0.0 {
                config.battery.capacity_j() * scale.duration_s / d.energy_j / year
            } else {
                0.0
            });
            m.etx.push(etx_lifetime_years(
                config.battery.capacity_j(),
                scale.duration_s,
                d.attempts,
                d.delivered,
                d.energy_j,
            ));
        }
        m
    };

    let mut ee_acc = vec![0.0f64; n];
    let mut prr_acc = vec![0.0f64; n];
    let mut lifetime_acc = vec![0.0f64; n];
    let mut etx_acc = vec![0.0f64; n];
    let rep_count = usize::try_from(scale.reps).expect("repetition count fits in usize");
    for m in lora_parallel::par_map_indexed(rep_count, scale.threads, simulate_rep) {
        for i in 0..n {
            ee_acc[i] += m.ee[i];
            prr_acc[i] += m.prr[i];
            lifetime_acc[i] += m.lifetime[i];
            etx_acc[i] += m.etx[i];
        }
    }
    let reps = scale.reps as f64;
    for v in ee_acc
        .iter_mut()
        .chain(&mut prr_acc)
        .chain(&mut lifetime_acc)
        .chain(&mut etx_acc)
    {
        *v /= reps;
    }

    StrategyOutcome {
        strategy: strategy.name().to_string(),
        min_ee: minimum(&ee_acc),
        mean_ee: mean(&ee_acc),
        jain: jain_index(&ee_acc),
        mean_prr: mean(&prr_acc),
        lifetime_years: percentile(&lifetime_acc, 10.0),
        etx_lifetime_years: percentile(&etx_acc, 10.0),
        model_min_ee: minimum(&model_ee),
        ee_per_device: ee_acc,
    }
}

/// Runs a set of strategies on one deployment.
pub fn run_deployment(
    config: &SimConfig,
    deployment: Deployment,
    strategies: &[&dyn Strategy],
    scale: &Scale,
) -> Vec<StrategyOutcome> {
    let topology = Topology::disc(
        deployment.n_devices,
        deployment.n_gateways,
        deployment.radius_m,
        config,
        deployment.seed,
    );
    let model = NetworkModel::new(config, &topology);
    strategies
        .iter()
        .map(|s| run_strategy(config, &topology, &model, *s, scale))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ef_lora::LegacyLora;

    #[test]
    fn scale_presets_differ() {
        assert!(Scale::smoke().devices(3000) < Scale::small().devices(3000));
        assert_eq!(Scale::paper().devices(3000), 3000);
        assert_eq!(Scale::smoke().devices(100), 10, "floor of 10 devices");
    }

    #[test]
    fn etx_lifetime_edge_cases() {
        assert_eq!(etx_lifetime_years(1000.0, 6000.0, 0, 0, 0.0), 0.0);
        assert_eq!(etx_lifetime_years(1000.0, 6000.0, 10, 0, 1.0), 0.0);
        let full = etx_lifetime_years(28_512.0, 6000.0, 10, 10, 0.7);
        let half = etx_lifetime_years(28_512.0, 6000.0, 10, 5, 0.7);
        assert!((full / half - 2.0).abs() < 1e-9, "lifetime scales with PRR");
        // Burning energy twice as fast halves the lifetime.
        let hot = etx_lifetime_years(28_512.0, 6000.0, 10, 10, 1.4);
        assert!((full / hot - 2.0).abs() < 1e-9);
    }

    #[test]
    fn paper_config_uses_duty_target() {
        assert_eq!(
            paper_config().traffic,
            Traffic::DutyCycleTarget { duty: 0.01 }
        );
        let paper = paper_config_at(&Scale::paper());
        assert_eq!(paper.traffic, Traffic::DutyCycleTarget { duty: 0.002 });
        // Constant Erlang load: duty × device-factor is preset-invariant.
        for s in [Scale::small(), Scale::paper()] {
            let load = s.duty * s.device_factor * 3_000.0;
            assert!((load - 6.0).abs() < 1e-9, "{load}");
        }
    }

    #[test]
    fn env_override_parsers_reject_garbage() {
        assert_eq!(parse_reps("7"), Ok(7));
        assert_eq!(parse_reps(" 100 "), Ok(100));
        assert!(
            parse_reps("0").is_err(),
            "reps=0 would divide every metric by zero"
        );
        assert!(parse_reps("-3").is_err());
        assert!(parse_reps("three").is_err());
        assert!(parse_reps("").is_err());

        assert_eq!(parse_duration("6000"), Ok(6000.0));
        assert_eq!(parse_duration("1.5e3"), Ok(1500.0));
        assert!(parse_duration("0").is_err());
        assert!(parse_duration("-10").is_err());
        assert!(parse_duration("inf").is_err());
        assert!(parse_duration("NaN").is_err());
        assert!(parse_duration("long").is_err());
    }

    #[test]
    fn with_threads_zero_means_available_parallelism() {
        let scale = Scale::smoke().with_threads(0);
        assert_eq!(scale.threads, lora_parallel::available_threads());
        assert_eq!(Scale::smoke().with_threads(5).threads, 5);
    }

    #[test]
    fn replication_fanout_is_thread_invariant() {
        // The same deployment and master seed must produce identical
        // StrategyOutcome aggregates whether the repetitions run on 1
        // worker or more.
        use ef_lora::EfLora;
        use lora_model::NetworkModel;

        let config = paper_config();
        let mut scale = Scale::smoke().with_threads(1);
        scale.reps = 4;
        let deployment = Deployment::disc(24, 2, 11);
        let topology = Topology::disc(
            deployment.n_devices,
            deployment.n_gateways,
            deployment.radius_m,
            &config,
            deployment.seed,
        );
        let model = NetworkModel::new(&config, &topology);

        let ef = EfLora::default();
        let serial = run_strategy(&config, &topology, &model, &ef, &scale);
        for threads in [2usize, 4] {
            let outcome = run_strategy(
                &config,
                &topology,
                &model,
                &ef,
                &scale.with_threads(threads),
            );
            assert_eq!(serial, outcome, "threads={threads}");
        }
    }

    #[test]
    fn shared_attenuation_reuse_is_byte_identical() {
        // The per-repetition matrix reuse in `run_strategy` is only sound
        // if a simulation built from the model's shared matrix reports
        // exactly what a from-scratch construction reports.
        let config = paper_config();
        let topology = Topology::disc(24, 2, 5_000.0, &config, 11);
        let model = NetworkModel::new(&config, &topology);
        let alloc = vec![lora_phy::TxConfig::default(); 24];
        let fresh = Simulation::new(config.clone(), topology.clone(), alloc.clone())
            .expect("builds")
            .run();
        let shared = Simulation::with_attenuation(
            config,
            topology,
            alloc,
            model.shared_attenuation().clone(),
        )
        .expect("builds")
        .run();
        assert_eq!(fresh, shared);
    }

    #[test]
    fn with_attenuation_rejects_mismatched_shape() {
        let config = paper_config();
        let topology = Topology::disc(24, 2, 5_000.0, &config, 11);
        let other = Topology::disc(10, 1, 5_000.0, &config, 11);
        let wrong = lora_sim::attenuation_matrix(&config, &other);
        let alloc = vec![lora_phy::TxConfig::default(); 24];
        assert!(Simulation::with_attenuation(config, topology, alloc, wrong).is_err());
    }

    #[test]
    fn run_deployment_produces_outcomes() {
        let config = SimConfig::default();
        let scale = Scale::smoke();
        let legacy = LegacyLora::default();
        let outcomes = run_deployment(
            &config,
            Deployment::disc(20, 2, 3),
            &[&legacy as &dyn Strategy],
            &scale,
        );
        assert_eq!(outcomes.len(), 1);
        let o = &outcomes[0];
        assert_eq!(o.ee_per_device.len(), 20);
        assert!(o.min_ee >= 0.0 && o.mean_ee >= o.min_ee);
        assert!((0.0..=1.0).contains(&o.jain));
        assert!((0.0..=1.0).contains(&o.mean_prr));
    }
}
