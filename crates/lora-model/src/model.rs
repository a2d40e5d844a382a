//! The network-wide energy-efficiency model (paper Eq. 17–18) with
//! incremental evaluation.
//!
//! [`NetworkModel`] captures everything that does not depend on the
//! allocation: attenuations, per-SF time-on-air, thresholds and the energy
//! model. [`ModelState`] then binds an allocation and maintains the
//! group-level aggregates — member lists, mean interference power sums and
//! gateway occupancy loads — that let the greedy allocator evaluate
//! "what is the network minimum EE if device *i* moves to configuration
//! *c*?" in time proportional to the two affected contention groups rather
//! than the whole network.
//!
//! ## Approximations (documented deviations)
//!
//! * The gateway-capacity factor `θ` uses a Poisson tail with mean
//!   `Λ_k − q_{i,k}` where `Λ_k` is the total expected demodulator
//!   occupancy at gateway `k`. `Λ` is updated on committed moves but *not*
//!   during a hypothetical candidate scan (one device among thousands
//!   perturbs it negligibly); [`ModelState::refresh`] recomputes it, and the
//!   allocator calls it between passes. The exact Poisson–binomial is
//!   available in [`crate::capacity`] and is used by
//!   [`NetworkModel::evaluate_exact_theta`].
//! * EE values cached for devices in *unaffected* groups are not
//!   recomputed when `Λ` drifts; `refresh` flushes this too.

use lora_phy::energy::RadioEnergyModel;
use lora_phy::link::noise_floor_dbm;
use lora_phy::toa::ToaParams;
use lora_phy::{dbm_to_mw, Bandwidth, SpreadingFactor, TxConfig, TxPowerDbm};
use lora_sim::{AttenuationMatrix, DeviceSite, Position, SimConfig, Topology, Traffic};

use crate::capacity::{poisson_at_most, poisson_binomial_at_most, OTHERS_BUDGET};
use crate::contention::{group_count, group_index, overlap_from_load};
use crate::error::ModelError;
use crate::interference::{group_density, laplace_transform};
use crate::pdr::{pdr_with, prr, PdrForm};

/// Allocation-independent model of one deployment.
///
/// `PartialEq` compares every derived quantity bitwise — it exists so
/// equivalence tests can assert that an incrementally maintained model
/// ([`NetworkModel::extend_rows`] and friends) is indistinguishable from
/// a from-scratch [`NetworkModel::new`] over the same population.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkModel {
    /// Linear attenuation, flat row-major `[device][gateway]`.
    attenuation: AttenuationMatrix,
    /// Number of devices (kept explicitly: the attenuation matrix cannot
    /// recover it for a zero-gateway deployment).
    n_devices: usize,
    /// Number of gateways (kept explicitly: the attenuation matrix is
    /// empty for a zero-device deployment).
    n_gateways: usize,
    /// Per-device path-loss exponent (for the Laplace variant).
    beta: Vec<f64>,
    /// Time-on-air per SF for the configured payload, seconds.
    toa_by_sf: [f64; 6],
    /// Sensitivity per SF, mW.
    sens_mw: [f64; 6],
    /// SNR threshold per SF, linear ratio.
    th_lin: [f64; 6],
    /// Noise floor, mW.
    noise_mw: f64,
    /// Delivered bits per frame (`L` of Eq. 2).
    payload_bits: f64,
    /// Common reporting interval `T_g`, seconds.
    interval_s: f64,
    /// Per-device reporting intervals (all equal to `interval_s` unless
    /// the Section III-E heterogeneous-rates extension is configured).
    /// Under [`Traffic::DutyCycleTarget`] intervals depend on the SF, so
    /// this vector is ignored in favour of `traffic`.
    intervals: Vec<f64>,
    /// Traffic model (fixes the duty cycle under `DutyCycleTarget`).
    traffic: Traffic,
    /// Radio energy model.
    energy: RadioEnergyModel,
    /// Number of uplink channels.
    n_channels: usize,
    /// Overall deployment density, devices per m².
    density_per_m2: f64,
    /// Which analytical PDR form to evaluate (see [`PdrForm`]).
    pdr_form: PdrForm,
    /// Frozen contributions of out-of-scope devices (see [`Ambient`]);
    /// `None` means a self-contained deployment.
    ambient: Option<Ambient>,
}

/// Frozen contributions of devices *outside* a model's scope.
///
/// The cell-sharded allocator solves one cell at a time: the cell's
/// devices form the model's population, while the boundary ring and the
/// analytically priced far field stay fixed during the cell's solve.
/// Their aggregate effect enters here — as additive offsets to the three
/// group/gateway sums [`ModelState`] maintains — so the greedy scan and
/// the repair machinery run unmodified on the local subproblem:
///
/// * `power` adds to each contention group's received-power sum at each
///   gateway (interference seen by local devices);
/// * `load` adds to each group's contention load `Σα` (collision
///   pressure on the shared slots);
/// * `lambda` adds to each gateway's expected demodulator occupancy `Λ`
///   (capacity pressure).
///
/// All-zero offsets are bitwise indistinguishable from no ambient at
/// all, which is the equivalence the below-threshold proptests pin.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Ambient {
    /// Added to the group received-power sums, mW, flat
    /// `[group][gateway]` with `group_count(channels)` rows.
    pub power: Vec<f64>,
    /// Added to the per-group contention loads `Σα` (dimensionless).
    pub load: Vec<f64>,
    /// Added to the per-gateway expected occupancy `Λ` (dimensionless).
    pub lambda: Vec<f64>,
}

impl Ambient {
    /// An all-zero ambient for a model with `groups` contention groups
    /// and `gateways` gateways.
    pub fn zeros(groups: usize, gateways: usize) -> Self {
        Ambient {
            power: vec![0.0; groups * gateways],
            load: vec![0.0; groups],
            lambda: vec![0.0; gateways],
        }
    }
}

impl NetworkModel {
    /// Builds the model for a deployment under a simulation configuration,
    /// guaranteeing model and simulator share every physical parameter.
    ///
    /// # Panics
    ///
    /// Panics if the configured payload exceeds the LoRa maximum; use
    /// [`NetworkModel::try_new`] to handle that case as an error.
    pub fn new(config: &SimConfig, topology: &Topology) -> Self {
        Self::try_new(config, topology).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`NetworkModel::new`]: an oversize payload surfaces as
    /// [`ModelError::PayloadTooLarge`] instead of a panic.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::PayloadTooLarge`] when no time-on-air exists
    /// for `config.phy_payload_len()`, and [`ModelError::TopologyTooLarge`]
    /// when the dense attenuation matrix would exceed the byte budget
    /// (`EF_LORA_ATTENUATION_BUDGET`, default 2 GiB).
    pub fn try_new(config: &SimConfig, topology: &Topology) -> Result<Self, ModelError> {
        Self::try_new_with_budget(config, topology, lora_sim::attenuation_budget_from_env())
    }

    /// [`NetworkModel::try_new`] with an explicit byte budget for the
    /// dense attenuation matrix instead of the environment default.
    pub fn try_new_with_budget(
        config: &SimConfig,
        topology: &Topology,
        budget_bytes: u64,
    ) -> Result<Self, ModelError> {
        // Shared with the simulator — and parallelised there for large
        // deployments (see `lora_sim::attenuation_matrix`). The budget
        // turns what would be an abort-on-OOM into a typed refusal that
        // points at the cell-sharded path.
        let attenuation = lora_sim::try_attenuation_matrix(config, topology, budget_bytes)
            .map_err(|e| match e {
                lora_sim::SimError::TopologyTooLarge {
                    devices,
                    gateways,
                    required_bytes,
                    budget_bytes,
                } => ModelError::TopologyTooLarge {
                    devices,
                    gateways,
                    required_bytes,
                    budget_bytes,
                },
                other => panic!("unexpected attenuation build failure: {other}"),
            })?;
        Self::try_new_with_attenuation(config, topology, attenuation)
    }

    /// [`NetworkModel::try_new`] over a caller-supplied attenuation
    /// matrix — the entry point for the cell-sharded path, where the
    /// per-cell rows come from a `lora-spatial` tile built against the
    /// cell's gateway subset rather than a fresh dense build. The matrix
    /// must use the same kernel as [`lora_sim::attenuation_matrix`] for
    /// the model to stay bitwise consistent with the dense path.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::PayloadTooLarge`] as in
    /// [`NetworkModel::try_new`], and
    /// [`ModelError::AllocationLengthMismatch`] when the matrix row count
    /// does not match the topology's device count.
    pub fn try_new_with_attenuation(
        config: &SimConfig,
        topology: &Topology,
        attenuation: AttenuationMatrix,
    ) -> Result<Self, ModelError> {
        if topology.gateway_count() > 0
            && (attenuation.device_count() != topology.device_count()
                || attenuation.gateway_count() != topology.gateway_count())
        {
            return Err(ModelError::AllocationLengthMismatch {
                devices: topology.device_count(),
                allocation: attenuation.device_count(),
            });
        }
        let bw = Bandwidth::Bw125;
        let payload = config.phy_payload_len();
        let mut toa_by_sf = [0.0; 6];
        let mut sens_mw = [0.0; 6];
        let mut th_lin = [0.0; 6];
        for sf in SpreadingFactor::ALL {
            toa_by_sf[sf.index()] = ToaParams::new(sf, bw, config.coding_rate)
                .time_on_air_s(payload)
                .map_err(|e| match e {
                    lora_phy::PhyError::PayloadTooLarge { len, max } => {
                        ModelError::PayloadTooLarge { len, max }
                    }
                    other => panic!("unexpected time-on-air failure: {other}"),
                })?;
            sens_mw[sf.index()] = dbm_to_mw(sf.sensitivity_dbm(bw, config.noise_figure_db));
            th_lin[sf.index()] = dbm_to_mw(sf.snr_threshold_db());
        }
        let beta = topology
            .devices()
            .iter()
            .map(|site| config.betas.beta(site.environment))
            .collect();
        let area = std::f64::consts::PI * topology.radius_m().powi(2);
        let density_per_m2 = if area > 0.0 {
            topology.device_count() as f64 / area
        } else {
            0.0
        };
        Ok(NetworkModel {
            attenuation,
            n_devices: topology.device_count(),
            n_gateways: topology.gateway_count(),
            beta,
            toa_by_sf,
            sens_mw,
            th_lin,
            noise_mw: dbm_to_mw(noise_floor_dbm(bw, config.noise_figure_db)),
            payload_bits: config.payload_bits(),
            interval_s: config.report_interval_s,
            intervals: (0..topology.device_count())
                .map(|i| config.interval_of(i))
                .collect(),
            traffic: config.traffic,
            energy: config.energy.clone(),
            n_channels: config.region.uplink_channel_count(),
            density_per_m2,
            pdr_form: PdrForm::default(),
            ambient: None,
        })
    }

    /// Selects the analytical PDR form. The default,
    /// [`PdrForm::JointExponential`], is the exact joint probability that
    /// matches the packet simulator; [`PdrForm::PaperEq10`] evaluates the
    /// paper's literal product form.
    #[must_use]
    pub fn with_pdr_form(mut self, form: PdrForm) -> Self {
        self.pdr_form = form;
        self
    }

    /// Installs frozen out-of-scope contributions (see [`Ambient`]).
    /// Every subsequent [`NetworkModel::state`] build — including
    /// [`ModelState::refresh`] — starts its group sums from these offsets
    /// instead of zero.
    ///
    /// # Panics
    ///
    /// Panics when the offset dimensions do not match this model
    /// (`load` per contention group, `lambda` per gateway, `power` flat
    /// `[group][gateway]`).
    #[must_use]
    pub fn with_ambient(mut self, ambient: Ambient) -> Self {
        let n_groups = group_count(self.n_channels);
        assert_eq!(ambient.load.len(), n_groups, "one load offset per group");
        assert_eq!(
            ambient.lambda.len(),
            self.n_gateways,
            "one occupancy offset per gateway"
        );
        assert_eq!(
            ambient.power.len(),
            n_groups * self.n_gateways,
            "power offsets must be flat [group][gateway]"
        );
        assert!(
            ambient
                .power
                .iter()
                .chain(&ambient.load)
                .chain(&ambient.lambda)
                .all(|v| v.is_finite() && *v >= 0.0),
            "ambient offsets must be finite and non-negative"
        );
        self.ambient = Some(ambient);
        self
    }

    /// The installed ambient offsets, if any.
    pub fn ambient(&self) -> Option<&Ambient> {
        self.ambient.as_ref()
    }

    /// Number of modelled devices.
    pub fn device_count(&self) -> usize {
        self.n_devices
    }

    /// Number of modelled gateways.
    pub fn gateway_count(&self) -> usize {
        self.n_gateways
    }

    /// Number of uplink channels in the plan.
    pub fn channel_count(&self) -> usize {
        self.n_channels
    }

    /// Linear attenuation between device `i` and gateway `k`.
    pub fn attenuation(&self, device: usize, gateway: usize) -> f64 {
        self.attenuation.at(device, gateway)
    }

    /// The full attenuation matrix, shared with the simulator. Clone it
    /// into [`lora_sim::Simulation::with_attenuation`] to build simulations
    /// of the same deployment without recomputing path loss.
    pub fn shared_attenuation(&self) -> &AttenuationMatrix {
        &self.attenuation
    }

    /// Time-on-air for the configured payload at `sf`, seconds.
    pub fn time_on_air_s(&self, sf: SpreadingFactor) -> f64 {
        self.toa_by_sf[sf.index()]
    }

    /// The duty cycle `α = T/T_g` at `sf` under the *common* reporting
    /// interval (paper Eq. 15).
    pub fn duty_cycle(&self, sf: SpreadingFactor) -> f64 {
        self.toa_by_sf[sf.index()] / self.interval_s
    }

    /// The duty cycle of device `i` if it used `sf`, honouring its own
    /// reporting interval (the heterogeneous-rates generalisation of
    /// Eq. 15). Under [`Traffic::DutyCycleTarget`] this is the fixed duty
    /// regardless of SF.
    pub fn duty_of(&self, device: usize, sf: SpreadingFactor) -> f64 {
        match self.traffic {
            Traffic::Periodic => self.toa_by_sf[sf.index()] / self.intervals[device],
            Traffic::DutyCycleTarget { duty } => duty,
        }
    }

    /// The reporting interval device `i` would use at `sf`: its configured
    /// interval under periodic traffic, `ToA(sf)/duty` under a duty-cycle
    /// target.
    pub fn interval_for(&self, device: usize, sf: SpreadingFactor) -> f64 {
        match self.traffic {
            Traffic::Periodic => self.intervals[device],
            Traffic::DutyCycleTarget { duty } => self.toa_by_sf[sf.index()] / duty,
        }
    }

    /// Energy of one reporting cycle under configuration `cfg` at the
    /// common interval, joules (the `E_s` of Eq. 2, including sleep).
    pub fn cycle_energy_j(&self, cfg: &TxConfig) -> f64 {
        self.energy
            .cycle_energy_j(cfg.tp, self.time_on_air_s(cfg.sf), self.interval_s)
    }

    /// Energy of one reporting cycle of device `i` under configuration
    /// `cfg`, honouring its own reporting interval and the traffic model.
    pub fn cycle_energy_of(&self, device: usize, cfg: &TxConfig) -> f64 {
        self.energy.cycle_energy_j(
            cfg.tp,
            self.time_on_air_s(cfg.sf),
            self.interval_for(device, cfg.sf),
        )
    }

    /// The common reporting interval `T_g`, seconds.
    pub fn interval_s(&self) -> f64 {
        self.interval_s
    }

    /// The reporting interval of device `i`, seconds.
    pub fn interval_of(&self, device: usize) -> f64 {
        self.intervals[device]
    }

    /// Delivered bits per frame (the `L` of Eq. 2).
    pub fn payload_bits(&self) -> f64 {
        self.payload_bits
    }

    /// The smallest SF whose mean received power reaches *some* gateway's
    /// sensitivity at transmit power `tp`, or `None` if even SF12 falls
    /// short everywhere. This is the legacy-LoRa SF rule (estimated SNR,
    /// no interference).
    pub fn min_feasible_sf(&self, device: usize, tp: TxPowerDbm) -> Option<SpreadingFactor> {
        let p_mw = tp.milliwatts();
        let best_atten = self
            .attenuation
            .row(device)
            .iter()
            .copied()
            .fold(0.0f64, f64::max);
        SpreadingFactor::ALL
            .into_iter()
            .find(|sf| p_mw * best_atten >= self.sens_mw[sf.index()])
    }

    /// Occupancy probability `q_{i,k}`: the chance device `i` holds a
    /// demodulator path at gateway `k` at a random instant — transmitting
    /// (duty cycle) and detectable (Rayleigh survival of the sensitivity).
    pub fn occupancy_probability(&self, device: usize, cfg: &TxConfig, gateway: usize) -> f64 {
        let mean_rx = cfg.tp.milliwatts() * self.attenuation.at(device, gateway);
        if mean_rx <= 0.0 {
            return 0.0;
        }
        let detect = (-self.sens_mw[cfg.sf.index()] / mean_rx).exp();
        self.duty_of(device, cfg.sf) * detect
    }

    /// Validates an allocation against this model.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::AllocationLengthMismatch`] or
    /// [`ModelError::ChannelOutOfRange`].
    pub fn validate(&self, alloc: &[TxConfig]) -> Result<(), ModelError> {
        if alloc.len() != self.device_count() {
            return Err(ModelError::AllocationLengthMismatch {
                devices: self.device_count(),
                allocation: alloc.len(),
            });
        }
        for (device, cfg) in alloc.iter().enumerate() {
            if cfg.channel >= self.n_channels {
                return Err(ModelError::ChannelOutOfRange {
                    device,
                    channel: cfg.channel,
                    plan_len: self.n_channels,
                });
            }
        }
        Ok(())
    }

    /// Evaluates the energy efficiency (bits/mJ, Eq. 17) of every device
    /// under `alloc`, using the incremental machinery once.
    ///
    /// # Panics
    ///
    /// Panics if the allocation is invalid; use [`NetworkModel::validate`]
    /// or [`NetworkModel::state`] for fallible entry points.
    pub fn evaluate(&self, alloc: &[TxConfig]) -> Vec<f64> {
        self.state(alloc.to_vec())
            .expect("valid allocation")
            .ee_all()
            .to_vec()
    }

    /// Like [`NetworkModel::evaluate`] but with the exact Poisson–binomial
    /// capacity factor instead of the Poisson approximation. `O(N²·G)` —
    /// use for validation, not inside the allocator.
    pub fn evaluate_exact_theta(&self, alloc: &[TxConfig]) -> Vec<f64> {
        self.validate(alloc).expect("valid allocation");
        let n = self.device_count();
        let g = self.gateway_count();
        // q[k][j]
        let mut q = vec![vec![0.0; n]; g];
        for j in 0..n {
            for (k, qk) in q.iter_mut().enumerate() {
                qk[j] = self.occupancy_probability(j, &alloc[j], k);
            }
        }
        let state = self.state(alloc.to_vec()).expect("validated");
        (0..n)
            .map(|i| {
                let cfg = &alloc[i];
                let h = state.overlap_for(i);
                let per_gw = (0..g).map(|k| {
                    let probs: Vec<f64> = (0..n).filter(|&j| j != i).map(|j| q[k][j]).collect();
                    let theta = poisson_binomial_at_most(&probs, OTHERS_BUDGET);
                    let mean_rx = cfg.tp.milliwatts() * self.attenuation.at(i, k);
                    let interference = state.interference_on(i, k);
                    let p = pdr_with(
                        self.pdr_form,
                        mean_rx,
                        self.th_lin[cfg.sf.index()],
                        h,
                        interference,
                        self.noise_mw,
                        self.sens_mw[cfg.sf.index()],
                    );
                    (theta, p)
                });
                self.payload_bits * prr(per_gw) / (self.cycle_energy_j(cfg) * 1_000.0)
            })
            .collect()
    }

    /// Evaluates EE with the paper's PPP/Laplace interference reduction
    /// (Eq. 18–20) instead of the per-device mean-field sum: the cumulative
    /// interference term is replaced by
    /// `L_I(th·h/(p·a))` at group density `λ_{s,c}` (Eq. 20).
    ///
    /// Requires every per-device path-loss exponent to exceed 2 (the PPP
    /// integral diverges otherwise); exponents are clamped to 2.05.
    pub fn evaluate_laplace(&self, alloc: &[TxConfig]) -> Vec<f64> {
        self.validate(alloc).expect("valid allocation");
        let n = self.device_count();
        let counts = crate::contention::group_occupancy(alloc, self.n_channels);
        let state = self.state(alloc.to_vec()).expect("validated");
        (0..n)
            .map(|i| {
                let cfg = &alloc[i];
                let sfi = cfg.sf.index();
                let group = group_index(cfg.sf, cfg.channel, self.n_channels);
                let lambda_sc =
                    group_density(self.density_per_m2, counts[group].saturating_sub(1), n);
                let h = state.overlap_for(i);
                let beta = self.beta[i].max(2.05);
                let per_gw = (0..self.gateway_count()).map(|k| {
                    let mean_rx = cfg.tp.milliwatts() * self.attenuation.at(i, k);
                    if mean_rx <= 0.0 {
                        return (1.0, 0.0);
                    }
                    let s = self.th_lin[sfi] * h / mean_rx;
                    let l = laplace_transform(s, cfg.tp.milliwatts(), beta, lambda_sc);
                    let noise_part =
                        (-(self.th_lin[sfi] * self.noise_mw + self.sens_mw[sfi]) / mean_rx).exp();
                    let theta = state.theta(i, k);
                    (theta, (l * noise_part).clamp(0.0, 1.0))
                });
                self.payload_bits * prr(per_gw) / (self.cycle_energy_j(cfg) * 1_000.0)
            })
            .collect()
    }

    /// Binds an allocation, producing the incrementally updatable state.
    ///
    /// # Errors
    ///
    /// Returns the validation errors of [`NetworkModel::validate`].
    pub fn state(&self, alloc: Vec<TxConfig>) -> Result<ModelState<'_>, ModelError> {
        self.validate(&alloc)?;
        Ok(ModelState::build(self, alloc))
    }

    /// Re-derives the reporting-interval fields from `config` after a
    /// churn event changed the population's class mix. `config` must
    /// differ from the construction-time configuration only in its
    /// reporting-interval fields — everything else (payload, energy
    /// model, path loss, channel plan) is immutable under churn.
    pub fn refresh_intervals(&mut self, config: &SimConfig) {
        self.interval_s = config.report_interval_s;
        self.intervals = (0..self.n_devices).map(|i| config.interval_of(i)).collect();
    }

    /// Appends the rows of a batch of joining devices (a churn `Join`),
    /// keeping the model bitwise equal to [`NetworkModel::new`] over the
    /// extended population: the attenuation rows come from the same
    /// shared kernel, and the intervals/density are re-derived with the
    /// construction-time expressions.
    pub fn extend_rows(
        &mut self,
        config: &SimConfig,
        new_sites: &[DeviceSite],
        gateways: &[Position],
        radius_m: f64,
    ) {
        self.attenuation.extend_rows(config, new_sites, gateways);
        self.beta.extend(
            new_sites
                .iter()
                .map(|site| config.betas.beta(site.environment)),
        );
        self.n_devices += new_sites.len();
        self.refresh_intervals(config);
        self.refresh_density(radius_m);
    }

    /// Drops the rows of leaving devices (a churn `Leave`) in one
    /// compaction pass, mirroring the population's own `retain_kept`
    /// compaction so row `i` keeps describing the `i`-th survivor.
    ///
    /// # Panics
    ///
    /// Panics when the mask length disagrees with the device count.
    pub fn retire_rows(&mut self, config: &SimConfig, leaving: &[bool], radius_m: f64) {
        assert_eq!(leaving.len(), self.n_devices, "leave mask shape");
        self.attenuation.retire_rows(leaving);
        let mut write = 0;
        for (i, &leaves) in leaving.iter().enumerate() {
            if leaves {
                continue;
            }
            self.beta[write] = self.beta[i];
            write += 1;
        }
        self.beta.truncate(write);
        self.n_devices = write;
        self.refresh_intervals(config);
        self.refresh_density(radius_m);
    }

    /// Recomputes one device's row for an updated site (a churn
    /// `Migrate` — the class move may change the propagation
    /// environment and always changes the reporting interval).
    pub fn patch_row(
        &mut self,
        config: &SimConfig,
        device: usize,
        site: &DeviceSite,
        gateways: &[Position],
    ) {
        self.attenuation.patch_row(config, device, site, gateways);
        self.beta[device] = config.betas.beta(site.environment);
        self.refresh_intervals(config);
    }

    /// Re-derives the deployment density with the construction-time
    /// expression (the population size just changed).
    fn refresh_density(&mut self, radius_m: f64) {
        let area = std::f64::consts::PI * radius_m.powi(2);
        self.density_per_m2 = if area > 0.0 {
            self.n_devices as f64 / area
        } else {
            0.0
        };
    }
}

/// An allocation bound to a [`NetworkModel`], with the aggregates needed to
/// evaluate single-device moves incrementally.
#[derive(Debug, Clone)]
pub struct ModelState<'m> {
    model: &'m NetworkModel,
    alloc: Vec<TxConfig>,
    /// Device ids per (SF, channel) group.
    members: Vec<Vec<usize>>,
    /// `Σ_{j∈group} p_j·a_{j,k}` per group and gateway, mW.
    power_sum: Vec<Vec<f64>>,
    /// `Σ_{j∈group} α_j` per group — the ALOHA contention load used by the
    /// heterogeneous-rates generalisation of Eq. (14).
    alpha_sum: Vec<f64>,
    /// Occupancy probability `q_{i,k}` per device and gateway.
    q: Vec<Vec<f64>>,
    /// Total expected occupancy `Λ_k` per gateway.
    lambda: Vec<f64>,
    /// Cached EE per device, bits/mJ.
    ee: Vec<f64>,
    /// Cached minimum EE per group (`∞` for empty groups).
    group_min: Vec<f64>,
    /// Cached capacity factor `θ_{i,k}`, flat `[device][gateway]`.
    ///
    /// `θ` depends only on `Λ` and `q` — not on the candidate being
    /// scanned — so it is recomputed exactly where `Λ`/`q` change
    /// ([`ModelState::build`] and [`ModelState::apply`]) and *read*
    /// everywhere else, eliminating the Poisson tail from the
    /// per-candidate inner loop while producing bit-identical values.
    theta_cache: Vec<f64>,
    /// Advanced by every [`ModelState::apply`] and [`ModelState::refresh`],
    /// so a [`ScanCache`] can tell whether the state it was prepared
    /// against has changed since.
    generation: u64,
}

/// Per-device scratch for a candidate scan, produced by
/// [`ModelState::prepare_scan`].
///
/// During one scan of device `i` the allocation is fixed, so the parts
/// of a candidate's evaluation that do not depend on the candidate can be
/// computed once: the minimum EE of `i`'s old group after it leaves, and
/// the smallest cached group minima. Preparing costs
/// `O(old-group members × gateways)`; [`ModelState::min_ee_if_scanned`]
/// then evaluates a candidate in `O(new-group members × gateways)` with
/// arithmetic expressions identical to [`ModelState::min_ee_if`] — same
/// values, fewer recomputations. The cache is invalidated by any
/// [`ModelState::apply`] or [`ModelState::refresh`]; using it afterwards
/// panics, so callers must re-prepare after committing a move.
#[derive(Debug, Clone)]
pub struct ScanCache {
    /// The device being scanned.
    device: usize,
    /// The state's generation at prepare time.
    generation: u64,
    /// Minimum EE over the old group's other members after `device`
    /// leaves (`∞` when it is the sole member) — the candidate-independent
    /// part 2 of [`ModelState::min_ee_if`] for cross-group moves.
    exit_min: f64,
    /// Contention group of `device` at prepare time.
    g_old: usize,
    /// Smallest cached `group_min` over groups other than `g_old`, and
    /// its group index; `other_min2` is the runner-up. Together they
    /// answer [`ModelState::untouched_groups_min`] in O(1).
    other_min: f64,
    other_min_idx: usize,
    other_min2: f64,
}

impl<'m> ModelState<'m> {
    fn build(model: &'m NetworkModel, alloc: Vec<TxConfig>) -> Self {
        let n = model.device_count();
        let g = model.gateway_count();
        let n_groups = group_count(model.n_channels);
        let mut state = ModelState {
            model,
            alloc,
            members: vec![Vec::new(); n_groups],
            power_sum: vec![vec![0.0; g]; n_groups],
            alpha_sum: vec![0.0; n_groups],
            q: vec![vec![0.0; g]; n],
            lambda: vec![0.0; g],
            ee: vec![0.0; n],
            group_min: vec![f64::INFINITY; n_groups],
            theta_cache: Vec::new(),
            generation: 0,
        };
        if let Some(ambient) = &model.ambient {
            // Out-of-scope contributions seed the sums; the loop below
            // then accumulates local devices on top exactly as for a
            // self-contained deployment.
            for grp in 0..n_groups {
                state.alpha_sum[grp] = ambient.load[grp];
                state.power_sum[grp][..g].copy_from_slice(&ambient.power[grp * g..(grp + 1) * g]);
            }
            state.lambda.copy_from_slice(&ambient.lambda);
        }
        for i in 0..n {
            let cfg = state.alloc[i];
            let grp = state.group_of(&cfg);
            state.members[grp].push(i);
            state.alpha_sum[grp] += model.duty_of(i, cfg.sf);
            let p_mw = cfg.tp.milliwatts();
            for k in 0..g {
                state.power_sum[grp][k] += p_mw * model.attenuation.at(i, k);
                let q = model.occupancy_probability(i, &cfg, k);
                state.q[i][k] = q;
                state.lambda[k] += q;
            }
        }
        state.rebuild_theta();
        state.recompute_all_ee();
        state
    }

    /// Recomputes the cached `θ_{i,k}` for every device and gateway from
    /// the live `Λ`/`q` — called wherever those change so that reading
    /// the cache is indistinguishable from evaluating the Poisson tail
    /// on the fly.
    fn rebuild_theta(&mut self) {
        let g = self.model.gateway_count();
        self.theta_cache.clear();
        self.theta_cache.reserve(self.alloc.len() * g);
        for i in 0..self.alloc.len() {
            for k in 0..g {
                self.theta_cache.push(poisson_at_most(
                    (self.lambda[k] - self.q[i][k]).max(0.0),
                    OTHERS_BUDGET,
                ));
            }
        }
    }

    #[inline]
    fn group_of(&self, cfg: &TxConfig) -> usize {
        group_index(cfg.sf, cfg.channel, self.model.n_channels)
    }

    /// The bound allocation.
    pub fn alloc(&self) -> &[TxConfig] {
        &self.alloc
    }

    /// The model this state is bound to.
    pub fn model_ref(&self) -> &NetworkModel {
        self.model
    }

    /// Cached EE of device `i`, bits/mJ.
    pub fn ee(&self, i: usize) -> f64 {
        self.ee[i]
    }

    /// Cached EE of every device.
    pub fn ee_all(&self) -> &[f64] {
        &self.ee
    }

    /// The network minimum EE (the paper's fairness objective).
    pub fn min_ee(&self) -> f64 {
        self.ee
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
            .min(f64::MAX)
    }

    /// The contention overlap probability `h_i` of device `i` under the
    /// bound allocation — `1 − exp(−Σ_{j∈group, j≠i} α_j)`, which reduces
    /// to the paper's Eq. (14) when all group members share one duty
    /// cycle.
    pub fn overlap_for(&self, i: usize) -> f64 {
        let cfg = &self.alloc[i];
        let grp = self.group_of(cfg);
        let load = (self.alpha_sum[grp] - self.model.duty_of(i, cfg.sf)).max(0.0);
        overlap_from_load(load)
    }

    /// Mean co-group interference power on device `i` at gateway `k`, mW.
    pub fn interference_on(&self, i: usize, k: usize) -> f64 {
        let cfg = &self.alloc[i];
        let grp = self.group_of(cfg);
        (self.power_sum[grp][k] - cfg.tp.milliwatts() * self.model.attenuation.at(i, k)).max(0.0)
    }

    /// The capacity factor `θ_{i,k}`: Poisson tail at the others' load
    /// (served from a cache rebuilt whenever the loads change).
    pub fn theta(&self, i: usize, k: usize) -> f64 {
        self.theta_cache[i * self.model.gateway_count() + k]
    }

    /// EE of device `i` under a hypothetical configuration and group shape:
    /// `load` is the summed duty cycle of its co-group contenders and
    /// `interference(k)` the mean co-group interference at each gateway.
    fn ee_raw(
        &self,
        i: usize,
        cfg: &TxConfig,
        load: f64,
        interference: impl Fn(usize) -> f64,
    ) -> f64 {
        let model = self.model;
        let sfi = cfg.sf.index();
        let h = overlap_from_load(load.max(0.0));
        let p_mw = cfg.tp.milliwatts();
        let per_gw = (0..model.gateway_count()).map(|k| {
            let mean_rx = p_mw * model.attenuation.at(i, k);
            let theta = self.theta(i, k);
            let p = pdr_with(
                model.pdr_form,
                mean_rx,
                model.th_lin[sfi],
                h,
                interference(k).max(0.0),
                model.noise_mw,
                model.sens_mw[sfi],
            );
            (theta, p)
        });
        model.payload_bits * prr(per_gw) / (model.cycle_energy_of(i, cfg) * 1_000.0)
    }

    fn current_ee(&self, i: usize) -> f64 {
        let cfg = self.alloc[i];
        let grp = self.group_of(&cfg);
        let load = self.alpha_sum[grp] - self.model.duty_of(i, cfg.sf);
        let own = cfg.tp.milliwatts();
        self.ee_raw(i, &cfg, load, |k| {
            self.power_sum[grp][k] - own * self.model.attenuation.at(i, k)
        })
    }

    fn recompute_all_ee(&mut self) {
        for i in 0..self.alloc.len() {
            self.ee[i] = self.current_ee(i);
        }
        for g in 0..self.members.len() {
            self.recompute_group_min(g);
        }
    }

    fn recompute_group_min(&mut self, grp: usize) {
        self.group_min[grp] = self.members[grp]
            .iter()
            .map(|&j| self.ee[j])
            .fold(f64::INFINITY, f64::min);
    }

    /// Exact upper bound on [`ModelState::ee_if`] for device `i` under
    /// `cfg`: the delivery ratio never exceeds 1, so the delivered bits
    /// over the cycle energy — a pure function of the device's reporting
    /// interval and the candidate's SF/TP, with no load or interference
    /// terms — caps the achievable EE. `O(1)`, used by the candidate
    /// scans to discard candidates without touching the contention model.
    pub fn own_ee_ceiling(&self, i: usize, cfg: TxConfig) -> f64 {
        self.model.payload_bits / (self.model.cycle_energy_of(i, &cfg) * 1_000.0)
    }

    /// [`ModelState::ee_if`] when it passes `clears`, a test that can only
    /// turn true as its argument rises; `None` otherwise. The `O(1)`
    /// [`ModelState::own_ee_ceiling`] is tested first, so most failing
    /// candidates never reach the `O(gateways)` exact value.
    pub fn ee_if_clearing(
        &self,
        i: usize,
        cfg: TxConfig,
        clears: impl Fn(f64) -> bool,
    ) -> Option<f64> {
        if !clears(self.own_ee_ceiling(i, cfg)) {
            return None;
        }
        let ee = self.ee_if(i, cfg);
        clears(ee).then_some(ee)
    }

    /// The EE device `i` itself would have after moving to `cfg`
    /// (other devices unchanged). Cheap — `O(gateways)` — and used by the
    /// greedy allocator to break ties between moves that leave the
    /// network minimum unchanged.
    pub fn ee_if(&self, i: usize, cfg: TxConfig) -> f64 {
        let g_old = self.group_of(&self.alloc[i]);
        let g_new = self.group_of(&cfg);
        let same_group = g_old == g_new;
        let old_p = self.alloc[i].tp.milliwatts();
        // Same group implies same SF, hence the same α for device i.
        let load = if same_group {
            self.alpha_sum[g_old] - self.model.duty_of(i, cfg.sf)
        } else {
            self.alpha_sum[g_new]
        };
        self.ee_raw(i, &cfg, load, |k| {
            if same_group {
                self.power_sum[g_old][k] - old_p * self.model.attenuation.at(i, k)
            } else {
                self.power_sum[g_new][k]
            }
        })
    }

    /// The network minimum EE if device `i` moved to `cfg`, or `None` as
    /// soon as it can be shown not to exceed `floor` (pruning for the
    /// greedy scan). `floor = f64::NEG_INFINITY` disables pruning.
    pub fn min_ee_if(&self, i: usize, cfg: TxConfig, floor: f64) -> Option<f64> {
        self.min_ee_after(i, cfg, floor, None)
    }

    /// [`ModelState::min_ee_if`], with the minimum EE of `i`'s old group
    /// after `i` leaves it passed in as `exit_min` when the caller has it
    /// precomputed (it does not depend on the candidate). Only a
    /// cross-group move reads `exit_min`.
    fn min_ee_after(
        &self,
        i: usize,
        cfg: TxConfig,
        floor: f64,
        exit_min: Option<f64>,
    ) -> Option<f64> {
        let model = self.model;
        let g_old = self.group_of(&self.alloc[i]);
        let g_new = self.group_of(&cfg);
        let same_group = g_old == g_new;
        let old_cfg = self.alloc[i];
        let old_p = old_cfg.tp.milliwatts();
        let new_p = cfg.tp.milliwatts();

        let alpha_old = model.duty_of(i, old_cfg.sf);
        let alpha_new = model.duty_of(i, cfg.sf);

        // 1. The moved device itself.
        let load_i = if same_group {
            self.alpha_sum[g_old] - alpha_old
        } else {
            self.alpha_sum[g_new]
        };
        let ee_i = self.ee_raw(i, &cfg, load_i, |k| {
            if same_group {
                self.power_sum[g_old][k] - old_p * model.attenuation.at(i, k)
            } else {
                self.power_sum[g_new][k]
            }
        });
        if ee_i <= floor {
            return None;
        }
        let mut min = ee_i;

        // 2. Devices in the old group (losing i, or seeing its power change).
        match exit_min {
            Some(exit_min) if !same_group => {
                if exit_min <= floor {
                    return None;
                }
                min = min.min(exit_min);
            }
            _ => {
                for &j in &self.members[g_old] {
                    if j == i {
                        continue;
                    }
                    let ee_j = self.old_member_ee(i, j, same_group.then_some(new_p));
                    if ee_j <= floor {
                        return None;
                    }
                    min = min.min(ee_j);
                }
            }
        }

        // 3. Devices in the new group (gaining i).
        if !same_group {
            for &j in &self.members[g_new] {
                let jc = self.alloc[j];
                let jp = jc.tp.milliwatts();
                let load_j = self.alpha_sum[g_new] - model.duty_of(j, jc.sf) + alpha_new;
                let ee_j = self.ee_raw(j, &jc, load_j, |k| {
                    self.power_sum[g_new][k] - jp * model.attenuation.at(j, k)
                        + new_p * model.attenuation.at(i, k)
                });
                if ee_j <= floor {
                    return None;
                }
                min = min.min(ee_j);
            }
        }

        // 4. Every other group, from the cached per-group minima.
        for (g, &gm) in self.group_min.iter().enumerate() {
            if g == g_old || g == g_new {
                continue;
            }
            if gm <= floor {
                return None;
            }
            min = min.min(gm);
        }

        if min > floor {
            Some(min)
        } else {
            None
        }
    }

    /// EE of device `j`, a co-member of device `i`'s group, once `i`
    /// moves: `stay_p` is `i`'s new power in mW when it stays in the
    /// group (only its power changes), `None` when it leaves.
    fn old_member_ee(&self, i: usize, j: usize, stay_p: Option<f64>) -> f64 {
        let model = self.model;
        let old_cfg = self.alloc[i];
        let grp = self.group_of(&old_cfg);
        let old_p = old_cfg.tp.milliwatts();
        let jc = self.alloc[j];
        let jp = jc.tp.milliwatts();
        let load_j = match stay_p {
            // Only i's power changed; its duty cycle is unchanged.
            Some(_) => self.alpha_sum[grp] - model.duty_of(j, jc.sf),
            None => self.alpha_sum[grp] - model.duty_of(j, jc.sf) - model.duty_of(i, old_cfg.sf),
        };
        self.ee_raw(j, &jc, load_j, |k| {
            let base = self.power_sum[grp][k] - jp * model.attenuation.at(j, k);
            match stay_p {
                Some(new_p) => {
                    base - old_p * model.attenuation.at(i, k) + new_p * model.attenuation.at(i, k)
                }
                None => base - old_p * model.attenuation.at(i, k),
            }
        })
    }

    /// Commits the move of device `i` to `cfg`, updating all aggregates and
    /// the cached EE of every device in the two affected groups.
    pub fn apply(&mut self, i: usize, cfg: TxConfig) {
        let model = self.model;
        let g_old = self.group_of(&self.alloc[i]);
        let g_new = self.group_of(&cfg);
        let old_cfg = self.alloc[i];
        let old_p = old_cfg.tp.milliwatts();
        let new_p = cfg.tp.milliwatts();

        for k in 0..model.gateway_count() {
            self.power_sum[g_old][k] -= old_p * model.attenuation.at(i, k);
            let q_new = model.occupancy_probability(i, &cfg, k);
            self.lambda[k] += q_new - self.q[i][k];
            self.q[i][k] = q_new;
        }
        self.alpha_sum[g_old] -= model.duty_of(i, old_cfg.sf);
        self.alpha_sum[g_new] += model.duty_of(i, cfg.sf);
        if g_new != g_old {
            let pos = self.members[g_old]
                .iter()
                .position(|&j| j == i)
                .expect("device must be in its group");
            self.members[g_old].swap_remove(pos);
            self.members[g_new].push(i);
        }
        for k in 0..model.gateway_count() {
            self.power_sum[g_new][k] += new_p * model.attenuation.at(i, k);
        }
        self.alloc[i] = cfg;
        // Λ and q just moved, which shifts θ for every device; refresh
        // the cache before the EE refresh below reads it.
        self.rebuild_theta();

        // Refresh cached EEs in the affected groups.
        let affected: Vec<usize> = if g_new == g_old {
            self.members[g_old].clone()
        } else {
            self.members[g_old]
                .iter()
                .chain(&self.members[g_new])
                .copied()
                .collect()
        };
        for j in affected {
            self.ee[j] = self.current_ee(j);
        }
        self.recompute_group_min(g_old);
        if g_new != g_old {
            self.recompute_group_min(g_new);
        }
        self.generation += 1;
    }

    /// Recomputes every aggregate and cached value from scratch, flushing
    /// the θ/Λ drift accumulated across committed moves. The greedy
    /// allocator calls this between passes.
    pub fn refresh(&mut self) {
        let generation = self.generation + 1;
        *self = ModelState::build(self.model, std::mem::take(&mut self.alloc));
        self.generation = generation;
    }

    /// Precomputes the candidate-independent parts of a full candidate
    /// scan of device `i` (see [`ScanCache`]). Invalidated by any
    /// [`ModelState::apply`] or [`ModelState::refresh`] — prepare again
    /// after committing.
    pub fn prepare_scan(&self, i: usize) -> ScanCache {
        let g_old = self.group_of(&self.alloc[i]);

        // Part 2 of `min_ee_if` for a cross-group move, computed once
        // instead of per candidate.
        let exit_min = self.members[g_old]
            .iter()
            .filter(|&&j| j != i)
            .map(|&j| self.old_member_ee(i, j, None))
            .fold(f64::INFINITY, f64::min);

        let mut other_min = f64::INFINITY;
        let mut other_min_idx = usize::MAX;
        let mut other_min2 = f64::INFINITY;
        for (grp, &gm) in self.group_min.iter().enumerate() {
            if grp == g_old {
                continue;
            }
            if gm < other_min {
                other_min2 = other_min;
                other_min = gm;
                other_min_idx = grp;
            } else if gm < other_min2 {
                other_min2 = gm;
            }
        }

        ScanCache {
            device: i,
            generation: self.generation,
            exit_min,
            g_old,
            other_min,
            other_min_idx,
            other_min2,
        }
    }

    /// Exact upper bound on [`ModelState::min_ee_if`] for moving the
    /// scanned device to `cfg`: the smallest cached `group_min` over
    /// every group the move leaves untouched. That value is literally
    /// one of the min components of the full evaluation (part 4), so the
    /// exact result can never exceed it — a caller whose acceptance test
    /// already fails at this bound can skip the exact evaluation without
    /// changing any decision.
    ///
    /// # Panics
    ///
    /// Panics when the state changed since `scan` was prepared.
    pub fn untouched_groups_min(&self, scan: &ScanCache, cfg: TxConfig) -> f64 {
        self.assert_fresh(scan);
        let g_new = self.group_of(&cfg);
        if g_new != scan.g_old && g_new == scan.other_min_idx {
            scan.other_min2
        } else {
            scan.other_min
        }
    }

    /// [`ModelState::min_ee_if`] served from a [`ScanCache`]: the same
    /// component EEs (bitwise — every arithmetic expression matches),
    /// hence the same pruning verdict and the same returned minimum.
    /// A cross-group candidate reads its old group's part from the cache
    /// and costs `O(new-group members × gateways)`; a same-group
    /// candidate (only the transmit power changes) evaluates both parts.
    ///
    /// # Panics
    ///
    /// Panics when the state changed since `scan` was prepared.
    pub fn min_ee_if_scanned(&self, scan: &ScanCache, cfg: TxConfig, floor: f64) -> Option<f64> {
        self.assert_fresh(scan);
        self.min_ee_after(scan.device, cfg, floor, Some(scan.exit_min))
    }

    fn assert_fresh(&self, scan: &ScanCache) {
        assert_eq!(
            scan.generation, self.generation,
            "stale scan cache: the state changed after prepare_scan"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lora_phy::path_loss::LinkEnvironment;
    use lora_sim::{DeviceSite, Position};

    fn line_topology(n: usize, spacing: f64, gws: usize) -> Topology {
        let devices = (0..n)
            .map(|i| DeviceSite {
                position: Position::new(200.0 + spacing * i as f64, 0.0),
                environment: LinkEnvironment::NonLineOfSight,
            })
            .collect();
        let gateways = (0..gws)
            .map(|k| Position::new(k as f64 * 1_000.0, 0.0))
            .collect();
        Topology::from_sites(devices, gateways, 5_000.0)
    }

    fn model_for(topo: &Topology) -> NetworkModel {
        NetworkModel::new(&SimConfig::default(), topo)
    }

    fn uniform_alloc(n: usize, sf: SpreadingFactor, ch: usize) -> Vec<TxConfig> {
        vec![TxConfig::new(sf, TxPowerDbm::new(14.0), ch); n]
    }

    #[test]
    fn oversize_payload_is_an_error_not_a_panic() {
        let topo = line_topology(3, 10.0, 1);
        let config = SimConfig {
            app_payload: 10_000,
            ..SimConfig::default()
        };
        match NetworkModel::try_new(&config, &topo) {
            Err(ModelError::PayloadTooLarge { len, max }) => {
                assert_eq!(len, config.phy_payload_len());
                assert!(len > max);
            }
            other => panic!("expected PayloadTooLarge, got {other:?}"),
        }
        assert!(NetworkModel::try_new(&SimConfig::default(), &topo).is_ok());
    }

    #[test]
    fn oversize_topology_is_an_error_not_an_abort() {
        let topo = line_topology(8, 50.0, 2);
        let config = SimConfig::default();
        match NetworkModel::try_new_with_budget(&config, &topo, 64) {
            Err(ModelError::TopologyTooLarge {
                devices,
                gateways,
                required_bytes,
                budget_bytes,
            }) => {
                assert_eq!((devices, gateways), (8, 2));
                assert_eq!(required_bytes, 8 * 2 * 8);
                assert_eq!(budget_bytes, 64);
            }
            other => panic!("expected TopologyTooLarge, got {other:?}"),
        }
        assert!(NetworkModel::try_new_with_budget(&config, &topo, 128).is_ok());
    }

    #[test]
    fn zero_ambient_is_bitwise_invisible() {
        let topo = line_topology(30, 40.0, 2);
        let plain = model_for(&topo);
        let groups = crate::contention::group_count(plain.channel_count());
        let zeroed = plain
            .clone()
            .with_ambient(Ambient::zeros(groups, plain.gateway_count()));
        let alloc: Vec<TxConfig> = (0..30)
            .map(|i| TxConfig::new(SpreadingFactor::Sf7, TxPowerDbm::new(14.0), i % 4))
            .collect();
        let a = plain.evaluate(&alloc);
        let b = zeroed.evaluate(&alloc);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn ambient_pressure_lowers_ee_and_survives_refresh() {
        let topo = line_topology(20, 40.0, 1);
        let plain = model_for(&topo);
        let groups = crate::contention::group_count(plain.channel_count());
        let mut offsets = Ambient::zeros(groups, 1);
        // Heavy out-of-scope traffic in every group: interference power,
        // contention load and demodulator occupancy all rise.
        for v in &mut offsets.power {
            *v = 1e-9;
        }
        for v in &mut offsets.load {
            *v = 0.05;
        }
        offsets.lambda[0] = 1.5;
        let loaded = plain.clone().with_ambient(offsets);
        let alloc = uniform_alloc(20, SpreadingFactor::Sf9, 0);
        let quiet = plain.evaluate(&alloc);
        let noisy = loaded.evaluate(&alloc);
        for (q, n) in quiet.iter().zip(&noisy) {
            assert!(n < q, "ambient pressure must cost EE: {n} vs {q}");
        }
        // refresh() rebuilds from the model, so the offsets persist.
        let mut state = loaded.state(alloc.clone()).unwrap();
        let before = state.min_ee();
        state.refresh();
        assert_eq!(state.min_ee().to_bits(), before.to_bits());
    }

    #[test]
    fn lone_device_ee_matches_hand_computation() {
        let topo = line_topology(1, 0.0, 1);
        let model = model_for(&topo);
        let alloc = uniform_alloc(1, SpreadingFactor::Sf7, 0);
        let ee = model.evaluate(&alloc);
        // Strong link, no contention: PRR ≈ 1, EE ≈ L / (E_s · 1000).
        let e_s = model.cycle_energy_j(&alloc[0]);
        let expected = 168.0 / (e_s * 1_000.0);
        assert!(
            (ee[0] - expected).abs() / expected < 0.01,
            "{} vs {expected}",
            ee[0]
        );
        assert!(
            (2.0..2.6).contains(&ee[0]),
            "paper-scale bits/mJ: {}",
            ee[0]
        );
    }

    #[test]
    fn contention_reduces_ee() {
        let topo = line_topology(40, 5.0, 1);
        let model = model_for(&topo);
        let together = model.evaluate(&uniform_alloc(40, SpreadingFactor::Sf7, 0));
        let spread: Vec<TxConfig> = (0..40)
            .map(|i| TxConfig::new(SpreadingFactor::Sf7, TxPowerDbm::new(14.0), i % 8))
            .collect();
        let spread_ee = model.evaluate(&spread);
        let min_together = together.iter().copied().fold(f64::INFINITY, f64::min);
        let min_spread = spread_ee.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(
            min_spread > min_together,
            "channel spreading must relieve contention: {min_spread} vs {min_together}"
        );
    }

    #[test]
    fn larger_sf_costs_energy_for_near_devices() {
        let topo = line_topology(1, 0.0, 1);
        let model = model_for(&topo);
        let sf7 = model.evaluate(&uniform_alloc(1, SpreadingFactor::Sf7, 0))[0];
        let sf12 = model.evaluate(&uniform_alloc(1, SpreadingFactor::Sf12, 0))[0];
        assert!(
            sf7 > 2.0 * sf12,
            "SF12 should waste energy up close: {sf7} vs {sf12}"
        );
    }

    #[test]
    fn distant_device_needs_large_sf() {
        // 5.5 km NLoS: SF7 is below sensitivity, SF12 reaches.
        let devices = vec![DeviceSite {
            position: Position::new(5_500.0, 0.0),
            environment: LinkEnvironment::NonLineOfSight,
        }];
        let topo = Topology::from_sites(devices, vec![Position::new(0.0, 0.0)], 6_000.0);
        let model = model_for(&topo);
        let sf7 = model.evaluate(&uniform_alloc(1, SpreadingFactor::Sf7, 0))[0];
        let sf12 = model.evaluate(&uniform_alloc(1, SpreadingFactor::Sf12, 0))[0];
        assert!(sf12 > sf7, "far out, SF12 must beat SF7: {sf12} vs {sf7}");
        assert_eq!(
            model.min_feasible_sf(0, TxPowerDbm::new(14.0)),
            Some(SpreadingFactor::Sf12)
        );
    }

    #[test]
    fn min_feasible_sf_none_when_unreachable() {
        let devices = vec![DeviceSite {
            position: Position::new(50_000.0, 0.0),
            environment: LinkEnvironment::NonLineOfSight,
        }];
        let topo = Topology::from_sites(devices, vec![Position::new(0.0, 0.0)], 60_000.0);
        let model = model_for(&topo);
        assert_eq!(model.min_feasible_sf(0, TxPowerDbm::new(14.0)), None);
    }

    #[test]
    fn more_gateways_improve_prr_and_ee() {
        let one = model_for(&line_topology(10, 300.0, 1));
        let three = model_for(&line_topology(10, 300.0, 3));
        let alloc = uniform_alloc(10, SpreadingFactor::Sf9, 0);
        let ee1 = one.evaluate(&alloc);
        let ee3 = three.evaluate(&alloc);
        for (a, b) in ee1.iter().zip(&ee3) {
            assert!(b >= a, "extra gateways can only help the model: {b} vs {a}");
        }
    }

    #[test]
    fn min_ee_if_matches_apply() {
        let topo = line_topology(20, 150.0, 2);
        let model = model_for(&topo);
        let alloc: Vec<TxConfig> = (0..20)
            .map(|i| {
                TxConfig::new(
                    if i % 2 == 0 {
                        SpreadingFactor::Sf7
                    } else {
                        SpreadingFactor::Sf8
                    },
                    TxPowerDbm::new(14.0),
                    i % 4,
                )
            })
            .collect();
        let mut state = model.state(alloc).unwrap();
        let candidates = [
            TxConfig::new(SpreadingFactor::Sf9, TxPowerDbm::new(8.0), 5),
            TxConfig::new(SpreadingFactor::Sf7, TxPowerDbm::new(2.0), 0),
            TxConfig::new(SpreadingFactor::Sf8, TxPowerDbm::new(14.0), 1),
        ];
        for (device, cfg) in [
            (3usize, candidates[0]),
            (7, candidates[1]),
            (12, candidates[2]),
        ] {
            let predicted = state
                .min_ee_if(device, cfg, f64::NEG_INFINITY)
                .expect("no pruning floor");
            state.apply(device, cfg);
            let actual = state.min_ee();
            assert!(
                (predicted - actual).abs() < 1e-9,
                "device {device}: predicted {predicted}, actual {actual}"
            );
        }
    }

    #[test]
    fn min_ee_if_identity_move_returns_current_min() {
        let topo = line_topology(15, 200.0, 2);
        let model = model_for(&topo);
        let alloc = uniform_alloc(15, SpreadingFactor::Sf8, 2);
        let state = model.state(alloc.clone()).unwrap();
        let current = state.min_ee();
        let same = state.min_ee_if(4, alloc[4], f64::NEG_INFINITY).unwrap();
        assert!((same - current).abs() < 1e-12, "{same} vs {current}");
    }

    #[test]
    fn pruning_floor_rejects_non_improving_moves() {
        let topo = line_topology(15, 200.0, 1);
        let model = model_for(&topo);
        let alloc = uniform_alloc(15, SpreadingFactor::Sf7, 0);
        let state = model.state(alloc.clone()).unwrap();
        let current = state.min_ee();
        // Moving a device to the same configuration cannot beat the
        // current minimum.
        assert_eq!(state.min_ee_if(0, alloc[0], current), None);
    }

    #[test]
    fn refresh_preserves_semantics() {
        let topo = line_topology(25, 120.0, 2);
        let model = model_for(&topo);
        let alloc = uniform_alloc(25, SpreadingFactor::Sf9, 3);
        let mut state = model.state(alloc).unwrap();
        state.apply(
            0,
            TxConfig::new(SpreadingFactor::Sf10, TxPowerDbm::new(4.0), 1),
        );
        state.apply(
            5,
            TxConfig::new(SpreadingFactor::Sf7, TxPowerDbm::new(14.0), 0),
        );
        let before: Vec<f64> = state.ee_all().to_vec();
        state.refresh();
        let after: Vec<f64> = state.ee_all().to_vec();
        for (a, b) in before.iter().zip(&after) {
            // Λ was kept live through apply, so refresh should agree to
            // numerical noise.
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn exact_theta_agrees_with_poisson_at_scale() {
        let topo = line_topology(60, 60.0, 2);
        let model = model_for(&topo);
        let alloc: Vec<TxConfig> = (0..60)
            .map(|i| TxConfig::new(SpreadingFactor::Sf7, TxPowerDbm::new(14.0), i % 8))
            .collect();
        let approx = model.evaluate(&alloc);
        let exact = model.evaluate_exact_theta(&alloc);
        for (a, e) in approx.iter().zip(&exact) {
            assert!((a - e).abs() / e.max(1e-9) < 0.05, "{a} vs {e}");
        }
    }

    #[test]
    fn laplace_variant_is_sane_and_cheaper_shaped() {
        let config = SimConfig::default();
        let topo = Topology::disc(80, 2, 4_000.0, &config, 11);
        let model = NetworkModel::new(&config, &topo);
        let alloc: Vec<TxConfig> = (0..80)
            .map(|i| TxConfig::new(SpreadingFactor::Sf8, TxPowerDbm::new(14.0), i % 8))
            .collect();
        let lap = model.evaluate_laplace(&alloc);
        let mf = model.evaluate(&alloc);
        assert_eq!(lap.len(), 80);
        for (l, m) in lap.iter().zip(&mf) {
            assert!(*l >= 0.0 && l.is_finite());
            // Same order of magnitude as the mean-field evaluation.
            if *m > 0.1 {
                assert!(*l < m * 10.0 + 1.0, "laplace {l} vs mean-field {m}");
            }
        }
    }

    #[test]
    fn scanned_min_ee_is_bitwise_equal_to_plain() {
        let config = SimConfig::default();
        let topo = Topology::disc(30, 2, 4_000.0, &config, 23);
        let model = NetworkModel::new(&config, &topo);
        let alloc: Vec<TxConfig> = (0..30)
            .map(|i| {
                TxConfig::new(
                    SpreadingFactor::ALL[i % 6],
                    TxPowerDbm::new(2.0 + (i % 7) as f64 * 2.0),
                    i % 8,
                )
            })
            .collect();
        let state = model.state(alloc).unwrap();
        for device in [0usize, 7, 19, 29] {
            let scan = state.prepare_scan(device);
            let mut floor = f64::NEG_INFINITY;
            for sf in SpreadingFactor::ALL {
                for ch in 0..8 {
                    for tp_i in 0..7 {
                        let cfg = TxConfig::new(sf, TxPowerDbm::new(2.0 + tp_i as f64 * 2.0), ch);
                        let plain = state.min_ee_if(device, cfg, floor);
                        let fast = state.min_ee_if_scanned(&scan, cfg, floor);
                        match (plain, fast) {
                            (Some(a), Some(b)) => assert_eq!(
                                a.to_bits(),
                                b.to_bits(),
                                "device {device} cfg {cfg:?}: {a} vs {b}"
                            ),
                            (None, None) => {}
                            other => panic!("device {device} cfg {cfg:?}: {other:?}"),
                        }
                        // Walk the floor the way the allocator does, so
                        // the pruning branches get exercised too.
                        if let Some(v) = plain {
                            floor = floor.max(v - 1e-9);
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "stale scan cache")]
    fn scan_cache_is_rejected_after_apply() {
        let topo = line_topology(12, 150.0, 2);
        let model = model_for(&topo);
        let mut state = model
            .state(uniform_alloc(12, SpreadingFactor::Sf7, 0))
            .unwrap();
        let scan = state.prepare_scan(3);
        // Same allocation length: the move leaves nothing a length check
        // could notice.
        state.apply(
            5,
            TxConfig::new(SpreadingFactor::Sf8, TxPowerDbm::new(14.0), 1),
        );
        let cfg = TxConfig::new(SpreadingFactor::Sf9, TxPowerDbm::new(8.0), 2);
        let _ = state.min_ee_if_scanned(&scan, cfg, f64::NEG_INFINITY);
    }

    #[test]
    #[should_panic(expected = "stale scan cache")]
    fn scan_cache_is_rejected_after_refresh() {
        let topo = line_topology(12, 150.0, 2);
        let model = model_for(&topo);
        let mut state = model
            .state(uniform_alloc(12, SpreadingFactor::Sf7, 0))
            .unwrap();
        let scan = state.prepare_scan(3);
        state.refresh();
        let cfg = TxConfig::new(SpreadingFactor::Sf9, TxPowerDbm::new(8.0), 2);
        let _ = state.untouched_groups_min(&scan, cfg);
    }

    #[test]
    fn incremental_network_model_matches_fresh_build() {
        let config = SimConfig::default();
        let full = Topology::disc(40, 3, 5_000.0, &config, 31);
        let radius = full.radius_m();

        // Join: grow 28 → 40 in one batch.
        let head = Topology::from_sites(
            full.devices()[..28].to_vec(),
            full.gateways().to_vec(),
            radius,
        );
        let mut grown = NetworkModel::new(&config, &head);
        grown.extend_rows(&config, &full.devices()[28..], full.gateways(), radius);
        assert_eq!(grown, NetworkModel::new(&config, &full));

        // Leave: retire every fourth device.
        let leaving: Vec<bool> = (0..40).map(|i| i % 4 == 2).collect();
        let mut shrunk = NetworkModel::new(&config, &full);
        shrunk.retire_rows(&config, &leaving, radius);
        let kept: Vec<DeviceSite> = full
            .devices()
            .iter()
            .zip(&leaving)
            .filter(|(_, &l)| !l)
            .map(|(s, _)| *s)
            .collect();
        let survivors = Topology::from_sites(kept, full.gateways().to_vec(), radius);
        assert_eq!(shrunk, NetworkModel::new(&config, &survivors));

        // Migrate: flip one device's propagation environment.
        let mut sites = full.devices().to_vec();
        sites[11].environment = match sites[11].environment {
            LinkEnvironment::LineOfSight => LinkEnvironment::NonLineOfSight,
            LinkEnvironment::NonLineOfSight => LinkEnvironment::LineOfSight,
        };
        let mut patched = NetworkModel::new(&config, &full);
        patched.patch_row(&config, 11, &sites[11], full.gateways());
        let moved = Topology::from_sites(sites, full.gateways().to_vec(), radius);
        assert_eq!(patched, NetworkModel::new(&config, &moved));
    }

    #[test]
    fn validation_errors() {
        let topo = line_topology(3, 100.0, 1);
        let model = model_for(&topo);
        assert!(matches!(
            model.validate(&uniform_alloc(2, SpreadingFactor::Sf7, 0)),
            Err(ModelError::AllocationLengthMismatch { .. })
        ));
        let mut bad = uniform_alloc(3, SpreadingFactor::Sf7, 0);
        bad[1].channel = 9;
        assert!(matches!(
            model.validate(&bad),
            Err(ModelError::ChannelOutOfRange {
                device: 1,
                channel: 9,
                ..
            })
        ));
    }
}
