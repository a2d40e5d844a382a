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
//!   occupancy at gateway `k`. `Λ` is updated incrementally on committed
//!   moves but *not* during a hypothetical candidate scan (one device among
//!   thousands perturbs it negligibly). θ is memoised per device and
//!   gateway together with the argument `Λ_k − q_{i,k}` it was computed
//!   at, so every read sees the live `Λ` and `q`, entries that are never
//!   read are never computed, and a move that leaves an entry's argument
//!   as it was does not recompute it. [`ModelState::refresh`] re-sums
//!   `Λ` in full, dropping the rounding its incremental updates
//!   accumulate; the allocator calls it between passes. The exact
//!   Poisson–binomial is available in [`crate::capacity`]; a test checks
//!   the approximation against it.
//! * EE values cached for devices in *unaffected* groups are not
//!   recomputed when `Λ` moves; `refresh` flushes these too.
//!
//! ## Borrowed and owned states
//!
//! A [`ModelState`] holds its model through a [`Borrow`] parameter. The
//! allocators' passes borrow one model for many short-lived states
//! ([`NetworkModel::state`]). A long-lived owner such as the serve daemon
//! holds one state that owns its model ([`NetworkModel::into_state`]) and
//! applies churn to the two together: [`ModelState::join_rows`],
//! [`ModelState::retire_rows`] and [`ModelState::refresh_intervals`] each
//! change the model's rows, patch the per-device terms they moved and end
//! with [`ModelState::refresh`], which leaves the state bit for bit the
//! one a fresh build over the changed population gives.

use std::borrow::Borrow;
use std::cell::Cell;

use lora_phy::energy::RadioEnergyModel;
use lora_phy::link::noise_floor_dbm;
use lora_phy::toa::ToaParams;
use lora_phy::{dbm_to_mw, Bandwidth, SpreadingFactor, TxConfig, TxPowerDbm};
use lora_sim::{AttenuationMatrix, DeviceSite, Position, SimConfig, Topology, Traffic};

use crate::capacity::{poisson_at_most, OTHERS_BUDGET};
use crate::contention::{group_count, group_index, overlap_from_load};
use crate::error::ModelError;
use crate::interference::{group_density, laplace_transform};
use crate::pdr::{pdr_exponent, prr, PdrForm};

/// Allocation-independent model of one deployment.
///
/// `PartialEq` compares every derived quantity bitwise — it exists so
/// equivalence tests can assert that a model maintained through churn
/// ([`ModelState::join_rows`] and friends) is indistinguishable from a
/// from-scratch [`NetworkModel::new`] over the same population.
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

    /// Where device `device` starts before an allocator scans it: its
    /// smallest feasible SF at `tp` ([`NetworkModel::min_feasible_sf`];
    /// SF12 when even that reaches no gateway), at `tp`, on channel
    /// `device % channels` so no channel starts overloaded. Devices that
    /// join a running deployment start here at the region's maximum power
    /// ([`ModelState::join_rows`] and the incremental allocator's
    /// from-scratch callers).
    pub fn seed_config(&self, device: usize, tp: TxPowerDbm) -> TxConfig {
        let sf = self
            .min_feasible_sf(device, tp)
            .unwrap_or(SpreadingFactor::Sf12);
        TxConfig::new(sf, tp, device % self.n_channels)
    }

    /// Occupancy probability `q_{i,k}`: the chance device `i` holds a
    /// demodulator path at gateway `k` at a random instant — transmitting
    /// (duty cycle) and detectable (Rayleigh survival of the sensitivity).
    pub fn occupancy_probability(&self, device: usize, cfg: &TxConfig, gateway: usize) -> f64 {
        self.occupancy_at(device, cfg.sf, cfg.tp.milliwatts(), gateway)
    }

    /// [`NetworkModel::occupancy_probability`] at SF `sf` and transmit
    /// power `p_mw` in mW.
    fn occupancy_at(&self, device: usize, sf: SpreadingFactor, p_mw: f64, gateway: usize) -> f64 {
        let mean_rx = p_mw * self.attenuation.at(device, gateway);
        if mean_rx <= 0.0 {
            return 0.0;
        }
        let detect = (-self.sens_mw[sf.index()] / mean_rx).exp();
        self.duty_of(device, sf) * detect
    }

    /// Device `i`'s own terms under `cfg` at power `p_mw` (which is
    /// `cfg.tp` in mW): its cycle energy, and its occupancy probability at
    /// each gateway. Every build derives them through here, and churn
    /// re-derives them the same way.
    fn own_terms<'a>(
        &'a self,
        i: usize,
        cfg: &TxConfig,
        p_mw: f64,
    ) -> (f64, impl Iterator<Item = f64> + 'a) {
        let sf = cfg.sf;
        let q = (0..self.n_gateways).map(move |k| self.occupancy_at(i, sf, p_mw, k));
        (self.cycle_energy_of(i, cfg), q)
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

    /// Binds an allocation, producing the incrementally updatable state,
    /// which borrows this model.
    ///
    /// # Errors
    ///
    /// Returns the validation errors of [`NetworkModel::validate`].
    pub fn state(&self, alloc: Vec<TxConfig>) -> Result<ModelState<&NetworkModel>, ModelError> {
        self.validate(&alloc)?;
        Ok(ModelState::build(self, alloc))
    }

    /// [`NetworkModel::state`] for a state that owns this model, so it can
    /// live on its own and apply churn to the model and itself together.
    ///
    /// # Errors
    ///
    /// Returns the validation errors of [`NetworkModel::validate`].
    pub fn into_state(self, alloc: Vec<TxConfig>) -> Result<ModelState<NetworkModel>, ModelError> {
        self.validate(&alloc)?;
        Ok(ModelState::build(self, alloc))
    }

    /// Re-derives the reporting-interval fields from `config` after a
    /// churn event changed the population's class mix. `config` must
    /// differ from the construction-time configuration only in its
    /// reporting-interval fields — everything else (payload, energy
    /// model, path loss, channel plan) is immutable under churn.
    fn refresh_intervals(&mut self, config: &SimConfig) {
        self.interval_s = config.report_interval_s;
        self.intervals = (0..self.n_devices).map(|i| config.interval_of(i)).collect();
    }

    /// Appends the rows of a batch of joining devices (a churn `Join`),
    /// keeping the model bitwise equal to [`NetworkModel::new`] over the
    /// extended population: the attenuation rows come from the same
    /// shared kernel, and the intervals/density are re-derived with the
    /// construction-time expressions.
    fn extend_rows(
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
    fn retire_rows(&mut self, config: &SimConfig, leaving: &[bool], radius_m: f64) {
        assert_eq!(leaving.len(), self.n_devices, "leave mask shape");
        self.attenuation.retire_rows(leaving);
        retain_rows(&mut self.beta, leaving, 1);
        self.n_devices = self.beta.len();
        self.refresh_intervals(config);
        self.refresh_density(radius_m);
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

/// Drops the rows of `rows`, each `width` long, that `leaving` marks, and
/// keeps the others in order: row `i` then describes the `i`-th survivor.
fn retain_rows<T: Copy>(rows: &mut Vec<T>, leaving: &[bool], width: usize) {
    let mut kept = 0;
    for (i, &leaves) in leaving.iter().enumerate() {
        if !leaves {
            rows.copy_within(i * width..(i + 1) * width, kept * width);
            kept += 1;
        }
    }
    rows.truncate(kept * width);
}

/// An allocation bound to a [`NetworkModel`], with the aggregates needed to
/// evaluate single-device moves incrementally.
///
/// `M` holds the model: `&NetworkModel` for a state that borrows it
/// ([`NetworkModel::state`]), `NetworkModel` for one that owns it
/// ([`NetworkModel::into_state`]) and can therefore apply churn to both
/// (see the module docs).
#[derive(Debug, Clone)]
pub struct ModelState<M> {
    model: M,
    pub(crate) bound: Bound,
}

/// Everything a [`ModelState`] holds but its model: the allocation, the
/// aggregates and the caches. Its methods are the evaluation kernel, and
/// they read the model through a `&NetworkModel` argument, so the kernel
/// is compiled once, in this crate, however a state holds its model. A
/// kernel generic over the holder would be instantiated, and inlined
/// differently, in every caller's crate, which measured about 10 % slower
/// on the dense pass.
#[derive(Debug, Clone)]
pub(crate) struct Bound {
    alloc: Vec<TxConfig>,
    /// Device ids per (SF, channel) group.
    members: Vec<Vec<usize>>,
    /// `Σ_{j∈group} p_j·a_{j,k}` per group and gateway, mW, flat
    /// `[group][gateway]`.
    power_sum: Vec<f64>,
    /// `Σ_{j∈group} α_j` per group — the ALOHA contention load used by the
    /// heterogeneous-rates generalisation of Eq. (14).
    alpha_sum: Vec<f64>,
    /// Transmit power of each device's bound configuration, mW
    /// (`alloc[i].tp.milliwatts()`), so exact evaluations read it instead
    /// of converting from dBm for every group member.
    power_mw: Vec<f64>,
    /// Cycle energy of each device's bound configuration, J
    /// (`NetworkModel::cycle_energy_of`), so exact evaluations read it
    /// instead of running the radio energy model for every group member.
    energy_j: Vec<f64>,
    /// Occupancy probability `q_{i,k}` per device and gateway, flat
    /// `[device][gateway]`.
    q: Vec<f64>,
    /// Total expected occupancy `Λ_k` per gateway.
    lambda: Vec<f64>,
    /// Cached EE per device, bits/mJ.
    ee: Vec<f64>,
    /// Cached minimum EE per group (`∞` for empty groups).
    group_min: Vec<f64>,
    /// The capacity factor `θ_{i,k}`, memoised per device and gateway.
    ///
    /// `θ` is a pure function of its argument `(Λ_k − q_{i,k}).max(0)` —
    /// not of the candidate being scanned — so an entry is computed on
    /// its first read at an argument and then served until the argument
    /// moves. This keeps the Poisson tail out of the per-candidate inner
    /// loop, out of every entry nobody reads, and out of every entry a
    /// move left unchanged, while producing bit-identical values. Flat
    /// `[device][gateway]`.
    theta: Vec<Cell<ThetaEntry>>,
}

/// One memoised `θ_{i,k}`, computed on demand by [`Bound::theta`]: the
/// bits of the argument it was computed at, then `θ` itself.
///
/// An entry needs no invalidation, churn included: `θ` is a pure function
/// of its argument, so an entry whose stored argument equals the live one
/// holds exactly the `θ` a fresh computation gives, whichever device and
/// state it was computed for, and any other entry is recomputed. An empty
/// entry stores NaN bits as its argument, which no live argument has
/// (`max` drops NaN). For the same reason a clone copies the memo as it
/// stands.
///
/// Reads fill entries through a shared `&ModelState`, so each entry sits
/// in a [`Cell`], and a state is not `Sync`.
#[derive(Debug, Clone, Copy)]
struct ThetaEntry {
    arg: u64,
    theta: f64,
}

impl ThetaEntry {
    /// An entry no live argument matches.
    const EMPTY: ThetaEntry = ThetaEntry {
        arg: f64::NAN.to_bits(),
        theta: 0.0,
    };
}

/// The candidate-independent parts of a candidate scan, computed by
/// [`Bound::scan_cache`] at the start of [`ModelState::scan`].
///
/// During one scan of device `i` the allocation is fixed, so the parts
/// of a candidate's evaluation that do not depend on the candidate can be
/// computed once: the minimum EE of `i`'s old group after it leaves, the
/// smallest cached group minima, and, per SF, the easiest channel's
/// contention — the smallest overlap `h` and, per gateway, the smallest
/// co-group interference `i` would meet on any of that SF's channels.
/// Building it costs `O(old-group members × gateways + SFs × channels ×
/// gateways)`; [`Bound::min_ee_if_scanned`] then evaluates a
/// candidate in `O(new-group members × gateways)` with arithmetic
/// expressions identical to [`ModelState::min_ee_if`] — same values,
/// fewer recomputations — and [`Bound::own_ee_clearing`] bounds a
/// candidate's own EE once per (SF, TP) from the easiest channel. The
/// scan holds the state by shared reference, so the state cannot change
/// while the cache is in use.
#[derive(Debug, Clone)]
pub(crate) struct ScanCache {
    /// The device being scanned.
    pub(crate) device: usize,
    /// Minimum EE over the old group's other members after `device`
    /// leaves (`∞` when it is the sole member) — the candidate-independent
    /// part 2 of [`ModelState::min_ee_if`] for cross-group moves.
    exit_min: f64,
    /// Contention group of `device` when the scan starts.
    g_old: usize,
    /// Smallest cached `group_min` over groups other than `g_old`, and
    /// its group index; `other_min2` is the runner-up. Together they
    /// answer [`Bound::untouched_groups_min`] in O(1).
    other_min: f64,
    other_min_idx: usize,
    other_min2: f64,
    /// Per SF, the smallest overlap `h` that [`ModelState::ee_if`]
    /// computes for a move of `device` onto any of the SF's channels.
    easiest_overlap: [f64; 6],
    /// Per SF and gateway, flat `[sf][gateway]`, the smallest co-group
    /// interference `ee_if` passes for any of the SF's channels.
    easiest_interference: Vec<f64>,
}

/// The per-scan (SF, TP) table of the scanned device's own EE, read by
/// [`Bound::own_ee_clearing`] and [`Bound::own_ee`]: per TP
/// level the transmit power in mW, and per (SF, TP level) the cycle
/// energy, the energy ceiling and the easiest-channel bound. Each is
/// computed on first use; none depends on the channel or the contention,
/// so a scan's own-EE tests run the radio energy model at most once per
/// (SF, TP) pair, 42 at most, instead of once per candidate.
///
/// A table belongs to one [`ScanCache`], and so to one scan. It stores
/// values, not verdicts, so it stays valid while the rule's acceptance
/// bar moves.
#[derive(Debug)]
pub(crate) struct OwnEeBounds<'s> {
    scan: &'s ScanCache,
    /// Each TP level met so far.
    levels: Vec<TpLevel>,
}

/// One TP level of an [`OwnEeBounds`] table.
#[derive(Debug)]
struct TpLevel {
    tp: TxPowerDbm,
    /// `tp.milliwatts()`.
    p_mw: f64,
    /// Per SF, `None` until the first candidate of that SF and level asks.
    by_sf: [Option<SfTpEntry>; 6],
}

/// The scanned device's configuration-only terms at one (SF, TP level).
#[derive(Debug, Clone, Copy)]
struct SfTpEntry {
    /// Cycle energy, J (`NetworkModel::cycle_energy_of`).
    energy_j: f64,
    /// `payload_bits / (energy_j · 1000)`: the EE at a delivery ratio of 1.
    ceiling: f64,
    /// The easiest-channel bound, `None` until a candidate clears the
    /// ceiling.
    bound: Option<f64>,
}

impl<'s> OwnEeBounds<'s> {
    /// An empty memo for a scan prepared as `scan`.
    pub(crate) fn new(scan: &'s ScanCache) -> Self {
        OwnEeBounds {
            scan,
            levels: Vec::new(),
        }
    }

    /// `cfg`'s power in mW and its (SF, TP) entry, computed from `model`
    /// on the first ask.
    fn entry(&mut self, model: &NetworkModel, cfg: TxConfig) -> (f64, &mut SfTpEntry) {
        let level = match self.levels.iter().position(|level| level.tp == cfg.tp) {
            Some(level) => level,
            None => {
                self.levels.push(TpLevel {
                    tp: cfg.tp,
                    p_mw: cfg.tp.milliwatts(),
                    by_sf: [None; 6],
                });
                self.levels.len() - 1
            }
        };
        let device = self.scan.device;
        let level = &mut self.levels[level];
        let entry = level.by_sf[cfg.sf.index()].get_or_insert_with(|| {
            let energy_j = model.cycle_energy_of(device, &cfg);
            SfTpEntry {
                energy_j,
                ceiling: model.payload_bits / (energy_j * 1_000.0),
                bound: None,
            }
        });
        (level.p_mw, entry)
    }
}

/// The scanned device's own EE at a candidate, bit for bit its
/// [`ModelState::ee_if`], with the candidate's transmit power in mW, which
/// the exact evaluation of the same candidate reuses.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OwnEe {
    pub(crate) ee: f64,
    p_mw: f64,
}

/// Each gateway's delivery ratio in the own-EE bound is multiplied by
/// this factor, `1 + 2⁻⁴⁸`, and capped at 1, before Eq. 13 combines
/// them. It is what keeps [`Bound::own_ee_clearing`]'s bound sound
/// without assuming that libm's `exp` is monotone.
///
/// The bound of an (SF, TP) and the exact own EE on one of its channels
/// run the same arithmetic (`Bound::prr_at`, then Eq. 17's
/// division), with the same power, θ and cycle energy. Only the
/// contention differs, and the bound's is no larger: its `h` and each
/// gateway's interference are minima of the channels' own values, so no
/// libm call sits between them. Every step from there to the PDR exponent
/// is a correctly rounded IEEE operation, and rounding is monotone, so
/// the bound's exponent is at least the channel's, bit for bit. Then:
///
/// * `exp` is the one step evaluated at two different arguments. libm
///   documents its error in ulps (glibc: 1 ulp), not its monotonicity.
///   Where the channel's exact `e^x` is a normal number, a result within
///   4 ulps of it (relative error at most 2⁻⁵⁰) gives
///   `pdr_bound ≥ pdr_channel · (1 − 2⁻⁵⁰)/(1 + 2⁻⁵⁰)`. The widening,
///   itself rounded (relative error at most 2⁻⁵³), lifts that above
///   `pdr_channel`, since `(1 + 2⁻⁴⁸)(1 − 2⁻⁵³)(1 − 2⁻⁴⁹) > 1`. The cap
///   keeps it there, as no delivery ratio exceeds 1.
/// * Where `e^x` is below 2⁻¹⁰²², the channel's `θ·PDR` is below 2⁻⁵⁴,
///   so its Eq. 13 factor `1 − θ·PDR` rounds to exactly 1. No factor of
///   the bound exceeds that.
/// * Eq. 13's product and the division by the cycle energy are again
///   monotone correctly rounded operations on the same θ and energy, so
///   per-gateway factors no larger than the channel's give an EE no
///   smaller.
///
/// Widening before the product, not the final EE, needs no absolute
/// margin: the rounding of `1 − θ·PDR` near 1, which dominates a starved
/// device's near-zero EE, is the same monotone step on both sides.
const PDR_WIDEN: f64 = 1.0 + 16.0 * f64::EPSILON;

/// A gateway whose Eq. 10 exponent `x` exceeds this changes nothing in
/// Eq. 13, so `Bound::prr_at` skips it without calling `exp`. An
/// unreachable gateway's exponent is `+∞`.
///
/// Its delivery ratio `e^{−x}` is below `e^{−40} ≈ 4.2·10⁻¹⁸`. libm's
/// result is within a few ulps of that, and the own-EE bound's
/// [`PDR_WIDEN`] lifts it by another factor of `1 + 2⁻⁴⁸`, so every
/// ratio `prr_at` could form there stays below `2⁻⁵⁴ ≈ 5.6·10⁻¹⁷`. With
/// `θ ≤ 1`, the gateway's factor `1 − θ·PDR` then lies within half an ulp
/// of 1 and rounds to exactly 1 (a tie rounds to 1, its even neighbour).
/// Multiplying Eq. 13's product by exactly 1 leaves it unchanged, so the
/// skip changes no bit of any EE, exact or bound.
///
/// The own-EE bound stays sound under the skip. Its exponent at a gateway
/// is at most each channel's (see [`PDR_WIDEN`]), so a gateway the bound
/// skips has an exponent above 40 on every channel too, and its factor is
/// exactly 1 on both sides.
const NEGLIGIBLE_EXPONENT: f64 = 40.0;

/// A delivery ratio widened by [`PDR_WIDEN`], capped at 1.
fn widen_pdr(pdr: f64) -> f64 {
    (pdr * PDR_WIDEN).min(1.0)
}

/// The overlap probability `h` every evaluation derives from a
/// contention load.
fn overlap_at(load: f64) -> f64 {
    overlap_from_load(load.max(0.0))
}

impl<M: Borrow<NetworkModel>> ModelState<M> {
    fn build(model: M, alloc: Vec<TxConfig>) -> Self {
        let bound = Bound::build(model.borrow(), alloc);
        ModelState { model, bound }
    }

    /// The model the state is bound to.
    pub fn model(&self) -> &NetworkModel {
        self.model.borrow()
    }

    /// Unbinds the state, giving back how it held its model.
    pub fn into_model(self) -> M {
        self.model
    }

    /// The bound allocation.
    pub fn alloc(&self) -> &[TxConfig] {
        self.bound.alloc()
    }

    /// Cached EE of device `i`, bits/mJ.
    pub fn ee(&self, i: usize) -> f64 {
        self.bound.ee[i]
    }

    /// Cached EE of every device.
    pub fn ee_all(&self) -> &[f64] {
        &self.bound.ee
    }

    /// The network minimum EE (the paper's fairness objective), folded
    /// from the cached group minima: every device sits in exactly one
    /// group, so this is the minimum over every cached EE.
    pub fn min_ee(&self) -> f64 {
        self.bound.min_ee()
    }

    /// The contention overlap probability `h_i` of device `i` under the
    /// bound allocation — `1 − exp(−Σ_{j∈group, j≠i} α_j)`, which reduces
    /// to the paper's Eq. (14) when all group members share one duty
    /// cycle.
    pub fn overlap_for(&self, i: usize) -> f64 {
        self.bound.overlap_for(self.model(), i)
    }

    /// Mean co-group interference power on device `i` at gateway `k`, mW.
    pub fn interference_on(&self, i: usize, k: usize) -> f64 {
        self.bound.interference_on(self.model(), i, k)
    }

    /// The capacity factor `θ_{i,k}`: Poisson tail at the others' load
    /// `Λ_k − q_{i,k}`. It is computed on its first read at that load and
    /// served from the state until the load changes.
    pub fn theta(&self, i: usize, k: usize) -> f64 {
        self.bound.theta(self.model(), i, k)
    }

    /// The EE device `i` itself would have after moving to `cfg`
    /// (other devices unchanged). Cheap — `O(gateways)` — and used by the
    /// greedy allocator to break ties between moves that leave the
    /// network minimum unchanged.
    pub fn ee_if(&self, i: usize, cfg: TxConfig) -> f64 {
        self.bound.ee_if(self.model(), i, cfg)
    }

    /// The network minimum EE if device `i` moved to `cfg`, or `None` as
    /// soon as it can be shown not to exceed `floor` (pruning for the
    /// greedy scan). `floor = f64::NEG_INFINITY` disables pruning.
    pub fn min_ee_if(&self, i: usize, cfg: TxConfig, floor: f64) -> Option<f64> {
        self.bound.min_ee_if(self.model(), i, cfg, floor)
    }

    /// Commits the move of device `i` to `cfg`, updating all aggregates and
    /// the cached EE of every device in the two affected groups.
    pub fn apply(&mut self, i: usize, cfg: TxConfig) {
        self.bound.apply(self.model.borrow(), i, cfg)
    }

    /// Re-folds every aggregate and cached EE from the per-device terms
    /// the state keeps, flushing the rounding of the incrementally
    /// updated sums and `Λ` and the stale EE of devices outside the groups
    /// committed moves touched. The result is bit for bit the state
    /// [`NetworkModel::state`] builds for the same allocation. The greedy
    /// allocator calls this between passes.
    pub fn refresh(&mut self) {
        self.bound.fold(self.model.borrow())
    }
}

impl Bound {
    /// Binds `alloc` to `model`: derives each device's own terms (power,
    /// cycle energy, occupancy per gateway), then folds them into the group
    /// and gateway sums and runs the EE pass.
    fn build(model: &NetworkModel, alloc: Vec<TxConfig>) -> Self {
        let (n, g) = (model.device_count(), model.gateway_count());
        let n_groups = group_count(model.n_channels);
        let mut bound = Bound {
            alloc,
            members: vec![Vec::new(); n_groups],
            power_sum: vec![0.0; n_groups * g],
            alpha_sum: vec![0.0; n_groups],
            power_mw: Vec::with_capacity(n),
            energy_j: Vec::with_capacity(n),
            q: Vec::with_capacity(n * g),
            lambda: vec![0.0; g],
            ee: vec![0.0; n],
            group_min: vec![f64::INFINITY; n_groups],
            theta: vec![Cell::new(ThetaEntry::EMPTY); n * g],
        };
        bound.push_own_terms(model, 0);
        bound.fold(model);
        bound
    }

    /// Derives the own terms of every device from `first` on and appends
    /// them; the devices before `first` have theirs.
    fn push_own_terms(&mut self, model: &NetworkModel, first: usize) {
        for (i, cfg) in self.alloc.iter().enumerate().skip(first) {
            let p_mw = cfg.tp.milliwatts();
            let (energy_j, q) = model.own_terms(i, cfg, p_mw);
            self.power_mw.push(p_mw);
            self.energy_j.push(energy_j);
            self.q.extend(q);
        }
    }

    /// Rebuilds the members, `Σα`, the received-power sums and `Λ` from
    /// the per-device terms in device order, seeded from the model's
    /// [`Ambient`], then runs the EE pass. [`ModelState::apply`] keeps the
    /// per-device terms exactly as [`Bound::build`] derives them, so
    /// folding them gives the bits a fresh build would.
    fn fold(&mut self, model: &NetworkModel) {
        let g = model.gateway_count();
        for members in &mut self.members {
            members.clear();
        }
        match &model.ambient {
            // Out-of-scope contributions seed the sums; the loop below
            // then accumulates local devices on top exactly as for a
            // self-contained deployment.
            Some(ambient) => {
                self.alpha_sum.copy_from_slice(&ambient.load);
                self.power_sum.copy_from_slice(&ambient.power);
                self.lambda.copy_from_slice(&ambient.lambda);
            }
            None => {
                self.alpha_sum.fill(0.0);
                self.power_sum.fill(0.0);
                self.lambda.fill(0.0);
            }
        }
        for (i, cfg) in self.alloc.iter().enumerate() {
            let grp = group_index(cfg.sf, cfg.channel, model.n_channels);
            self.members[grp].push(i);
            self.alpha_sum[grp] += model.duty_of(i, cfg.sf);
            let p_mw = self.power_mw[i];
            for (k, &q) in self.q[i * g..(i + 1) * g].iter().enumerate() {
                self.power_sum[grp * g + k] += p_mw * model.attenuation.at(i, k);
                self.lambda[k] += q;
            }
        }
        self.recompute_all_ee(model);
    }

    #[inline]
    fn group_of(&self, model: &NetworkModel, cfg: &TxConfig) -> usize {
        group_index(cfg.sf, cfg.channel, model.n_channels)
    }

    /// Group `grp`'s received-power sums over the gateways.
    #[inline]
    fn power_sums(&self, model: &NetworkModel, grp: usize) -> &[f64] {
        let g = model.gateway_count();
        &self.power_sum[grp * g..(grp + 1) * g]
    }

    pub(crate) fn alloc(&self) -> &[TxConfig] {
        &self.alloc
    }

    fn min_ee(&self) -> f64 {
        self.group_min
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
            .min(f64::MAX)
    }

    fn overlap_for(&self, model: &NetworkModel, i: usize) -> f64 {
        let cfg = &self.alloc[i];
        let grp = self.group_of(model, cfg);
        let load = (self.alpha_sum[grp] - model.duty_of(i, cfg.sf)).max(0.0);
        overlap_from_load(load)
    }

    fn interference_on(&self, model: &NetworkModel, i: usize, k: usize) -> f64 {
        let cfg = &self.alloc[i];
        let grp = self.group_of(model, cfg);
        (self.power_sums(model, grp)[k] - self.power_mw[i] * model.attenuation.at(i, k)).max(0.0)
    }

    /// `θ_{i,k}` at the live `Λ` and `q`, from the memo when its entry
    /// was computed at the same argument.
    fn theta(&self, model: &NetworkModel, i: usize, k: usize) -> f64 {
        let entry = i * model.gateway_count() + k;
        let arg = (self.lambda[k] - self.q[entry]).max(0.0);
        let memo = &self.theta[entry];
        let held = memo.get();
        if held.arg == arg.to_bits() {
            return held.theta;
        }
        let theta = poisson_at_most(arg, OTHERS_BUDGET);
        memo.set(ThetaEntry {
            arg: arg.to_bits(),
            theta,
        });
        theta
    }

    /// EE of device `i` under a hypothetical configuration and group shape:
    /// `sf`, `p_mw` and `energy_j` are the configuration's SF, transmit
    /// power in mW and cycle energy in J, and `(load, interference)` the
    /// contention it meets: the summed duty cycle of its co-group
    /// contenders and, as `interference(k)`, the mean co-group
    /// interference at each gateway.
    fn ee_raw(
        &self,
        model: &NetworkModel,
        i: usize,
        sf: SpreadingFactor,
        p_mw: f64,
        energy_j: f64,
        (load, interference): (f64, impl Fn(usize) -> f64),
    ) -> f64 {
        let prr = self.prr_at::<false>(model, i, sf, p_mw, overlap_at(load), interference);
        self.ee_from(model, prr, energy_j)
    }

    /// Eq. 17: the EE at reception ratio `prr` and cycle energy
    /// `energy_j`.
    fn ee_from(&self, model: &NetworkModel, prr: f64, energy_j: f64) -> f64 {
        model.payload_bits * prr / (energy_j * 1_000.0)
    }

    /// Device `i`'s reception ratio (Eq. 10 per gateway, Eq. 13 over
    /// them) at SF `sf`, power `p_mw` and overlap probability `h`. With
    /// `WIDEN`, each gateway's delivery ratio is widened by [`widen_pdr`]
    /// before Eq. 13, for the own-EE bound; exact values leave it as it
    /// is. Gateways past [`NEGLIGIBLE_EXPONENT`] are skipped, which
    /// changes no bit of the result.
    fn prr_at<const WIDEN: bool>(
        &self,
        model: &NetworkModel,
        i: usize,
        sf: SpreadingFactor,
        p_mw: f64,
        h: f64,
        interference: impl Fn(usize) -> f64,
    ) -> f64 {
        let sfi = sf.index();
        let (threshold, sensitivity) = (model.th_lin[sfi], model.sens_mw[sfi]);
        let per_gw = model
            .attenuation
            .row(i)
            .iter()
            .enumerate()
            .filter_map(|(k, &a)| {
                let x = pdr_exponent(
                    model.pdr_form,
                    p_mw * a,
                    threshold,
                    h,
                    interference(k).max(0.0),
                    model.noise_mw,
                    sensitivity,
                );
                // Its Eq. 13 factor would be exactly 1.
                if x > NEGLIGIBLE_EXPONENT {
                    return None;
                }
                let pdr = (-x).exp();
                Some((
                    self.theta(model, i, k),
                    if WIDEN { widen_pdr(pdr) } else { pdr },
                ))
            });
        prr(per_gw)
    }

    /// What device `i` contends with in group `grp` of SF `sf`: the
    /// group's summed duty and, per gateway, its received-power sum, both
    /// net of `i` when `grp` is `i`'s own group. These are the load and
    /// interference [`ModelState::ee_if`] evaluates a move into `grp` at.
    fn contenders_in<'a>(
        &'a self,
        model: &'a NetworkModel,
        i: usize,
        grp: usize,
        sf: SpreadingFactor,
    ) -> (f64, impl Fn(usize) -> f64 + 'a) {
        // `grp` can be i's own group only at i's own SF, so `duty_of(i,
        // sf)` is then the duty i adds to it.
        let own_group = grp == self.group_of(model, &self.alloc[i]);
        let own_p = self.power_mw[i];
        let sums = self.power_sums(model, grp);
        let load = if own_group {
            self.alpha_sum[grp] - model.duty_of(i, sf)
        } else {
            self.alpha_sum[grp]
        };
        let interference = move |k: usize| {
            if own_group {
                sums[k] - own_p * model.attenuation.at(i, k)
            } else {
                sums[k]
            }
        };
        (load, interference)
    }

    fn current_ee(&self, model: &NetworkModel, i: usize) -> f64 {
        let cfg = self.alloc[i];
        let grp = self.group_of(model, &cfg);
        let load = self.alpha_sum[grp] - model.duty_of(i, cfg.sf);
        let own = self.power_mw[i];
        let sums = self.power_sums(model, grp);
        self.ee_raw(
            model,
            i,
            cfg.sf,
            own,
            self.energy_j[i],
            (load, |k| sums[k] - own * model.attenuation.at(i, k)),
        )
    }

    fn recompute_all_ee(&mut self, model: &NetworkModel) {
        for i in 0..self.alloc.len() {
            self.ee[i] = self.current_ee(model, i);
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

    /// The scanned device's [`ModelState::ee_if`] for `cfg` when it
    /// passes `clears`, a test that can only turn true as its argument
    /// rises; `None` otherwise. Two upper bounds are tested first, so
    /// most failing candidates never reach the `O(gateways)` exact value:
    ///
    /// 1. the energy ceiling: the delivery ratio never exceeds 1, so the
    ///    delivered bits over the cycle energy cap the EE;
    /// 2. the own EE at the easiest contention any channel of `cfg`'s SF
    ///    offers (see [`ScanCache`]), which caps `ee_if` on every channel
    ///    because the delivery ratio never rises with `h·Ī` (Eq. 10, both
    ///    [`PdrForm`]s). The derivation beside the constant `PDR_WIDEN`
    ///    shows why it holds without assuming libm's `exp` monotone.
    ///
    /// Both depend only on `cfg`'s SF and TP, so `bounds` computes each at
    /// most once per scan, along with the power and cycle energy that the
    /// bound and the exact value share.
    pub(crate) fn own_ee_clearing(
        &self,
        model: &NetworkModel,
        bounds: &mut OwnEeBounds<'_>,
        cfg: TxConfig,
        clears: impl Fn(f64) -> bool,
    ) -> Option<OwnEe> {
        let (p_mw, energy_j) = self.own_ee_bounds_clearing(model, bounds, cfg, &clears)?;
        let ee = self.ee_if_at(model, bounds.scan.device, cfg, p_mw, energy_j);
        clears(ee).then_some(OwnEe { ee, p_mw })
    }

    /// Whether both upper bounds of [`Bound::own_ee_clearing`] pass
    /// `clears` at `cfg`'s SF and TP. When they do not,
    /// `own_ee_clearing` returns `None` on every channel, so a scan can
    /// decide a whole (SF, TP) column at once; `cfg`'s channel is not
    /// read.
    pub(crate) fn own_ee_may_clear(
        &self,
        model: &NetworkModel,
        bounds: &mut OwnEeBounds<'_>,
        cfg: TxConfig,
        clears: impl Fn(f64) -> bool,
    ) -> bool {
        self.own_ee_bounds_clearing(model, bounds, cfg, &clears)
            .is_some()
    }

    /// `cfg`'s power in mW and cycle energy in J when its energy ceiling
    /// and then its easiest-channel bound pass `clears`, `None` as soon as
    /// one fails.
    fn own_ee_bounds_clearing(
        &self,
        model: &NetworkModel,
        bounds: &mut OwnEeBounds<'_>,
        cfg: TxConfig,
        clears: &impl Fn(f64) -> bool,
    ) -> Option<(f64, f64)> {
        let scan = bounds.scan;
        let (p_mw, entry) = bounds.entry(model, cfg);
        if !clears(entry.ceiling) {
            return None;
        }
        let energy_j = entry.energy_j;
        let bound = *entry
            .bound
            .get_or_insert_with(|| self.own_ee_bound(model, scan, cfg.sf, p_mw, energy_j));
        clears(bound).then_some((p_mw, energy_j))
    }

    /// The scanned device's [`ModelState::ee_if`] for `cfg`, bit for bit,
    /// with the power and cycle energy read from `bounds`.
    pub(crate) fn own_ee(
        &self,
        model: &NetworkModel,
        bounds: &mut OwnEeBounds<'_>,
        cfg: TxConfig,
    ) -> OwnEe {
        let device = bounds.scan.device;
        let (p_mw, entry) = bounds.entry(model, cfg);
        let energy_j = entry.energy_j;
        OwnEe {
            ee: self.ee_if_at(model, device, cfg, p_mw, energy_j),
            p_mw,
        }
    }

    /// Upper bound on [`ModelState::ee_if`] for the scanned device over
    /// every channel of SF `sf` at power `p_mw` with cycle energy
    /// `energy_j`: the own EE at the SF's easiest contention, each
    /// gateway's delivery ratio widened by [`PDR_WIDEN`].
    fn own_ee_bound(
        &self,
        model: &NetworkModel,
        scan: &ScanCache,
        sf: SpreadingFactor,
        p_mw: f64,
        energy_j: f64,
    ) -> f64 {
        let sfi = sf.index();
        let g = model.gateway_count();
        let interference = &scan.easiest_interference[sfi * g..(sfi + 1) * g];
        let prr = self.prr_at::<true>(
            model,
            scan.device,
            sf,
            p_mw,
            scan.easiest_overlap[sfi],
            |k| interference[k],
        );
        self.ee_from(model, prr, energy_j)
    }

    fn ee_if(&self, model: &NetworkModel, i: usize, cfg: TxConfig) -> f64 {
        self.own_ee_at(model, i, cfg).ee
    }

    /// [`ModelState::ee_if`] with the power it converted `cfg`'s TP to.
    fn own_ee_at(&self, model: &NetworkModel, i: usize, cfg: TxConfig) -> OwnEe {
        let p_mw = cfg.tp.milliwatts();
        OwnEe {
            ee: self.ee_if_at(model, i, cfg, p_mw, model.cycle_energy_of(i, &cfg)),
            p_mw,
        }
    }

    /// [`ModelState::ee_if`] with `cfg`'s power in mW and cycle energy in
    /// J given.
    fn ee_if_at(
        &self,
        model: &NetworkModel,
        i: usize,
        cfg: TxConfig,
        p_mw: f64,
        energy_j: f64,
    ) -> f64 {
        let contention = self.contenders_in(model, i, self.group_of(model, &cfg), cfg.sf);
        self.ee_raw(model, i, cfg.sf, p_mw, energy_j, contention)
    }

    fn min_ee_if(&self, model: &NetworkModel, i: usize, cfg: TxConfig, floor: f64) -> Option<f64> {
        self.min_ee_after(model, i, cfg, self.own_ee_at(model, i, cfg), floor, None)
    }

    /// [`ModelState::min_ee_if`], with `i`'s own EE after the move and
    /// `cfg`'s power given as `own`, and the minimum EE of `i`'s old group
    /// after `i` leaves it passed in as `exit_min` when the caller has it
    /// precomputed (it does not depend on the candidate). Only a
    /// cross-group move reads `exit_min`.
    fn min_ee_after(
        &self,
        model: &NetworkModel,
        i: usize,
        cfg: TxConfig,
        own: OwnEe,
        floor: f64,
        exit_min: Option<f64>,
    ) -> Option<f64> {
        let g_old = self.group_of(model, &self.alloc[i]);
        let g_new = self.group_of(model, &cfg);
        let same_group = g_old == g_new;
        let (ee_i, new_p) = (own.ee, own.p_mw);
        let alpha_new = model.duty_of(i, cfg.sf);

        // 1. The moved device itself.
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
                    let ee_j = self.old_member_ee(model, i, j, same_group.then_some(new_p));
                    if ee_j <= floor {
                        return None;
                    }
                    min = min.min(ee_j);
                }
            }
        }

        // 3. Devices in the new group (gaining i).
        if !same_group {
            let sums = self.power_sums(model, g_new);
            for &j in &self.members[g_new] {
                let jc = self.alloc[j];
                let jp = self.power_mw[j];
                let load_j = self.alpha_sum[g_new] - model.duty_of(j, jc.sf) + alpha_new;
                let ee_j = self.ee_raw(
                    model,
                    j,
                    jc.sf,
                    jp,
                    self.energy_j[j],
                    (load_j, |k| {
                        sums[k] - jp * model.attenuation.at(j, k)
                            + new_p * model.attenuation.at(i, k)
                    }),
                );
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
    fn old_member_ee(&self, model: &NetworkModel, i: usize, j: usize, stay_p: Option<f64>) -> f64 {
        let old_cfg = self.alloc[i];
        let grp = self.group_of(model, &old_cfg);
        let old_p = self.power_mw[i];
        let jc = self.alloc[j];
        let jp = self.power_mw[j];
        let load_j = match stay_p {
            // Only i's power changed; its duty cycle is unchanged.
            Some(_) => self.alpha_sum[grp] - model.duty_of(j, jc.sf),
            None => self.alpha_sum[grp] - model.duty_of(j, jc.sf) - model.duty_of(i, old_cfg.sf),
        };
        let sums = self.power_sums(model, grp);
        let interference = |k| {
            let base = sums[k] - jp * model.attenuation.at(j, k);
            match stay_p {
                Some(new_p) => {
                    base - old_p * model.attenuation.at(i, k) + new_p * model.attenuation.at(i, k)
                }
                None => base - old_p * model.attenuation.at(i, k),
            }
        };
        self.ee_raw(
            model,
            j,
            jc.sf,
            jp,
            self.energy_j[j],
            (load_j, interference),
        )
    }

    fn apply(&mut self, model: &NetworkModel, i: usize, cfg: TxConfig) {
        let g_old = self.group_of(model, &self.alloc[i]);
        let g_new = self.group_of(model, &cfg);
        let old_cfg = self.alloc[i];
        let old_p = self.power_mw[i];
        let new_p = cfg.tp.milliwatts();
        let g = model.gateway_count();

        for k in 0..g {
            self.power_sum[g_old * g + k] -= old_p * model.attenuation.at(i, k);
            let q_new = model.occupancy_at(i, cfg.sf, new_p, k);
            self.lambda[k] += q_new - self.q[i * g + k];
            self.q[i * g + k] = q_new;
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
        for k in 0..g {
            self.power_sum[g_new * g + k] += new_p * model.attenuation.at(i, k);
        }
        self.alloc[i] = cfg;
        self.power_mw[i] = new_p;
        self.energy_j[i] = model.cycle_energy_of(i, &cfg);

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
            self.ee[j] = self.current_ee(model, j);
        }
        self.recompute_group_min(g_old);
        if g_new != g_old {
            self.recompute_group_min(g_new);
        }
    }

    /// Precomputes the candidate-independent parts of a full candidate
    /// scan of device `i` (see [`ScanCache`]).
    pub(crate) fn scan_cache(&self, model: &NetworkModel, i: usize) -> ScanCache {
        let g_old = self.group_of(model, &self.alloc[i]);

        // Part 2 of `min_ee_if` for a cross-group move, computed once
        // instead of per candidate.
        let exit_min = self.members[g_old]
            .iter()
            .filter(|&&j| j != i)
            .map(|&j| self.old_member_ee(model, i, j, None))
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

        // The easiest channel per SF, from the very values `ee_if` would
        // pass for each channel: no libm call sits between them and the
        // minima.
        let channels = model.n_channels;
        let g = model.gateway_count();
        let mut easiest_overlap = [f64::INFINITY; 6];
        let mut easiest_interference = vec![f64::INFINITY; 6 * g];
        for sf in SpreadingFactor::ALL {
            let sfi = sf.index();
            let row = &mut easiest_interference[sfi * g..(sfi + 1) * g];
            for channel in 0..channels {
                let (load, interference) =
                    self.contenders_in(model, i, group_index(sf, channel, channels), sf);
                easiest_overlap[sfi] = easiest_overlap[sfi].min(overlap_at(load));
                for (k, slot) in row.iter_mut().enumerate() {
                    *slot = slot.min(interference(k).max(0.0));
                }
            }
        }

        ScanCache {
            device: i,
            exit_min,
            g_old,
            other_min,
            other_min_idx,
            other_min2,
            easiest_overlap,
            easiest_interference,
        }
    }

    /// Exact upper bound on [`ModelState::min_ee_if`] for moving the
    /// scanned device to `cfg`: the smallest cached `group_min` over
    /// every group the move leaves untouched. That value is literally
    /// one of the min components of the full evaluation (part 4), so the
    /// exact result can never exceed it — a caller whose acceptance test
    /// already fails at this bound can skip the exact evaluation without
    /// changing any decision.
    pub(crate) fn untouched_groups_min(
        &self,
        model: &NetworkModel,
        scan: &ScanCache,
        cfg: TxConfig,
    ) -> f64 {
        let g_new = self.group_of(model, &cfg);
        if g_new != scan.g_old && g_new == scan.other_min_idx {
            scan.other_min2
        } else {
            scan.other_min
        }
    }

    /// [`ModelState::min_ee_if`] served from a [`ScanCache`]: the same
    /// component EEs (bitwise — every arithmetic expression matches),
    /// hence the same pruning verdict and the same returned minimum.
    /// `own` is the scanned device's own EE at `cfg`, bit for bit its
    /// [`ModelState::ee_if`], with `cfg`'s power, which the scans already
    /// hold from [`Bound::own_ee`] or [`Bound::own_ee_clearing`].
    /// A cross-group candidate reads its old group's part from the cache
    /// and costs `O(new-group members × gateways)`; a same-group
    /// candidate (only the transmit power changes) evaluates both parts.
    pub(crate) fn min_ee_if_scanned(
        &self,
        model: &NetworkModel,
        scan: &ScanCache,
        cfg: TxConfig,
        own: OwnEe,
        floor: f64,
    ) -> Option<f64> {
        debug_assert_eq!(
            (own.ee.to_bits(), own.p_mw.to_bits()),
            {
                let want = self.own_ee_at(model, scan.device, cfg);
                (want.ee.to_bits(), want.p_mw.to_bits())
            },
            "the own EE handed to min_ee_if_scanned is not ee_if's"
        );
        self.min_ee_after(model, scan.device, cfg, own, floor, Some(scan.exit_min))
    }
}

/// Churn on a state that owns its model. Each operation changes the
/// model's rows and the state's per-device terms together, re-derives the
/// terms of every device whose reporting interval `config` changed, and
/// ends with [`ModelState::refresh`]. The fold then runs over the same
/// per-device terms, in the same device order, that a fresh build over the
/// changed population derives, so the state is bit for bit
/// `NetworkModel::state` of the changed model under the changed
/// allocation, and the model is bit for bit [`NetworkModel::new`] over the
/// changed population (with the same PDR form and ambient).
impl ModelState<NetworkModel> {
    /// Appends a batch of joining devices (a churn `Join`): their model
    /// rows, from the same kernel a fresh build uses, and each newcomer at
    /// its seed configuration at power `tp` ([`NetworkModel::seed_config`]).
    /// The rows are appended, so the fold adds the newcomers last, as a
    /// fresh build over the grown population does.
    pub fn join_rows(
        &mut self,
        config: &SimConfig,
        new_sites: &[DeviceSite],
        gateways: &[Position],
        radius_m: f64,
        tp: TxPowerDbm,
    ) {
        let (model, bound) = (&mut self.model, &mut self.bound);
        let before = model.intervals.clone();
        let first = bound.alloc.len();
        model.extend_rows(config, new_sites, gateways, radius_m);
        let n = model.device_count();
        bound
            .alloc
            .extend((first..n).map(|i| model.seed_config(i, tp)));
        bound.push_own_terms(model, first);
        bound.rederive_changed_intervals(model, &before);
        bound
            .theta
            .resize(n * model.gateway_count(), Cell::new(ThetaEntry::EMPTY));
        bound.ee.resize(n, 0.0);
        bound.fold(model);
    }

    /// Drops the devices `leaving` marks (a churn `Leave`), compacting the
    /// model's rows, the allocation and the per-device terms in one pass
    /// each so row `i` keeps describing the `i`-th survivor. The θ memo and
    /// cached EE are only cut to length: the closing refresh recomputes
    /// every EE, and a memo entry left by another device either holds its
    /// new argument's `θ` or is recomputed.
    ///
    /// # Panics
    ///
    /// Panics when the mask length disagrees with the device count.
    pub fn retire_rows(&mut self, config: &SimConfig, leaving: &[bool], radius_m: f64) {
        let (model, bound) = (&mut self.model, &mut self.bound);
        let g = model.gateway_count();
        let mut before = model.intervals.clone();
        model.retire_rows(config, leaving, radius_m);
        retain_rows(&mut before, leaving, 1);
        retain_rows(&mut bound.alloc, leaving, 1);
        retain_rows(&mut bound.power_mw, leaving, 1);
        retain_rows(&mut bound.energy_j, leaving, 1);
        retain_rows(&mut bound.q, leaving, g);
        bound.rederive_changed_intervals(model, &before);
        let n = bound.alloc.len();
        bound.theta.resize(n * g, Cell::new(ThetaEntry::EMPTY));
        bound.ee.truncate(n);
        bound.fold(model);
    }

    /// Re-derives the model's reporting intervals from `config` after a
    /// churn event changed the population's class mix (a churn
    /// `Migrate`), and with them the cycle energy and occupancy of every
    /// device whose interval changed.
    pub fn refresh_intervals(&mut self, config: &SimConfig) {
        let (model, bound) = (&mut self.model, &mut self.bound);
        let before = model.intervals.clone();
        model.refresh_intervals(config);
        bound.rederive_changed_intervals(model, &before);
        bound.fold(model);
    }
}

impl Bound {
    /// Re-derives the cycle energy and occupancy row of each device
    /// `i < before.len()` whose reporting interval is no longer
    /// `before[i]`, as a build derives them. Every other own term depends
    /// only on the device's configuration and its attenuation row, which
    /// churn keeps.
    fn rederive_changed_intervals(&mut self, model: &NetworkModel, before: &[f64]) {
        let g = model.gateway_count();
        for (i, (cfg, old)) in self.alloc.iter().zip(before).enumerate() {
            if model.intervals[i].to_bits() == old.to_bits() {
                continue;
            }
            let (energy_j, q) = model.own_terms(i, cfg, self.power_mw[i]);
            self.energy_j[i] = energy_j;
            for (slot, q) in self.q[i * g..(i + 1) * g].iter_mut().zip(q) {
                *slot = q;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pdr::pdr_with;
    use lora_phy::path_loss::LinkEnvironment;
    use lora_sim::{DeviceSite, Position};
    use proptest::prelude::*;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha12Rng;

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

    /// [`NetworkModel::evaluate`] with the exact Poisson–binomial capacity
    /// factor instead of the Poisson approximation. `O(N²·G)`.
    fn evaluate_exact_theta(model: &NetworkModel, alloc: &[TxConfig]) -> Vec<f64> {
        let n = model.device_count();
        let g = model.gateway_count();
        // q[k][j]
        let mut q = vec![vec![0.0; n]; g];
        for j in 0..n {
            for (k, qk) in q.iter_mut().enumerate() {
                qk[j] = model.occupancy_probability(j, &alloc[j], k);
            }
        }
        let state = model.state(alloc.to_vec()).expect("valid allocation");
        (0..n)
            .map(|i| {
                let cfg = &alloc[i];
                let h = state.overlap_for(i);
                let per_gw = (0..g).map(|k| {
                    let probs: Vec<f64> = (0..n).filter(|&j| j != i).map(|j| q[k][j]).collect();
                    let theta = crate::capacity::poisson_binomial_at_most(&probs, OTHERS_BUDGET);
                    let mean_rx = cfg.tp.milliwatts() * model.attenuation.at(i, k);
                    let interference = state.interference_on(i, k);
                    let p = pdr_with(
                        model.pdr_form,
                        mean_rx,
                        model.th_lin[cfg.sf.index()],
                        h,
                        interference,
                        model.noise_mw,
                        model.sens_mw[cfg.sf.index()],
                    );
                    (theta, p)
                });
                model.payload_bits * prr(per_gw) / (model.cycle_energy_j(cfg) * 1_000.0)
            })
            .collect()
    }

    #[test]
    fn exact_theta_agrees_with_poisson_at_scale() {
        let topo = line_topology(60, 60.0, 2);
        let model = model_for(&topo);
        let alloc: Vec<TxConfig> = (0..60)
            .map(|i| TxConfig::new(SpreadingFactor::Sf7, TxPowerDbm::new(14.0), i % 8))
            .collect();
        let approx = model.evaluate(&alloc);
        let exact = evaluate_exact_theta(&model, &alloc);
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
            let scan = state.bound.scan_cache(state.model(), device);
            let mut floor = f64::NEG_INFINITY;
            for sf in SpreadingFactor::ALL {
                for ch in 0..8 {
                    for tp_i in 0..7 {
                        let cfg = TxConfig::new(sf, TxPowerDbm::new(2.0 + tp_i as f64 * 2.0), ch);
                        let plain = state.min_ee_if(device, cfg, floor);
                        let own = state.bound.own_ee_at(state.model(), device, cfg);
                        let fast =
                            state
                                .bound
                                .min_ee_if_scanned(state.model(), &scan, cfg, own, floor);
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
    }

    /// The θ the state's live `Λ` and `q` give for `(i, k)` right now,
    /// computed without the memo.
    fn live_theta<M: Borrow<NetworkModel>>(state: &ModelState<M>, i: usize, k: usize) -> f64 {
        poisson_at_most(live_theta_arg(state, i, k), OTHERS_BUDGET)
    }

    /// The argument of `θ_{i,k}` under the state's live `Λ` and `q`.
    fn live_theta_arg<M: Borrow<NetworkModel>>(state: &ModelState<M>, i: usize, k: usize) -> f64 {
        let g = state.model().gateway_count();
        (state.bound.lambda[k] - state.bound.q[i * g + k]).max(0.0)
    }

    /// Whether a read of `θ_{i,k}` now would be served by the memo: its
    /// entry holds the live argument.
    fn memo_holds<M: Borrow<NetworkModel>>(state: &ModelState<M>, i: usize, k: usize) -> bool {
        let entry = state.bound.theta[i * state.model().gateway_count() + k].get();
        entry.arg == live_theta_arg(state, i, k).to_bits()
    }

    /// Reads every `θ` of `state` in a shuffled order, checks each against
    /// the tail of the live `Λ` and `q`, bit for bit, and that the memo
    /// then holds it. Returns how many of the reads the memo served.
    fn check_theta_is_live<M: Borrow<NetworkModel>>(
        state: &ModelState<M>,
        rng: &mut ChaCha12Rng,
        at: &str,
    ) -> Result<usize, TestCaseError> {
        let g = state.model().gateway_count();
        let mut reads: Vec<(usize, usize)> = (0..state.alloc().len())
            .flat_map(|i| (0..g).map(move |k| (i, k)))
            .collect();
        reads.shuffle(rng);
        let mut hits = 0;
        for (i, k) in reads {
            hits += usize::from(memo_holds(state, i, k));
            prop_assert_eq!(
                state.theta(i, k).to_bits(),
                live_theta(state, i, k).to_bits(),
                "theta({}, {}) {}",
                i,
                k,
                at
            );
            prop_assert!(
                memo_holds(state, i, k),
                "theta({}, {}) not kept {}",
                i,
                k,
                at
            );
        }
        Ok(hits)
    }

    fn random_config(rng: &mut ChaCha12Rng, channels: usize) -> TxConfig {
        TxConfig::new(
            SpreadingFactor::ALL[rng.gen_range(0..6usize)],
            TxPowerDbm::new(2.0 * rng.gen_range(1..=7u32) as f64),
            rng.gen_range(0..channels),
        )
    }

    /// `model` under random out-of-scope pressure on every group and
    /// gateway. Its `Λ` offsets reach the demodulator budget, where θ is
    /// far from 1 and sensitive to every bit of `Λ`.
    fn with_random_ambient(model: NetworkModel, rng: &mut ChaCha12Rng) -> NetworkModel {
        let groups = group_count(model.channel_count());
        let mut offsets = Ambient::zeros(groups, model.gateway_count());
        for v in &mut offsets.power {
            *v = rng.gen_range(0.0..1e-9);
        }
        for v in &mut offsets.load {
            *v = rng.gen_range(0.0..0.2);
        }
        for v in &mut offsets.lambda {
            *v = rng.gen_range(0.0..8.0);
        }
        model.with_ambient(offsets)
    }

    /// Device `i`'s EE under the state's allocation, evaluated literally:
    /// Eq. 10 at every gateway, Eq. 13 over all of them and Eq. 17's
    /// division by the energy model's cycle energy, from the state's
    /// public terms. It skips no gateway and caches nothing.
    fn literal_ee(state: &ModelState<&NetworkModel>, i: usize) -> f64 {
        let model = state.model();
        let cfg = state.alloc()[i];
        let sfi = cfg.sf.index();
        let h = state.overlap_for(i);
        let per_gw: Vec<(f64, f64)> = (0..model.gateway_count())
            .map(|k| {
                let pdr = pdr_with(
                    model.pdr_form,
                    cfg.tp.milliwatts() * model.attenuation(i, k),
                    model.th_lin[sfi],
                    h,
                    state.interference_on(i, k),
                    model.noise_mw,
                    model.sens_mw[sfi],
                );
                (state.theta(i, k), pdr)
            })
            .collect();
        model.payload_bits() * prr(per_gw) / (model.cycle_energy_of(i, &cfg) * 1_000.0)
    }

    /// Checks every aggregate, per-device term, cached EE and θ of `state`
    /// against `fresh`, a fresh build of the same model and allocation,
    /// bit for bit.
    fn check_equals_fresh_build<M: Borrow<NetworkModel>>(
        state: &ModelState<M>,
        fresh: &ModelState<&NetworkModel>,
        at: &str,
    ) -> Result<(), TestCaseError> {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(state.alloc(), fresh.alloc(), "alloc {}", at);
        prop_assert_eq!(&state.bound.members, &fresh.bound.members, "members {}", at);
        for (name, got, want) in [
            ("alpha_sum", &state.bound.alpha_sum, &fresh.bound.alpha_sum),
            ("power_sum", &state.bound.power_sum, &fresh.bound.power_sum),
            ("lambda", &state.bound.lambda, &fresh.bound.lambda),
            ("q", &state.bound.q, &fresh.bound.q),
            ("power_mw", &state.bound.power_mw, &fresh.bound.power_mw),
            ("energy_j", &state.bound.energy_j, &fresh.bound.energy_j),
            ("ee", &state.bound.ee, &fresh.bound.ee),
            ("group_min", &state.bound.group_min, &fresh.bound.group_min),
        ] {
            prop_assert_eq!(bits(got), bits(want), "{} {}", name, at);
        }
        for i in 0..fresh.alloc().len() {
            for k in 0..fresh.model().gateway_count() {
                prop_assert_eq!(
                    state.theta(i, k).to_bits(),
                    fresh.theta(i, k).to_bits(),
                    "theta({}, {}) {}",
                    i,
                    k,
                    at
                );
            }
        }
        Ok(())
    }

    /// A site drawn uniformly from the disc of radius `radius_m`.
    fn random_site(rng: &mut ChaCha12Rng, radius_m: f64) -> DeviceSite {
        let r = radius_m * rng.gen::<f64>().sqrt();
        let angle = rng.gen_range(0.0..std::f64::consts::TAU);
        DeviceSite {
            position: Position::new(r * angle.cos(), r * angle.sin()),
            environment: if rng.gen::<bool>() {
                LinkEnvironment::LineOfSight
            } else {
                LinkEnvironment::NonLineOfSight
            },
        }
    }

    /// Checks the cached EE of each of `devices` against [`literal_ee`],
    /// bit for bit.
    fn check_ee_is_literal(
        state: &ModelState<&NetworkModel>,
        devices: impl IntoIterator<Item = usize>,
        at: &str,
    ) -> Result<(), TestCaseError> {
        for j in devices {
            prop_assert_eq!(
                state.ee(j).to_bits(),
                literal_ee(state, j).to_bits(),
                "cached EE of device {} {}",
                j,
                at
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn scan_kernel_matches_the_literal_model(
            devices in 1usize..40,
            gateways in 1usize..=4,
            // Wide discs: a device's far gateways reach Eq. 10 exponents
            // past `NEGLIGIBLE_EXPONENT`, its near ones stay below.
            radius_km in 3u32..=12,
            ambient in any::<bool>(),
            traffic in 0usize..3,
            paper_form in any::<bool>(),
            seed in any::<u64>(),
            steps in 1usize..12,
        ) {
            let mut rng = ChaCha12Rng::seed_from_u64(seed);
            let mut config = SimConfig::default();
            match traffic {
                0 => {}
                1 => {
                    config.per_device_intervals_s =
                        Some((0..devices).map(|_| rng.gen_range(60.0..1_800.0)).collect());
                }
                _ => {
                    config.traffic = Traffic::DutyCycleTarget {
                        duty: rng.gen_range(0.001..0.05),
                    };
                }
            }
            let radius = f64::from(radius_km) * 1_000.0;
            let topo = Topology::disc(devices, gateways, radius, &config, seed);
            let form = if paper_form {
                PdrForm::PaperEq10
            } else {
                PdrForm::JointExponential
            };
            let mut model = NetworkModel::new(&config, &topo).with_pdr_form(form);
            if ambient {
                model = with_random_ambient(model, &mut rng);
            }
            let channels = model.channel_count();
            let alloc = (0..devices).map(|_| random_config(&mut rng, channels)).collect();
            let mut state = model.state(alloc).unwrap();
            check_ee_is_literal(&state, 0..devices, "after state()")?;
            for step in 0..steps {
                // The scanned device's own EE through the per-scan table,
                // on every candidate.
                let device = rng.gen_range(0..devices);
                let scan = state.bound.scan_cache(state.model(), device);
                let mut table = OwnEeBounds::new(&scan);
                for sf in SpreadingFactor::ALL {
                    for tp in TxPowerDbm::eu_levels() {
                        for channel in 0..channels {
                            let cfg = TxConfig::new(sf, tp, channel);
                            let want = state.ee_if(device, cfg).to_bits();
                            let cleared = state.bound.own_ee_clearing(state.model(), &mut table, cfg, |_| true);
                            prop_assert_eq!(
                                cleared.map(|own| own.ee.to_bits()),
                                Some(want),
                                "step {}, device {}, {:?}",
                                step,
                                device,
                                cfg
                            );
                            prop_assert_eq!(state.bound.own_ee(state.model(), &mut table, cfg).ee.to_bits(), want);
                        }
                    }
                }
                if rng.gen_range(0..6) == 0 {
                    state.refresh();
                    check_ee_is_literal(&state, 0..devices, "after refresh()")?;
                    continue;
                }
                let device = rng.gen_range(0..devices);
                let cfg = random_config(&mut rng, channels);
                let g_old = state.bound.group_of(state.model(), &state.bound.alloc[device]);
                state.apply(device, cfg);
                // Only the two touched groups are re-evaluated; the rest
                // keep their EE until the next refresh.
                let touched: Vec<usize> = state.bound.members[g_old]
                    .iter()
                    .chain(&state.bound.members[state.bound.group_of(state.model(), &cfg)])
                    .copied()
                    .collect();
                check_ee_is_literal(&state, touched, &format!("after move {step}"))?;
            }
            state.refresh();
            check_ee_is_literal(&state, 0..devices, "after the final refresh()")?;
        }

        #[test]
        fn own_ee_bound_caps_every_channel(
            devices in 1usize..40,
            gateways in 1usize..=4,
            ambient in any::<bool>(),
            traffic in 0usize..3,
            paper_form in any::<bool>(),
            seed in any::<u64>(),
            steps in 1usize..5,
        ) {
            let mut rng = ChaCha12Rng::seed_from_u64(seed);
            let mut config = SimConfig::default();
            match traffic {
                0 => {}
                // Heterogeneous rates: each device nets its own duty out
                // of its group, so the loads differ per device.
                1 => {
                    config.per_device_intervals_s =
                        Some((0..devices).map(|_| rng.gen_range(60.0..1_800.0)).collect());
                }
                _ => {
                    config.traffic = Traffic::DutyCycleTarget {
                        duty: rng.gen_range(0.001..0.05),
                    };
                }
            }
            let topo = Topology::disc(devices, gateways, 3_000.0, &config, seed);
            let form = if paper_form {
                PdrForm::PaperEq10
            } else {
                PdrForm::JointExponential
            };
            let mut model = NetworkModel::new(&config, &topo).with_pdr_form(form);
            if ambient {
                model = with_random_ambient(model, &mut rng);
            }
            let channels = model.channel_count();
            let alloc = (0..devices).map(|_| random_config(&mut rng, channels)).collect();
            let mut state = model.state(alloc).unwrap();
            // The walk's `apply` calls leave the group sums carrying
            // incremental rounding, as they do mid-pass.
            for step in 0..=steps {
                for device in 0..devices {
                    let scan = state.bound.scan_cache(state.model(), device);
                    for sf in SpreadingFactor::ALL {
                        for tp in TxPowerDbm::eu_levels() {
                            let energy_j = model.cycle_energy_of(device, &TxConfig::new(sf, tp, 0));
                            let bound = state.bound.own_ee_bound(state.model(), &scan, sf, tp.milliwatts(), energy_j);
                            for channel in 0..channels {
                                let cfg = TxConfig::new(sf, tp, channel);
                                let ee = state.ee_if(device, cfg);
                                prop_assert!(
                                    bound >= ee,
                                    "step {}, device {}, {:?}: bound {} < ee_if {}",
                                    step,
                                    device,
                                    cfg,
                                    bound,
                                    ee
                                );
                            }
                        }
                    }
                }
                let device = rng.gen_range(0..devices);
                state.apply(device, random_config(&mut rng, channels));
            }
        }

        #[test]
        fn refresh_equals_a_fresh_build(
            devices in 1usize..40,
            gateways in 1usize..=4,
            ambient in any::<bool>(),
            traffic in 0usize..3,
            // Walks confined to the first `spread` SFs and channels crowd
            // a few groups, whose member lists `apply` leaves out of
            // device order.
            spread in 1usize..=6,
            seed in any::<u64>(),
            steps in 1usize..24,
        ) {
            let mut rng = ChaCha12Rng::seed_from_u64(seed);
            let mut config = SimConfig::default();
            match traffic {
                0 => {}
                1 => {
                    config.per_device_intervals_s =
                        Some((0..devices).map(|_| rng.gen_range(60.0..1_800.0)).collect());
                }
                _ => {
                    config.traffic = Traffic::DutyCycleTarget {
                        duty: rng.gen_range(0.001..0.05),
                    };
                }
            }
            let topo = Topology::disc(devices, gateways, 3_000.0, &config, seed);
            let mut model = NetworkModel::new(&config, &topo);
            if ambient {
                model = with_random_ambient(model, &mut rng);
            }
            let channels = model.channel_count();
            let crowded = |rng: &mut ChaCha12Rng| {
                let cfg = random_config(rng, channels);
                let sf = SpreadingFactor::ALL[rng.gen_range(0..spread)];
                TxConfig::new(sf, cfg.tp, rng.gen_range(0..spread.min(channels)))
            };
            let alloc = (0..devices).map(|_| crowded(&mut rng)).collect();
            let mut state = model.state(alloc).unwrap();
            for step in 0..steps {
                let device = rng.gen_range(0..devices);
                let cfg = crowded(&mut rng);
                state.apply(device, cfg);
                if step + 1 < steps && rng.gen_range(0..4) != 0 {
                    continue;
                }
                state.refresh();
                let fresh = model.state(state.bound.alloc.clone()).unwrap();
                check_equals_fresh_build(&state, &fresh, &format!("at step {step}"))?;
            }
        }

        #[test]
        fn churn_equals_a_fresh_build(
            devices in 1usize..30,
            gateways in 1usize..=4,
            ambient in any::<bool>(),
            traffic in 0usize..3,
            seed in any::<u64>(),
            steps in 1usize..16,
        ) {
            let mut rng = ChaCha12Rng::seed_from_u64(seed);
            let radius = 3_000.0;
            let interval = |rng: &mut ChaCha12Rng| rng.gen_range(60.0..1_800.0);
            let mut config = SimConfig::default();
            match traffic {
                0 => {}
                1 => {
                    config.per_device_intervals_s =
                        Some((0..devices).map(|_| interval(&mut rng)).collect());
                }
                _ => {
                    config.traffic = Traffic::DutyCycleTarget {
                        duty: rng.gen_range(0.001..0.05),
                    };
                }
            }
            let topo = Topology::disc(devices, gateways, radius, &config, seed);
            let (mut sites, gws) = (topo.devices().to_vec(), topo.gateways().to_vec());
            let mut model = NetworkModel::new(&config, &topo);
            if ambient {
                model = with_random_ambient(model, &mut rng);
            }
            let offsets = model.ambient.clone();
            let channels = model.channel_count();
            let tp = TxPowerDbm::new(14.0);
            let alloc = (0..devices).map(|_| random_config(&mut rng, channels)).collect();
            let mut state = model.into_state(alloc).unwrap();
            for step in 0..steps {
                // Moves leave the sums carrying incremental rounding and
                // the EE of untouched groups stale, which the operation's
                // closing refresh must flush.
                for _ in 0..rng.gen_range(0..3) {
                    let device = rng.gen_range(0..sites.len());
                    state.apply(device, random_config(&mut rng, channels));
                }
                let n = sites.len();
                let at = match rng.gen_range(0..3) {
                    0 => {
                        let joining: Vec<DeviceSite> =
                            (0..rng.gen_range(1..=4)).map(|_| random_site(&mut rng, radius)).collect();
                        sites.extend(&joining);
                        if let Some(intervals) = &mut config.per_device_intervals_s {
                            intervals.extend(joining.iter().map(|_| interval(&mut rng)));
                        }
                        state.join_rows(&config, &joining, &gws, radius, tp);
                        for i in n..sites.len() {
                            prop_assert_eq!(state.alloc()[i], state.model().seed_config(i, tp));
                        }
                        format!("after joining {} at step {}", joining.len(), step)
                    }
                    1 => {
                        let mut leaving: Vec<bool> = (0..n).map(|_| rng.gen_range(0..3) == 0).collect();
                        leaving[rng.gen_range(0..n)] = false;
                        retain_rows(&mut sites, &leaving, 1);
                        if let Some(intervals) = &mut config.per_device_intervals_s {
                            retain_rows(intervals, &leaving, 1);
                        }
                        state.retire_rows(&config, &leaving, radius);
                        format!("after retiring {} at step {}", n - sites.len(), step)
                    }
                    _ => {
                        match &mut config.per_device_intervals_s {
                            Some(intervals) => {
                                for slot in intervals.iter_mut() {
                                    if rng.gen::<bool>() {
                                        *slot = interval(&mut rng);
                                    }
                                }
                            }
                            None => config.report_interval_s = interval(&mut rng),
                        }
                        state.refresh_intervals(&config);
                        format!("after refreshing intervals at step {step}")
                    }
                };
                let survivors = Topology::from_sites(sites.clone(), gws.clone(), radius);
                let mut fresh_model = NetworkModel::new(&config, &survivors);
                if let Some(offsets) = &offsets {
                    fresh_model = fresh_model.with_ambient(offsets.clone());
                }
                prop_assert_eq!(state.model(), &fresh_model, "model {}", at);
                let fresh = fresh_model.state(state.alloc().to_vec()).unwrap();
                check_equals_fresh_build(&state, &fresh, &at)?;
            }
            let model = state.into_model();
            prop_assert_eq!(model.device_count(), sites.len());
        }

        #[test]
        fn memoised_theta_equals_the_live_tail(
            devices in 1usize..40,
            gateways in 1usize..=4,
            ambient in any::<bool>(),
            seed in any::<u64>(),
            steps in 1usize..16,
        ) {
            let mut rng = ChaCha12Rng::seed_from_u64(seed);
            let radius = 3_000.0;
            let mut config = SimConfig::default();
            let topo = Topology::disc(devices, gateways, radius, &config, seed);
            let (mut sites, gws) = (topo.devices().to_vec(), topo.gateways().to_vec());
            // One more device, ahead of at least one other, out of every
            // gateway's reach: its q is exactly 0 at every gateway.
            let far = rng.gen_range(0..devices);
            sites.insert(far, DeviceSite {
                position: Position::new(1.0e6, 0.0),
                environment: LinkEnvironment::NonLineOfSight,
            });
            let n = devices + 1;
            let mut model =
                NetworkModel::new(&config, &Topology::from_sites(sites.clone(), gws.clone(), radius));
            if ambient {
                model = with_random_ambient(model, &mut rng);
            }
            let channels = model.channel_count();
            let alloc = (0..n).map(|_| random_config(&mut rng, channels)).collect();
            let mut state = model.into_state(alloc).unwrap();
            prop_assert!((0..gateways).all(|k| state.bound.q[far * gateways + k] == 0.0));
            check_theta_is_live(&state, &mut rng, "after the build")?;

            // A move to another channel at the same SF and TP leaves every
            // q and Λ bit as it was, so the memo serves every read.
            let device = rng.gen_range(0..n);
            let mut cfg = state.alloc()[device];
            cfg.channel = (cfg.channel + 1 + rng.gen_range(0..channels - 1)) % channels;
            state.apply(device, cfg);
            let hits = check_theta_is_live(&state, &mut rng, "after a channel move")?;
            prop_assert_eq!(hits, n * gateways);

            // The far device adds exactly 0 to every Λ, so retiring it
            // keeps every Λ bit, while the rows behind it move onto entries
            // computed for the rows before them: only the q in an entry's
            // argument tells their θ apart.
            let leaving: Vec<bool> = (0..n).map(|i| i == far).collect();
            retain_rows(&mut sites, &leaving, 1);
            let lambda_bits = |state: &ModelState<NetworkModel>| {
                state.bound.lambda.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            };
            let before = lambda_bits(&state);
            state.retire_rows(&config, &leaving, radius);
            prop_assert_eq!(lambda_bits(&state), before);
            check_theta_is_live(&state, &mut rng, "after the far device left")?;

            for step in 0..steps {
                // A few entries read between steps, which the next step
                // may or may not leave at their argument.
                for _ in 0..3 {
                    let _ = state.theta(rng.gen_range(0..sites.len()), rng.gen_range(0..gateways));
                }
                let at = match rng.gen_range(0..10) {
                    0 => {
                        state.refresh();
                        format!("after a refresh at step {step}")
                    }
                    // Walk on from a clone, which keeps every entry the
                    // original held.
                    1 => {
                        let clone = state.clone();
                        for i in 0..sites.len() {
                            for k in 0..gateways {
                                prop_assert!(
                                    !memo_holds(&state, i, k) || memo_holds(&clone, i, k),
                                    "theta({}, {}) dropped by a clone at step {}",
                                    i,
                                    k,
                                    step
                                );
                            }
                        }
                        state = clone;
                        format!("after a clone at step {step}")
                    }
                    2 => {
                        let joining: Vec<DeviceSite> =
                            (0..rng.gen_range(1..=4)).map(|_| random_site(&mut rng, radius)).collect();
                        sites.extend(&joining);
                        state.join_rows(&config, &joining, &gws, radius, TxPowerDbm::new(14.0));
                        format!("after joining {} at step {}", joining.len(), step)
                    }
                    // Leaving moves later devices' rows onto entries
                    // computed for others.
                    3 if sites.len() > 1 => {
                        let n = sites.len();
                        let mut leaving: Vec<bool> = (0..n).map(|_| rng.gen_range(0..3) == 0).collect();
                        leaving[rng.gen_range(0..n)] = false;
                        retain_rows(&mut sites, &leaving, 1);
                        state.retire_rows(&config, &leaving, radius);
                        format!("after retiring {} at step {}", n - sites.len(), step)
                    }
                    4 => {
                        config.report_interval_s = rng.gen_range(60.0..1_800.0);
                        state.refresh_intervals(&config);
                        format!("after refreshing intervals at step {step}")
                    }
                    _ => {
                        let device = rng.gen_range(0..sites.len());
                        let cfg = random_config(&mut rng, channels);
                        let g_old = state.bound.group_of(state.model(), &state.bound.alloc[device]);
                        state.apply(device, cfg);
                        // The move's EE refresh read θ at the live
                        // arguments, not at the ones the move replaced.
                        let g_new = state.bound.group_of(state.model(), &cfg);
                        for &j in state.bound.members[g_old].iter().chain(&state.bound.members[g_new]) {
                            prop_assert_eq!(
                                state.ee(j).to_bits(),
                                state.bound.current_ee(state.model(), j).to_bits(),
                                "cached EE of device {} after moving {}",
                                j,
                                device
                            );
                        }
                        format!("after moving {device} at step {step}")
                    }
                };
                check_theta_is_live(&state.clone(), &mut rng, &at)?;
                check_theta_is_live(&state, &mut rng, &at)?;
            }
        }
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
