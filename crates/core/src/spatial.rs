//! Cell-sharded EF-LoRa for million-device deployments.
//!
//! The dense allocator holds one [`lora_model::ModelState`] over the
//! whole population; its per-pass cost grows with population × candidate
//! grid × group size and its memory with population × gateways. Past a
//! few tens of thousands of devices that stops fitting a laptop. This
//! module shards the problem over the [`lora_spatial::CellGrid`]:
//!
//! 1. **Partition.** Cells are sized by the attenuation horizon clamped
//!    to a target occupancy ([`lora_spatial::horizon`]); attenuation rows
//!    are materialized per cell against each cell's gateway subset
//!    ([`lora_spatial::TiledAttenuation`]), so memory scales with
//!    occupancy, not population².
//! 2. **Solve.** Every occupied cell becomes a self-contained EF-LoRa
//!    problem: a local [`NetworkModel`] over the cell's devices carrying
//!    an [`Ambient`] — the *exact* interference/contention/occupancy
//!    sums of the frozen one-ring neighbours plus the far field priced
//!    by the paper's Eq. 17–20 machinery in truncated form
//!    ([`lora_spatial::FarFieldPricer`]). The unmodified [`EfLora`] scan
//!    then runs per cell, fanned out over `lora-parallel` workers with
//!    per-cell pre-derived ordering seeds.
//! 3. **Stitch.** With every cell solved, the ring sums are recomputed
//!    from the merged allocation and the devices near each cell border —
//!    the ones whose phase-2 decisions used the stalest ring information
//!    — are repaired in place by
//!    [`IncrementalAllocator::repair_in_state`] against the refreshed
//!    ambient. The stitched merge is kept only when it does not degrade
//!    the exact localized `(min, mean)` EE of the solved merge.
//! 4. **Tail repair.** Parallel per-cell solves are simultaneous best
//!    responses against a frozen field; when that snapshot shows one SF
//!    lightly loaded, every cell migrates devices there at once and the
//!    merged contention collapses the EE of an unlucky tail. Bounded
//!    rounds of *sequential* single-device repairs over the globally
//!    worst devices — each against a freshly re-priced exact ambient —
//!    lift that tail; sequential moves cannot herd, and a `(min, mean)`
//!    guard per round keeps the phase monotone.
//!
//! Below [`SpatialEfLora::with_dense_threshold`] the whole pipeline
//! short-circuits to the dense [`EfLora`] — byte-identical results, as
//! pinned by the `spatial_equiv` property tests.

use lora_model::contention::{group_count, group_index};
use lora_model::{Ambient, NetworkModel};
use lora_phy::toa::ToaParams;
use lora_phy::{dbm_to_mw, Bandwidth, SpreadingFactor, TxConfig, TxPowerDbm};
use lora_sim::{AttenuationMatrix, DeviceSite, SimConfig, Topology};
use lora_spatial::{
    attenuation_horizon_m, cell_size_m, CellGrid, FarFieldPricer, TiledAttenuation,
};

use crate::allocation::Allocation;
use crate::context::AllocationContext;
use crate::error::AllocError;
use crate::greedy::{DeviceOrdering, EfLora};
use crate::incremental::IncrementalAllocator;
use crate::strategy::Strategy;

/// Fraction of the cell edge that counts as the boundary band: devices
/// this close to a cell border are re-scanned in the stitch phase.
const BOUNDARY_BAND_FRAC: f64 = 0.1;

/// Far-field exclusion radius in cell edges: the one-ring is handled
/// exactly, and everything beyond `1.5` edges from the cell centre is
/// outside the ring in at least one axis.
const EXCLUSION_CELLS: f64 = 1.5;

/// Rounds of the tail-repair phase (phase 4).
const TAIL_ROUNDS: usize = 16;

/// Worst devices repaired per tail round. Together with [`TAIL_ROUNDS`]
/// this bounds the sequential work at 512 single-device repairs, each
/// costing one cell-model build — independent of the population.
const TAIL_BATCH: usize = 32;

/// The cell-sharded EF-LoRa allocator.
///
/// Behaves exactly like [`EfLora`] below the dense threshold; above it,
/// allocates per cell with frozen-ring plus far-field ambient pricing,
/// then stitches cell borders. Results at any worker count are
/// identical: every per-cell solve is single-threaded and seeded by its
/// cell index, and the fan-out merge is order-independent.
#[derive(Debug, Clone, PartialEq)]
pub struct SpatialEfLora {
    inner: EfLora,
    threads: usize,
    dense_threshold: usize,
    target_occupancy: usize,
    horizon_epsilon: f64,
    max_cell_gateways: usize,
}

impl Default for SpatialEfLora {
    /// [`EfLora::default`] solver parameters, dense below 1000 devices,
    /// 256 devices per cell, the default attenuation-horizon threshold,
    /// single-threaded fan-out.
    fn default() -> Self {
        SpatialEfLora {
            inner: EfLora::default(),
            threads: 1,
            dense_threshold: 1_000,
            target_occupancy: 256,
            horizon_epsilon: lora_spatial::DEFAULT_HORIZON_EPSILON,
            max_cell_gateways: 16,
        }
    }
}

impl SpatialEfLora {
    /// Creates the allocator with defaults (see [`SpatialEfLora::default`]).
    pub fn new() -> Self {
        SpatialEfLora::default()
    }

    /// Sets the convergence threshold `δ` of the per-cell solver.
    #[must_use]
    pub fn with_delta(mut self, delta: f64) -> Self {
        self.inner = self.inner.with_delta(delta);
        self
    }

    /// Caps the per-cell improvement passes.
    #[must_use]
    pub fn with_max_passes(mut self, passes: usize) -> Self {
        self.inner = self.inner.with_max_passes(passes);
        self
    }

    /// Sets the device visiting order. [`DeviceOrdering::Random`] seeds
    /// are re-derived per cell so no two cells share a permutation
    /// stream.
    #[must_use]
    pub fn with_ordering(mut self, ordering: DeviceOrdering) -> Self {
        self.inner = self.inner.with_ordering(ordering);
        self
    }

    /// Pins every device's transmission power.
    #[must_use]
    pub fn with_fixed_tp(mut self, tp: TxPowerDbm) -> Self {
        self.inner = self.inner.with_fixed_tp(tp);
        self
    }

    /// Sets the cell fan-out worker count (`0` = host parallelism). The
    /// dense fallback path passes this through to [`EfLora::with_threads`].
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = if threads == 0 {
            lora_parallel::available_threads()
        } else {
            threads
        };
        self
    }

    /// Population at or below which the dense [`EfLora`] runs verbatim.
    #[must_use]
    pub fn with_dense_threshold(mut self, devices: usize) -> Self {
        self.dense_threshold = devices;
        self
    }

    /// Target expected devices per cell (clamps the cell edge, see
    /// [`lora_spatial::horizon::cell_size_m`]).
    #[must_use]
    pub fn with_target_occupancy(mut self, devices: usize) -> Self {
        self.target_occupancy = devices.max(1);
        self
    }

    /// Relevance threshold for the attenuation horizon (fraction of the
    /// noise floor, see [`lora_spatial::horizon::attenuation_horizon_m`]).
    #[must_use]
    pub fn with_horizon_epsilon(mut self, epsilon: f64) -> Self {
        self.horizon_epsilon = epsilon;
        self
    }

    /// Caps each cell's exact gateway subset at the `k` nearest within
    /// the horizon (default 16, minimum 1). The interference horizon
    /// reaches tens of kilometres, so in a wide deployment every cell
    /// would otherwise tile — and scan — *every* gateway; serving only
    /// ever comes from the nearest few, and gateways dropped here are
    /// still priced through the far-field ambient. Per-cell cost then
    /// stays O(occupancy × k) however many gateways the deployment has.
    #[must_use]
    pub fn with_max_cell_gateways(mut self, k: usize) -> Self {
        self.max_cell_gateways = k.max(1);
        self
    }

    /// The configured fan-out worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Allocates the deployment and reports scale statistics.
    ///
    /// # Errors
    ///
    /// The usual [`AllocError`] empty-deployment conditions;
    /// [`AllocError::InvalidParameter`] when the sharded path is asked to
    /// allocate under per-device reporting intervals (the cell-local
    /// index spaces cannot honour a global per-device table); any
    /// [`lora_model::ModelError`] from the per-cell model builds.
    pub fn allocate_with_report(
        &self,
        config: &SimConfig,
        topology: &Topology,
    ) -> Result<SpatialReport, AllocError> {
        if topology.device_count() == 0 {
            return Err(AllocError::EmptyDeployment);
        }
        if topology.gateway_count() == 0 {
            return Err(AllocError::NoGateways);
        }
        if topology.device_count() <= self.dense_threshold {
            return self.allocate_dense(config, topology);
        }
        if config.per_device_intervals_s.is_some() {
            return Err(AllocError::InvalidParameter {
                reason: "cell-sharded allocation requires a uniform reporting interval",
            });
        }

        let shards = Shards::build(self, config, topology)?;

        // Phase 1: global seed allocation (nearest-gateway feasible SF at
        // max power, channels striped by global index).
        let mut alloc = shards.initial_allocation();

        // Phase 2: solve every occupied cell against the seed ring.
        let solve = shards.solve_cells(&alloc, &self.inner)?;
        let mut candidates = 0u64;
        for cell_result in &solve {
            candidates += cell_result.candidates;
            for (&id, &cfg) in cell_result.members.iter().zip(&cell_result.alloc) {
                alloc[id as usize] = cfg;
            }
        }

        // Phase 3: stitch cell borders against the solved ring. The
        // stitch prices remote cells through the channel-symmetric
        // mean field, so a move that looks like an improvement to one
        // cell can land on a channel that is globally heavier than the
        // mean field admits. Guard the merge with the exact localized
        // objective: the stitched allocation is kept only when it does
        // not degrade the (min, mean) EE of the solved phase.
        let stitch = shards.stitch_cells(&alloc)?;
        let mut boundary_reconfigured = 0usize;
        let mut stitched = alloc.clone();
        for cell_result in &stitch {
            candidates += cell_result.candidates;
            boundary_reconfigured += cell_result.reconfigured;
            for (&id, &cfg) in cell_result.members.iter().zip(&cell_result.alloc) {
                stitched[id as usize] = cfg;
            }
        }
        let solved_ee = shards.evaluate(&alloc)?;
        let stitched_ee = shards.evaluate(&stitched)?;
        let (solved_min, solved_mean, _) = summarize(&solved_ee);
        let (stitched_min, stitched_mean, _) = summarize(&stitched_ee);
        let mut ee = if (stitched_min, stitched_mean) >= (solved_min, solved_mean) {
            alloc = stitched;
            stitched_ee
        } else {
            boundary_reconfigured = 0;
            solved_ee
        };

        // Phase 4: tail repair. Phases 2–3 are simultaneous best
        // responses against a frozen field, and SFs are *not*
        // exchangeable the way channels are — when the frozen snapshot
        // shows one SF lightly loaded, every cell migrates devices there
        // at once and the true (post-merge) contention on that SF
        // collapses the EE of the unlucky tail. Single-device repairs
        // applied *sequentially* against a re-priced field cannot herd;
        // bounded rounds over the globally-worst devices lift the tail
        // while a (min, mean) guard per round keeps the phase monotone.
        let (tail_reconfigured, tail_candidates) = shards.tail_repair(&mut alloc, &mut ee)?;
        candidates += tail_candidates;
        let (min_ee, mean_ee, jain) = summarize(&ee);
        Ok(SpatialReport {
            allocation: Allocation::new(alloc),
            sharded: true,
            cells: shards.occupied.len(),
            cell_size_m: shards.grid.cell_size_m(),
            horizon_m: shards.horizon_m,
            min_ee,
            mean_ee,
            jain,
            boundary_reconfigured,
            tail_reconfigured,
            candidates_evaluated: candidates,
        })
    }

    /// Evaluates an allocation with the same localized objective the
    /// sharded solver optimizes: per-cell models with ring-exact plus
    /// far-field ambient. Below the dense threshold this is exactly
    /// [`NetworkModel::evaluate`].
    ///
    /// # Errors
    ///
    /// As [`SpatialEfLora::allocate_with_report`], plus
    /// [`lora_model::ModelError::AllocationLengthMismatch`] via the model
    /// when `alloc` does not cover the topology.
    pub fn evaluate_sharded(
        &self,
        config: &SimConfig,
        topology: &Topology,
        alloc: &[TxConfig],
    ) -> Result<Vec<f64>, AllocError> {
        if alloc.len() != topology.device_count() {
            return Err(AllocError::InvalidParameter {
                reason: "allocation must cover the topology exactly",
            });
        }
        if topology.device_count() <= self.dense_threshold {
            let model = NetworkModel::try_new(config, topology)?;
            return Ok(model.evaluate(alloc));
        }
        if config.per_device_intervals_s.is_some() {
            return Err(AllocError::InvalidParameter {
                reason: "cell-sharded evaluation requires a uniform reporting interval",
            });
        }
        let shards = Shards::build(self, config, topology)?;
        shards.evaluate(alloc)
    }

    fn allocate_dense(
        &self,
        config: &SimConfig,
        topology: &Topology,
    ) -> Result<SpatialReport, AllocError> {
        let model = NetworkModel::try_new(config, topology)?;
        let ctx = AllocationContext::new(config, topology, &model);
        let report = self
            .inner
            .clone()
            .with_threads(self.threads)
            .allocate_with_report(&ctx)?;
        let ee = model.evaluate(report.allocation.as_slice());
        let (min_ee, mean_ee, jain) = summarize(&ee);
        Ok(SpatialReport {
            allocation: report.allocation,
            sharded: false,
            cells: 1,
            cell_size_m: f64::INFINITY,
            horizon_m: attenuation_horizon_m(config, self.horizon_epsilon),
            min_ee,
            mean_ee,
            jain,
            boundary_reconfigured: 0,
            tail_reconfigured: 0,
            candidates_evaluated: report.candidates_evaluated,
        })
    }
}

impl Strategy for SpatialEfLora {
    fn name(&self) -> &str {
        "EF-LoRa-spatial"
    }

    fn allocate(&self, ctx: &AllocationContext<'_>) -> Result<Allocation, AllocError> {
        self.allocate_with_report(ctx.config(), ctx.topology())
            .map(|r| r.allocation)
    }
}

/// Outcome of a [`SpatialEfLora`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct SpatialReport {
    /// The allocation, one entry per device.
    pub allocation: Allocation,
    /// Whether the sharded pipeline ran (`false` = dense fallback).
    pub sharded: bool,
    /// Occupied cells solved (1 on the dense path).
    pub cells: usize,
    /// The cell edge, metres (`∞` on the dense path).
    pub cell_size_m: f64,
    /// The attenuation horizon the sizing used, metres.
    pub horizon_m: f64,
    /// Minimum EE under the evaluation objective, bits/mJ.
    pub min_ee: f64,
    /// Mean EE, bits/mJ.
    pub mean_ee: f64,
    /// Jain fairness index of the EE distribution.
    pub jain: f64,
    /// Devices moved by the boundary stitch phase.
    pub boundary_reconfigured: usize,
    /// Devices moved by the tail-repair phase.
    pub tail_reconfigured: usize,
    /// Candidate configurations examined across all phases.
    pub candidates_evaluated: u64,
}

/// One cell's contribution back to the global allocation.
struct CellOutcome {
    members: Vec<u32>,
    alloc: Vec<TxConfig>,
    candidates: u64,
    reconfigured: usize,
}

/// Everything the sharded phases share: the grid, the per-cell gateway
/// subsets and attenuation tiles, the far-field pricer, and the handful
/// of PHY-derived tables the ambient assembly needs.
struct Shards<'a> {
    config: &'a SimConfig,
    topology: &'a Topology,
    grid: CellGrid,
    occupied: Vec<usize>,
    tiles: TiledAttenuation,
    pricer: FarFieldPricer,
    horizon_m: f64,
    r_exclusion_m: f64,
    threads: usize,
    /// Time-on-air per SF, seconds.
    toa_by_sf: [f64; 6],
    /// Sensitivity per SF, mW.
    sens_mw: [f64; 6],
    n_channels: usize,
    n_groups: usize,
    max_tp: TxPowerDbm,
    fixed_tp: Option<TxPowerDbm>,
}

/// How the far field beyond the exclusion radius enters a cell's
/// [`Ambient`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FarFieldMode {
    /// Channel-symmetrised per SF — used while *deciding* (solve and
    /// stitch), so simultaneous per-cell scans share no global channel
    /// ranking to herd on.
    Pricing,
    /// Empirical per-group counts — used when *evaluating* a fixed
    /// allocation, where fidelity matters and no decisions feed back.
    Exact,
}

/// Per-group aggregates of an allocation: device counts and summed
/// transmit power (mW), used for far-field pricing.
struct GroupTally {
    count: Vec<f64>,
    power: Vec<f64>,
}

impl GroupTally {
    /// Tallies `alloc`, whose transmit powers in mW are `power_mw` (see
    /// [`powers_mw`]).
    fn of(alloc: &[TxConfig], power_mw: &[f64], n_groups: usize, n_channels: usize) -> Self {
        let mut count = vec![0.0; n_groups];
        let mut power = vec![0.0; n_groups];
        for (cfg, &p_mw) in alloc.iter().zip(power_mw) {
            let grp = group_index(cfg.sf, cfg.channel, n_channels);
            count[grp] += 1.0;
            power[grp] += p_mw;
        }
        GroupTally { count, power }
    }
}

/// Every device's transmit power in mW under `alloc`, computed once per
/// allocation snapshot so the tallies and every cell's ambient read a
/// power instead of converting it from dBm again.
fn powers_mw(alloc: &[TxConfig]) -> Vec<f64> {
    alloc.iter().map(|cfg| cfg.tp.milliwatts()).collect()
}

impl<'a> Shards<'a> {
    fn build(
        params: &SpatialEfLora,
        config: &'a SimConfig,
        topology: &'a Topology,
    ) -> Result<Self, AllocError> {
        let bw = Bandwidth::Bw125;
        let payload = config.phy_payload_len();
        let mut toa_by_sf = [0.0; 6];
        let mut sens_mw = [0.0; 6];
        for sf in SpreadingFactor::ALL {
            toa_by_sf[sf.index()] = ToaParams::new(sf, bw, config.coding_rate)
                .time_on_air_s(payload)
                .map_err(|e| match e {
                    lora_phy::PhyError::PayloadTooLarge { len, max } => {
                        AllocError::Model(lora_model::ModelError::PayloadTooLarge { len, max })
                    }
                    other => panic!("unexpected time-on-air failure: {other}"),
                })?;
            sens_mw[sf.index()] = dbm_to_mw(sf.sensitivity_dbm(bw, config.noise_figure_db));
        }

        let horizon_m = attenuation_horizon_m(config, params.horizon_epsilon);
        let edge = cell_size_m(
            horizon_m,
            topology.radius_m(),
            topology.device_count(),
            params.target_occupancy,
        );
        let grid = CellGrid::build(topology, edge);
        let occupied = grid.occupied_cells();

        // Per-cell gateway subsets: the gateways within the horizon (plus
        // the cell's half-diagonal, so every member is covered), capped
        // at the `max_cell_gateways` nearest — distance ties broken by
        // gateway id — and always including the nearest so no cell is
        // gatewayless. Gateways beyond the cap stay priced through the
        // far-field ambient.
        let reach = horizon_m + edge * std::f64::consts::FRAC_1_SQRT_2;
        let gateway_sets: Vec<Vec<u32>> = (0..grid.cell_count())
            .map(|cell| {
                if grid.members(cell).is_empty() {
                    return Vec::new();
                }
                let (cx, cy) = grid.cell_center(cell);
                let centre = lora_sim::Position::new(cx, cy);
                let mut ranked: Vec<(f64, u32)> = topology
                    .gateways()
                    .iter()
                    .enumerate()
                    .map(|(g, gw)| (centre.distance_to(gw), g as u32))
                    .collect();
                ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                let mut set: Vec<u32> = ranked
                    .iter()
                    .enumerate()
                    .filter(|&(rank, &(d, _))| {
                        rank == 0 || (d <= reach && rank < params.max_cell_gateways)
                    })
                    .map(|(_, &(_, g))| g)
                    .collect();
                set.sort_unstable();
                set
            })
            .collect();

        let tiles = TiledAttenuation::build(config, topology, &grid, &gateway_sets, params.threads);
        let r_exclusion_m = EXCLUSION_CELLS * edge;
        let r_max = (2.0 * topology.radius_m()).max(2.0 * r_exclusion_m);
        let pricer = FarFieldPricer::new(config, r_max);

        let tp_levels = config.region.tx_power_levels();
        Ok(Shards {
            config,
            topology,
            grid,
            occupied,
            tiles,
            pricer,
            horizon_m,
            r_exclusion_m,
            threads: params.threads,
            toa_by_sf,
            sens_mw,
            n_channels: config.region.uplink_channel_count(),
            n_groups: group_count(config.region.uplink_channel_count()),
            max_tp: *tp_levels.last().expect("regions define at least one TP"),
            fixed_tp: params.inner.fixed_tp(),
        })
    }

    /// Duty cycle at `sf` under the (uniform) reporting interval.
    fn duty(&self, sf: SpreadingFactor) -> f64 {
        match self.config.traffic {
            lora_sim::Traffic::Periodic => {
                self.toa_by_sf[sf.index()] / self.config.report_interval_s
            }
            lora_sim::Traffic::DutyCycleTarget { duty } => duty,
        }
    }

    /// The global seed allocation: smallest feasible SF against the
    /// nearest gateway at maximum power (the dense initial allocation
    /// computes the same SF — the nearest gateway maximises attenuation
    /// because a device's path-loss exponent is gateway-independent),
    /// channels striped by global index.
    fn initial_allocation(&self) -> Vec<TxConfig> {
        let tp = self.fixed_tp.unwrap_or(self.max_tp);
        let max_p_mw = self.max_tp.milliwatts();
        let gateways = self.topology.gateways();
        lora_parallel::par_map_indexed(self.topology.device_count(), self.threads, |i| {
            let site = &self.topology.devices()[i];
            let d_min = gateways
                .iter()
                .map(|gw| site.position.distance_to(gw))
                .fold(f64::INFINITY, f64::min);
            let beta = self.config.betas.beta(site.environment);
            let best_atten = self.config.path_loss.attenuation(d_min, beta);
            let sf = SpreadingFactor::ALL
                .into_iter()
                .find(|sf| max_p_mw * best_atten >= self.sens_mw[sf.index()])
                .unwrap_or(SpreadingFactor::Sf12);
            TxConfig::new(sf, tp, i % self.n_channels)
        })
    }

    /// The [`Ambient`] of `cell` under `alloc` (transmit powers
    /// `power_mw`): exact ring sums over the one-ring neighbours plus the
    /// far field priced over the annulus beyond the exclusion radius.
    ///
    /// A ring member's attenuation toward one of `cell`'s gateways is
    /// read from the member's own cell tile, which holds the same bits as
    /// [`lora_sim::attenuation_row`] computes; only a gateway outside the
    /// neighbour's subset is computed here, by the same expression.
    fn ambient_for(
        &self,
        cell: usize,
        alloc: &[TxConfig],
        power_mw: &[f64],
        tally: &GroupTally,
        far_occupancy_kernels: &[f64],
        mode: FarFieldMode,
    ) -> Ambient {
        let gws = self.tiles.gateways(cell);
        let g = gws.len();
        let mut ambient = Ambient::zeros(self.n_groups, g);

        // Exact one-ring contributions.
        let mut near_count = vec![0.0; self.n_groups];
        let mut near_power = vec![0.0; self.n_groups];
        for &member in self.grid.members(cell) {
            let cfg = &alloc[member as usize];
            let grp = group_index(cfg.sf, cfg.channel, self.n_channels);
            near_count[grp] += 1.0;
            near_power[grp] += power_mw[member as usize];
        }
        // For each neighbour cell, the column of each of `cell`'s
        // gateways in the neighbour's tile, if it has one.
        let neighbours: Vec<usize> = self
            .grid
            .neighborhood(cell, 1)
            .into_iter()
            .filter(|&c| c != cell)
            .collect();
        let columns: Vec<Vec<Option<usize>>> = neighbours
            .iter()
            .map(|&c| {
                let theirs = self.tiles.gateways(c);
                gws.iter().map(|gw| theirs.binary_search(gw).ok()).collect()
            })
            .collect();
        for &j in &self.grid.ring_members(cell, 1) {
            let j = j as usize;
            let cfg = &alloc[j];
            let grp = group_index(cfg.sf, cfg.channel, self.n_channels);
            let p_mw = power_mw[j];
            let duty = self.duty(cfg.sf);
            near_count[grp] += 1.0;
            near_power[grp] += p_mw;
            ambient.load[grp] += duty;
            let home = self.grid.cell_of(j);
            let row = self.tiles.row(home, self.grid.slot_of(j));
            let cols = &columns[neighbours
                .iter()
                .position(|&c| c == home)
                .expect("ring members live in neighbour cells")];
            for (k, col) in cols.iter().enumerate() {
                let a = match *col {
                    Some(col) => row[col],
                    None => {
                        let site = &self.topology.devices()[j];
                        let gw = &self.topology.gateways()[gws[k] as usize];
                        self.config.path_loss.attenuation(
                            site.position.distance_to(gw),
                            self.config.betas.beta(site.environment),
                        )
                    }
                };
                let mean_rx = p_mw * a;
                ambient.power[grp * g + k] += mean_rx;
                if mean_rx > 0.0 {
                    ambient.lambda[k] += duty * (-self.sens_mw[cfg.sf.index()] / mean_rx).exp();
                }
            }
        }
        self.price_far_field(
            &mut ambient,
            &near_count,
            &near_power,
            tally,
            far_occupancy_kernels,
            mode,
        );
        ambient
    }

    /// Adds the far field to `ambient`: each group's devices outside the
    /// cell and its ring (the tally less `near_count`/`near_power`) as a
    /// PPP annulus beyond the exclusion radius.
    fn price_far_field(
        &self,
        ambient: &mut Ambient,
        near_count: &[f64],
        near_power: &[f64],
        tally: &GroupTally,
        far_occupancy_kernels: &[f64],
        mode: FarFieldMode,
    ) {
        let g = ambient.lambda.len();
        // In `Pricing` mode the far counts are symmetrised across the
        // channels of each SF. Channels are exchangeable in the model
        // (identical duty cycle and sensitivity), so the mean-field
        // expectation of a homogeneous far field carries no per-channel
        // fingerprint — and a fingerprint would be actively harmful:
        // every cell prices the same frozen snapshot, so a group that is
        // globally a few devices light attracts the simultaneous repairs
        // of *every* cell, overloading it by the cell count (the classic
        // herd of parallel best-response against a shared field).
        // Symmetrising removes the shared signal; channel balance is then
        // driven by the ring-exact sums, which genuinely differ per cell.
        // `Exact` mode keeps the empirical per-group counts for faithful
        // evaluation of a fixed allocation.
        let ring_area = self.pricer.ring_area_m2(self.r_exclusion_m);
        let q_i = self.pricer.interference_kernel(self.r_exclusion_m);
        let nc = self.n_channels as f64;
        for sf in SpreadingFactor::ALL {
            let base = sf.index() * self.n_channels;
            let duty = self.duty(sf);
            let (sf_count, sf_power) =
                (base..base + self.n_channels).fold((0.0, 0.0), |acc, grp| {
                    let c = (tally.count[grp] - near_count[grp]).max(0.0);
                    let p = (tally.power[grp] - near_power[grp]).max(0.0);
                    (acc.0 + c, acc.1 + p)
                });
            if sf_count <= 0.0 {
                continue;
            }
            for ch in 0..self.n_channels {
                let grp = base + ch;
                let (far_count, mean_p) = match mode {
                    FarFieldMode::Pricing => (sf_count / nc, sf_power / sf_count),
                    FarFieldMode::Exact => {
                        let c = (tally.count[grp] - near_count[grp]).max(0.0);
                        if c <= 0.0 {
                            continue;
                        }
                        let p = (tally.power[grp] - near_power[grp]).max(0.0);
                        (c, p / c)
                    }
                };
                let lambda_far = far_count / ring_area;
                // Contention counts every same-group device network-wide
                // (the model's overlap term has no distance factor), so
                // far load is the full duty mass, not an annulus integral.
                ambient.load[grp] += duty * far_count;
                let far_interf = lambda_far * mean_p * q_i;
                let far_lambda = lambda_far * duty * far_occupancy_kernels[grp];
                for k in 0..g {
                    ambient.power[grp * g + k] += far_interf;
                    ambient.lambda[k] += far_lambda;
                }
            }
        }
    }

    /// Per-group far-field occupancy kernels `Q_q` (see
    /// [`FarFieldPricer::occupancy_kernel`]), computed once per phase
    /// from the global group mean powers — the kernels depend only on
    /// the exclusion radius, the SF sensitivity and the mean power, not
    /// on the cell. In `Pricing` mode the mean power is per SF (matching
    /// the channel-symmetrised far counts).
    fn occupancy_kernels(&self, tally: &GroupTally, mode: FarFieldMode) -> Vec<f64> {
        let mut kernels = vec![0.0; self.n_groups];
        for sf in SpreadingFactor::ALL {
            let base = sf.index() * self.n_channels;
            match mode {
                FarFieldMode::Pricing => {
                    let (sf_count, sf_power) = (base..base + self.n_channels)
                        .fold((0.0, 0.0), |acc, grp| {
                            (acc.0 + tally.count[grp], acc.1 + tally.power[grp])
                        });
                    if sf_count <= 0.0 {
                        continue;
                    }
                    let q = self.pricer.occupancy_kernel(
                        self.sens_mw[sf.index()],
                        sf_power / sf_count,
                        self.r_exclusion_m,
                    );
                    kernels[base..base + self.n_channels].fill(q);
                }
                FarFieldMode::Exact => {
                    for (grp, kernel) in kernels[base..base + self.n_channels]
                        .iter_mut()
                        .enumerate()
                        .map(|(k, v)| (base + k, v))
                    {
                        if tally.count[grp] <= 0.0 {
                            continue;
                        }
                        *kernel = self.pricer.occupancy_kernel(
                            self.sens_mw[sf.index()],
                            tally.power[grp] / tally.count[grp],
                            self.r_exclusion_m,
                        );
                    }
                }
            }
        }
        kernels
    }

    /// The cell-local model over `cell`'s members and gateway subset,
    /// with its attenuation rows taken from the tile and `ambient`
    /// installed.
    fn cell_model(
        &self,
        cell: usize,
        ambient: Ambient,
    ) -> Result<(Topology, NetworkModel), AllocError> {
        let members = self.grid.members(cell);
        let devices: Vec<DeviceSite> = members
            .iter()
            .map(|&id| self.topology.devices()[id as usize])
            .collect();
        let gateway_ids = self.tiles.gateways(cell);
        let gateways: Vec<lora_sim::Position> = gateway_ids
            .iter()
            .map(|&k| self.topology.gateways()[k as usize])
            .collect();
        let local_topo = Topology::from_sites(devices, gateways, self.topology.radius_m());
        let matrix =
            AttenuationMatrix::from_raw(gateway_ids.len(), self.tiles.block(cell).to_vec());
        let model = NetworkModel::try_new_with_attenuation(self.config, &local_topo, matrix)?
            .with_ambient(ambient);
        Ok((local_topo, model))
    }

    /// Phase 2: solve every occupied cell independently.
    fn solve_cells(
        &self,
        alloc: &[TxConfig],
        inner: &EfLora,
    ) -> Result<Vec<CellOutcome>, AllocError> {
        let power_mw = powers_mw(alloc);
        let tally = GroupTally::of(alloc, &power_mw, self.n_groups, self.n_channels);
        let kernels = self.occupancy_kernels(&tally, FarFieldMode::Pricing);
        let results = lora_parallel::par_map_indexed(self.occupied.len(), self.threads, |idx| {
            let cell = self.occupied[idx];
            let ambient = self.ambient_for(
                cell,
                alloc,
                &power_mw,
                &tally,
                &kernels,
                FarFieldMode::Pricing,
            );
            let (local_topo, model) = self.cell_model(cell, ambient)?;
            let ctx = AllocationContext::new(self.config, &local_topo, &model);
            let solver = inner
                .clone()
                .with_threads(1)
                .with_ordering(cell_ordering(inner.ordering(), cell));
            let report = solver.allocate_with_report(&ctx)?;
            Ok(CellOutcome {
                members: self.grid.members(cell).to_vec(),
                alloc: report.allocation.as_slice().to_vec(),
                candidates: report.candidates_evaluated,
                reconfigured: 0,
            })
        });
        results.into_iter().collect()
    }

    /// Phase 3: repair each cell's boundary band against the solved
    /// ring.
    fn stitch_cells(&self, alloc: &[TxConfig]) -> Result<Vec<CellOutcome>, AllocError> {
        let power_mw = powers_mw(alloc);
        let tally = GroupTally::of(alloc, &power_mw, self.n_groups, self.n_channels);
        let kernels = self.occupancy_kernels(&tally, FarFieldMode::Pricing);
        let repairer = IncrementalAllocator::new();
        let results = lora_parallel::par_map_indexed(self.occupied.len(), self.threads, |idx| {
            let cell = self.occupied[idx];
            let members = self.grid.members(cell);
            let boundary = self.boundary_members(cell);
            if boundary.is_empty() {
                return Ok(CellOutcome {
                    members: Vec::new(),
                    alloc: Vec::new(),
                    candidates: 0,
                    reconfigured: 0,
                });
            }
            let ambient = self.ambient_for(
                cell,
                alloc,
                &power_mw,
                &tally,
                &kernels,
                FarFieldMode::Pricing,
            );
            let (local_topo, model) = self.cell_model(cell, ambient)?;
            let ctx = AllocationContext::new(self.config, &local_topo, &model);
            let local_alloc: Vec<TxConfig> = members.iter().map(|&id| alloc[id as usize]).collect();
            let mut state = model.state(local_alloc)?;
            let outcome = repairer.repair_in_state(&ctx, &mut state, &boundary)?;
            Ok(CellOutcome {
                members: members.to_vec(),
                alloc: outcome.allocation.as_slice().to_vec(),
                candidates: outcome.candidates_evaluated,
                reconfigured: outcome.reconfigured,
            })
        });
        results.into_iter().collect()
    }

    /// Local indices of `cell`'s members within the boundary band of the
    /// cell edge.
    fn boundary_members(&self, cell: usize) -> Vec<usize> {
        let (cx, cy) = self.grid.cell_center(cell);
        let half = self.grid.cell_size_m() / 2.0;
        let band = self.grid.cell_size_m() * BOUNDARY_BAND_FRAC;
        self.grid
            .members(cell)
            .iter()
            .enumerate()
            .filter(|(_, &id)| {
                let p = self.topology.devices()[id as usize].position;
                let edge_dist = half - (p.x - cx).abs().max((p.y - cy).abs());
                edge_dist <= band
            })
            .map(|(local, _)| local)
            .collect()
    }

    /// Phase 4: bounded sequential repair of the global EE tail.
    ///
    /// Each round takes the [`TAIL_BATCH`] globally-worst devices under
    /// the exact localized objective and repairs them one at a time
    /// against an [`FarFieldMode::Exact`] ambient — the ring-exact sums
    /// see every earlier move of the round through `trial`, and because
    /// the moves are sequential there is no frozen shared field to herd
    /// against. A round is accepted only when it improves the
    /// lexicographic `(min, mean)` EE; the phase stops at the first
    /// round that makes no move or no improvement, or after
    /// [`TAIL_ROUNDS`] rounds. Returns `(devices moved, candidates
    /// examined)` and leaves `alloc`/`ee` at the best accepted state.
    fn tail_repair(
        &self,
        alloc: &mut [TxConfig],
        ee: &mut Vec<f64>,
    ) -> Result<(usize, u64), AllocError> {
        let repairer = IncrementalAllocator::new();
        let mut reconfigured = 0usize;
        let mut candidates = 0u64;
        let (mut best_min, mut best_mean, _) = summarize(ee);
        // Tracks `trial` through every move; a round starts from the
        // accepted allocation, which is the previous round's trial.
        let mut power_mw = powers_mw(alloc);
        for _ in 0..TAIL_ROUNDS {
            let mut order: Vec<usize> = (0..alloc.len()).collect();
            order.sort_by(|&a, &b| ee[a].total_cmp(&ee[b]).then(a.cmp(&b)));
            order.truncate(TAIL_BATCH);

            let mut trial = alloc.to_vec();
            let tally = GroupTally::of(&trial, &power_mw, self.n_groups, self.n_channels);
            let kernels = self.occupancy_kernels(&tally, FarFieldMode::Exact);
            let mut moved = 0usize;
            for dev in order {
                let cell = self.grid.cell_of(dev);
                let ambient = self.ambient_for(
                    cell,
                    &trial,
                    &power_mw,
                    &tally,
                    &kernels,
                    FarFieldMode::Exact,
                );
                let (local_topo, model) = self.cell_model(cell, ambient)?;
                let ctx = AllocationContext::new(self.config, &local_topo, &model);
                let members = self.grid.members(cell);
                let local_alloc: Vec<TxConfig> =
                    members.iter().map(|&id| trial[id as usize]).collect();
                let mut state = model.state(local_alloc)?;
                let outcome =
                    repairer.repair_in_state(&ctx, &mut state, &[self.grid.slot_of(dev)])?;
                candidates += outcome.candidates_evaluated;
                if outcome.reconfigured > 0 {
                    moved += outcome.reconfigured;
                    for (&id, &cfg) in members.iter().zip(outcome.allocation.as_slice()) {
                        let id = id as usize;
                        if trial[id] != cfg {
                            power_mw[id] = cfg.tp.milliwatts();
                        }
                        trial[id] = cfg;
                    }
                }
            }
            if moved == 0 {
                break;
            }
            let trial_ee = self.evaluate(&trial)?;
            let (min, mean, _) = summarize(&trial_ee);
            if (min, mean) > (best_min, best_mean) {
                alloc.copy_from_slice(&trial);
                *ee = trial_ee;
                best_min = min;
                best_mean = mean;
                reconfigured += moved;
            } else {
                break;
            }
        }
        Ok((reconfigured, candidates))
    }

    /// Sharded evaluation: per-cell models with ambient derived from
    /// `alloc`, EE values mapped back to global device order.
    fn evaluate(&self, alloc: &[TxConfig]) -> Result<Vec<f64>, AllocError> {
        let power_mw = powers_mw(alloc);
        let tally = GroupTally::of(alloc, &power_mw, self.n_groups, self.n_channels);
        let kernels = self.occupancy_kernels(&tally, FarFieldMode::Exact);
        let per_cell = lora_parallel::par_map_indexed(self.occupied.len(), self.threads, |idx| {
            let cell = self.occupied[idx];
            let ambient = self.ambient_for(
                cell,
                alloc,
                &power_mw,
                &tally,
                &kernels,
                FarFieldMode::Exact,
            );
            let (_, model) = self.cell_model(cell, ambient)?;
            let local_alloc: Vec<TxConfig> = self
                .grid
                .members(cell)
                .iter()
                .map(|&id| alloc[id as usize])
                .collect();
            let state = model.state(local_alloc)?;
            Ok::<Vec<f64>, AllocError>(state.ee_all().to_vec())
        });
        let mut ee = vec![0.0; alloc.len()];
        for (idx, cell_ee) in per_cell.into_iter().enumerate() {
            let cell_ee = cell_ee?;
            for (&id, value) in self.grid.members(self.occupied[idx]).iter().zip(cell_ee) {
                ee[id as usize] = value;
            }
        }
        Ok(ee)
    }
}

/// Derives a cell-specific ordering: random seeds are split per cell so
/// no two cells replay the same permutation stream; the deterministic
/// orders pass through unchanged.
fn cell_ordering(ordering: DeviceOrdering, cell: usize) -> DeviceOrdering {
    match ordering {
        DeviceOrdering::Random { seed } => DeviceOrdering::Random {
            seed: seed ^ (cell as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        },
        other => other,
    }
}

fn summarize(ee: &[f64]) -> (f64, f64, f64) {
    let n = ee.len() as f64;
    let min = ee.iter().copied().fold(f64::INFINITY, f64::min);
    let sum: f64 = ee.iter().sum();
    let sum_sq: f64 = ee.iter().map(|x| x * x).sum();
    let jain = if sum_sq > 0.0 {
        sum * sum / (n * sum_sq)
    } else {
        0.0
    };
    (min, sum / n, jain)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fairness;
    use proptest::prelude::{any, proptest, ProptestConfig, Strategy as _};

    /// The ring sums as they were computed before the tiles were read:
    /// every ring member's attenuation and transmit power recomputed from
    /// its site and configuration. The oracle for [`Shards::ambient_for`].
    fn recomputed_ambient(
        shards: &Shards<'_>,
        cell: usize,
        alloc: &[TxConfig],
        tally: &GroupTally,
        far_occupancy_kernels: &[f64],
        mode: FarFieldMode,
    ) -> Ambient {
        let gws = shards.tiles.gateways(cell);
        let g = gws.len();
        let mut ambient = Ambient::zeros(shards.n_groups, g);
        let gateway_pos: Vec<lora_sim::Position> = gws
            .iter()
            .map(|&k| shards.topology.gateways()[k as usize])
            .collect();
        let mut near_count = vec![0.0; shards.n_groups];
        let mut near_power = vec![0.0; shards.n_groups];
        for &member in shards.grid.members(cell) {
            let cfg = &alloc[member as usize];
            let grp = group_index(cfg.sf, cfg.channel, shards.n_channels);
            near_count[grp] += 1.0;
            near_power[grp] += cfg.tp.milliwatts();
        }
        for &j in &shards.grid.ring_members(cell, 1) {
            let cfg = &alloc[j as usize];
            let grp = group_index(cfg.sf, cfg.channel, shards.n_channels);
            let p_mw = cfg.tp.milliwatts();
            let duty = shards.duty(cfg.sf);
            near_count[grp] += 1.0;
            near_power[grp] += p_mw;
            ambient.load[grp] += duty;
            let site = &shards.topology.devices()[j as usize];
            let beta = shards.config.betas.beta(site.environment);
            for (k, gw) in gateway_pos.iter().enumerate() {
                let a = shards
                    .config
                    .path_loss
                    .attenuation(site.position.distance_to(gw), beta);
                let mean_rx = p_mw * a;
                ambient.power[grp * g + k] += mean_rx;
                if mean_rx > 0.0 {
                    ambient.lambda[k] += duty * (-shards.sens_mw[cfg.sf.index()] / mean_rx).exp();
                }
            }
        }
        shards.price_far_field(
            &mut ambient,
            &near_count,
            &near_power,
            tally,
            far_occupancy_kernels,
            mode,
        );
        ambient
    }

    /// A deterministic allocation over every SF, TP level and channel.
    fn scrambled_allocation(config: &SimConfig, n: usize, seed: u64) -> Vec<TxConfig> {
        let levels = config.region.tx_power_levels();
        let channels = config.region.uplink_channel_count() as u64;
        (0..n as u64)
            .map(|i| {
                let mut h = (seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    .wrapping_mul(0xBF58_476D_1CE4_E5B9);
                h ^= h >> 31;
                let sf = SpreadingFactor::ALL[(h % 6) as usize];
                let tp = levels[((h >> 8) % levels.len() as u64) as usize];
                TxConfig::new(sf, tp, ((h >> 16) % channels) as usize)
            })
            .collect()
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|x| x.to_bits()).collect()
    }

    /// Ring member × gateway pairs of `cell` whose gateway is outside the
    /// member's own cell subset, i.e. that the tiles cannot answer.
    fn fallback_pairs(shards: &Shards<'_>, cell: usize) -> usize {
        let gws = shards.tiles.gateways(cell);
        shards
            .grid
            .ring_members(cell, 1)
            .iter()
            .map(|&j| {
                let theirs = shards.tiles.gateways(shards.grid.cell_of(j as usize));
                gws.iter()
                    .filter(|gw| theirs.binary_search(gw).is_err())
                    .count()
            })
            .sum()
    }

    /// Asserts that every occupied cell's ambient is bit-equal to the
    /// recomputing reference in both far-field modes; returns the
    /// fallback pairs the deployment takes.
    fn assert_ambient_matches_reference(
        planner: &SpatialEfLora,
        config: &SimConfig,
        topo: &Topology,
        alloc_seed: u64,
    ) -> usize {
        let shards = Shards::build(planner, config, topo).unwrap();
        let alloc = scrambled_allocation(config, topo.device_count(), alloc_seed);
        let power_mw = powers_mw(&alloc);
        let tally = GroupTally::of(&alloc, &power_mw, shards.n_groups, shards.n_channels);
        for mode in [FarFieldMode::Pricing, FarFieldMode::Exact] {
            let kernels = shards.occupancy_kernels(&tally, mode);
            for &cell in &shards.occupied {
                let got = shards.ambient_for(cell, &alloc, &power_mw, &tally, &kernels, mode);
                let want = recomputed_ambient(&shards, cell, &alloc, &tally, &kernels, mode);
                assert_eq!(
                    bits(&got.power),
                    bits(&want.power),
                    "power, cell {cell} {mode:?}"
                );
                assert_eq!(
                    bits(&got.load),
                    bits(&want.load),
                    "load, cell {cell} {mode:?}"
                );
                assert_eq!(
                    bits(&got.lambda),
                    bits(&want.lambda),
                    "lambda, cell {cell} {mode:?}"
                );
            }
        }
        shards
            .occupied
            .iter()
            .map(|&cell| fallback_pairs(&shards, cell))
            .sum()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ambient_is_bit_equal_to_the_recomputing_reference(
            (gateways, cap) in (2usize..=6, any::<u64>())
                .prop_map(|(gw, draw)| (gw, 1 + (draw % gw as u64) as usize)),
            n in 100usize..=600,
            occupancy in 10usize..40,
            radius in 3_000.0f64..9_000.0,
            seed in any::<u64>(),
            alloc_seed in any::<u64>(),
        ) {
            let config = SimConfig::default();
            let topo = Topology::disc(n, gateways, radius, &config, seed);
            let planner = SpatialEfLora::default()
                .with_target_occupancy(occupancy)
                .with_max_cell_gateways(cap);
            assert_ambient_matches_reference(&planner, &config, &topo, alloc_seed);
        }
    }

    #[test]
    fn reference_deployment_takes_the_fallback() {
        // Neighbouring cells keep different nearest gateways, so ring
        // members also meet gateways outside their own cell's tile.
        let config = SimConfig::default();
        let topo = Topology::disc(400, 5, 6_000.0, &config, 4);
        let planner = SpatialEfLora::default()
            .with_target_occupancy(20)
            .with_max_cell_gateways(2);
        let fallbacks = assert_ambient_matches_reference(&planner, &config, &topo, 9);
        assert!(fallbacks > 0, "no ring pair needed the fallback");
    }

    #[test]
    fn below_threshold_delegates_to_dense() {
        let config = SimConfig::default();
        let topo = Topology::disc(40, 2, 3_000.0, &config, 9);
        let model = NetworkModel::new(&config, &topo);
        let ctx = AllocationContext::new(&config, &topo, &model);
        let dense = EfLora::default().allocate(&ctx).unwrap();
        let spatial = SpatialEfLora::default()
            .allocate_with_report(&config, &topo)
            .unwrap();
        assert!(!spatial.sharded);
        assert_eq!(spatial.allocation.as_slice(), dense.as_slice());
    }

    #[test]
    fn sharded_path_allocates_everyone_and_stays_sane() {
        let config = SimConfig::default();
        let topo = Topology::disc(300, 2, 4_000.0, &config, 3);
        let spatial = SpatialEfLora::default()
            .with_dense_threshold(50)
            .with_target_occupancy(40)
            .with_threads(2)
            .allocate_with_report(&config, &topo)
            .unwrap();
        assert!(spatial.sharded);
        assert!(spatial.cells > 1);
        assert_eq!(spatial.allocation.len(), 300);
        assert!(spatial.min_ee.is_finite() && spatial.min_ee > 0.0);
        assert!((0.0..=1.0).contains(&spatial.jain));

        // The sharded result must hold up under the *dense* objective
        // too: no worse than the naive seed by a wide margin.
        let model = NetworkModel::new(&config, &topo);
        let dense_ee = model.evaluate(spatial.allocation.as_slice());
        let ctx = AllocationContext::new(&config, &topo, &model);
        let dense = EfLora::default().allocate(&ctx).unwrap();
        let dense_min = fairness::min_ee(&model.evaluate(dense.as_slice()));
        assert!(
            fairness::min_ee(&dense_ee) >= 0.5 * dense_min,
            "sharded {} too far below dense {}",
            fairness::min_ee(&dense_ee),
            dense_min
        );
    }

    #[test]
    fn worker_count_does_not_change_the_sharded_result() {
        let config = SimConfig::default();
        let topo = Topology::disc(250, 2, 4_000.0, &config, 17);
        let base = SpatialEfLora::default()
            .with_dense_threshold(50)
            .with_target_occupancy(40);
        let one = base
            .clone()
            .with_threads(1)
            .allocate_with_report(&config, &topo)
            .unwrap();
        for threads in [3, 4] {
            let many = base
                .clone()
                .with_threads(threads)
                .allocate_with_report(&config, &topo)
                .unwrap();
            assert_eq!(one.allocation, many.allocation, "{threads} workers");
            assert_eq!(one.min_ee.to_bits(), many.min_ee.to_bits());
        }
    }

    #[test]
    fn heterogeneous_intervals_are_rejected_on_the_sharded_path() {
        let config = SimConfig {
            per_device_intervals_s: Some(vec![60.0; 300]),
            ..SimConfig::default()
        };
        let topo = Topology::disc(300, 1, 3_000.0, &config, 1);
        let err = SpatialEfLora::default()
            .with_dense_threshold(50)
            .allocate_with_report(&config, &topo)
            .unwrap_err();
        assert!(matches!(err, AllocError::InvalidParameter { .. }));
    }

    #[test]
    fn empty_deployments_error() {
        let config = SimConfig::default();
        let topo = Topology::disc(0, 1, 1_000.0, &config, 0);
        assert_eq!(
            SpatialEfLora::default()
                .allocate_with_report(&config, &topo)
                .unwrap_err(),
            AllocError::EmptyDeployment
        );
        let no_gw = Topology::disc(10, 0, 1_000.0, &config, 0);
        assert_eq!(
            SpatialEfLora::default()
                .allocate_with_report(&config, &no_gw)
                .unwrap_err(),
            AllocError::NoGateways
        );
    }
}
