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
//!    — are repaired in place by [`IncrementalAllocator::repair`] against
//!    the refreshed ambient. The stitched merge is kept only when it does
//!    not degrade the exact localized `(min, mean)` EE of the solved
//!    merge.
//! 4. **Tail repair.** Parallel per-cell solves are simultaneous best
//!    responses against a frozen field; when that snapshot shows one SF
//!    lightly loaded, every cell migrates devices there at once and the
//!    merged contention collapses the EE of an unlucky tail. Bounded
//!    rounds of *sequential* single-device repairs over the globally
//!    worst devices — each against a freshly re-priced exact ambient —
//!    lift that tail; sequential moves cannot herd, and a `(min, mean)`
//!    guard per round keeps the phase monotone.
//!
//! Every phase reads its cells through one pass: the phase prices its
//! allocation snapshot once (a `Field`: transmit powers, group tally,
//! far-field kernels), and each cell it touches gets its ambient from
//! that snapshot, a model built from its tile and an
//! [`AllocationContext`] handed to the phase's job — a call into a
//! public entry point ([`EfLora::allocate_with_report`],
//! [`IncrementalAllocator::repair`] or [`lora_model::ModelState::ee_all`]).
//! Cell models and states live only inside the pass.
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
    DEFAULT_HORIZON_EPSILON,
};

use crate::allocation::Allocation;
use crate::context::AllocationContext;
use crate::error::AllocError;
use crate::fairness;
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
            max_cell_gateways: 16,
        }
    }
}

impl SpatialEfLora {
    /// Creates the allocator with defaults (see [`SpatialEfLora::default`]).
    pub fn new() -> Self {
        SpatialEfLora::default()
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

    /// Sets the cell fan-out worker count (`0` = host parallelism). Every
    /// cell solve, and the dense fallback, runs on one thread.
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
        let mut candidates = {
            let field = shards.field(&alloc, FarFieldMode::Pricing);
            let solved = shards.each_cell(&shards.occupied, &alloc, &field, |cell, ctx, _| {
                let report = self
                    .inner
                    .clone()
                    .with_ordering(cell_ordering(self.inner.ordering(), cell))
                    .allocate_with_report(ctx)?;
                Ok((report.allocation, report.candidates_evaluated, 0))
            })?;
            shards.scatter(&shards.occupied, solved, &mut alloc).0
        };

        // Phase 3: stitch cell borders against the solved ring. The
        // stitch prices remote cells through the channel-symmetric
        // mean field, so a move that looks like an improvement to one
        // cell can land on a channel that is globally heavier than the
        // mean field admits. Guard the merge with the exact localized
        // objective: the stitched allocation is kept only when it does
        // not degrade the (min, mean) EE of the solved phase.
        let mut stitched = alloc.clone();
        let (stitch_candidates, mut boundary_reconfigured) = {
            let cells: Vec<usize> = shards
                .occupied
                .iter()
                .copied()
                .filter(|&cell| !shards.boundary_members(cell).is_empty())
                .collect();
            let field = shards.field(&alloc, FarFieldMode::Pricing);
            let repairer = IncrementalAllocator::new();
            let repaired = shards.each_cell(&cells, &alloc, &field, |cell, ctx, local| {
                let mut state = ctx.model().state(local)?;
                let outcome = repairer.repair(
                    &mut state,
                    ctx.candidates(),
                    &shards.boundary_members(cell),
                )?;
                Ok((
                    outcome.allocation,
                    outcome.candidates_evaluated,
                    outcome.reconfigured,
                ))
            })?;
            shards.scatter(&cells, repaired, &mut stitched)
        };
        candidates += stitch_candidates;
        let solved_ee = shards.evaluate(&alloc)?;
        let stitched_ee = shards.evaluate(&stitched)?;
        let mut ee = if objective(&stitched_ee) >= objective(&solved_ee) {
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
        Ok(SpatialReport {
            allocation: Allocation::new(alloc),
            sharded: true,
            cells: shards.occupied.len(),
            cell_size_m: shards.grid.cell_size_m(),
            horizon_m: shards.horizon_m,
            min_ee: fairness::min_ee(&ee),
            mean_ee: fairness::mean(&ee),
            jain: fairness::jain_index(&ee),
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
        let report = self.inner.allocate_with_report(&ctx)?;
        let ee = model.evaluate(report.allocation.as_slice());
        Ok(SpatialReport {
            allocation: report.allocation,
            sharded: false,
            cells: 1,
            cell_size_m: f64::INFINITY,
            horizon_m: attenuation_horizon_m(config, DEFAULT_HORIZON_EPSILON),
            min_ee: fairness::min_ee(&ee),
            mean_ee: fairness::mean(&ee),
            jain: fairness::jain_index(&ee),
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

/// Everything the sharded phases share: the grid, the per-cell gateway
/// subsets and attenuation tiles, the far-field pricer of the annulus
/// beyond the exclusion radius with its interference kernel, and the
/// handful of PHY-derived tables the ambient assembly needs.
struct Shards<'a> {
    config: &'a SimConfig,
    topology: &'a Topology,
    grid: CellGrid,
    occupied: Vec<usize>,
    tiles: TiledAttenuation,
    pricer: FarFieldPricer,
    /// [`FarFieldPricer::interference_kernel`] of the planner's annulus:
    /// it depends on no allocation, so every cell pass reads this one.
    interference_kernel: f64,
    horizon_m: f64,
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

/// One phase's pricing of an allocation snapshot, shared by every cell
/// the phase touches: each device's transmit power in mW (so the tally
/// and every cell's ambient read a power instead of converting it from
/// dBm again), the per-group tally and the far-field occupancy kernels.
struct Field {
    power_mw: Vec<f64>,
    tally: GroupTally,
    kernels: Vec<f64>,
    mode: FarFieldMode,
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

        let horizon_m = attenuation_horizon_m(config, DEFAULT_HORIZON_EPSILON);
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
        let pricer = FarFieldPricer::new(config, r_exclusion_m, r_max);
        let interference_kernel = pricer.interference_kernel();

        let tp_levels = config.region.tx_power_levels();
        Ok(Shards {
            config,
            topology,
            grid,
            occupied,
            tiles,
            pricer,
            interference_kernel,
            horizon_m,
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

    /// Prices the snapshot `alloc` for one phase (see [`Field`]).
    fn field(&self, alloc: &[TxConfig], mode: FarFieldMode) -> Field {
        let power_mw: Vec<f64> = alloc.iter().map(|cfg| cfg.tp.milliwatts()).collect();
        let mut tally = GroupTally {
            count: vec![0.0; self.n_groups],
            power: vec![0.0; self.n_groups],
        };
        for (cfg, &p_mw) in alloc.iter().zip(&power_mw) {
            let grp = group_index(cfg.sf, cfg.channel, self.n_channels);
            tally.count[grp] += 1.0;
            tally.power[grp] += p_mw;
        }
        let kernels = self.occupancy_kernels(&tally, mode);
        Field {
            power_mw,
            tally,
            kernels,
            mode,
        }
    }

    /// The [`Ambient`] of `cell` under `alloc`, priced by `field`: exact
    /// ring sums over the one-ring neighbours plus the far field priced
    /// over the annulus beyond the exclusion radius.
    ///
    /// A ring member's attenuation toward one of `cell`'s gateways is
    /// read from the member's own cell tile, which holds the same bits as
    /// [`lora_sim::attenuation_row`] computes; only a gateway outside the
    /// neighbour's subset is computed here, by the same expression.
    fn ambient_for(&self, cell: usize, alloc: &[TxConfig], field: &Field) -> Ambient {
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
            near_power[grp] += field.power_mw[member as usize];
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
            let p_mw = field.power_mw[j];
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
        self.price_far_field(&mut ambient, &near_count, &near_power, field);
        ambient
    }

    /// Adds the far field to `ambient`: each group's devices outside the
    /// cell and its ring (the field's tally less `near_count`/`near_power`)
    /// as a PPP annulus beyond the exclusion radius.
    fn price_far_field(
        &self,
        ambient: &mut Ambient,
        near_count: &[f64],
        near_power: &[f64],
        field: &Field,
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
        let ring_area = self.pricer.ring_area_m2();
        let q_i = self.interference_kernel;
        let nc = self.n_channels as f64;
        for sf in SpreadingFactor::ALL {
            let base = sf.index() * self.n_channels;
            let duty = self.duty(sf);
            let (sf_count, sf_power) =
                (base..base + self.n_channels).fold((0.0, 0.0), |acc, grp| {
                    let c = (field.tally.count[grp] - near_count[grp]).max(0.0);
                    let p = (field.tally.power[grp] - near_power[grp]).max(0.0);
                    (acc.0 + c, acc.1 + p)
                });
            if sf_count <= 0.0 {
                continue;
            }
            for ch in 0..self.n_channels {
                let grp = base + ch;
                let (far_count, mean_p) = match field.mode {
                    FarFieldMode::Pricing => (sf_count / nc, sf_power / sf_count),
                    FarFieldMode::Exact => {
                        let c = (field.tally.count[grp] - near_count[grp]).max(0.0);
                        if c <= 0.0 {
                            continue;
                        }
                        let p = (field.tally.power[grp] - near_power[grp]).max(0.0);
                        (c, p / c)
                    }
                };
                let lambda_far = far_count / ring_area;
                // Contention counts every same-group device network-wide
                // (the model's overlap term has no distance factor), so
                // far load is the full duty mass, not an annulus integral.
                ambient.load[grp] += duty * far_count;
                let far_interf = lambda_far * mean_p * q_i;
                let far_lambda = lambda_far * duty * field.kernels[grp];
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
    /// the annulus, the SF sensitivity and the mean power, not on the
    /// cell. In `Pricing` mode the mean power is per SF (matching
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
                    let q = self
                        .pricer
                        .occupancy_kernel(self.sens_mw[sf.index()], sf_power / sf_count);
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
                        );
                    }
                }
            }
        }
        kernels
    }

    /// The cell pass: builds `cell`'s model — its members and gateway
    /// subset, the attenuation rows of its tile and its ambient under
    /// `alloc` priced by `field` — and hands `job` the cell's
    /// [`AllocationContext`] and its members' configurations under
    /// `alloc`, in member order. The model lives only for the job.
    fn in_cell<T>(
        &self,
        cell: usize,
        alloc: &[TxConfig],
        field: &Field,
        job: impl FnOnce(&AllocationContext<'_>, Vec<TxConfig>) -> Result<T, AllocError>,
    ) -> Result<T, AllocError> {
        let ambient = self.ambient_for(cell, alloc, field);
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
        let ctx = AllocationContext::new(self.config, &local_topo, &model);
        job(&ctx, members.iter().map(|&id| alloc[id as usize]).collect())
    }

    /// Runs the cell pass over `cells` on the fan-out workers; `job` also
    /// receives the cell. Results come back in `cells` order, and the
    /// first failing cell's error is returned.
    fn each_cell<T: Send>(
        &self,
        cells: &[usize],
        alloc: &[TxConfig],
        field: &Field,
        job: impl Fn(usize, &AllocationContext<'_>, Vec<TxConfig>) -> Result<T, AllocError> + Sync,
    ) -> Result<Vec<T>, AllocError> {
        lora_parallel::par_map_indexed(cells.len(), self.threads, |idx| {
            let cell = cells[idx];
            self.in_cell(cell, alloc, field, |ctx, local| job(cell, ctx, local))
        })
        .into_iter()
        .collect()
    }

    /// Writes each cell's allocation — its members' configurations in
    /// member order, with the candidates it examined and the devices it
    /// moved — back into `alloc` in `cells` order. Returns the summed
    /// `(candidates, moved)`.
    fn scatter(
        &self,
        cells: &[usize],
        results: Vec<(Allocation, u64, usize)>,
        alloc: &mut [TxConfig],
    ) -> (u64, usize) {
        let mut totals = (0, 0);
        for (&cell, (cell_alloc, candidates, moved)) in cells.iter().zip(results) {
            for (&id, &cfg) in self.grid.members(cell).iter().zip(cell_alloc.as_slice()) {
                alloc[id as usize] = cfg;
            }
            totals.0 += candidates;
            totals.1 += moved;
        }
        totals
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
    /// against an [`FarFieldMode::Exact`] ambient. The round prices its
    /// starting allocation once; the ring-exact sums and the field's
    /// transmit powers see every earlier move of the round through
    /// `trial`, while the tally and kernels stay at the round's start.
    /// Because the moves are sequential there is no frozen shared field
    /// to herd against. A round is accepted only when it improves the
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
        let mut best = objective(ee);
        for _ in 0..TAIL_ROUNDS {
            let mut order: Vec<usize> = (0..alloc.len()).collect();
            order.sort_by(|&a, &b| ee[a].total_cmp(&ee[b]).then(a.cmp(&b)));
            order.truncate(TAIL_BATCH);

            let mut trial = alloc.to_vec();
            let mut field = self.field(&trial, FarFieldMode::Exact);
            let mut moved = 0usize;
            for dev in order {
                // Repairing one slot moves at most that device.
                let slot = self.grid.slot_of(dev);
                let outcome =
                    self.in_cell(self.grid.cell_of(dev), &trial, &field, |ctx, local| {
                        repairer.repair(&mut ctx.model().state(local)?, ctx.candidates(), &[slot])
                    })?;
                candidates += outcome.candidates_evaluated;
                if outcome.reconfigured > 0 {
                    moved += outcome.reconfigured;
                    trial[dev] = outcome.allocation[slot];
                    field.power_mw[dev] = trial[dev].tp.milliwatts();
                }
            }
            if moved == 0 {
                break;
            }
            let trial_ee = self.evaluate(&trial)?;
            let trial_best = objective(&trial_ee);
            if trial_best > best {
                alloc.copy_from_slice(&trial);
                *ee = trial_ee;
                best = trial_best;
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
        let field = self.field(alloc, FarFieldMode::Exact);
        let per_cell = self.each_cell(&self.occupied, alloc, &field, |_, ctx, local| {
            Ok(ctx.model().state(local)?.ee_all().to_vec())
        })?;
        let mut ee = vec![0.0; alloc.len()];
        for (&cell, cell_ee) in self.occupied.iter().zip(per_cell) {
            for (&id, value) in self.grid.members(cell).iter().zip(cell_ee) {
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

/// The lexicographic objective the stitch and tail guards compare:
/// `(min, mean)` EE.
fn objective(ee: &[f64]) -> (f64, f64) {
    (fairness::min_ee(ee), fairness::mean(ee))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::{any, proptest, ProptestConfig, Strategy as _};

    /// The ring sums as they were computed before the tiles were read:
    /// every ring member's attenuation and transmit power recomputed from
    /// its site and configuration. The oracle for [`Shards::ambient_for`].
    fn recomputed_ambient(
        shards: &Shards<'_>,
        cell: usize,
        alloc: &[TxConfig],
        field: &Field,
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
        shards.price_far_field(&mut ambient, &near_count, &near_power, field);
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
        for mode in [FarFieldMode::Pricing, FarFieldMode::Exact] {
            let field = shards.field(&alloc, mode);
            for &cell in &shards.occupied {
                let got = shards.ambient_for(cell, &alloc, &field);
                let want = recomputed_ambient(&shards, cell, &alloc, &field);
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
