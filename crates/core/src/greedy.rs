//! EF-LoRa's greedy max-min allocator (paper Algorithm 1).
//!
//! The exact problem is NP-complete (paper Section III-C reduces it to
//! max-min SNR power allocation, itself reducible to Partition), and the
//! search space is `(n_c·n_s·n_t)^N`. Algorithm 1 instead iterates:
//!
//! 1. build an initial allocation (smallest feasible SF, maximum power,
//!    channels striped);
//! 2. visit devices densest-first (Section III-D: dense devices constrain
//!    the most neighbours, and the paper measures ~10 % faster convergence
//!    than a random visiting order);
//! 3. for each device, scan every (SF, TP, channel) candidate with all
//!    other devices frozen, and commit the candidate that maximises the
//!    *network minimum* energy efficiency;
//! 4. repeat passes until a pass improves the minimum EE by at most `δ`
//!    (paper default 0.01 bits/mJ).
//!
//! ## Acceptance rule
//!
//! Each device's scan is one walk of [`lora_model::scan`], which applies
//! the exact skip rules; this module supplies only the acceptance rule. A
//! candidate is scored by its predicted network minimum `min` and the
//! mover's own EE `own`. With `M` and `O` the network minimum and the
//! device's own EE before the scan, and the tie slack
//! `s = max(|M|·10⁻⁹, 10⁻¹⁵)`:
//!
//! * a **strict improver** has `min > M + s`; among improvers the winner
//!   maximises `(min, own)` lexicographically under exact `f64`
//!   comparison, ties broken by the earliest candidate in canonical grid
//!   order (SF ascending, then channel, then TP);
//! * a **plateau move** keeps the minimum within the tie slack,
//!   `M − s < min ≤ M + s`, while raising the mover's own EE,
//!   `own > O + s`; among plateau moves the winner maximises
//!   `(own, min)`, same tie-break;
//! * any strict improver beats every plateau move.
//!
//! As a [`Rule`], with `I` and `P` the best improver and plateau move so
//! far: the floor is `M − s`, raised to `I.min − s` with each improver
//! taken; a cap triages as `Skip` at or below the floor or, once `I`
//! exists, below `I.min`, as `OwnBar` up to `M + s` (only a plateau move
//! is possible) and as `Exact` above; and the bar clears an `own` above
//! `O + s` and not below `P.own`. Since `I.min > M + s`, the triage never
//! returns `OwnBar` once `I` exists. All three change only when an offer
//! is taken.
//!
//! ## Parallel candidate scan
//!
//! The step-3 scan is read-only against [`ModelState`], so
//! [`EfLora::with_threads`] partitions the (SF, channel, TP) grid into
//! contiguous chunks that scoped worker threads walk over one shared
//! [`lora_model::scan::Scan`], each chunk with its own copy of the rule.
//! The grid is the same for every device of an allocation; it includes
//! the device's current configuration, which the chunk holding it skips.
//! Determinism is preserved by selecting winners with the exact total
//! order above instead of scan-order-dependent banded comparisons.
//!
//! Each chunk's rule keeps its own floor, raised only on strict-improver
//! finds, and its own `I` and `P`. A candidate the floor or a skip drops
//! could never have become the chunk's improver, so every chunk's improver
//! is the exact best improver of its range. The floor and the skips that
//! consult `I` can change a chunk's plateau move only once that chunk
//! holds an improver — and the merge then commits an improver. When no
//! chunk finds an improver, no floor ever rose and no triage consulted
//! `I`, so every chunk's plateau move is the exact best plateau move of
//! its range. The walk's block skips are exact for any range, including
//! one that splits an SF block, so none of this depends on where the
//! chunk boundaries fall: the merged move is a pure function of the model
//! state, byte-identical for every thread count and partition, and
//! committed moves stay sequential so the pass semantics are unchanged.

use std::borrow::Cow;

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

use lora_model::scan::{Candidate, Rule, Triage};
use lora_model::{ModelState, NetworkModel};
use lora_phy::{SpreadingFactor, TxConfig, TxPowerDbm};

use crate::allocation::Allocation;
use crate::context::{candidate_grid, AllocationContext};
use crate::density::{default_neighbor_radius, density_first_order};
use crate::error::AllocError;
use crate::strategy::Strategy;

/// The order in which the greedy pass visits devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeviceOrdering {
    /// Densest-first (the paper's choice).
    #[default]
    DensityFirst,
    /// A seeded random permutation — the paper's Section III-D baseline
    /// for the ordering ablation.
    Random {
        /// Shuffle seed.
        seed: u64,
    },
    /// Plain index order.
    Index,
}

/// The EF-LoRa greedy allocator.
///
/// ```
/// use ef_lora::{AllocationContext, EfLora, Strategy};
/// # use lora_model::NetworkModel;
/// # use lora_sim::{SimConfig, Topology};
/// # fn main() -> Result<(), ef_lora::AllocError> {
/// # let config = SimConfig::default();
/// # let topo = Topology::disc(25, 1, 3_000.0, &config, 5);
/// # let model = NetworkModel::new(&config, &topo);
/// let ctx = AllocationContext::new(&config, &topo, &model);
/// let report = EfLora::default().allocate_with_report(&ctx)?;
/// assert!(report.final_min_ee >= report.initial_min_ee);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EfLora {
    delta: f64,
    max_passes: usize,
    ordering: DeviceOrdering,
    fixed_tp: Option<TxPowerDbm>,
    threads: usize,
}

impl Default for EfLora {
    /// δ = 0.01 (the paper's trigger parameter), density-first ordering,
    /// full TP allocation, at most 16 passes, single-threaded scan.
    fn default() -> Self {
        EfLora {
            delta: 0.01,
            max_passes: 16,
            ordering: DeviceOrdering::DensityFirst,
            fixed_tp: None,
            threads: 1,
        }
    }
}

impl EfLora {
    /// Creates the allocator with defaults (see [`EfLora::default`]).
    pub fn new() -> Self {
        EfLora::default()
    }

    /// Sets the convergence threshold `δ` in bits/mJ.
    #[must_use]
    pub fn with_delta(mut self, delta: f64) -> Self {
        self.delta = delta;
        self
    }

    /// Caps the number of improvement passes.
    #[must_use]
    pub fn with_max_passes(mut self, passes: usize) -> Self {
        self.max_passes = passes;
        self
    }

    /// Sets the device visiting order.
    #[must_use]
    pub fn with_ordering(mut self, ordering: DeviceOrdering) -> Self {
        self.ordering = ordering;
        self
    }

    /// Pins every device's transmission power (the paper's
    /// "EF-LoRa-14dBm" ablation of Fig. 9 uses 14 dBm).
    #[must_use]
    pub fn with_fixed_tp(mut self, tp: TxPowerDbm) -> Self {
        self.fixed_tp = Some(tp);
        self
    }

    /// Sets the worker-thread count for the candidate scan. `0` means
    /// "the host's available parallelism". The allocation is byte-
    /// identical for every thread count (see the module docs); this knob
    /// trades spawn overhead for scan throughput only.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = if threads == 0 {
            lora_parallel::available_threads()
        } else {
            threads
        };
        self
    }

    /// The configured candidate-scan thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The configured device visiting order.
    pub fn ordering(&self) -> DeviceOrdering {
        self.ordering
    }

    /// The pinned transmission power, if any.
    pub fn fixed_tp(&self) -> Option<TxPowerDbm> {
        self.fixed_tp
    }

    /// The initial allocation: smallest feasible SF at maximum power
    /// (devices out of range even at SF12 get SF12), channels striped
    /// round-robin so no channel starts overloaded.
    fn initial_allocation(&self, ctx: &AllocationContext<'_>) -> Vec<TxConfig> {
        let max_tp = ctx.max_tp();
        let tp = self.fixed_tp.unwrap_or(max_tp);
        let channels = ctx.channel_count();
        (0..ctx.device_count())
            .map(|i| {
                let sf = ctx
                    .model()
                    .min_feasible_sf(i, max_tp)
                    .unwrap_or(SpreadingFactor::Sf12);
                TxConfig::new(sf, tp, i % channels)
            })
            .collect()
    }

    fn visiting_order(&self, ctx: &AllocationContext<'_>) -> Vec<usize> {
        match self.ordering {
            DeviceOrdering::DensityFirst => {
                let radius = default_neighbor_radius(ctx.topology());
                density_first_order(ctx.topology(), radius)
            }
            DeviceOrdering::Random { seed } => {
                let mut order: Vec<usize> = (0..ctx.device_count()).collect();
                order.shuffle(&mut ChaCha12Rng::seed_from_u64(seed));
                order
            }
            DeviceOrdering::Index => (0..ctx.device_count()).collect(),
        }
    }

    /// Runs Algorithm 1 and reports convergence statistics alongside the
    /// allocation.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] for empty deployments.
    pub fn allocate_with_report(
        &self,
        ctx: &AllocationContext<'_>,
    ) -> Result<GreedyReport, AllocError> {
        ctx.check_nonempty()?;
        if self.delta < 0.0 || !self.delta.is_finite() {
            return Err(AllocError::InvalidParameter {
                reason: "delta must be non-negative",
            });
        }

        let grid = match self.fixed_tp {
            Some(tp) => Cow::Owned(candidate_grid(ctx.channel_count(), &[tp])),
            None => Cow::Borrowed(ctx.candidates()),
        };
        let order = self.visiting_order(ctx);
        let initial = self.initial_allocation(ctx);
        let mut state: ModelState<&NetworkModel> = ctx.model().state(initial)?;
        let initial_min_ee = state.min_ee();

        // Λ and θ follow every committed move, but until `refresh` the
        // cached EE of devices in untouched groups goes stale and the
        // incrementally updated Λ carries rounding (see lora-model docs),
        // so the post-refresh objective of a pass can occasionally dip
        // below an earlier pass; keep the best refreshed allocation ever
        // seen.
        let mut best_alloc = state.alloc().to_vec();
        let mut best_ee = initial_min_ee;

        let mut passes = 0;
        let mut moves_applied = 0usize;
        let mut candidates_evaluated = 0u64;
        // Number of consecutive passes whose *minimum-EE* gain stayed at
        // or below δ. One such pass is allowed — the lexicographic
        // tie-breaking may spend a pass lifting a plateau of simultaneous
        // bottlenecks before the minimum moves — but two in a row means
        // the max-min objective has converged.
        let mut stale_passes = 0usize;
        loop {
            let pass_start_ee = state.min_ee();
            // δ-convergence over the *lexicographic* objective: the network
            // minimum, tie-broken by the moved device's own EE. Pure
            // strict-minimum acceptance deadlocks when several devices sit
            // on the minimum simultaneously (improving one leaves the
            // minimum pinned at the others), so equal-minimum moves that
            // raise the mover's own EE are accepted too; the minimum then
            // jumps once the last bottleneck is lifted.
            passes += 1;
            let mut moves_this_pass = 0usize;
            for &device in &order {
                let scan = scan_device(&state, &grid, device, self.threads);
                candidates_evaluated += scan.evaluated;
                if let Some(choice) = scan.winner() {
                    state.apply(device, choice.cfg);
                    moves_applied += 1;
                    moves_this_pass += 1;
                }
            }
            state.refresh();
            let ee = state.min_ee();
            if ee > best_ee {
                best_ee = ee;
                best_alloc = state.alloc().to_vec();
            }
            if ee - pass_start_ee <= self.delta {
                stale_passes += 1;
            } else {
                stale_passes = 0;
            }
            if moves_this_pass == 0 || stale_passes >= 2 || passes >= self.max_passes {
                return Ok(GreedyReport {
                    allocation: Allocation::new(best_alloc),
                    passes,
                    initial_min_ee,
                    final_min_ee: best_ee,
                    moves_applied,
                    candidates_evaluated,
                });
            }
        }
    }
}

/// The tie slack `s = max(|M|·10⁻⁹, 10⁻¹⁵)` of a scan that starts at
/// network minimum `min`: the band within which both scans' acceptance
/// rules treat two minima as tied.
pub(crate) fn tie_slack(min: f64) -> f64 {
    (min.abs() * 1e-9).max(1e-15)
}

/// The dense acceptance rule of one chunk (or the whole grid), and what it
/// found: the module docs' rule and total order.
#[derive(Debug, Clone, Copy)]
struct DeviceScan {
    /// The network minimum `M` before the scan.
    min: f64,
    /// The scanned device's own EE `O` before the scan.
    own: f64,
    /// The tie slack `s`.
    tie_slack: f64,
    /// The chunk's pruning floor, raised only when an improver is taken.
    floor: f64,
    /// Best strict improver — exact max of `(min, own)`, earliest idx.
    improver: Option<Candidate>,
    /// Best plateau move — exact max of `(own, min)`, earliest idx.
    plateau: Option<Candidate>,
    /// Candidates examined (identity configuration excluded).
    evaluated: u64,
}

impl DeviceScan {
    /// The rule before a scan that starts at network minimum `min` and
    /// the device's own EE `own`: nothing found, the floor at `M − s`.
    fn new(min: f64, own: f64) -> Self {
        let tie_slack = tie_slack(min);
        DeviceScan {
            min,
            own,
            tie_slack,
            floor: min - tie_slack,
            improver: None,
            plateau: None,
            evaluated: 0,
        }
    }

    /// The move to commit: any strict improver beats every plateau move.
    fn winner(&self) -> Option<Candidate> {
        self.improver.or(self.plateau)
    }

    /// Folds another chunk's result in. The explicit lowest-`idx`
    /// tie-break makes the merge independent of chunk arrival order.
    fn merge(&mut self, other: DeviceScan) {
        self.evaluated += other.evaluated;
        if let Some(c) = other.improver {
            let better = match self.improver {
                None => true,
                Some(b) => {
                    c.min > b.min
                        || (c.min == b.min && (c.own > b.own || (c.own == b.own && c.idx < b.idx)))
                }
            };
            if better {
                self.improver = Some(c);
            }
        }
        if let Some(c) = other.plateau {
            let better = match self.plateau {
                None => true,
                Some(b) => {
                    c.own > b.own
                        || (c.own == b.own && (c.min > b.min || (c.min == b.min && c.idx < b.idx)))
                }
            };
            if better {
                self.plateau = Some(c);
            }
        }
    }
}

impl Rule for DeviceScan {
    fn floor(&self) -> f64 {
        self.floor
    }

    fn triage(&self, cap: f64) -> Triage {
        if cap <= self.floor || self.improver.is_some_and(|b| cap < b.min) {
            Triage::Skip
        } else if cap <= self.min + self.tie_slack {
            Triage::OwnBar
        } else {
            Triage::Exact
        }
    }

    fn clears(&self, own: f64) -> bool {
        own > self.own + self.tie_slack && self.plateau.is_none_or(|p| own >= p.own)
    }

    fn offer(&mut self, c: Candidate) -> bool {
        if c.min > self.min + self.tie_slack {
            let better = self
                .improver
                .is_none_or(|b| c.min > b.min || (c.min == b.min && c.own > b.own));
            if better {
                self.improver = Some(c);
                self.floor = c.min - self.tie_slack;
            }
            better
        } else if c.min >= self.min - self.tie_slack && c.own > self.own + self.tie_slack {
            let better = self
                .plateau
                .is_none_or(|b| c.own > b.own || (c.own == b.own && c.min > b.min));
            if better {
                self.plateau = Some(c);
            }
            better
        } else {
            false
        }
    }
}

/// Full candidate scan of `grid`, in canonical order, for one device,
/// fanned out over `threads` workers when the grid is large enough to
/// amortise the spawns. Every chunk walks one shared scan with a fresh
/// copy of the starting rule.
fn scan_device(
    state: &ModelState<&NetworkModel>,
    grid: &[TxConfig],
    device: usize,
    threads: usize,
) -> DeviceScan {
    let start = DeviceScan::new(state.min_ee(), state.ee(device));
    let scan = state.prepare_scan(device);
    let chunk = |range| {
        let mut rule = start;
        rule.evaluated = scan.walk(grid, range, &mut rule);
        rule
    };

    // Below ~8 candidates per worker, spawn overhead dwarfs the scan.
    let threads = threads.clamp(1, (grid.len() / 8).max(1));
    if threads <= 1 {
        return chunk(0..grid.len());
    }
    let ranges = lora_parallel::chunk_ranges(grid.len(), threads);
    let chunks =
        lora_parallel::par_map_indexed(ranges.len(), threads, |c| chunk(ranges[c].clone()));
    let mut merged = start;
    for chunk in chunks {
        merged.merge(chunk);
    }
    merged
}

impl Strategy for EfLora {
    fn name(&self) -> &str {
        if self.fixed_tp.is_some() {
            "EF-LoRa-fixedTP"
        } else {
            "EF-LoRa"
        }
    }

    fn allocate(&self, ctx: &AllocationContext<'_>) -> Result<Allocation, AllocError> {
        Ok(self.allocate_with_report(ctx)?.allocation)
    }
}

/// Convergence statistics of one [`EfLora`] run (used by the Fig. 10
/// experiment and the ordering ablation).
#[derive(Debug, Clone, PartialEq)]
pub struct GreedyReport {
    /// The final allocation.
    pub allocation: Allocation,
    /// Improvement passes executed (incl. the final non-improving one).
    pub passes: usize,
    /// Network minimum EE of the initial allocation, bits/mJ.
    pub initial_min_ee: f64,
    /// Network minimum EE after convergence, bits/mJ.
    pub final_min_ee: f64,
    /// Committed single-device moves.
    pub moves_applied: usize,
    /// Candidate configurations examined (post-identity-skip).
    pub candidates_evaluated: u64,
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use lora_model::NetworkModel;
    use lora_sim::{SimConfig, Topology};
    use proptest::collection::vec;
    use proptest::prelude::{
        any, prop_assert, prop_assert_eq, proptest, ProptestConfig, TestCaseError,
    };
    use rand::Rng;

    fn setup(n: usize, gws: usize, seed: u64) -> (SimConfig, Topology) {
        let config = SimConfig::default();
        let topo = Topology::disc(n, gws, 4_000.0, &config, seed);
        (config, topo)
    }

    #[test]
    fn greedy_never_decreases_min_ee() {
        let (config, topo) = setup(40, 2, 3);
        let model = NetworkModel::new(&config, &topo);
        let ctx = AllocationContext::new(&config, &topo, &model);
        let report = EfLora::default().allocate_with_report(&ctx).unwrap();
        assert!(report.final_min_ee >= report.initial_min_ee);
        assert_eq!(report.allocation.len(), 40);
    }

    #[test]
    fn allocation_respects_constraints() {
        let (config, topo) = setup(30, 2, 7);
        let model = NetworkModel::new(&config, &topo);
        let ctx = AllocationContext::new(&config, &topo, &model);
        let alloc = EfLora::default().allocate(&ctx).unwrap();
        assert!(alloc.satisfies_constraints(2.0, 14.0, 8));
    }

    #[test]
    fn fixed_tp_pins_every_power() {
        let (config, topo) = setup(20, 1, 9);
        let model = NetworkModel::new(&config, &topo);
        let ctx = AllocationContext::new(&config, &topo, &model);
        let alloc = EfLora::default()
            .with_fixed_tp(TxPowerDbm::new(14.0))
            .allocate(&ctx)
            .unwrap();
        assert!(alloc.iter().all(|c| c.tp.dbm() == 14.0));
    }

    #[test]
    fn free_tp_beats_or_matches_fixed_tp() {
        // The Fig. 9 ablation direction: removing power control cannot
        // improve the max-min objective.
        let (config, topo) = setup(50, 2, 21);
        let model = NetworkModel::new(&config, &topo);
        let ctx = AllocationContext::new(&config, &topo, &model);
        let free = EfLora::default().allocate_with_report(&ctx).unwrap();
        let fixed = EfLora::default()
            .with_fixed_tp(TxPowerDbm::new(14.0))
            .allocate_with_report(&ctx)
            .unwrap();
        assert!(
            free.final_min_ee >= fixed.final_min_ee - 1e-9,
            "free {} vs fixed {}",
            free.final_min_ee,
            fixed.final_min_ee
        );
    }

    #[test]
    fn orderings_agree_on_feasibility() {
        let (config, topo) = setup(25, 1, 4);
        let model = NetworkModel::new(&config, &topo);
        let ctx = AllocationContext::new(&config, &topo, &model);
        for ordering in [
            DeviceOrdering::DensityFirst,
            DeviceOrdering::Random { seed: 1 },
            DeviceOrdering::Index,
        ] {
            let report = EfLora::default()
                .with_ordering(ordering)
                .allocate_with_report(&ctx)
                .unwrap();
            assert!(report.allocation.satisfies_constraints(2.0, 14.0, 8));
            assert!(report.final_min_ee >= report.initial_min_ee);
        }
    }

    #[test]
    fn empty_deployment_errors() {
        let (config, topo) = setup(0, 1, 0);
        let model = NetworkModel::new(&config, &topo);
        let ctx = AllocationContext::new(&config, &topo, &model);
        assert_eq!(
            EfLora::default().allocate(&ctx).unwrap_err(),
            AllocError::EmptyDeployment
        );
    }

    #[test]
    fn bad_delta_is_rejected() {
        let (config, topo) = setup(3, 1, 0);
        let model = NetworkModel::new(&config, &topo);
        let ctx = AllocationContext::new(&config, &topo, &model);
        let err = EfLora::default()
            .with_delta(f64::NAN)
            .allocate(&ctx)
            .unwrap_err();
        assert!(matches!(err, AllocError::InvalidParameter { .. }));
    }

    #[test]
    fn max_passes_bounds_work() {
        let (config, topo) = setup(30, 2, 11);
        let model = NetworkModel::new(&config, &topo);
        let ctx = AllocationContext::new(&config, &topo, &model);
        let report = EfLora::default()
            .with_delta(0.0)
            .with_max_passes(2)
            .allocate_with_report(&ctx)
            .unwrap();
        assert!(report.passes <= 2);
    }

    #[test]
    fn candidate_scan_is_thread_invariant() {
        // The tentpole determinism guarantee: the allocator is a pure
        // function of the deployment, byte-identical for every worker
        // count — full reports (allocation, passes, move and candidate
        // counts, exact f64 objectives) must match.
        let (config, topo) = setup(40, 2, 3);
        let model = NetworkModel::new(&config, &topo);
        let ctx = AllocationContext::new(&config, &topo, &model);
        let serial = EfLora::default()
            .with_threads(1)
            .allocate_with_report(&ctx)
            .unwrap();
        for threads in [2usize, 4, 7] {
            let parallel = EfLora::default()
                .with_threads(threads)
                .allocate_with_report(&ctx)
                .unwrap();
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    /// Brute-force reference for [`scan_device`]: scores every candidate
    /// of the canonical grid with the unpruned evaluation and picks the
    /// winner by the module docs' total order, numbering candidates by
    /// their grid position. Returns the winner and the number of
    /// candidates scored.
    fn oracle_scan(
        state: &ModelState<&NetworkModel>,
        channels: usize,
        device: usize,
        tp_levels: &[TxPowerDbm],
    ) -> (Option<Candidate>, u64) {
        let m = state.min_ee();
        let o = state.ee(device);
        let s = (m.abs() * 1e-9).max(1e-15);
        let current = state.alloc()[device];
        let mut improver: Option<Candidate> = None;
        let mut plateau: Option<Candidate> = None;
        let mut idx = 0;
        let mut scored = 0;
        for sf in SpreadingFactor::ALL {
            for channel in 0..channels {
                for &tp in tp_levels {
                    let cfg = TxConfig::new(sf, tp, channel);
                    idx += 1;
                    if cfg == current {
                        continue;
                    }
                    scored += 1;
                    let min = state
                        .min_ee_if(device, cfg, f64::NEG_INFINITY)
                        .expect("no floor prunes nothing");
                    let own = state.ee_if(device, cfg);
                    let c = Candidate {
                        min,
                        own,
                        idx: idx - 1,
                        cfg,
                    };
                    if min > m + s {
                        if improver.is_none_or(|b| (min, own) > (b.min, b.own)) {
                            improver = Some(c);
                        }
                    } else if min > m - s
                        && own > o + s
                        && plateau.is_none_or(|b| (own, min) > (b.own, b.min))
                    {
                        plateau = Some(c);
                    }
                }
            }
        }
        (improver.or(plateau), scored)
    }

    /// `model` under random out-of-scope pressure on every group and
    /// gateway, as a sharded cell solve sees it. Under `heavy` occupancy
    /// each gateway's Λ offset sits near the demodulator budget, where θ
    /// moves with every committed move. The cached EE of untouched groups
    /// then goes stale within a pass, so a move into the group holding a
    /// scan's smallest cap can clear that cap, and the caps of one SF
    /// block decide moves.
    pub(crate) fn with_random_ambient(model: NetworkModel, seed: u64, heavy: bool) -> NetworkModel {
        let mut rng = ChaCha12Rng::seed_from_u64(seed ^ 0xa5);
        let groups = lora_model::contention::group_count(model.channel_count());
        let mut offsets = lora_model::Ambient::zeros(groups, model.gateway_count());
        for v in &mut offsets.power {
            *v = rng.gen_range(0.0..1e-10);
        }
        for v in &mut offsets.load {
            *v = rng.gen_range(0.0..0.05);
        }
        let occupancy = if heavy { 4.0..9.0 } else { 0.0..1.0 };
        for v in &mut offsets.lambda {
            *v = rng.gen_range(occupancy.clone());
        }
        model.with_ambient(offsets)
    }

    /// The bits that make two winners the same move.
    fn key(c: Option<Candidate>) -> Option<(usize, TxConfig, u64, u64)> {
        c.map(|c| (c.idx, c.cfg, c.min.to_bits(), c.own.to_bits()))
    }

    /// `base` moved by `k` quarters of the tie slack `s`.
    fn quarters(base: f64, s: f64, k: i32) -> f64 {
        base + f64::from(k) * s / 4.0
    }

    /// Every value within 4 tie slacks of `base`, a quarter slack apart,
    /// ascending: they fall on both sides of every bar a rule draws around
    /// a network minimum or own EE of `base`.
    pub(crate) fn around(base: f64, s: f64) -> Vec<f64> {
        (-16..=16).map(|k| quarters(base, s, k)).collect()
    }

    /// Candidates whose network minimum and own EE sit the given numbers
    /// of quarter slacks from `m` and `o`, numbered in order.
    pub(crate) fn offers_around(m: f64, o: f64, s: f64, offsets: &[(i32, i32)]) -> Vec<Candidate> {
        offsets
            .iter()
            .enumerate()
            .map(|(idx, &(k, j))| Candidate {
                min: quarters(m, s, k),
                own: quarters(o, s, j),
                idx,
                cfg: TxConfig::default(),
            })
            .collect()
    }

    /// Offers `rule` each of `offers` in turn and checks the [`Rule`]
    /// contract in every state on the way, over the ascending `caps` and
    /// `owns`: the triage never falls as the cap rises, the own-EE bar
    /// never turns false as the own EE rises, and an offer the rule refuses
    /// changes none of its floor, triage and bar.
    pub(crate) fn check_rule_contract<R: Rule>(
        mut rule: R,
        caps: &[f64],
        owns: &[f64],
        offers: &[Candidate],
    ) -> Result<(), TestCaseError> {
        let view = |rule: &R| {
            let triage: Vec<Triage> = caps.iter().map(|&cap| rule.triage(cap)).collect();
            let clears: Vec<bool> = owns.iter().map(|&own| rule.clears(own)).collect();
            (rule.floor().to_bits(), triage, clears)
        };
        let mut seen = view(&rule);
        for step in 0..=offers.len() {
            let (_, triage, clears) = &seen;
            prop_assert!(
                triage.windows(2).all(|w| w[0] <= w[1]),
                "after {} offers the triage falls as the cap rises: {:?}",
                step,
                triage
            );
            prop_assert!(
                clears.windows(2).all(|w| w[0] <= w[1]),
                "after {} offers the bar turns false as the own EE rises: {:?}",
                step,
                clears
            );
            let Some(&candidate) = offers.get(step) else {
                break;
            };
            let taken = rule.offer(candidate);
            let now = view(&rule);
            if !taken {
                prop_assert_eq!(&now, &seen, "refused offer {} changed the rule", step);
            }
            seen = now;
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn pruned_scan_matches_brute_force_oracle(
            n in 2usize..30,
            gws in 1usize..4,
            seed in any::<u64>(),
            fixed_tp in any::<bool>(),
            // None, light or heavy out-of-scope occupancy.
            ambient in 0usize..3,
        ) {
            let (config, topo) = setup(n, gws, seed);
            let mut model = NetworkModel::new(&config, &topo);
            if ambient > 0 {
                model = with_random_ambient(model, seed, ambient == 2);
            }
            let ctx = AllocationContext::new(&config, &topo, &model);
            let tp_levels = if fixed_tp {
                vec![TxPowerDbm::new(14.0)]
            } else {
                ctx.tp_levels().to_vec()
            };
            // Walk Algorithm 1's passes from a random allocation, checking
            // every scan on the way: early scans find improvers, later
            // ones plateau moves or nothing.
            let mut rng = ChaCha12Rng::seed_from_u64(seed);
            let alloc = (0..n)
                .map(|_| {
                    let sf = *SpreadingFactor::ALL.choose(&mut rng).expect("six SFs");
                    let tp = *tp_levels.choose(&mut rng).expect("one TP or more");
                    TxConfig::new(sf, tp, rng.gen_range(0..ctx.channel_count()))
                })
                .collect();
            let mut state = model.state(alloc).unwrap();
            let grid = candidate_grid(ctx.channel_count(), &tp_levels);
            for _pass in 0..3 {
                for device in 0..n {
                    let (want, scored) =
                        oracle_scan(&state, ctx.channel_count(), device, &tp_levels);
                    // 4 and 7 workers cut chunks that end inside SF blocks.
                    for threads in [1usize, 2, 3, 4, 7] {
                        let got = scan_device(&state, &grid, device, threads);
                        let at = format!("device {device} threads {threads}");
                        prop_assert_eq!(got.evaluated, scored, "{}", at);
                        prop_assert_eq!(key(got.winner()), key(want), "{}", at);
                    }
                    if let Some(c) = want {
                        state.apply(device, c.cfg);
                    }
                }
                state.refresh();
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn dense_rule_keeps_the_walk_contract(
            m in 0.0f64..100.0,
            o in 0.0f64..100.0,
            // Minima and own EEs within 3 slacks of `m` and `o`: improvers
            // just past `M + s`, plateau moves, and refused candidates.
            offsets in vec((-12i32..=12, -12i32..=12), 0..16),
        ) {
            let s = tie_slack(m);
            let offers = offers_around(m, o, s, &offsets);
            check_rule_contract(DeviceScan::new(m, o), &around(m, s), &around(o, s), &offers)?;
        }
    }

    #[test]
    fn with_threads_zero_means_available_parallelism() {
        let ef = EfLora::default().with_threads(0);
        assert_eq!(ef.threads(), lora_parallel::available_threads());
        assert_eq!(EfLora::default().threads(), 1);
        assert_eq!(EfLora::default().with_threads(3).threads(), 3);
    }

    #[test]
    fn strategy_name_reflects_ablation() {
        assert_eq!(EfLora::default().name(), "EF-LoRa");
        assert_eq!(
            EfLora::default()
                .with_fixed_tp(TxPowerDbm::new(14.0))
                .name(),
            "EF-LoRa-fixedTP"
        );
    }
}
