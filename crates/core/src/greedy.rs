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
//! ## Candidate evaluation
//!
//! A candidate is scored by its predicted network minimum `min` (from
//! [`ModelState::min_ee_if_scanned`], which touches only the two
//! contention groups a move affects) and the mover's own EE `own`
//! (from [`ModelState::ee_if`]). With `M` and `O` the network minimum
//! and the device's own EE before the scan, and the tie slack
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
//! The exact evaluation runs behind a rising floor that abandons a
//! candidate as soon as one component EE falls to it, and most
//! candidates never reach it: upper bounds that never fall below the
//! exact values prove they cannot change the result. The
//! untouched-groups cap `ub` ([`ModelState::untouched_groups_min`], O(1)
//! from the per-scan [`lora_model::ScanCache`]) is one of the min
//! components of the exact evaluation, so `min ≤ ub`. The plateau
//! test's `own` goes through [`ModelState::own_ee_clearing`], which
//! tries three values, cheapest first: the energy ceiling (O(1)); the
//! own EE at the easiest contention any channel of the candidate's SF
//! offers, which caps `own` on every channel of that SF and is
//! computed once per (SF, TP level) per chunk; and only then the exact
//! `own`. The chunk's (SF, TP) table ([`lora_model::OwnEeBounds`]) also
//! holds the power and cycle energy of every exact `own` it computes,
//! the improvers' included. Writing `I` and `P` for the best improver and
//! plateau move found so far, a candidate is skipped when
//!
//! 1. `ub ≤ floor` — the exact evaluation would return nothing;
//! 2. `ub ≤ M + s`, so it cannot be an improver, and either `I` exists
//!    or the first of its energy ceiling, its (SF, TP) bound and its
//!    exact `own` that fails is `≤ O + s` or `< P.own` — it cannot
//!    become the plateau move;
//! 3. `ub > M + s`, `I` exists and `ub < I.min` — it cannot beat `I`.
//!
//! Skipped candidates still count as evaluated.
//!
//! The grid is ordered SF → channel → TP, so each SF is a contiguous
//! block of `channels × n_tp` candidates, and the rules are decided per
//! block and per (SF, TP) column rather than per candidate
//! (`crate::sf_blocks`). `ub` depends on the candidate's channel but not
//! its TP level, so it is computed once per channel of a block. The
//! energy ceiling and the (SF, TP) bound depend on the TP level but not
//! the channel, so whether both already fail rule 2's plateau bar is a
//! verdict per TP column, decided the first time a candidate of the
//! column needs it. A candidate whose column fails is skipped without
//! touching [`ModelState`]; one whose column passes goes on to the exact
//! `own`. The bar depends on `O` and `P`, so the verdicts are forgotten
//! whenever `P` changes; once `I` exists, rule 2 skips every candidate
//! whatever its column. A whole block is skipped when its largest `ub`
//! is `≤ floor`, when `I` exists and its largest `ub` is `< I.min`, or
//! when its largest `ub` is `≤ M + s` and every column fails: each time,
//! the per-candidate rules would skip every candidate of the block.
//!
//! ## Parallel candidate scan
//!
//! The step-3 scan is read-only against [`ModelState`], so
//! [`EfLora::with_threads`] partitions the (SF, channel, TP) grid into
//! contiguous chunks scanned by scoped worker threads. The grid is the
//! same for every device of an allocation; it includes the device's
//! current configuration, which the chunk holding it skips. Determinism
//! is preserved by selecting winners with the exact total order above
//! instead of scan-order-dependent banded comparisons.
//!
//! Each chunk keeps its own pruning floor, raised only on strict-improver
//! finds, its own `I` and `P` for the skip rules, its own (SF, TP) table
//! ([`lora_model::OwnEeBounds`]) and its own column verdicts. The table
//! holds values, not verdicts, so which chunk computed one changes no
//! skip; the verdicts depend on the chunk's own `P`. A candidate the
//! floor or a rule drops could never have become the chunk's improver,
//! so every chunk's improver is the exact best improver of its range.
//! The floor and the rules that consult `I` can change a chunk's plateau
//! move only once that chunk holds an improver — and the merge then
//! commits an improver. When no chunk finds an improver, no floor ever
//! rose and no rule consulted `I`, so every chunk's plateau move is the
//! exact best plateau move of its range.
//!
//! A chunk that starts or ends inside an SF block decides the block
//! rules on the whole block, every channel's `ub` and every column's
//! verdict, but counts and scans only its own share. The whole block's
//! caps and verdicts are a stricter condition than its share's: when
//! they skip the block, the per-candidate rules would skip every
//! candidate of the share too. So the block rules change no chunk's
//! result, and none of this depends on where the chunk boundaries fall:
//! the merged move is a pure function of the model state, byte-identical
//! for every thread count and partition, and committed moves stay
//! sequential so the pass semantics are unchanged.

use std::borrow::Cow;

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

use lora_model::{ModelState, OwnEeBounds, ScanCache};
use lora_phy::{SpreadingFactor, TxConfig, TxPowerDbm};

use crate::allocation::Allocation;
use crate::context::AllocationContext;
use crate::density::{default_neighbor_radius, density_first_order};
use crate::error::AllocError;
use crate::sf_blocks::{ColumnVerdicts, SfBlocks};
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

    /// The convergence threshold `δ`.
    pub fn delta(&self) -> f64 {
        self.delta
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
            Some(tp) => Cow::Owned(candidate_grid(ctx, &[tp])),
            None => Cow::Borrowed(ctx.candidates()),
        };
        let channels = ctx.channel_count();
        let order = self.visiting_order(ctx);
        let initial = self.initial_allocation(ctx);
        let mut state: ModelState<'_> = ctx.model().state(initial)?;
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
                let scan = scan_device(&state, &grid, channels, device, self.threads);
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

/// A surviving candidate: predicted network minimum, the mover's own EE,
/// its index in canonical grid order, and the configuration itself.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    min: f64,
    own: f64,
    idx: usize,
    cfg: TxConfig,
}

/// One chunk's (or the whole grid's) scan outcome.
#[derive(Debug, Clone, Copy, Default)]
struct DeviceScan {
    /// Best strict improver — exact max of `(min, own)`, earliest idx.
    improver: Option<Candidate>,
    /// Best plateau move — exact max of `(own, min)`, earliest idx.
    plateau: Option<Candidate>,
    /// Candidates examined (identity configuration excluded).
    evaluated: u64,
}

impl DeviceScan {
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

/// The canonical candidate grid over `tp_levels`: SF ascending, then
/// channel, then TP in `tp_levels`' order. Chunk boundaries and
/// tie-breaking are defined over this order; scans skip the device's
/// current configuration themselves.
fn candidate_grid(ctx: &AllocationContext<'_>, tp_levels: &[TxPowerDbm]) -> Vec<TxConfig> {
    let mut grid = Vec::with_capacity(6 * ctx.channel_count() * tp_levels.len());
    for sf in SpreadingFactor::ALL {
        for channel in 0..ctx.channel_count() {
            for &tp in tp_levels {
                grid.push(TxConfig::new(sf, tp, channel));
            }
        }
    }
    grid
}

/// The scanned device's standing before the scan: the network minimum,
/// its own EE, and the comparison slack — shared read-only by every
/// chunk so all workers prune against the same incumbent.
#[derive(Debug, Clone, Copy)]
struct Incumbent {
    min: f64,
    own: f64,
    tie_slack: f64,
}

impl Incumbent {
    /// Rule 2's test on a candidate's own EE: above the device's own EE
    /// before the scan, and not below that of `plateau`, the best plateau
    /// move so far. Like every test [`ModelState::own_ee_clearing`]
    /// takes, it can only turn true as its argument rises.
    fn plateau_bar(self, plateau: Option<Candidate>) -> impl Fn(f64) -> bool + Copy {
        let plateau_own = plateau.map(|p| p.own);
        move |ee| ee > self.own + self.tie_slack && plateau_own.is_none_or(|own| ee >= own)
    }
}

/// Scans `grid[range]`, except the device's `current` configuration,
/// with a chunk-local pruning floor. The floor starts at the global
/// eligibility bound and rises only when a strict improver is found.
/// Candidates the bounds prove unable to change the chunk's improver, or
/// its plateau while it has no improver, skip the exact evaluation, one
/// SF block or one (SF, TP) column at a time where the rules allow; see
/// the module docs for why this keeps the merged result
/// partition-invariant.
fn scan_chunk(
    state: &ModelState<'_>,
    cache: &ScanCache,
    grid: &[TxConfig],
    channels: usize,
    range: std::ops::Range<usize>,
    current: TxConfig,
    incumbent: Incumbent,
) -> DeviceScan {
    let Incumbent {
        min: current_min,
        tie_slack,
        ..
    } = incumbent;
    let mut scan = DeviceScan::default();
    let mut floor = current_min - tie_slack;
    let mut own_bounds = OwnEeBounds::new(cache);
    let mut blocks = SfBlocks::new(grid, channels, current);
    let mut verdicts = ColumnVerdicts::new(blocks.tp_levels());
    let mut next = range.start;
    while next < range.end {
        let (block, max_cap) = blocks.enter(state, cache, next, range.end);
        next = block.end;
        verdicts.forget();
        // The rules below skip every candidate of the block when its
        // largest cap and all its columns say so. They hold for the whole
        // block, so for the chunk's share of it too.
        let clears = incumbent.plateau_bar(scan.plateau);
        if max_cap <= floor
            || scan.improver.is_some_and(|b| max_cap < b.min)
            || (max_cap <= current_min + tie_slack
                && verdicts.all_fail(|column| {
                    state.own_ee_may_clear(&mut own_bounds, blocks.column(column), clears)
                }))
        {
            scan.evaluated += blocks.count(block);
            continue;
        }
        for (idx, cap, column) in blocks.candidates(block) {
            scan.evaluated += 1;
            // The skip rules of the module docs. The exact minimum never
            // exceeds the untouched groups' minimum, `cap`; rule 1:
            if cap <= floor {
                continue;
            }
            let cfg = grid[idx];
            let own = if cap <= current_min + tie_slack {
                // Rule 2, not an improver: only a plateau move of a chunk
                // without an improver still matters, and only if its own
                // EE can reach the plateau bar, which its column's bounds
                // decide first.
                if scan.improver.is_some() {
                    continue;
                }
                let clears = incumbent.plateau_bar(scan.plateau);
                if !verdicts.clears(column, || {
                    state.own_ee_may_clear(&mut own_bounds, cfg, clears)
                }) {
                    continue;
                }
                let Some(own) = state.own_ee_clearing(&mut own_bounds, cfg, clears) else {
                    continue;
                };
                own
            } else if scan.improver.is_some_and(|b| cap < b.min) {
                // Rule 3: cannot beat the chunk's improver.
                continue;
            } else {
                state.own_ee(&mut own_bounds, cfg)
            };
            let Some(min) = state.min_ee_if_scanned(cache, cfg, own, floor) else {
                continue;
            };
            let candidate = Candidate { min, own, idx, cfg };
            if min > current_min + tie_slack {
                let better = match scan.improver {
                    None => true,
                    Some(b) => min > b.min || (min == b.min && own > b.own),
                };
                if better {
                    scan.improver = Some(candidate);
                    floor = min - tie_slack;
                }
            } else if min >= current_min - tie_slack && own > incumbent.own + tie_slack {
                let better = match scan.plateau {
                    None => true,
                    Some(b) => own > b.own || (own == b.own && min > b.min),
                };
                if better {
                    // The plateau bar rose.
                    scan.plateau = Some(candidate);
                    verdicts.forget();
                }
            }
        }
    }
    scan
}

/// Full candidate scan of `grid`, canonical over `channels` channels,
/// for one device, fanned out over `threads` workers when the grid is
/// large enough to amortise the spawns.
fn scan_device(
    state: &ModelState<'_>,
    grid: &[TxConfig],
    channels: usize,
    device: usize,
    threads: usize,
) -> DeviceScan {
    let current_min = state.min_ee();
    let current_own = state.ee(device);
    let current = state.alloc()[device];
    let incumbent = Incumbent {
        min: current_min,
        own: current_own,
        tie_slack: (current_min.abs() * 1e-9).max(1e-15),
    };
    // The allocation is fixed for the whole scan, so the per-device
    // scratch can be shared read-only across the workers.
    let cache = state.prepare_scan(device);
    let chunk = |range| scan_chunk(state, &cache, grid, channels, range, current, incumbent);

    // Below ~8 candidates per worker, spawn overhead dwarfs the scan.
    let threads = threads.clamp(1, (grid.len() / 8).max(1));
    if threads <= 1 {
        return chunk(0..grid.len());
    }
    let ranges = lora_parallel::chunk_ranges(grid.len(), threads);
    let chunks =
        lora_parallel::par_map_indexed(ranges.len(), threads, |c| chunk(ranges[c].clone()));
    let mut merged = DeviceScan::default();
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
    use proptest::prelude::{any, prop_assert_eq, proptest, ProptestConfig};
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
        state: &ModelState<'_>,
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
            let grid = candidate_grid(&ctx, &tp_levels);
            for _pass in 0..3 {
                for device in 0..n {
                    let (want, scored) =
                        oracle_scan(&state, ctx.channel_count(), device, &tp_levels);
                    // 4 and 7 workers cut chunks that end inside SF blocks.
                    for threads in [1usize, 2, 3, 4, 7] {
                        let got = scan_device(&state, &grid, ctx.channel_count(), device, threads);
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
